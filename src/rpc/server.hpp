#pragma once
// RPC server: the cross-process front door for CompressionService
// (docs/rpc.md). One server owns a u8 and a u16 service instance and is a
// handler set over the framed-connection core (rpc/framed.hpp), which
// runs the accept loop and each connection's reader and in-order writer.
// The server supplies the op switch: compress work is submitted to the
// service from the reader (admission, batching, caching, deadlines and
// the retry/degraded machinery all apply exactly as for in-process
// callers); decompress and stream chunks run in their writer slots. A
// compress slot blocks on the service future — which always resolves (the
// service's resolve-always invariant) — so no slot can leak.
//
// Cancellation: a cancel frame names an earlier request id on the same
// connection. For compress that maps onto svc::RequestHandle::cancel()
// (pending requests die immediately, dispatched ones abandon at the next
// kernel poll point); for decompress onto the per-request CancelToken the
// decode walk polls. Deadlines arrive as relative budgets and are
// re-anchored against the server's injected util::Clock.
//
// Streaming (protocol v3): a *StreamBegin frame opens per-connection
// stream state (bounded by max_streams_per_connection) and answers with
// the server-assigned stream id; each Chunk frame drives the stream's
// core object (StreamingCompressor, or core's PHS2 StreamReader) in its
// writer slot — encode/decode of chunk N overlaps the reader pulling
// chunk N+1 off the wire — and answers with the output produced so far;
// End verifies the whole-stream byte count + stream_checksum and answers
// a StreamSummary. The stream's deadline is anchored once at Begin and
// its CancelToken is registered under the Begin request id, so kCancel
// aborts a stream exactly like a single-frame request. Any stream error
// answers typed on the offending frame and forgets the id; because every
// stream frame still drains exactly one response slot, the existing
// written+dropped == received balance holds unchanged, and streams add
// their own: rpc.streams_opened == rpc.streams_completed +
// rpc.streams_aborted (connection teardown counts still-open streams as
// aborted).
//
// Fault sites (util::FaultInjector): rpc.server.accept, rpc.server.read,
// rpc.server.write, rpc.server.stream_chunk — each models the connection
// (or a chunk's processing) dying at that point; the tests arm them to
// prove every client future still resolves.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "rpc/framed.hpp"
#include "svc/service.hpp"

namespace parhuff::rpc {

struct ServerConfig {
  /// Also sizes the io pool: 1 + 2 * max_connections threads.
  std::size_t max_connections = 8;
  /// Bound on a single request frame's payload.
  u32 max_payload_bytes = kMaxPayloadBytes;
  /// Bound on one v3 stream chunk's payload — the server's per-stream
  /// buffering bound and the unit of transfer/encode overlap. Bigger
  /// chunks answer kBadRequest.
  u32 stream_chunk_bytes = kDefaultStreamChunkBytes;
  /// Open v3 streams one connection may hold at once; a Begin past the
  /// cap answers kQueueFull (also the typed answer a Begin-replay flood
  /// gets, so replays can never accrete unbounded state).
  std::size_t max_streams_per_connection = 4;
  /// Passed through to both CompressionService instances. The embedded
  /// clock (service.clock) also drives the server's deadline re-anchoring
  /// and the io pool's idle park.
  svc::ServiceConfig service;
  /// Server-side pipeline configs per symbol width. Defaults cover the
  /// full symbol range (256 / 65536 bins) because the histogram kernels
  /// trust every symbol to be < nbins — required for untrusted payloads.
  PipelineConfig pipeline8;
  PipelineConfig pipeline16;

  ServerConfig() {
    pipeline8.nbins = 256;
    pipeline16.nbins = 64 * 1024;
  }
};

class RpcServer : private FrameHandler {
 public:
  /// Takes ownership of the listener and starts accepting immediately.
  RpcServer(std::unique_ptr<Listener> listener, ServerConfig cfg = {});
  /// stop(), then joins everything.
  ~RpcServer() override;
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Stop accepting, shut every live connection down, drain the io pool.
  /// Idempotent. In-flight service requests still resolve; their
  /// responses are written when the connection survives long enough,
  /// dropped (rpc.responses_dropped) otherwise.
  void stop() { core_.stop(); }

  /// Live connections right now (tests / introspection).
  [[nodiscard]] std::size_t connection_count() const {
    return core_.connection_count();
  }

  /// Largest per-stream buffered byte count any v3 stream reached since
  /// the server started — the bounded-buffering contract made testable:
  /// it stays a small constant multiple of stream_chunk_bytes no matter
  /// how large the streamed payload is.
  [[nodiscard]] u64 stream_buffer_high_water() const {
    return stream_buffer_high_water_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] svc::CompressionService<u8>& service8() { return *svc8_; }
  [[nodiscard]] svc::CompressionService<u16>& service16() { return *svc16_; }

 private:
  struct ConnState;
  struct StreamState;

  // FrameHandler: the op switch, per-connection state, teardown.
  std::shared_ptr<FramedConn> open_conn() override;
  void on_request(const std::shared_ptr<FramedConn>& c, const Header& h,
                  std::vector<u8> payload) override;
  void on_cancel(FramedConn& c, u64 target, Frame ack) override;
  void fill_health(HealthInfo& info) override;
  void on_teardown(FramedConn& c) override;

  /// The response slot behind every counted request: `work` runs in the
  /// writer slot and returns the kOk payload; whatever it throws becomes
  /// the typed error (error_frame with `blame`). `cancel`, when set, is
  /// registered in flight under the request id until the slot resolves.
  /// Records the rpc.request span and rpc.request_seconds.
  void respond(ConnState& cs, const Header& h, std::function<void()> cancel,
               Blame blame, std::function<std::vector<u8>()> work);
  /// Admission plus response slot for a service-backed request: a
  /// refused `submit` answers typed at once; otherwise the slot waits on
  /// the submission's future and `finish` turns its value into the payload.
  template <typename Submit, typename Finish>
  void serve(ConnState& cs, const Header& h, Submit submit, Finish finish);
  /// Priority and deadline (the relative wire budget re-anchored on the
  /// server clock) for a service submit.
  [[nodiscard]] svc::SubmitOptions submit_options(const Header& h) const;
  /// A token for writer-slot work, armed with the request's deadline.
  [[nodiscard]] std::shared_ptr<CancelToken> request_token(
      const Header& h) const;

  template <typename Sym>
  void handle_compress(ConnState& cs, const Header& h,
                       std::vector<u8> payload, const PipelineConfig& pl,
                       svc::CompressionService<Sym>& svc);
  template <typename Sym>
  void handle_decompress(ConnState& cs, const Header& h,
                         std::vector<u8> payload);
  void handle_stream_begin(ConnState& cs, const Header& h);
  void handle_stream_frame(ConnState& cs, const Header& h,
                           std::vector<u8> payload);
  /// One Chunk/End frame against an open stream; sets *completed on a
  /// verified End. Throws on any stream error.
  std::vector<u8> advance_stream(StreamState& st, const Header& h,
                                 std::vector<u8> body, bool* completed);
  /// v4 fused lossy verbs. Compress routes on the request's nbins — the
  /// residual alphabet decides which service instance (u8 for nbins <=
  /// 256, u16 otherwise) owns the request; decompress is self-describing
  /// and runs on the writer task like plain decompress.
  void handle_lossy_compress(ConnState& cs, const Header& h,
                             std::vector<u8> payload);
  void handle_lossy_decompress(ConnState& cs, const Header& h,
                               std::vector<u8> payload);

  ServerConfig cfg_;
  const util::Clock* clock_;  // resolved from cfg_.service.clock
  std::unique_ptr<svc::CompressionService<u8>> svc8_;
  std::unique_ptr<svc::CompressionService<u16>> svc16_;

  std::atomic<u64> next_stream_id_{0};
  std::atomic<u64> stream_buffer_high_water_{0};

  /// Declared last: destroyed first, joining the accept/reader/writer
  /// tasks while the services they use are still alive.
  FramedCore core_;
};

}  // namespace parhuff::rpc
