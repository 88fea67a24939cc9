#include "rpc/server.hpp"

#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "core/decode.hpp"
#include "core/format.hpp"
#include "core/streaming.hpp"
#include "lossy/lossy.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/fault_inject.hpp"
#include "util/hash.hpp"

namespace parhuff::rpc {

namespace {

/// Append `syms`' bytes to `out` (the response payload layout of every
/// decode verb).
template <typename T>
void append_bytes(std::vector<u8>& out, const std::vector<T>& syms) {
  const std::size_t at = out.size();
  out.resize(at + syms.size() * sizeof(T));
  if (!syms.empty()) {
    std::memcpy(out.data() + at, syms.data(), syms.size() * sizeof(T));
  }
}

/// A request payload as symbols. Byte symbols ride the wire buffer
/// straight through (no copy); wider symbols need the realigning copy (the
/// wire buffer has no alignment guarantee).
template <typename Sym>
std::vector<Sym> as_symbols(std::vector<u8>&& bytes) {
  if (bytes.size() % sizeof(Sym) != 0) {
    throw std::invalid_argument("payload is not a whole number of symbols");
  }
  if constexpr (std::is_same_v<Sym, u8>) {
    return std::move(bytes);
  } else {
    std::vector<Sym> syms(bytes.size() / sizeof(Sym));
    if (!syms.empty()) std::memcpy(syms.data(), bytes.data(), bytes.size());
    return syms;
  }
}

[[nodiscard]] bool is_compress_stream_op(Op op) {
  return op == Op::kCompressStreamBegin || op == Op::kCompressStreamChunk ||
         op == Op::kCompressStreamEnd;
}

/// Incremental per-stream transcoder behind the v3 chunk verbs. One
/// instance per open stream, driven strictly sequentially by the
/// connection's writer slots, so no internal locking is needed. process()
/// consumes one chunk's payload (taking ownership — for u8 compress the
/// wire buffer IS the kernel input, no copy) and returns whatever output
/// that chunk produced; finish() validates that nothing is left dangling.
class StreamChunkCodec {
 public:
  virtual ~StreamChunkCodec() = default;
  virtual std::vector<u8> process(std::vector<u8> chunk,
                                  const CancelToken* cancel) = 0;
  virtual void finish(const CancelToken* cancel) = 0;
  /// Most bytes ever buffered across chunk boundaries — the bounded-
  /// buffering contract's measurable quantity.
  [[nodiscard]] virtual u64 buffered_high_water() const = 0;
};

/// Compress direction: first chunk trains, smooths and freezes the
/// stream codebook (add-one smoothing keeps every alphabet symbol
/// encodable however later chunks drift) and emits the PHS2 header +
/// first framed segment; each later chunk emits one framed segment.
/// Nothing is buffered between chunks.
template <typename Sym>
class CompressStreamCodec final : public StreamChunkCodec {
 public:
  explicit CompressStreamCodec(PipelineConfig pl) : sc_(std::move(pl)) {}

  std::vector<u8> process(std::vector<u8> chunk,
                          const CancelToken* cancel) override {
    const std::vector<Sym> syms = as_symbols<Sym>(std::move(chunk));
    std::vector<u8> out;
    if (syms.empty()) return out;
    if (!sc_.frozen()) {
      sc_.observe(syms);
      sc_.smooth();
      sc_.freeze();
      out = sc_.header();
    }
    std::vector<u8> frame = sc_.encode_segment(syms, cancel);
    out.insert(out.end(), frame.begin(), frame.end());
    return out;
  }

  void finish(const CancelToken*) override {}

  [[nodiscard]] u64 buffered_high_water() const override { return 0; }

 private:
  StreamingCompressor<Sym> sc_;
};

/// Decompress direction: chunks carry an arbitrary split of PHS2 header +
/// framed segments. Bytes accumulate only until the current header/
/// segment completes (never the whole stream): each complete segment is
/// decoded immediately and its symbols returned in that chunk's response.
/// `unit_bound` caps a single header or segment (so a forged length can
/// never balloon the buffer) and `output_bound` caps one response's
/// decoded bytes.
template <typename Sym>
class DecompressStreamCodec final : public StreamChunkCodec {
 public:
  DecompressStreamCodec(u64 unit_bound, u64 output_bound)
      : unit_bound_(unit_bound), output_bound_(output_bound) {}

  std::vector<u8> process(std::vector<u8> chunk,
                          const CancelToken* cancel) override {
    if (pending_.empty()) {
      pending_ = std::move(chunk);
    } else {
      pending_.insert(pending_.end(), chunk.begin(), chunk.end());
    }
    if (pending_.size() > high_water_) high_water_ = pending_.size();
    std::vector<u8> out;
    std::size_t head = 0;
    if (!dec_) {
      // Fast-fail a stream that is not PHS2 at all (e.g. a monolithic
      // PHF container pushed through the chunk verbs) instead of
      // buffering up to the bound first.
      if (pending_.size() >= 4 &&
          std::memcmp(pending_.data(), kStreamHeaderMagic, 4) != 0) {
        throw std::invalid_argument(
            "stream is not a PHS2 streamed container");
      }
      try {
        const std::size_t hl =
            StreamingDecompressor<Sym>::header_length(pending_);
        dec_.emplace(std::span<const u8>(pending_).first(hl));
        head = hl;
      } catch (const std::runtime_error&) {
        // Not parsable yet: either truncated (wait for more bytes) or
        // corrupt — the unit bound decides when waiting stops being an
        // option.
        if (pending_.size() > unit_bound_) {
          throw std::invalid_argument(
              "stream header unparsable within the buffering bound");
        }
        return out;
      }
    }
    for (;;) {
      const std::span<const u8> rest =
          std::span<const u8>(pending_).subspan(head);
      std::size_t total = 0;
      if (!StreamingDecompressor<Sym>::frame_length(rest, &total)) break;
      if (total > unit_bound_) {
        throw std::invalid_argument(
            "stream segment exceeds the buffering bound");
      }
      if (rest.size() < total) break;
      const std::vector<Sym> syms =
          dec_->decode_segment(rest.first(total), cancel);
      if (out.size() + syms.size() * sizeof(Sym) > output_bound_) {
        throw std::invalid_argument(
            "chunk decodes beyond the response bound; stream smaller "
            "chunks");
      }
      append_bytes(out, syms);
      head += total;
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(head));
    return out;
  }

  void finish(const CancelToken*) override {
    if (!pending_.empty()) {
      throw std::invalid_argument(
          "stream ended with " + std::to_string(pending_.size()) +
          " bytes of an incomplete header/segment");
    }
  }

  [[nodiscard]] u64 buffered_high_water() const override {
    return high_water_;
  }

 private:
  u64 unit_bound_;
  u64 output_bound_;
  std::vector<u8> pending_;
  u64 high_water_ = 0;
  std::optional<StreamingDecompressor<Sym>> dec_;
};

[[nodiscard]] std::unique_ptr<StreamChunkCodec> make_stream_codec(
    Op begin_op, u8 sym_width, const ServerConfig& cfg) {
  const bool compress = begin_op == Op::kCompressStreamBegin;
  // A segment framing a whole chunk outgrows the chunk slightly
  // (codebook/stream metadata) — same reasoning as the response bound's
  // slack.
  const u64 unit_bound =
      static_cast<u64>(cfg.stream_chunk_bytes) + (u64{1} << 20);
  const u64 output_bound = response_payload_bound(cfg.max_payload_bytes);
  if (sym_width == 1) {
    if (compress) {
      return std::make_unique<CompressStreamCodec<u8>>(cfg.pipeline8);
    }
    return std::make_unique<DecompressStreamCodec<u8>>(unit_bound,
                                                       output_bound);
  }
  if (compress) {
    return std::make_unique<CompressStreamCodec<u16>>(cfg.pipeline16);
  }
  return std::make_unique<DecompressStreamCodec<u16>>(unit_bound,
                                                      output_bound);
}

}  // namespace

/// One open v3 stream. Created by Begin, destroyed by End, an error or
/// connection teardown. Chunk processing happens in writer slots, which
/// run strictly sequentially per connection, so the mutable fields need
/// no lock of their own; the token is shared with the reader's cancel
/// path (CancelToken is thread-safe).
struct RpcServer::StreamState {
  u64 id = 0;
  Op begin_op = Op::kCompressStreamBegin;
  u8 sym_width = 1;
  u64 begin_request_id = 0;
  std::shared_ptr<CancelToken> token;
  u64 bytes_in = 0;
  u64 bytes_out = 0;
  u64 checksum = kFnv1aSeed;
  std::unique_ptr<StreamChunkCodec> codec;
};

/// The server's per-connection state: how to cancel each request in
/// flight, and the open v3 streams. Both maps are guarded by mu (the
/// reader registers, writer slots look up and erase); a stream's own
/// fields are mutated only by the strictly-sequential writer slots.
struct RpcServer::ConnState : FramedConn {
  std::unordered_map<u64, std::function<void()>> inflight;  // by request id
  std::unordered_map<u64, std::shared_ptr<StreamState>> streams;  // by id

  void unregister(u64 id) {
    std::lock_guard<std::mutex> lock(mu);
    inflight.erase(id);
  }
};

RpcServer::RpcServer(std::unique_ptr<Listener> listener, ServerConfig cfg)
    : cfg_(cfg),
      clock_(cfg.service.clock ? cfg.service.clock : &util::Clock::real()),
      svc8_(std::make_unique<svc::CompressionService<u8>>(cfg.service)),
      svc16_(std::make_unique<svc::CompressionService<u16>>(cfg.service)),
      core_(std::move(listener),
            FramedConfig{.prefix = "rpc",
                         .role = "server",
                         .faults = "rpc.server",
                         .max_connections = cfg.max_connections,
                         .max_payload_bytes = cfg.max_payload_bytes,
                         .io_threads = cfg.io_threads,
                         .clock = clock_},
            *this) {
  core_.start();
}

RpcServer::~RpcServer() {
  // Services tear down after the io tasks that use them (member order).
  core_.stop();
}

std::shared_ptr<FramedConn> RpcServer::open_conn() {
  return std::make_shared<ConnState>();
}

void RpcServer::on_request(const std::shared_ptr<FramedConn>& c,
                           const Header& h, std::vector<u8> payload) {
  ConnState& cs = static_cast<ConnState&>(*c);
  const bool typed_symbols =
      h.op == Op::kCompress || h.op == Op::kDecompress ||
      h.op == Op::kCompressStreamBegin || h.op == Op::kDecompressStreamBegin;
  if (typed_symbols && h.sym_width != 1 && h.sym_width != 2) {
    cs.enqueue_ready(
        error_frame(h, Status::kBadRequest, "sym_width must be 1 or 2"));
    return;
  }
  const bool wide = h.sym_width == 2;
  switch (h.op) {
    case Op::kCompress:
      if (wide) {
        handle_compress<u16>(cs, h, std::move(payload), cfg_.pipeline16,
                             *svc16_);
      } else {
        handle_compress<u8>(cs, h, std::move(payload), cfg_.pipeline8,
                            *svc8_);
      }
      return;
    case Op::kDecompress:
      if (wide) {
        handle_decompress<u16>(cs, h, std::move(payload));
      } else {
        handle_decompress<u8>(cs, h, std::move(payload));
      }
      return;
    case Op::kLossyCompress:
      handle_lossy_compress(cs, h, std::move(payload));
      return;
    case Op::kLossyDecompress:
      handle_lossy_decompress(cs, h, std::move(payload));
      return;
    case Op::kCompressStreamBegin:
    case Op::kDecompressStreamBegin:
      handle_stream_begin(cs, h);
      return;
    case Op::kCompressStreamChunk:
    case Op::kCompressStreamEnd:
    case Op::kDecompressStreamChunk:
    case Op::kDecompressStreamEnd:
      handle_stream_frame(cs, h, std::move(payload));
      return;
    case Op::kCancel:
    case Op::kStats:
    case Op::kHealth:
      return;  // answered by the connection core
  }
}

void RpcServer::on_cancel(FramedConn& c, u64 target, Frame ack) {
  ConnState& cs = static_cast<ConnState&>(c);
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    // Unknown id: the request already resolved (or never existed) —
    // cancel is idempotent best-effort either way.
    if (auto it = cs.inflight.find(target); it != cs.inflight.end()) {
      it->second();
    }
  }
  cs.enqueue_ready(std::move(ack));
}

void RpcServer::fill_health(HealthInfo& info) {
  info.queue_depth = svc8_->queue_depth() + svc16_->queue_depth();
  info.queue_capacity = 2 * cfg_.service.queue_capacity;
  obs::MetricsRegistry::global().counter_add("rpc.health_probes");
}

void RpcServer::on_teardown(FramedConn& c) {
  // Whatever stream is still open died with the connection and settles
  // the opened == completed + aborted balance as aborted.
  ConnState& cs = static_cast<ConnState&>(c);
  std::lock_guard<std::mutex> lock(cs.mu);
  if (!cs.streams.empty()) {
    obs::MetricsRegistry::global().counter_add("rpc.streams_aborted",
                                               cs.streams.size());
    cs.streams.clear();
  }
}

void RpcServer::respond(ConnState& cs, const Header& h,
                        std::function<void()> cancel, Blame blame,
                        std::function<std::vector<u8>()> work) {
  const bool cancellable = static_cast<bool>(cancel);
  if (cancellable) {
    std::lock_guard<std::mutex> lock(cs.mu);
    cs.inflight.emplace(h.request_id, std::move(cancel));
  }
  ConnState* raw = &cs;  // the writer keeps *raw alive past this slot
  const double start_us = obs::TraceRecorder::global().now_us();
  cs.enqueue([raw, hdr = h, cancellable, blame, work = std::move(work),
              start_us]() {
    Frame f = response_to(hdr);
    try {
      f.payload = work();
    } catch (...) {
      f = error_frame(hdr, std::current_exception(), blame);
    }
    if (cancellable) raw->unregister(hdr.request_id);
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    const double done_us = rec.now_us();
    obs::MetricsRegistry::global().histo_record(
        "rpc.request_seconds", (done_us - start_us) / 1e6);
    rec.complete("rpc.request", "rpc", start_us, done_us - start_us);
    return f;
  });
}

template <typename Submit, typename Finish>
void RpcServer::serve(ConnState& cs, const Header& h, Submit submit,
                      Finish finish) {
  decltype(submit()) sub;
  try {
    sub = submit();
  } catch (...) {
    cs.enqueue_ready(
        error_frame(h, std::current_exception(), Blame::kAdmission));
    return;
  }
  auto fut = std::make_shared<decltype(sub.result)>(std::move(sub.result));
  respond(
      cs, h, [handle = sub.handle]() mutable { handle.cancel(); },
      Blame::kServer, [fut, finish] { return finish(fut->get()); });
}

svc::SubmitOptions RpcServer::submit_options(const Header& h) const {
  svc::SubmitOptions opts;
  opts.priority = to_priority(h.priority);
  if (h.deadline_micros != 0) {
    // Relative on the wire; re-anchored against the server's clock.
    opts.deadline = svc::Deadline::in(
        static_cast<double>(h.deadline_micros) * 1e-6, *clock_);
  }
  return opts;
}

std::shared_ptr<CancelToken> RpcServer::request_token(const Header& h) const {
  auto token = std::make_shared<CancelToken>();
  if (h.deadline_micros != 0) {
    token->arm_deadline(submit_options(h).deadline.at, *clock_);
  }
  return token;
}

template <typename Sym>
void RpcServer::handle_compress(ConnState& cs, const Header& h,
                                std::vector<u8> payload,
                                const PipelineConfig& pl,
                                svc::CompressionService<Sym>& svc) {
  serve(
      cs, h,
      [&] {
        return svc.submit(as_symbols<Sym>(std::move(payload)), pl,
                          submit_options(h));
      },
      [](svc::CompressResult<Sym> res) {
        Compressed<Sym> blob;
        blob.codebook = *res.codebook;
        blob.stream = std::move(res.stream);
        return serialize<Sym>(blob);
      });
}

template <typename Sym>
void RpcServer::handle_decompress(ConnState& cs, const Header& h,
                                  std::vector<u8> payload) {
  auto token = request_token(h);
  auto body = std::make_shared<std::vector<u8>>(std::move(payload));
  // The decode runs on the writer task itself (requests on one connection
  // are an ordered stream anyway); the walk polls the token, so a cancel
  // frame or the deadline aborts it mid-stream.
  respond(cs, h, [token] { token->request(); }, Blame::kRequest,
          [body, token] {
            token->check();  // cheap pre-flight: already cancelled/expired?
            if (body->size() >= 4 &&
                std::memcmp(body->data(), kStreamHeaderMagic, 4) == 0) {
              // A PHS2 streamed container (what the v3 compress stream
              // produces) decodes as one whole-stream chunk, so
              // streamed-compress results round-trip through the plain
              // decompress verb too when they fit one frame.
              DecompressStreamCodec<Sym> whole(~u64{0}, ~u64{0});
              std::vector<u8> out = whole.process(std::move(*body),
                                                  token.get());
              whole.finish(token.get());
              return out;
            }
            const Compressed<Sym> blob = deserialize<Sym>(*body);
            // decode_auto picks the gap-array kernel when the container
            // carried gap metadata (a "PHF3" + GAP1 blob), the host decoder
            // otherwise.
            std::vector<u8> out;
            append_bytes(out, decode_auto<Sym>(blob.stream, blob.codebook, 0,
                                               token.get()));
            return out;
          });
}

void RpcServer::handle_lossy_compress(ConnState& cs, const Header& h,
                                      std::vector<u8> payload) {
  // Validate the shape before any allocation is committed to it: header
  // present, sample stream a whole number of f32s, dims matching the
  // stream exactly (overflow-safe stepwise product — nx*ny*nz of forged
  // u64 dims must never wrap into a plausible count).
  LossyRequestHeader lh;
  try {
    lh = decode_lossy_request_header(payload);
  } catch (const ProtocolError& e) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest, e.what()));
    return;
  }
  const std::size_t body_bytes = payload.size() - kLossyRequestHeaderBytes;
  if (body_bytes % sizeof(float) != 0) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                 "payload is not a whole number of f32s"));
    return;
  }
  const u64 n_floats = body_bytes / sizeof(float);
  bool dims_ok = lh.nx != 0 && lh.ny != 0 && lh.nz != 0 && n_floats != 0;
  dims_ok = dims_ok && lh.nx <= n_floats / lh.ny;
  dims_ok = dims_ok && lh.nx * lh.ny <= n_floats / lh.nz;
  dims_ok = dims_ok && lh.nx * lh.ny * lh.nz == n_floats;
  if (!dims_ok) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                 "dims do not match the f32 sample count"));
    return;
  }
  if (lh.nbins < 4 || lh.nbins > 65536) {
    cs.enqueue_ready(
        error_frame(h, Status::kBadRequest, "nbins out of range [4, 65536]"));
    return;
  }

  std::vector<float> field(static_cast<std::size_t>(n_floats));
  std::memcpy(field.data(), payload.data() + kLossyRequestHeaderBytes,
              body_bytes);
  data::Dims dims{static_cast<std::size_t>(lh.nx),
                  static_cast<std::size_t>(lh.ny),
                  static_cast<std::size_t>(lh.nz)};
  lossy::FusedConfig fc;
  fc.rel_error_bound = lh.rel_error_bound;
  fc.abs_error_bound = lh.abs_error_bound;
  fc.nbins = lh.nbins;
  fc.rle_min_run = lh.rle_min_run;
  fc.pipeline = lh.nbins <= 256 ? cfg_.pipeline8 : cfg_.pipeline16;

  // Route on the residual alphabet: the u8 service owns narrow quantizers,
  // the u16 service everything wider (submit_lossy enforces the same
  // predicate, so a routing bug fails loudly instead of silently).
  serve(
      cs, h,
      [&] {
        return lh.nbins <= 256
                   ? svc8_->submit_lossy(std::move(field), dims, fc,
                                         submit_options(h))
                   : svc16_->submit_lossy(std::move(field), dims, fc,
                                          submit_options(h));
      },
      [](svc::LossyResult res) { return std::move(res.container); });
}

void RpcServer::handle_lossy_decompress(ConnState& cs, const Header& h,
                                        std::vector<u8> payload) {
  auto token = request_token(h);
  auto body = std::make_shared<std::vector<u8>>(std::move(payload));
  // Runs on the writer task like plain decompress; the container magic
  // (PHL1/PHL2) picks the path and the decode/reconstruct walks poll the
  // token.
  respond(cs, h, [token] { token->request(); }, Blame::kRequest,
          [body, token] {
            token->check();  // cheap pre-flight: already cancelled/expired?
            const lossy::Field field =
                lossy::decompress_field(*body, token.get());
            LossyFieldHeader fh;
            fh.nx = static_cast<u64>(field.dims.nx);
            fh.ny = static_cast<u64>(field.dims.ny);
            fh.nz = static_cast<u64>(field.dims.nz);
            fh.error_bound = field.error_bound;
            std::vector<u8> out = encode_lossy_field_header(fh);
            append_bytes(out, field.values);
            return out;
          });
}

void RpcServer::handle_stream_begin(ConnState& cs, const Header& h) {
  auto st = std::make_shared<StreamState>();
  st->id = next_stream_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  st->begin_op = h.op;
  st->sym_width = h.sym_width;
  st->begin_request_id = h.request_id;
  // The one and only anchoring point: the whole stream runs on this
  // budget; chunk frames carry the stream id where a deadline would be.
  st->token = request_token(h);
  st->codec = make_stream_codec(h.op, h.sym_width, cfg_);
  bool over_cap = false;
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    if (cs.streams.size() >= cfg_.max_streams_per_connection) {
      over_cap = true;
    } else {
      cs.streams.emplace(st->id, st);
      // Registered under the Begin request id: a kCancel naming it aborts
      // the stream at the next chunk, exactly like single-frame requests.
      cs.inflight.emplace(h.request_id,
                          [token = st->token] { token->request(); });
    }
  }
  if (over_cap) {
    cs.enqueue_ready(error_frame(h, Status::kQueueFull,
                                 "per-connection open-stream cap reached"));
    return;
  }
  obs::MetricsRegistry::global().counter_add("rpc.streams_opened");
  Frame f = response_to(h);
  f.payload.resize(sizeof(u64));
  std::memcpy(f.payload.data(), &st->id, sizeof(u64));
  cs.enqueue_ready(std::move(f));
}

std::vector<u8> RpcServer::advance_stream(StreamState& st, const Header& h,
                                          std::vector<u8> body,
                                          bool* completed) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  // Fault site: the stream's processing dies mid-chunk (a kernel failure,
  // an allocation failure...). The stream aborts typed.
  util::FaultInjector::global().maybe_throw("rpc.server.stream_chunk");
  if (is_compress_stream_op(h.op) != is_compress_stream_op(st.begin_op)) {
    throw std::invalid_argument(
        "stream op family does not match the Begin op");
  }
  st.token->check();
  if (h.op == Op::kCompressStreamEnd || h.op == Op::kDecompressStreamEnd) {
    const StreamEndRequest end = decode_stream_end_request(body);
    if (end.total_bytes != st.bytes_in) {
      throw std::invalid_argument(
          "stream length mismatch: sender claims " +
          std::to_string(end.total_bytes) + " bytes, server received " +
          std::to_string(st.bytes_in));
    }
    if (end.checksum != st.checksum) {
      throw std::invalid_argument("stream checksum mismatch");
    }
    st.codec->finish(st.token.get());
    *completed = true;
    return encode_stream_summary(
        StreamSummary{st.bytes_in, st.bytes_out, st.checksum});
  }
  if (body.size() > cfg_.stream_chunk_bytes) {
    throw std::invalid_argument("chunk exceeds stream_chunk_bytes (" +
                                std::to_string(cfg_.stream_chunk_bytes) +
                                ")");
  }
  st.checksum = stream_checksum(body, st.checksum);
  st.bytes_in += body.size();
  reg.counter_add("rpc.stream_chunks");
  reg.counter_add("rpc.stream_bytes_in", body.size());
  std::vector<u8> out = st.codec->process(std::move(body), st.token.get());
  st.bytes_out += out.size();
  reg.counter_add("rpc.stream_bytes_out", out.size());
  return out;
}

void RpcServer::handle_stream_frame(ConnState& cs, const Header& h,
                                    std::vector<u8> payload) {
  auto body = std::make_shared<std::vector<u8>>(std::move(payload));
  ConnState* raw = &cs;  // the writer keeps *raw alive past this slot
  // Processed in the writer slot: while this chunk encodes/decodes, the
  // reader is already pulling the next chunk off the wire — that overlap
  // is the whole point of the streaming verbs.
  respond(cs, h, {}, Blame::kRequest, [this, raw, body, hdr = h]() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    std::shared_ptr<StreamState> st;
    {
      std::lock_guard<std::mutex> lock(raw->mu);
      if (auto it = raw->streams.find(hdr.stream_id);
          it != raw->streams.end()) {
        st = it->second;
      }
    }
    if (!st) {
      throw std::invalid_argument(
          "unknown stream id (never opened, completed, or already "
          "aborted)");
    }
    bool completed = false;
    std::exception_ptr err;
    std::vector<u8> out;
    try {
      out = advance_stream(*st, hdr, std::move(*body), &completed);
    } catch (...) {
      err = std::current_exception();
    }
    // Track the bounded-buffering high water even on failure paths.
    const u64 buffered = st->codec->buffered_high_water();
    u64 cur = stream_buffer_high_water_.load(std::memory_order_relaxed);
    while (buffered > cur && !stream_buffer_high_water_.compare_exchange_weak(
                                 cur, buffered, std::memory_order_relaxed)) {
    }
    reg.gauge_max("rpc.stream_buffered_bytes_high_water",
                  static_cast<double>(buffered));
    // Completion and every error are terminal for the stream: forget the
    // id (later frames answer "unknown stream") and settle the
    // opened == completed + aborted balance.
    if (err || completed) {
      bool was_open = false;
      {
        std::lock_guard<std::mutex> lock(raw->mu);
        was_open = raw->streams.erase(st->id) > 0;
        raw->inflight.erase(st->begin_request_id);
      }
      if (was_open) {
        reg.counter_add(completed ? "rpc.streams_completed"
                                  : "rpc.streams_aborted");
      }
    }
    if (err) std::rethrow_exception(err);
    return out;
  });
}

}  // namespace parhuff::rpc
