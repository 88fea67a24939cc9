#pragma once
// Framed-connection core: the connection machinery RpcServer and
// ShardRouter share (docs/rpc.md, "Server model"). A front end is a
// FrameHandler — its op switch, its per-connection state and its
// teardown hook — over one FramedCore, which owns the rest:
//
//   accept  — one long-running task: enforces max_connections, keeps the
//     live-connection registry stop() sweeps, starts a reader and a
//     writer per connection (the writer first, so a failed reader submit
//     can still unblock it);
//   reader  — decodes headers; a structurally bad frame answers a typed
//     protocol error and, when its declared length is sane, skips the
//     payload to stay frame-aligned (otherwise the error is the
//     connection's last frame); kStats, kHealth, kCancel and
//     response-kind frames are answered here, every other request goes
//     to the handler, which enqueues exactly one response slot;
//   writer  — resolves slots strictly in request order, writes each frame
//     (an oversized answer becomes a typed kInternal one), counts
//     <prefix>.responses_written / <prefix>.responses_dropped, and once
//     every slot has drained runs the handler's teardown hook and shuts
//     the connection.
//
// Every decoded request drains exactly one slot, so after quiesce
// <prefix>.responses_written + <prefix>.responses_dropped ==
// <prefix>.requests_received + <prefix>.protocol_error_responses.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/transport.hpp"
#include "svc/service.hpp"
#include "util/clock.hpp"
#include "util/work_steal.hpp"

namespace parhuff::rpc {

/// A response answering `req`: same op, width, request id and stream id.
[[nodiscard]] Frame response_to(const Header& req, Status status = Status::kOk);

/// A typed error answering `req`, `message` as the payload.
[[nodiscard]] Frame error_frame(const Header& req, Status status,
                                const std::string& message);

/// Where a failure surfaced — decides what an untyped exception means.
enum class Blame {
  /// Server-side work failed: an untyped error is kInternal.
  kServer,
  /// Parsing or decoding the request's own bytes failed: a
  /// std::runtime_error is the client's fault, kBadRequest.
  kRequest,
  /// The service refused the submit: std::logic_error means it is shutting
  /// down (kShuttingDown), any other untyped error is kBadRequest.
  kAdmission,
};

/// The one exception → wire-status mapping every response slot uses:
/// deadline and cancel types (svc and core) keep their statuses,
/// QueueFullError is kQueueFull, RpcError and ProtocolError carry their
/// own, an injected/transient fault is kInternal, std::invalid_argument is
/// kBadRequest; everything else follows `blame`. The message is what().
[[nodiscard]] Frame error_frame(const Header& req, const std::exception_ptr& err,
                                Blame blame);

[[nodiscard]] svc::Priority to_priority(u8 p);

/// State one connection's reader and writer share. Front ends derive
/// their per-connection state from it (cancel maps, stream tables...) and
/// may guard it with `mu`. Slots are copyable std::functions (move-only
/// captures ride behind shared_ptr); they may hold a raw FramedConn*
/// because the writer keeps the state alive for as long as any slot
/// exists.
struct FramedConn {
  virtual ~FramedConn() = default;

  std::shared_ptr<Connection> conn;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<Frame()>> slots;  // FIFO response order
  bool reader_done = false;

  void enqueue(std::function<Frame()> slot);
  void enqueue_ready(Frame f);
  void reader_finished();
};

/// What a front end supplies over the core.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  /// Fresh per-connection state (the front end's FramedConn subclass).
  [[nodiscard]] virtual std::shared_ptr<FramedConn> open_conn() = 0;
  /// The op switch for one request frame the core does not answer itself.
  /// Must enqueue exactly one response slot.
  virtual void on_request(const std::shared_ptr<FramedConn>& cs,
                          const Header& h, std::vector<u8> payload) = 0;
  /// Cancel request `target` on this connection, then enqueue `ack`.
  virtual void on_cancel(FramedConn& cs, u64 target, Frame ack) = 0;
  /// Fill the load fields of a kHealth answer (connection fields are set).
  virtual void fill_health(HealthInfo& info) = 0;
  /// Every slot has drained and nothing can make progress any more:
  /// settle whatever is still open on the connection.
  virtual void on_teardown(FramedConn& cs) = 0;
};

struct FramedConfig {
  /// Metric family: "<prefix>.requests_received" and so on, and the stats
  /// verb's document name "<prefix>-stats".
  std::string prefix;
  /// Who answers a response-kind frame ("server", "router").
  std::string role;
  /// Fault-site family ("<faults>.accept/.read/.write"); empty = none.
  std::string faults;
  std::size_t max_connections = 8;
  u32 max_payload_bytes = kMaxPayloadBytes;
  const util::Clock* clock = nullptr;
};

class FramedCore {
 public:
  /// Throws std::invalid_argument on a null listener or a zero
  /// connection cap. Accepts nothing until start().
  FramedCore(std::unique_ptr<Listener> listener, FramedConfig cfg,
             FrameHandler& handler);
  /// Joins the io pool; the owner must have called stop().
  ~FramedCore() = default;
  FramedCore(const FramedCore&) = delete;
  FramedCore& operator=(const FramedCore&) = delete;

  /// Start accepting (once the handler is fully constructed).
  void start();
  /// Stop accepting, shut every live connection down, drain the io pool.
  /// Idempotent.
  void stop();
  [[nodiscard]] std::size_t connection_count() const;

 private:
  [[nodiscard]] bool accepting() const;
  void accept_loop();
  void reader_loop(std::shared_ptr<FramedConn> cs);
  void writer_loop(std::shared_ptr<FramedConn> cs);
  void dispatch(const std::shared_ptr<FramedConn>& cs, const Header& h,
                std::vector<u8> payload);

  FramedConfig cfg_;
  FrameHandler& handler_;
  std::unique_ptr<Listener> listener_;

  // Metric and fault-site names, built once.
  std::string connections_accepted_, connections_rejected_, protocol_errors_,
      protocol_error_responses_, requests_received_, cancels_received_,
      responses_written_, responses_dropped_, stats_name_, kind_error_;
  std::string accept_fault_, read_fault_, write_fault_;

  mutable std::mutex conns_mu_;
  std::vector<std::weak_ptr<FramedConn>> conns_;
  bool stopping_ = false;  // under conns_mu_

  /// Declared last: destroyed first, joining the accept/reader/writer
  /// tasks.
  std::unique_ptr<WorkStealExecutor> io_;
};

}  // namespace parhuff::rpc
