#pragma once
// Deadline, cancellation and failure vocabulary for the compression
// service (svc/service.hpp).
//
// A Deadline is an absolute steady-clock instant attached to a request at
// submit(). It is enforced everywhere the request spends time:
//
//   * where it waits — a blocked submit() gives up at the deadline, the
//     scheduler prunes expired pending requests before batching, and a
//     batch re-checks each member when it finally starts;
//   * and *inside the stage kernels* — submit() arms the request's
//     core::CancelToken with the deadline, and the histogram, codebook and
//     encode kernels poll it cooperatively (per chunk / per reduce round),
//     so a request whose deadline passes mid-stage abandons the kernel and
//     fails with DeadlineExceeded instead of completing uselessly.
//
// A RequestHandle cancels a request. While the request is still pending,
// cancel() wins outright (returns true; the future fails with
// CancelledError). Once dispatched, cancel() returns false but still
// signals the in-flight token — the stages abandon work at their next poll
// point and the future fails with CancelledError; if the work already
// passed its last poll point it completes normally. Both deadline expiry
// and cancellation resolve the request's future with a typed exception —
// every submitted future resolves, always.
//
// The RPC v3 streaming verbs stretch the same two primitives over a
// multi-frame request: a stream's CancelToken is armed from the wire
// budget once, at the Begin frame (chunk frames carry the stream id where
// a deadline would ride), registered under the Begin request id so a
// kCancel naming it aborts the whole stream, and polled by every chunk's
// encode/decode exactly like a single-frame request's kernels. One
// request, one token, one deadline — however many frames it spans.

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/cancel.hpp"
#include "util/clock.hpp"

namespace parhuff::svc {

/// The request's deadline passed — before dispatch, or mid-stage at a
/// kernel poll point. Carried by the request's future.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded()
      : std::runtime_error("CompressionService: deadline exceeded") {}
};

/// The request was cancelled via its RequestHandle.
class CancelledError : public std::runtime_error {
 public:
  CancelledError()
      : std::runtime_error("CompressionService: request cancelled") {}
};

/// Absolute deadline on the steady clock. Default-constructed: none.
struct Deadline {
  using clock = std::chrono::steady_clock;
  clock::time_point at = clock::time_point::max();

  [[nodiscard]] static Deadline none() { return {}; }
  /// `seconds` from now. Non-positive values produce an already-expired
  /// deadline (useful for load-shedding probes).
  [[nodiscard]] static Deadline in(double seconds) {
    return in(seconds, util::Clock::real());
  }
  /// `seconds` from now on an injected clock (util::VirtualClock in
  /// tests). util::Clock shares steady_clock's time_point type, so the
  /// result composes with any clock-consistent caller.
  [[nodiscard]] static Deadline in(double seconds, const util::Clock& clk) {
    return Deadline{clk.now() + util::Clock::dur(seconds)};
  }
  [[nodiscard]] static Deadline at_time(clock::time_point tp) {
    return Deadline{tp};
  }

  [[nodiscard]] bool unlimited() const {
    return at == clock::time_point::max();
  }
  [[nodiscard]] bool expired(clock::time_point now = clock::now()) const {
    return !unlimited() && now >= at;
  }
  /// Remaining budget in seconds (+inf when unlimited, negative when
  /// expired).
  [[nodiscard]] double remaining_seconds(clock::time_point now) const {
    if (unlimited()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at - now).count();
  }
};

namespace detail {

/// Request lifecycle the handle and scheduler race over. Exactly one
/// transition out of kPending wins: cancel() moves to kCancelled, the
/// scheduler moves to kDispatched (or kResolved when it fails the
/// request while still pending, e.g. deadline expiry).
enum class ReqPhase : int {
  kPending = 0,
  kDispatched = 1,
  kCancelled = 2,
  kResolved = 3,
};

struct HandleState {
  std::atomic<int> phase{static_cast<int>(ReqPhase::kPending)};
  /// Polled by the stage kernels while the request runs. submit() arms it
  /// with the request's deadline; a post-dispatch cancel() requests it.
  CancelToken token;

  bool try_transition(ReqPhase from, ReqPhase to) {
    int expect = static_cast<int>(from);
    return phase.compare_exchange_strong(expect, static_cast<int>(to),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }
  [[nodiscard]] ReqPhase load() const {
    return static_cast<ReqPhase>(phase.load(std::memory_order_acquire));
  }
};

}  // namespace detail

/// Cancellation token returned by submit(). Copyable; all copies refer to
/// the same request.
class RequestHandle {
 public:
  RequestHandle() = default;

  /// Try to cancel. True iff the request had not yet been dispatched —
  /// its future will then fail with CancelledError without any work
  /// starting. False once dispatch won the race or on a detached
  /// (default-constructed) handle; in the dispatched case the in-flight
  /// work is still signalled and abandons at its next kernel poll point
  /// (the future then fails with CancelledError), so false means "already
  /// started", not "will complete".
  bool cancel() {
    if (!st_) return false;
    if (st_->try_transition(detail::ReqPhase::kPending,
                            detail::ReqPhase::kCancelled)) {
      return true;
    }
    if (st_->load() == detail::ReqPhase::kDispatched) st_->token.request();
    return false;
  }

  /// True iff a cancel() on this request won while it was pending.
  [[nodiscard]] bool cancelled() const {
    return st_ && st_->load() == detail::ReqPhase::kCancelled;
  }

 private:
  template <typename Sym>
  friend class CompressionService;

  explicit RequestHandle(std::shared_ptr<detail::HandleState> st)
      : st_(std::move(st)) {}

  std::shared_ptr<detail::HandleState> st_;
};

}  // namespace parhuff::svc
