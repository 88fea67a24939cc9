#pragma once
// In-process compression service: the front door a long-running producer
// (simulation I/O layer, ingest daemon) uses instead of calling compress()
// inline. Callers submit() symbol buffers and get back futures; behind the
// door sit three mechanisms that make heavy small-request traffic cheap:
//
//   1. Admission control — a bound on *outstanding* requests (admitted but
//      not yet completed), so a burst can't queue unbounded memory. At the
//      bound, submit() either blocks until capacity frees (kBlock) or
//      throws QueueFullError (kReject), the caller's choice.
//   2. Request batching — a scheduler thread picks the oldest
//      highest-priority request as batch leader, then lingers up to
//      batch_window_seconds coalescing other small requests with an equal
//      PipelineConfig into one batch. The batch pools one histogram and
//      builds one codebook; each member is then encoded individually, so
//      the dominant fixed cost of small requests (the codebook build) is
//      paid once per batch instead of once per request.
//   3. Codebook caching — the pooled histogram is fingerprinted
//      (svc/fingerprint.hpp) and looked up in a sharded LRU cache; a hit
//      that passes the covers() correctness guard skips the build
//      entirely. See svc/codebook_cache.hpp for the correctness model.
//
// Batches execute on a work-stealing worker pool (util/work_steal.hpp).
// Requests too large to batch (over batch_eligible_symbols) dispatch solo
// and immediately — they already amortize their own codebook build.
//
// Fault tolerance (docs/service.md "Error model"): every submitted future
// resolves — with a value or a typed exception — no matter what fails
// underneath. The mechanisms, in the order they engage:
//
//   * Deadlines — submit() takes an optional absolute Deadline
//     (svc/deadline.hpp). Expired requests are failed with
//     DeadlineExceeded wherever they wait (a blocked submit() stops
//     waiting at the deadline, the scheduler prunes expired pending
//     requests before batching, and a batch re-checks members when it
//     starts), *and* mid-stage: submit() arms the request's CancelToken
//     with the deadline and the stage kernels poll it per chunk / per
//     reduce round, abandoning work whose deadline has passed
//     (svc.cancelled_midstage counts these).
//   * Cancellation — submit() returns a RequestHandle. cancel() wins
//     outright while the request is pending; after dispatch it signals
//     the in-flight token and the stages abandon at their next poll
//     point. Either way the future fails with CancelledError.
//   * Retry — failures classified transient (util::TransientError, which
//     injected faults and overload errors derive from) are retried with
//     exponential backoff + full jitter (util/backoff.hpp) against a
//     per-request total budget of ServiceConfig::retry.max_attempts
//     shared across all stages (shared phase + encode), bounding
//     worst-case added latency per request rather than per stage. The
//     executor handoff — batches and lossy jobs alike — retries under the
//     same policy, then runs the work inline.
//   * Graceful degradation — when the batched path exhausts its retry
//     budget, each member request falls back to a solo serial pipeline
//     (serial histogram → serial tree codebook → serial encode), which
//     shares no batch machinery. Only if that also fails does the future
//     carry the error. CompressResult::degraded marks rescued requests.
//   * Fault injection — the histogram/codebook/encode stages, the
//     codebook cache and the executor all carry util::FaultInjector
//     sites, so tests can prove the resolve-always invariant under any
//     failure mix (tests/test_fault.cpp).
//
// Observability (docs/service.md, docs/observability.md): svc.* counters
// (requests, batches, cache hits/misses/guard rejects, rejections,
// backpressure events, deadline_exceeded, cancelled_requests,
// cancelled_midstage, cache_insert_dropped, retries,
// degraded, inline_dispatches), the svc.queue_depth gauge, svc.histogram/
// codebook/encode stage timers, svc.request_seconds and
// svc.queue_wait_seconds latency histograms (p50/p95/p99 in the
// parhuff-metrics-v1 document), and per-request lifecycle trace spans.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "core/pipeline.hpp"
#include "lossy/fused.hpp"
#include "svc/codebook_cache.hpp"
#include "svc/codebook_manager.hpp"
#include "svc/deadline.hpp"
#include "util/backoff.hpp"
#include "util/types.hpp"
#include "util/work_steal.hpp"

namespace parhuff::svc {

enum class Priority : u8 {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,  ///< picked as batch leader before lower priorities
};

enum class OverflowPolicy {
  kBlock,   ///< submit() blocks until an outstanding request completes
  kReject,  ///< submit() throws QueueFullError immediately
};

/// Thrown by submit() under OverflowPolicy::kReject when the outstanding
/// bound is reached.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError()
      : std::runtime_error(
            "CompressionService: outstanding-request bound reached") {}
};

/// How transient failures are retried before the degraded fallback (see
/// the fault-tolerance model above).
struct RetryPolicy {
  /// Per-request total retry budget (beyond first attempts), shared
  /// across all stages: a shared-phase retry and an encode retry draw
  /// from the same budget, so a request never retries more than this
  /// many times end to end. (The executor-handoff retry is a per-handoff
  /// bound reusing this value — it happens before any stage runs.)
  int max_attempts = 2;
  util::BackoffPolicy backoff;
};

struct ServiceConfig {
  int workers = 0;  ///< worker pool size; 0 = hardware concurrency
  /// Bound on outstanding (admitted, not yet completed) requests.
  std::size_t queue_capacity = 256;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// How long the scheduler lingers collecting batch members after it has
  /// a leader. 0 disables batching (every request dispatches solo).
  double batch_window_seconds = 500e-6;
  std::size_t batch_max_requests = 32;
  /// Cap on the batch's pooled symbol total.
  std::size_t batch_max_symbols = std::size_t{1} << 20;
  /// Requests larger than this never batch: they dispatch solo,
  /// immediately, because they amortize their own codebook build.
  std::size_t batch_eligible_symbols = 64 * 1024;
  bool enable_cache = true;
  CodebookCache::Config cache;
  /// Adaptive codebook lifecycle under drifting traffic
  /// (svc/codebook_manager.hpp): tracks the divergence between each
  /// cached book and live traffic, rebuilds asynchronously past a
  /// threshold, hot-swaps between batches. Requires enable_cache; off by
  /// default. New fault sites: svc.adaptive.estimate,
  /// svc.adaptive.rebuild.
  AdaptivePolicy adaptive;
  RetryPolicy retry;
  /// Fall back to the solo serial pipeline when the batched path fails
  /// (after retries). Off: the batched path's error fails the future.
  bool degraded_fallback = true;
  /// Time source for deadlines, backoff sleeps and the scheduler's batch
  /// window. nullptr = the real steady clock; tests inject a
  /// util::VirtualClock to drive every time-dependent path
  /// deterministically. Must outlive the service.
  const util::Clock* clock = nullptr;
};

/// Per-request submit() parameters beyond the payload and pipeline config.
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  Deadline deadline = Deadline::none();
};

template <typename Sym>
struct CompressResult {
  /// The codebook the stream was encoded against. Shared: batch members
  /// and cache hits all point at one frozen instance.
  std::shared_ptr<const Codebook> codebook;
  EncodedStream stream;
  bool cache_hit = false;
  /// Served by the solo serial fallback after the batched path failed.
  bool degraded = false;
  /// How many requests shared this codebook build (the batch size).
  std::size_t batch_requests = 1;
  double queue_seconds = 0;   ///< admission → batch start
  double encode_seconds = 0;  ///< this request's encode stage alone
};

/// What submit() hands back: the result future plus the best-effort
/// cancellation handle.
template <typename Sym>
struct Submission {
  std::future<CompressResult<Sym>> result;
  RequestHandle handle;
};

/// Result of a fused lossy request (submit_lossy): the self-contained
/// PHL2 container plus the fused-path report. Lossy requests dispatch
/// solo (a float field amortizes its own codebook build) but share the
/// service's admission bound, worker pool, deadline/cancel machinery and
/// — through the residual-histogram fingerprint — its codebook cache.
struct LossyResult {
  std::vector<u8> container;
  lossy::FusedReport report;
  bool cache_hit = false;    ///< codebook came from the sharded-LRU cache
  double queue_seconds = 0;  ///< admission → fused pass start
};

struct LossySubmission {
  std::future<LossyResult> result;
  RequestHandle handle;
};

/// Decode a service result back to symbols (convenience inverse).
/// `cancel` is polled cooperatively inside the decode walk, so a caller
/// with a deadline (e.g. the RPC server's decompress op) can abandon a
/// decode mid-stream.
template <typename Sym>
[[nodiscard]] std::vector<Sym> decompress(const CompressResult<Sym>& r,
                                          int threads = 0,
                                          const CancelToken* cancel = nullptr);

/// The fingerprint seed for a config: folds the fields that change which
/// codebook gets built (alphabet size, builder kind), so configs that
/// would build different books never share a cache entry. Exposed so
/// tests can plant cache entries under the exact key the service computes.
[[nodiscard]] u64 cache_seed(const PipelineConfig& cfg);

template <typename Sym>
class CompressionService {
 public:
  explicit CompressionService(ServiceConfig cfg = {});
  /// Drains every admitted request, then stops the scheduler and workers.
  /// Submitters blocked at the capacity bound are woken and receive
  /// std::logic_error before teardown proceeds.
  ~CompressionService();
  CompressionService(const CompressionService&) = delete;
  CompressionService& operator=(const CompressionService&) = delete;

  /// Submit `data` for compression under `pipeline`. The symbols are
  /// copied — the caller's buffer may be reused immediately. Applies the
  /// admission policy (see OverflowPolicy); throws std::logic_error after
  /// shutdown began. With a deadline set, a blocked submit() gives up at
  /// the deadline and the returned future fails with DeadlineExceeded
  /// instead of the caller blocking past it.
  [[nodiscard]] Submission<Sym> submit(std::span<const Sym> data,
                                       const PipelineConfig& pipeline,
                                       const SubmitOptions& opts);

  /// Ownership-transfer overload: moves `data` into the request instead
  /// of copying it. For callers whose buffer has no further use — the RPC
  /// server's hot path, where the payload was just read off the wire.
  [[nodiscard]] Submission<Sym> submit(std::vector<Sym>&& data,
                                       const PipelineConfig& pipeline,
                                       const SubmitOptions& opts);

  /// Deadline-less convenience overload (the PR-2 API shape).
  [[nodiscard]] std::future<CompressResult<Sym>> submit(
      std::span<const Sym> data, const PipelineConfig& pipeline,
      Priority priority = Priority::kNormal);

  /// Submit a float field for fused error-bounded lossy compression
  /// (lossy/fused.hpp). The field is moved in; the request takes the solo
  /// dispatch path under the same admission bound, deadline and
  /// cancellation semantics as submit(). The quantizer width must match
  /// this service's symbol width: cfg.nbins <= 256 on the u8 instance,
  /// larger alphabets on the u16 instance (std::invalid_argument
  /// otherwise — the RPC server routes by nbins). Codebooks are looked up
  /// in / inserted into cache() under the residual quant-code histogram's
  /// fingerprint; the stages have no retry/degraded tier (the fused pass
  /// has no batch machinery to fall back from), so a stage failure reaches
  /// the future after one attempt. Counters: lossy.requests ==
  /// lossy.completed + lossy.failed (rejected submissions throw before
  /// counting as requests).
  [[nodiscard]] LossySubmission submit_lossy(std::vector<float>&& field,
                                             data::Dims dims,
                                             const lossy::FusedConfig& cfg,
                                             const SubmitOptions& opts = {});

  /// Block until every request admitted before this call has completed.
  void drain();

  /// Outstanding (admitted, not yet completed) requests right now.
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] CodebookCache& cache() { return cache_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  /// The adaptive lifecycle manager, or nullptr when
  /// ServiceConfig::adaptive.enabled is false (or the cache is off).
  [[nodiscard]] CodebookManager* adaptive() { return adaptive_.get(); }

 private:
  /// Lifecycle state every request kind carries.
  struct Ticket {
    Deadline deadline;
    std::shared_ptr<detail::HandleState> handle;
    double enqueue_us = 0;  ///< trace-recorder clock at admission
    /// Remaining per-request retry budget, shared across stages.
    int retry_budget = 0;
  };

  struct Request : Ticket {
    static constexpr const char* kSubmitted = "svc.requests_submitted";
    static constexpr const char* kCompleted = "svc.requests_completed";
    static constexpr const char* kFailed = nullptr;
    std::vector<Sym> data;
    PipelineConfig pipeline;
    Priority priority = Priority::kNormal;
    std::promise<CompressResult<Sym>> promise;
    [[nodiscard]] std::size_t input_bytes() const {
      return data.size() * sizeof(Sym);
    }
  };

  struct LossyJob : Ticket {
    static constexpr const char* kSubmitted = "lossy.requests";
    static constexpr const char* kCompleted = "lossy.completed";
    static constexpr const char* kFailed = "lossy.failed";
    std::vector<float> field;
    data::Dims dims;
    lossy::FusedConfig cfg;
    std::promise<LossyResult> promise;
    [[nodiscard]] std::size_t input_bytes() const {
      return field.size() * sizeof(float);
    }
  };

  // --- Admission (submitter thread). ---
  /// Set up `j`'s ticket (deadline, retry budget, a handle whose token is
  /// armed with the deadline) and fill `sub`; reserve an outstanding slot,
  /// blocking for space under kBlock; count `j` as submitted. `enqueue`
  /// runs under mu_ once the slot is held. False when the deadline passed
  /// before or while blocked — `j` is then failed with DeadlineExceeded.
  /// Throws std::logic_error after shutdown and QueueFullError under
  /// kReject.
  template <typename Job, typename Sub, typename Enqueue>
  bool admit(Job& j, const Deadline& deadline, Sub& sub, Enqueue&& enqueue);

  // --- Scheduling (scheduler thread, mu_ held unless noted). ---
  void scheduler_loop();
  /// Move cancelled / deadline-expired pending requests into the doom
  /// lists (resolution happens unlocked later).
  void prune_pending(std::vector<Request>& expired,
                     std::vector<Request>& cancelled);
  /// Prune, then move config-equal, batch-eligible pending requests into
  /// `batch`. Unclaimable requests land in the doom lists.
  void sweep_batch(std::vector<Request>& batch, std::size_t& total_syms,
                   std::vector<Request>& expired,
                   std::vector<Request>& cancelled);
  /// Fail doomed requests (DeadlineExceeded / CancelledError). No lock.
  void resolve_doomed(std::vector<Request>& expired,
                      std::vector<Request>& cancelled);
  /// Executor handoff: submit `task` to the pool, retrying transient
  /// refusals under RetryPolicy; when the pool stays unavailable, run it
  /// inline on the calling thread so the futures still resolve.
  void hand_off(std::function<void()> task);

  // --- Execution (pool worker). ---
  void run_batch(std::vector<Request> batch);
  /// Solo serial pipeline for one request after the batched path failed.
  void run_degraded(Request& r, double batch_start_us);
  void run_lossy(LossyJob& job);
  /// Cache lookup: find() under the histogram's fingerprint, guarded by
  /// covers(). `book` is null on a miss or guard reject.
  struct CacheLookup {
    Fingerprint key{};
    std::shared_ptr<const Codebook> book;
  };
  CacheLookup find_cached(std::span<const u64> freq,
                          const PipelineConfig& cfg, const char* hits,
                          const char* misses);
  /// Cache insert; a failed insert drops only the cache write.
  void store_cached(const Fingerprint& key,
                    const std::shared_ptr<const Codebook>& book);

  // --- Resolution: count first, then resolve, then free the slot. ---
  /// Success accounting.
  template <typename Job, typename Result>
  void complete(Job& j, Result&& res);
  /// Fail `j` under `counter`; `admitted` jobs also release their slot.
  template <typename Job>
  void fail_request(Job& j, std::exception_ptr err, const char* counter,
                    bool admitted = true);
  /// Typed-failure mapping: a stage abandon (OperationCancelled /
  /// DeadlineExpired) fails `j` with CancelledError / DeadlineExceeded and
  /// counts svc.cancelled_midstage; any other error fails it as is.
  template <typename Job>
  void fail_stage(Job& j, std::exception_ptr err);
  /// Fail `j` with DeadlineExceeded if its deadline has passed.
  template <typename Job>
  bool fail_if_expired(Job& j);
  /// Mark one outstanding request finished; wakes blocked submitters and
  /// drain().
  void finish_one();

  ServiceConfig cfg_;
  const util::Clock* clock_ = nullptr;  // resolved from cfg_.clock
  CodebookCache cache_;
  std::unique_ptr<WorkStealExecutor> pool_;
  /// Created after pool_ (rebuilds run on it) and stopped before pool_
  /// teardown in the dtor; null unless cfg_.adaptive.enabled.
  std::unique_ptr<CodebookManager> adaptive_;

  mutable std::mutex mu_;
  std::condition_variable sched_cv_;  // scheduler sleeps here
  std::condition_variable space_cv_;  // blocked submitters sleep here
  std::condition_variable drain_cv_;  // drain() and the dtor sleep here
  std::deque<Request> pending_;       // admitted, not yet batched
  std::size_t outstanding_ = 0;       // admitted, not yet completed
  std::size_t waiting_submitters_ = 0;  // blocked in submit() under kBlock
  bool stopping_ = false;

  std::atomic<u64> rng_salt_{0x5eedu};  // per-use backoff jitter streams

  std::thread scheduler_;  // started last in the ctor
};

extern template struct CompressResult<u8>;
extern template struct CompressResult<u16>;
extern template class CompressionService<u8>;
extern template class CompressionService<u16>;
extern template std::vector<u8> decompress<u8>(const CompressResult<u8>&,
                                               int, const CancelToken*);
extern template std::vector<u16> decompress<u16>(const CompressResult<u16>&,
                                                 int, const CancelToken*);

}  // namespace parhuff::svc
