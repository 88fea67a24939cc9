#pragma once
// Adaptive codebook lifecycle under drifting traffic (ROADMAP: PivCo-style
// continuous rebuilds, PAPERS.md #4; the soft-miss gap cuSZ+ observes,
// PAPERS.md #5).
//
// The sharded-LRU codebook cache (svc/codebook_cache.hpp) assumes traffic
// distributions *recur*: its fingerprint buckets each bin's share of the
// histogram to a log2 band, so nearby distributions collide into one entry
// on purpose. That coarseness is also a blind spot. When a tenant's
// distribution drifts *within* the fingerprint's bands, find() keeps
// hitting, covers() keeps passing (support is unchanged — support
// differences always change the fingerprint), and every batch silently
// pays up to ~1 bit/symbol of ratio against the stale book. The covers()
// guard only ever detects the hard miss; this manager detects the soft
// one.
//
// Mechanism, per fingerprint bucket:
//
//   * Recent-window histogram — observe() folds each batch's pooled
//     histogram (which run_batch already computed; nothing extra is
//     scanned) into an exponentially-decayed window, so the estimate
//     tracks "traffic lately", not "traffic ever".
//   * Divergence estimate — the incremental ratio-loss of keeping the
//     cached book: expected bits/symbol of the cached code under the
//     window histogram, minus the window's Shannon entropy, minus the
//     book's *native* redundancy on the histogram it was built from
//     (recorded at swap/build time). A fresh book therefore scores ~0
//     even for codes with high Huffman redundancy; only genuine drift
//     raises the score. A window symbol the book cannot encode at all
//     scores +inf (that request would also trip covers()).
//   * Trigger with hysteresis — a rebuild is triggered when the estimate
//     crosses divergence_high_bits while the bucket is armed; triggering
//     disarms the bucket, and it re-arms only after the estimate falls
//     back below divergence_low_bits (normally: after the swap). A bucket
//     oscillating inside the dead band can never thrash.
//   * Rebuild-rate budget — a token bucket on the injected util::Clock
//     (max_rebuilds_per_period tokens per budget_period_seconds) bounds
//     fleet-wide rebuild work no matter how many buckets drift at once.
//     A deferred trigger stays armed and re-fires on a later observe().
//   * Asynchronous rebuild — the build runs on the service's
//     WorkStealExecutor, off the request path: a snapshot of the window
//     histogram feeds the ordinary build_codebook(), and the finished
//     book hot-swaps in through the existing CodebookCache::insert()
//     path, so the *next* batch's find() simply gets the fresher book.
//     Requests in flight keep their shared_ptr — a swap never invalidates
//     a book mid-encode.
//
// Lifecycle accounting is exact: after quiesce(),
//   rebuilds_started == applied + superseded + cancelled + failed.
// A rebuild is superseded when the bucket's generation moved while it was
// in flight (a covers() hard miss rebuilt the bucket first, or the bucket
// was retired), cancelled when the manager began stopping before the swap,
// failed when the build or the cache insert threw (fault site
// svc.adaptive.rebuild). Estimate-path failures (fault site
// svc.adaptive.estimate) never touch the request: observe() swallows
// them and counts svc.adaptive.estimate_failures.
//
// Everything time-dependent reads the injected util::Clock, so the drift
// tests (tests/test_adaptive_drift.cpp) drive rebuild timing, hysteresis
// and swap points deterministically on util::VirtualClock with zero real
// sleeps; quiesce() is the deterministic swap barrier.

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include <condition_variable>

#include "core/cancel.hpp"
#include "core/pipeline.hpp"
#include "svc/codebook_cache.hpp"
#include "util/clock.hpp"
#include "util/work_steal.hpp"

namespace parhuff::svc {

/// Bound on tracked fingerprint buckets; least-recently-observed buckets
/// (never one with a rebuild in flight) are retired beyond it.
inline constexpr std::size_t kMaxTrackedBuckets = 256;

/// Tuning knobs for the adaptive codebook lifecycle
/// (ServiceConfig::adaptive). Defaults are conservative: enabled=false
/// leaves every existing deployment byte-for-byte unchanged.
struct AdaptivePolicy {
  bool enabled = false;
  /// Recent-window decay: window = decay * window + batch_histogram.
  /// 0 tracks only the latest batch; 0.5 weights the last ~2 batches.
  double window_decay = 0.5;
  /// Estimates are skipped (and never trigger) until the window holds at
  /// least this much mass — a bucket warmed by one tiny batch should not
  /// rebuild on noise.
  double min_window_symbols = 1024;
  /// Trigger threshold: estimated ratio loss (bits/symbol) at which an
  /// armed bucket starts an asynchronous rebuild.
  double divergence_high_bits = 0.25;
  /// Re-arm threshold: the bucket re-arms only when the estimate falls
  /// below this (hysteresis; must be <= divergence_high_bits).
  double divergence_low_bits = 0.10;
  /// Token-bucket rebuild budget: at most this many rebuilds per
  /// budget_period_seconds across all buckets (thrash bound).
  int max_rebuilds_per_period = 8;
  double budget_period_seconds = 1.0;
};

class CodebookManager {
 public:
  /// Internal lifecycle totals, mirrored into svc.adaptive.* counters.
  /// After quiesce(): started == applied + superseded + cancelled +
  /// failed.
  struct Counters {
    u64 observations = 0;
    u64 estimates = 0;
    u64 estimate_failures = 0;
    u64 rebuilds_started = 0;
    u64 rebuilds_applied = 0;
    u64 rebuilds_superseded = 0;
    u64 rebuilds_cancelled = 0;
    u64 rebuilds_failed = 0;
    u64 budget_deferred = 0;
    u64 hysteresis_held = 0;
    u64 buckets_retired = 0;
  };

  /// `cache`, `pool` and `clock` must outlive the manager. The manager
  /// never owns books: it only reads/writes `cache` through the same
  /// find/insert path the batcher uses.
  CodebookManager(const AdaptivePolicy& policy, CodebookCache& cache,
                  WorkStealExecutor& pool, const util::Clock& clock);
  /// stop() + quiesce(): no rebuild task references the manager after
  /// destruction returns.
  ~CodebookManager();
  CodebookManager(const CodebookManager&) = delete;
  CodebookManager& operator=(const CodebookManager&) = delete;

  /// Feed one batch's shared-phase outcome: the fingerprint the cache was
  /// consulted under, the pooled histogram, the book the batch encoded
  /// against, and whether that book came from the cache (false = the
  /// batch built fresh — a hard miss or a covers() guard reject — which
  /// resyncs the bucket: generation bump, window reset, redundancy
  /// re-baseline). Never throws and never fails the request; the
  /// estimate's fault site (svc.adaptive.estimate) is absorbed here.
  void observe(const Fingerprint& fp, std::span<const u64> freq,
               const std::shared_ptr<const Codebook>& book,
               const PipelineConfig& cfg, bool cache_hit) noexcept;

  /// Begin shutdown: rebuilds not yet applied resolve as cancelled, and
  /// the in-flight build's CancelToken is requested so a mid-build task
  /// abandons at its next poll point. Idempotent.
  void stop();

  /// Block until no rebuild is in flight. With the service drained this
  /// is the deterministic swap barrier the drift tests sequence batches
  /// around (no real sleeps — rebuilds run on the executor, not a timer).
  void quiesce();

  [[nodiscard]] Counters counters() const;
  /// Last divergence estimate for `fp` (0 when untracked) — test
  /// introspection.
  [[nodiscard]] double divergence(const Fingerprint& fp) const;
  /// Rebuilds currently in flight (test introspection).
  [[nodiscard]] std::size_t inflight() const;

  [[nodiscard]] const AdaptivePolicy& policy() const { return policy_; }

 private:
  struct Bucket {
    Fingerprint fp;
    PipelineConfig cfg;
    std::vector<double> window;  ///< decayed recent-traffic histogram
    double window_total = 0;
    /// Native redundancy of the current book on the histogram it was
    /// built/swapped from: expected_bits - entropy at that instant.
    double base_excess = 0;
    /// Bumped every time a new book lands for this bucket (fresh build
    /// observed, or a rebuild applied). An in-flight rebuild that comes
    /// home to a different generation is superseded.
    u64 generation = 0;
    bool rebuild_inflight = false;
    bool armed = true;  ///< hysteresis state
    double last_divergence = 0;
    u64 last_used = 0;  ///< LRU tick for kMaxTrackedBuckets retirement
  };

  /// One scheduled rebuild, snapshotted so the task touches no live
  /// bucket state.
  struct RebuildJob {
    Fingerprint fp;
    PipelineConfig cfg;
    std::vector<u64> snapshot;  ///< rounded window histogram
    double snapshot_entropy = 0;
    u64 generation = 0;  ///< bucket generation at launch
  };

  void run_rebuild(const RebuildJob& job);
  /// Token-bucket draw (caller holds mu_).
  bool take_rebuild_token();
  /// Retire least-recently-observed buckets beyond kMaxTrackedBuckets
  /// (caller holds mu_; in-flight buckets are never retired).
  void retire_excess_buckets();

  const AdaptivePolicy policy_;
  CodebookCache& cache_;
  WorkStealExecutor& pool_;
  const util::Clock& clock_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // quiesce() sleeps here
  std::unordered_map<u64, Bucket> buckets_;  // by fp.hash
  Counters counters_;
  std::size_t inflight_ = 0;
  bool stopping_ = false;
  u64 tick_ = 0;
  // Token bucket (under mu_): tokens_ replenishes continuously on clock_.
  double tokens_ = 0;
  util::Clock::time_point tokens_at_{};
  bool tokens_init_ = false;
  /// Requested at stop(): the in-flight build_codebook abandons at its
  /// next poll point instead of finishing a doomed swap.
  CancelToken stop_token_;
};

}  // namespace parhuff::svc
