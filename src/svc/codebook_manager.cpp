#include "svc/codebook_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "util/fault_inject.hpp"

namespace parhuff::svc {

namespace {

/// Shannon entropy (bits/symbol) of a real-weighted histogram — the
/// decayed window is fractional, so the integer core/entropy.hpp helpers
/// don't apply.
double weighted_entropy(const std::vector<double>& w, double total) {
  if (total <= 0) return 0;
  double h = 0;
  for (const double wi : w) {
    if (wi <= 0) continue;
    const double p = wi / total;
    h -= p * std::log2(p);
  }
  return h;
}

/// Expected bits/symbol of encoding the window's traffic with `cb`.
/// +inf when the window holds mass on a symbol without a codeword: that
/// traffic cannot be encoded by this book at all (the same condition the
/// covers() guard rejects on the request path).
double weighted_expected_bits(const Codebook& cb, const std::vector<double>& w,
                              double total) {
  if (total <= 0) return 0;
  double bits = 0;
  const std::size_t n = std::min<std::size_t>(w.size(), cb.cw.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i] <= 0) continue;
    if (cb.cw[i].len == 0) return std::numeric_limits<double>::infinity();
    bits += w[i] * static_cast<double>(cb.cw[i].len);
  }
  for (std::size_t i = n; i < w.size(); ++i)
    if (w[i] > 0) return std::numeric_limits<double>::infinity();
  return bits / total;
}

/// The book's excess over the optimum for this traffic: expected bits
/// minus entropy. Huffman redundancy plus (for a stale book) drift loss.
double weighted_excess(const Codebook& cb, const std::vector<double>& w,
                       double total) {
  return weighted_expected_bits(cb, w, total) - weighted_entropy(w, total);
}

/// Round the decayed window back to an integer histogram for
/// build_codebook. Any bin with positive mass keeps at least count 1, so
/// the rebuilt book covers exactly the window's support; a window that is
/// an exact integer histogram (decay fully aged out, or first fold)
/// rounds back to itself — which is what makes a rebuilt book
/// byte-identical to a cold build from the same histogram.
std::vector<u64> round_window(const std::vector<double>& w) {
  std::vector<u64> counts(w.size(), 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] > 0)
      counts[i] = std::max<u64>(1, static_cast<u64>(std::llround(w[i])));
  }
  return counts;
}

}  // namespace

CodebookManager::CodebookManager(const AdaptivePolicy& policy,
                                 CodebookCache& cache, WorkStealExecutor& pool,
                                 const util::Clock& clock)
    : policy_(policy), cache_(cache), pool_(pool), clock_(clock) {}

CodebookManager::~CodebookManager() {
  stop();
  quiesce();
}

void CodebookManager::observe(const Fingerprint& fp, std::span<const u64> freq,
                              const std::shared_ptr<const Codebook>& book,
                              const PipelineConfig& cfg,
                              bool cache_hit) noexcept try {
  if (!book) return;
  auto& reg = obs::MetricsRegistry::global();

  std::optional<RebuildJob> job;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_) return;
    ++counters_.observations;
    reg.counter_add("svc.adaptive.observations");

    auto [it, created] = buckets_.try_emplace(fp.hash);
    Bucket& b = it->second;
    b.last_used = ++tick_;
    if (created) {
      b.fp = fp;
      b.cfg = cfg;
      b.window.assign(freq.size(), 0);
    }
    if (b.window.size() != freq.size()) {
      // Alphabet size changed under the same hash (fingerprint collision
      // across nbins); resync as if fresh.
      b.window.assign(freq.size(), 0);
      cache_hit = false;
    }
    b.cfg = cfg;

    if (!cache_hit) {
      // The batch built (or rebuilt) this bucket's book itself — a cold
      // bucket, a hard miss, or a covers() reject. Resync: the book IS
      // current traffic, so the window restarts from this batch and the
      // redundancy baseline is re-measured.
      for (std::size_t i = 0; i < freq.size(); ++i)
        b.window[i] = static_cast<double>(freq[i]);
      ++b.generation;
      b.armed = true;
      b.last_divergence = 0;
    } else {
      const double d = policy_.window_decay;
      for (std::size_t i = 0; i < freq.size(); ++i)
        b.window[i] = d * b.window[i] + static_cast<double>(freq[i]);
    }
    b.window_total = 0;
    for (const double wi : b.window) b.window_total += wi;

    // Divergence estimate (fault site svc.adaptive.estimate). A failure
    // here is absorbed: the request already encoded fine, the estimate
    // just goes stale for one batch.
    try {
      obs::ScopedStageTimer timer(reg, "svc.adaptive.estimate");
      util::FaultInjector::global().maybe_throw("svc.adaptive.estimate");
      const double excess = weighted_excess(*book, b.window, b.window_total);
      if (!cache_hit) {
        // Baseline the book's native redundancy at swap time so a
        // stationary-but-redundant distribution estimates ~0 forever.
        b.base_excess = std::isfinite(excess) ? excess : 0;
      }
      ++counters_.estimates;
      if (b.window_total >= policy_.min_window_symbols) {
        b.last_divergence = std::max(0.0, excess - b.base_excess);
        reg.gauge_set("svc.adaptive.divergence_bits", b.last_divergence);
        if (b.last_divergence <= policy_.divergence_low_bits) b.armed = true;
      }
    } catch (...) {
      ++counters_.estimate_failures;
      reg.counter_add("svc.adaptive.estimate_failures");
    }

    // Trigger decision: armed, over threshold, nothing already in flight
    // for this bucket, and a budget token available.
    if (b.last_divergence >= policy_.divergence_high_bits &&
        !b.rebuild_inflight) {
      if (!b.armed) {
        ++counters_.hysteresis_held;
        reg.counter_add("svc.adaptive.hysteresis_held");
      } else if (!take_rebuild_token()) {
        ++counters_.budget_deferred;
        reg.counter_add("svc.adaptive.budget_deferred");
      } else {
        b.armed = false;  // re-arms below divergence_low_bits
        b.rebuild_inflight = true;
        ++inflight_;
        ++counters_.rebuilds_started;
        reg.counter_add("svc.adaptive.rebuilds_started");
        job.emplace(RebuildJob{b.fp, b.cfg, round_window(b.window),
                               weighted_entropy(b.window, b.window_total),
                               b.generation});
      }
    }

    retire_excess_buckets();
    reg.gauge_set("svc.adaptive.tracked_buckets",
                  static_cast<double>(buckets_.size()));
  }

  if (job) {
    // Submit outside mu_: the task may start (and want the lock)
    // immediately. A rejected submit (executor shutting down, or the
    // svc.executor.submit fault site) falls back to running inline on
    // this thread — the rebuild was already accounted as started, so
    // dropping it would leak the lifecycle balance.
    try {
      pool_.submit([this, j = std::move(*job)] { run_rebuild(j); });
    } catch (...) {
      run_rebuild(*job);
    }
  }
} catch (...) {
  // observe() is advisory: never let bookkeeping failure (allocation
  // pressure included) propagate into the batch worker.
}

void CodebookManager::run_rebuild(const RebuildJob& job) {
  auto& reg = obs::MetricsRegistry::global();
  obs::ScopedStageTimer timer(reg, "svc.adaptive.rebuild");

  enum class Outcome { kApplied, kSuperseded, kCancelled, kFailed };
  std::shared_ptr<const Codebook> built;
  bool cancelled = false;
  bool failed = false;
  if (stop_token_.requested()) {
    cancelled = true;
  } else {
    try {
      util::FaultInjector::global().maybe_throw("svc.adaptive.rebuild");
      built = std::make_shared<const Codebook>(
          build_codebook(job.snapshot, job.cfg, nullptr, &stop_token_));
    } catch (const OperationCancelled&) {
      cancelled = true;
    } catch (...) {
      failed = true;
    }
  }

  Outcome outcome = Outcome::kApplied;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = buckets_.find(job.fp.hash);
    if (cancelled || stopping_) {
      outcome = Outcome::kCancelled;
    } else if (failed) {
      outcome = Outcome::kFailed;
    } else if (it == buckets_.end() ||
               it->second.generation != job.generation) {
      // The bucket was retired, or a hard-miss fresh build landed while
      // we were building: our snapshot describes older traffic than what
      // is already installed. Keep theirs.
      outcome = Outcome::kSuperseded;
    } else {
      try {
        // Hot swap through the ordinary cache insert path; the next
        // batch's find() picks it up. The swap is also a fault point
        // (same site as the build — both resolve the rebuild as failed).
        util::FaultInjector::global().maybe_throw("svc.adaptive.rebuild");
        cache_.insert(job.fp, built);
        Bucket& b = it->second;
        ++b.generation;
        const std::vector<double> snap(job.snapshot.begin(),
                                       job.snapshot.end());
        double snap_total = 0;
        for (const double c : snap) snap_total += c;
        b.base_excess = weighted_expected_bits(*built, snap, snap_total) -
                        job.snapshot_entropy;
        if (!std::isfinite(b.base_excess)) b.base_excess = 0;
        b.armed = true;
        b.last_divergence = 0;
        outcome = Outcome::kApplied;
      } catch (...) {
        outcome = Outcome::kFailed;
      }
    }
    if (it != buckets_.end()) it->second.rebuild_inflight = false;
    switch (outcome) {
      case Outcome::kApplied:
        ++counters_.rebuilds_applied;
        reg.counter_add("svc.adaptive.rebuilds_applied");
        break;
      case Outcome::kSuperseded:
        ++counters_.rebuilds_superseded;
        reg.counter_add("svc.adaptive.rebuilds_superseded");
        break;
      case Outcome::kCancelled:
        ++counters_.rebuilds_cancelled;
        reg.counter_add("svc.adaptive.rebuilds_cancelled");
        break;
      case Outcome::kFailed:
        ++counters_.rebuilds_failed;
        reg.counter_add("svc.adaptive.rebuilds_failed");
        break;
    }
    --inflight_;
    // Notify under mu_: once quiesce() sees inflight_ == 0 the manager may
    // be destroyed, so the cv must not be touched after the unlock.
    idle_cv_.notify_all();
  }
}

bool CodebookManager::take_rebuild_token() {
  if (policy_.max_rebuilds_per_period <= 0 ||
      policy_.budget_period_seconds <= 0)
    return true;  // budget disabled
  const double cap = static_cast<double>(policy_.max_rebuilds_per_period);
  const double rate = cap / policy_.budget_period_seconds;
  const auto now = clock_.now();
  if (!tokens_init_) {
    tokens_ = cap;
    tokens_at_ = now;
    tokens_init_ = true;
  } else if (now > tokens_at_) {
    const double elapsed =
        std::chrono::duration<double>(now - tokens_at_).count();
    tokens_ = std::min(cap, tokens_ + elapsed * rate);
    tokens_at_ = now;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void CodebookManager::retire_excess_buckets() {
  auto& reg = obs::MetricsRegistry::global();
  while (buckets_.size() > kMaxTrackedBuckets) {
    auto victim = buckets_.end();
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      if (it->second.rebuild_inflight) continue;  // never orphan a rebuild
      if (victim == buckets_.end() ||
          it->second.last_used < victim->second.last_used)
        victim = it;
    }
    if (victim == buckets_.end()) break;  // everything in flight
    buckets_.erase(victim);
    ++counters_.buckets_retired;
    reg.counter_add("svc.adaptive.buckets_retired");
  }
}

void CodebookManager::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  stop_token_.request();
}

void CodebookManager::quiesce() {
  std::unique_lock<std::mutex> lk(mu_);
  // The notify arrives from a real thread finishing run_rebuild, so a
  // plain predicate wait is deterministic under both clocks (no polling,
  // no sleeps).
  idle_cv_.wait(lk, [&] { return inflight_ == 0; });
}

CodebookManager::Counters CodebookManager::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

double CodebookManager::divergence(const Fingerprint& fp) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = buckets_.find(fp.hash);
  return it == buckets_.end() ? 0.0 : it->second.last_divergence;
}

std::size_t CodebookManager::inflight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return inflight_;
}

}  // namespace parhuff::svc
