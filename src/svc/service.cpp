#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "core/decode.hpp"
#include "core/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace parhuff::svc {

namespace {

using detail::ReqPhase;

/// The batch's pooled histogram under the request config's histogram
/// policy. Per-request histograms accumulate into `freq` so the codebook
/// covers every member. `cancel` is the batch-scope token the kernels
/// poll (see run_batch for how it is chosen).
template <typename Sym>
void accumulate_histogram(std::span<const Sym> data,
                          const PipelineConfig& cfg, std::vector<u64>& freq,
                          const CancelToken* cancel) {
  util::FaultInjector::global().maybe_throw("svc.histogram");
  std::vector<u64> h;
  switch (cfg.histogram) {
    case HistogramKind::kSerial:
      h = histogram_serial(data, cfg.nbins, cancel);
      break;
    case HistogramKind::kOpenMP:
      h = histogram_openmp(data, cfg.nbins, cfg.cpu_threads, cancel);
      break;
    case HistogramKind::kSimt:
      h = histogram_simt(data, cfg.nbins, nullptr, SimtHistogramConfig{},
                         cancel);
      break;
  }
  // Hard invariant, not an assert: every member of a batch was admitted
  // with an operator==-equal config, so the widths must agree. If a
  // future config change ever breaks that, fail the batch cleanly
  // instead of silently truncating the accumulation.
  if (h.size() != freq.size()) {
    throw std::logic_error(
        "CompressionService: histogram width mismatch inside a batch (" +
        std::to_string(h.size()) + " vs " + std::to_string(freq.size()) +
        " bins)");
  }
  for (std::size_t b = 0; b < freq.size(); ++b) freq[b] += h[b];
}

[[nodiscard]] bool is_transient(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const util::TransientError&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Why a stage abandoned work at a poll point — these outrank transient
/// classification: no retry, no degraded fallback, straight to the typed
/// failure.
enum class AbandonKind { kNone, kCancelled, kDeadline };

[[nodiscard]] AbandonKind abandon_kind(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const OperationCancelled&) {
    return AbandonKind::kCancelled;
  } catch (const DeadlineExpired&) {
    return AbandonKind::kDeadline;
  } catch (...) {
    return AbandonKind::kNone;
  }
}

}  // namespace

u64 cache_seed(const PipelineConfig& cfg) {
  u64 seed = 0x9e3779b97f4a7c15ull;
  seed ^= static_cast<u64>(cfg.codebook);
  seed *= 0x100000001b3ull;
  seed ^= static_cast<u64>(cfg.nbins);
  seed *= 0x100000001b3ull;
  return seed;
}

template <typename Sym>
std::vector<Sym> decompress(const CompressResult<Sym>& r, int threads,
                            const CancelToken* cancel) {
  // Tier selection lives in decode_auto: streams the pipeline annotated
  // with gap metadata take the fully parallel gap-array kernel, everything
  // else the chunk-parallel host decoder.
  return decode_auto<Sym>(r.stream, *r.codebook, threads, cancel);
}

template <typename Sym>
CompressionService<Sym>::CompressionService(ServiceConfig cfg)
    : cfg_(cfg),
      clock_(cfg.clock ? cfg.clock : &util::Clock::real()),
      cache_(cfg.cache),
      pool_(std::make_unique<WorkStealExecutor>(cfg.workers, clock_)) {
  if (cfg_.queue_capacity == 0) {
    throw std::invalid_argument(
        "CompressionService: queue_capacity must be positive");
  }
  if (cfg_.retry.max_attempts < 0) {
    throw std::invalid_argument(
        "CompressionService: retry.max_attempts must be >= 0");
  }
  if (cfg_.triage.quantile < 0.0 || cfg_.triage.quantile > 1.0) {
    throw std::invalid_argument(
        "CompressionService: triage.quantile must be in [0, 1]");
  }
  if (cfg_.adaptive.enabled) {
    if (cfg_.adaptive.window_decay < 0.0 || cfg_.adaptive.window_decay >= 1.0) {
      throw std::invalid_argument(
          "CompressionService: adaptive.window_decay must be in [0, 1)");
    }
    if (cfg_.adaptive.divergence_low_bits > cfg_.adaptive.divergence_high_bits) {
      throw std::invalid_argument(
          "CompressionService: adaptive.divergence_low_bits must not exceed "
          "divergence_high_bits");
    }
    // The manager watches cache-served books; without the cache there is
    // no book to watch and no insert path to swap through.
    if (cfg_.enable_cache) {
      adaptive_ = std::make_unique<CodebookManager>(cfg_.adaptive, cache_,
                                                    *pool_, *clock_);
    }
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

template <typename Sym>
CompressionService<Sym>::~CompressionService() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    // Wake submitters blocked at the capacity bound and wait for every
    // one of them to leave submit() (they observe stopping_ and throw)
    // before members start being torn down underneath them.
    space_cv_.notify_all();
    drain_cv_.wait(lock, [&] { return waiting_submitters_ == 0; });
  }
  sched_cv_.notify_all();
  scheduler_.join();  // flushes pending_ into the pool without lingering
  // Stop the adaptive manager before draining the pool: queued rebuilds
  // then resolve as cancelled instead of building books nobody will read.
  // pool_.reset() runs every queued rebuild task while the manager is
  // still alive, so its later member destruction quiesces trivially.
  if (adaptive_) adaptive_->stop();
  pool_.reset();  // drains dispatched batches, joins workers
}

template <typename Sym>
Submission<Sym> CompressionService<Sym>::submit(std::span<const Sym> data,
                                                const PipelineConfig& pipeline,
                                                const SubmitOptions& opts) {
  // Copy: async lifetime safety — the caller's buffer may be reused
  // immediately. The rvalue overload below skips this for owned buffers.
  return submit(std::vector<Sym>(data.begin(), data.end()), pipeline, opts);
}

template <typename Sym>
Submission<Sym> CompressionService<Sym>::submit(std::vector<Sym>&& data,
                                                const PipelineConfig& pipeline,
                                                const SubmitOptions& opts) {
  if (pipeline.nbins == 0) {
    throw std::invalid_argument("CompressionService: nbins must be positive");
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  Request r;
  r.data = std::move(data);
  r.pipeline = pipeline;
  r.priority = opts.priority;
  r.deadline = opts.deadline;
  r.retry_budget = cfg_.retry.max_attempts;
  r.handle = std::make_shared<detail::HandleState>();
  // Arm the in-flight token before the request is shared: the stage
  // kernels poll it per chunk, so the deadline keeps biting even after
  // encode begins (core/cancel.hpp).
  if (!opts.deadline.unlimited()) {
    r.handle->token.arm_deadline(opts.deadline.at, *clock_);
  }
  RequestHandle handle(r.handle);
  std::future<CompressResult<Sym>> fut = r.promise.get_future();

  // Dead on arrival, or the deadline passed while blocked at admission:
  // the future fails instead of the caller blocking past its budget.
  bool admitted = !opts.deadline.expired(clock_->now());
  if (admitted) {
    std::unique_lock<std::mutex> lock(mu_);
    admitted = admit(lock, r.deadline);
    if (admitted) {
      r.enqueue_us = obs::TraceRecorder::global().now_us();
      pending_.push_back(std::move(r));
    }
  }
  reg.counter_add("svc.requests_submitted");
  if (!admitted) {
    r.handle->try_transition(ReqPhase::kPending, ReqPhase::kResolved);
    r.promise.set_exception(std::make_exception_ptr(DeadlineExceeded{}));
    reg.counter_add("svc.deadline_exceeded");
    return Submission<Sym>{std::move(fut), std::move(handle)};
  }
  obs::TraceRecorder::global().instant("svc.enqueue", "svc");
  sched_cv_.notify_one();
  return Submission<Sym>{std::move(fut), std::move(handle)};
}

template <typename Sym>
std::future<CompressResult<Sym>> CompressionService<Sym>::submit(
    std::span<const Sym> data, const PipelineConfig& pipeline,
    Priority priority) {
  SubmitOptions opts;
  opts.priority = priority;
  return submit(data, pipeline, opts).result;
}

template <typename Sym>
bool CompressionService<Sym>::admit(std::unique_lock<std::mutex>& lock,
                                    const Deadline& deadline) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (stopping_) {
    throw std::logic_error("CompressionService: submit() after shutdown");
  }
  if (outstanding_ >= cfg_.queue_capacity) {
    if (cfg_.overflow == OverflowPolicy::kReject) {
      // Rejected before admission: svc.rejected_requests only — never a
      // request tick (the caller's throw IS the resolution).
      reg.counter_add("svc.rejected_requests");
      throw QueueFullError();
    }
    reg.counter_add("svc.backpressure_events");
    const auto has_space = [&] {
      return stopping_ || outstanding_ < cfg_.queue_capacity;
    };
    ++waiting_submitters_;
    bool admitted = true;
    if (deadline.unlimited()) {
      space_cv_.wait(lock, has_space);
    } else {
      // Predicate loop over the injected clock's wait primitive —
      // equivalent to cv.wait_until(pred) on the real clock, and
      // virtual-clock-driven in tests.
      while (!has_space()) {
        if (clock_->wait_until(space_cv_, lock, deadline.at) ==
                std::cv_status::timeout &&
            !has_space()) {
          admitted = false;
          break;
        }
      }
    }
    --waiting_submitters_;
    if (stopping_) {
      drain_cv_.notify_all();  // the destructor waits for us to leave
      throw std::logic_error("CompressionService: submit() after shutdown");
    }
    if (!admitted) return false;
  }
  ++outstanding_;
  reg.gauge_set("svc.queue_depth", static_cast<double>(outstanding_));
  return true;
}

template <typename Sym>
LossySubmission CompressionService<Sym>::submit_lossy(
    std::vector<float>&& field, data::Dims dims, const lossy::FusedConfig& cfg,
    const SubmitOptions& opts) {
  // The quantizer alphabet must match this instance's symbol width — the
  // fused path Huffman-codes the residual over Sym, so a u8 service can
  // only serve nbins <= 256 and a u16 service only wider alphabets. The
  // RPC front end routes on exactly this predicate.
  if ((cfg.nbins <= 256) != (sizeof(Sym) == 1)) {
    throw std::invalid_argument(
        "CompressionService: lossy nbins does not match this service's "
        "symbol width (nbins <= 256 belongs on the u8 instance)");
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  LossyJob j;
  j.field = std::move(field);
  j.dims = dims;
  j.cfg = cfg;
  j.deadline = opts.deadline;
  j.handle = std::make_shared<detail::HandleState>();
  if (!opts.deadline.unlimited()) {
    j.handle->token.arm_deadline(opts.deadline.at, *clock_);
  }
  RequestHandle handle(j.handle);
  std::future<LossyResult> fut = j.promise.get_future();

  // Dead on arrival, or the deadline passed while blocked at admission:
  // counts as a request AND a failure so lossy.requests == completed +
  // failed holds.
  bool admitted = !opts.deadline.expired(clock_->now());
  if (admitted) {
    std::unique_lock<std::mutex> lock(mu_);
    admitted = admit(lock, j.deadline);
    if (admitted) j.enqueue_us = obs::TraceRecorder::global().now_us();
  }
  reg.counter_add("lossy.requests");
  if (!admitted) {
    j.handle->try_transition(ReqPhase::kPending, ReqPhase::kResolved);
    j.promise.set_exception(std::make_exception_ptr(DeadlineExceeded{}));
    reg.counter_add("lossy.failed");
    reg.counter_add("svc.deadline_exceeded");
    return LossySubmission{std::move(fut), std::move(handle)};
  }
  obs::TraceRecorder::global().instant("svc.lossy_enqueue", "svc");

  // Solo dispatch, straight to the pool — a float field amortizes its own
  // codebook build, so the batching scheduler has nothing to add. The
  // shared_ptr box gives std::function the copyable callable it needs; the
  // inline fallback preserves the resolve-always invariant when the
  // executor refuses the handoff (matching dispatch()'s last resort).
  auto boxed = std::make_shared<LossyJob>(std::move(j));
  try {
    pool_->submit([this, boxed] { run_lossy(*boxed); });
  } catch (...) {
    reg.counter_add("svc.inline_dispatches");
    run_lossy(*boxed);
  }
  return LossySubmission{std::move(fut), std::move(handle)};
}

template <typename Sym>
void CompressionService<Sym>::prune_pending(std::vector<Request>& expired,
                                            std::vector<Request>& cancelled) {
  const auto now = clock_->now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->handle->load() == ReqPhase::kCancelled) {
      cancelled.push_back(std::move(*it));
      it = pending_.erase(it);
    } else if (it->deadline.expired(now) &&
               it->handle->try_transition(ReqPhase::kPending,
                                          ReqPhase::kResolved)) {
      expired.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

template <typename Sym>
void CompressionService<Sym>::sweep_batch(std::vector<Request>& batch,
                                          std::size_t& total_syms,
                                          std::vector<Request>& expired,
                                          std::vector<Request>& cancelled) {
  // By value: push_back below may reallocate `batch` and a reference into
  // it would dangle.
  const PipelineConfig want = batch.front().pipeline;
  const auto now = clock_->now();
  // Deadline-aware admission: a member whose remaining budget is below
  // the expected service time cannot finish — fail it now instead of
  // spending batch work on it (svc.triage_skipped).
  const double expected = expected_service_seconds();
  for (auto it = pending_.begin();
       it != pending_.end() && batch.size() < cfg_.batch_max_requests;) {
    if (it->handle->load() == ReqPhase::kCancelled) {
      cancelled.push_back(std::move(*it));
      it = pending_.erase(it);
      continue;
    }
    if (!(it->pipeline == want) ||
        it->data.size() > cfg_.batch_eligible_symbols ||
        total_syms + it->data.size() > cfg_.batch_max_symbols) {
      ++it;
      continue;
    }
    if (it->deadline.expired(now) ||
        it->deadline.remaining_seconds(now) < expected) {
      if (it->handle->try_transition(ReqPhase::kPending, ReqPhase::kResolved)) {
        if (!it->deadline.expired(now)) {
          obs::MetricsRegistry::global().counter_add("svc.triage_skipped");
        }
        expired.push_back(std::move(*it));
      } else {
        cancelled.push_back(std::move(*it));
      }
      it = pending_.erase(it);
      continue;
    }
    if (!it->handle->try_transition(ReqPhase::kPending,
                                    ReqPhase::kDispatched)) {
      cancelled.push_back(std::move(*it));  // cancel() won the race
      it = pending_.erase(it);
      continue;
    }
    total_syms += it->data.size();
    batch.push_back(std::move(*it));
    it = pending_.erase(it);
  }
}

template <typename Sym>
void CompressionService<Sym>::resolve_doomed(std::vector<Request>& expired,
                                             std::vector<Request>& cancelled) {
  for (Request& r : expired) {
    fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                 "svc.deadline_exceeded");
  }
  expired.clear();
  for (Request& r : cancelled) {
    fail_request(r, std::make_exception_ptr(CancelledError{}),
                 "svc.cancelled_requests");
  }
  cancelled.clear();
}

template <typename Sym>
void CompressionService<Sym>::fail_request(Request& r, std::exception_ptr err,
                                           const char* counter) {
  // Count before resolving: a caller that wakes on the future already
  // sees the failure in the ledger.
  obs::MetricsRegistry::global().counter_add(counter);
  r.promise.set_exception(std::move(err));
  finish_one();
}

template <typename Sym>
void CompressionService<Sym>::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Request> expired, cancelled;
  for (;;) {
    sched_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
    prune_pending(expired, cancelled);

    // Leader: oldest request of the highest priority present that the
    // scheduler can still claim (cancel() may win the race).
    std::vector<Request> batch;
    std::size_t total_syms = 0;
    while (!pending_.empty()) {
      auto lead = pending_.begin();
      for (auto it = std::next(lead); it != pending_.end(); ++it) {
        if (static_cast<int>(it->priority) >
            static_cast<int>(lead->priority)) {
          lead = it;
        }
      }
      if (lead->handle->try_transition(ReqPhase::kPending,
                                       ReqPhase::kDispatched)) {
        total_syms = lead->data.size();
        batch.push_back(std::move(*lead));
        pending_.erase(lead);
        break;
      }
      cancelled.push_back(std::move(*lead));
      pending_.erase(lead);
    }

    if (batch.empty()) {
      if (!expired.empty() || !cancelled.empty()) {
        lock.unlock();
        resolve_doomed(expired, cancelled);
        lock.lock();
        continue;
      }
      if (stopping_) return;
      continue;
    }

    const bool batchable = total_syms <= cfg_.batch_eligible_symbols &&
                           cfg_.batch_max_requests > 1 &&
                           cfg_.batch_window_seconds > 0;
    if (batchable) {
      const auto window_end =
          clock_->now() + util::Clock::dur(cfg_.batch_window_seconds);
      for (;;) {
        sweep_batch(batch, total_syms, expired, cancelled);
        if (batch.size() >= cfg_.batch_max_requests) break;
        if (stopping_) {  // shutdown: flush without lingering
          sweep_batch(batch, total_syms, expired, cancelled);
          break;
        }
        if (clock_->wait_until(sched_cv_, lock, window_end) ==
            std::cv_status::timeout) {
          sweep_batch(batch, total_syms, expired, cancelled);
          break;
        }
      }
    }
    lock.unlock();
    resolve_doomed(expired, cancelled);
    dispatch(std::move(batch));
    lock.lock();
  }
}

template <typename Sym>
void CompressionService<Sym>::dispatch(std::vector<Request> batch) {
  // std::function needs a copyable callable; promises are move-only, so
  // the batch rides behind a shared_ptr.
  auto boxed = std::make_shared<std::vector<Request>>(std::move(batch));
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  Xoshiro256 rng(rng_salt_.fetch_add(1, std::memory_order_relaxed) *
                     0x9e3779b97f4a7c15ull +
                 1);
  for (int attempt = 0;; ++attempt) {
    try {
      pool_->submit([this, boxed] { run_batch(std::move(*boxed)); });
      return;
    } catch (...) {
      if (!is_transient(std::current_exception()) ||
          attempt >= cfg_.retry.max_attempts) {
        break;
      }
      // Executor handoff happens before any member's stage work starts, so
      // this bound is per batch, not drawn from the members' budgets.
      reg.counter_add("svc.retries");
      util::backoff_sleep(cfg_.retry.backoff, attempt, rng, *clock_);
    }
  }
  // Executor unavailable even after retries: run the batch inline on the
  // scheduler thread. Throughput degrades but every future resolves.
  reg.counter_add("svc.inline_dispatches");
  run_batch(std::move(*boxed));
}

template <typename Sym>
void CompressionService<Sym>::run_batch(std::vector<Request> batch) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  obs::TraceSpan batch_span("svc.batch", "svc");
  util::FaultInjector& faults = util::FaultInjector::global();
  const double batch_start_us = rec.now_us();
  Xoshiro256 rng(rng_salt_.fetch_add(1, std::memory_order_relaxed) *
                     0xbf58476d1ce4e5b9ull +
                 1);

  // Members whose deadline passed while the batch waited for a worker are
  // failed before any work is spent on them.
  {
    const auto now = clock_->now();
    std::vector<Request> live;
    live.reserve(batch.size());
    for (Request& r : batch) {
      if (r.deadline.expired(now)) {
        fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                     "svc.deadline_exceeded");
      } else {
        live.push_back(std::move(r));
      }
    }
    batch = std::move(live);
  }
  if (batch.empty()) return;

  // Cancel scope for the shared stages. A solo batch polls its member's
  // own token, so a post-dispatch cancel() or the member's deadline aborts
  // the histogram/codebook mid-kernel. A multi-member batch arms a
  // batch-local token with the *latest* member deadline (the shared work
  // serves everyone; earlier expiries are caught at the per-member encode
  // boundary below). `solo_state` pins the handle so the token outlives
  // any member failed during the retry sweep.
  CancelToken batch_token;
  std::shared_ptr<detail::HandleState> solo_state;
  const CancelToken* shared_cancel = &batch_token;
  if (batch.size() == 1) {
    solo_state = batch.front().handle;
    shared_cancel = &solo_state->token;
  } else {
    auto latest = Deadline::clock::time_point::min();
    bool all_limited = true;
    for (const Request& r : batch) {
      if (r.deadline.unlimited()) {
        all_limited = false;
        break;
      }
      latest = std::max(latest, r.deadline.at);
    }
    if (all_limited) batch_token.arm_deadline(latest, *clock_);
  }

  // By value: the deadline triage in the retry loop reassigns `batch`, and
  // a reference into the old vector would dangle (the same trap the
  // scheduler's sweep_batch documents).
  const PipelineConfig cfg = batch.front().pipeline;
  reg.counter_add("svc.batches");
  if (batch.size() > 1) reg.counter_add("svc.coalesced_requests", batch.size());
  for (const Request& r : batch) {
    reg.histo_record("svc.queue_wait_seconds",
                     (batch_start_us - r.enqueue_us) / 1e6);
  }

  // Shared stages: histogram pooling, cache lookup, codebook build. A
  // transient failure here retries the whole shared phase (with backoff);
  // exhaustion falls through to the per-request degraded path.
  std::shared_ptr<const Codebook> cb;
  std::vector<u64> freq;
  bool cache_hit = false;
  std::exception_ptr shared_err;
  for (int attempt = 0;; ++attempt) {
    try {
      Timer t;
      freq.assign(cfg.nbins, 0);
      for (const Request& r : batch) {
        accumulate_histogram<Sym>(r.data, cfg, freq, shared_cancel);
      }
      reg.stage_add("svc.histogram", t.seconds());

      t.reset();
      cb = nullptr;
      cache_hit = false;
      Fingerprint fp{};
      if (cfg_.enable_cache) {
        fp = fingerprint_histogram(freq, cache_seed(cfg));
        if (std::shared_ptr<const Codebook> hit = cache_.find(fp)) {
          if (CodebookCache::covers(*hit, freq)) {
            cb = std::move(hit);
            cache_hit = true;
            reg.counter_add("svc.cache_hits");
          } else {
            // Fingerprint aliased onto a codebook missing some of this
            // batch's symbols — rebuild; the fresh book replaces the entry.
            reg.counter_add("svc.cache_guard_rejects");
          }
        } else {
          reg.counter_add("svc.cache_misses");
        }
        if (!cb) {
          faults.maybe_throw("svc.codebook");
          cb = std::make_shared<const Codebook>(
              build_codebook(freq, cfg, nullptr, shared_cancel));
          try {
            cache_.insert(fp, cb);
          } catch (...) {
            // An insert failure loses only the cache write, never the
            // batch: keep the freshly built codebook, don't retry, don't
            // degrade — future batches just miss and rebuild.
            reg.counter_add("svc.cache_insert_dropped");
          }
        }
      } else {
        faults.maybe_throw("svc.codebook");
        cb = std::make_shared<const Codebook>(
            build_codebook(freq, cfg, nullptr, shared_cancel));
      }
      reg.stage_add("svc.codebook", t.seconds());
      // Feed the adaptive lifecycle manager (never throws, never fails
      // the batch). The degraded per-request fallback below deliberately
      // does not observe: its serial books are built outside the cache's
      // fingerprint discipline.
      if (adaptive_ && cfg_.enable_cache) {
        adaptive_->observe(fp, freq, cb, cfg, cache_hit);
      }
      shared_err = nullptr;
      break;
    } catch (...) {
      shared_err = std::current_exception();
      // A poll-point abort outranks transient classification: no retry.
      if (abandon_kind(shared_err) != AbandonKind::kNone) break;
      // The retry budget is per request, pooled across the shared phase:
      // retry while any live member still has budget, and charge every
      // live member for the round (they all consume the repeated work).
      int budget = 0;
      for (const Request& r : batch) {
        budget = std::max(budget, r.retry_budget);
      }
      if (!is_transient(shared_err) || budget <= 0) break;
      for (Request& r : batch) {
        if (r.retry_budget > 0) --r.retry_budget;
      }
      reg.counter_add("svc.retries");
      rec.instant("svc.retry", "svc");
      util::backoff_sleep(cfg_.retry.backoff, attempt, rng, *clock_);
      // Deadlines keep ticking while we back off.
      const auto now = clock_->now();
      std::vector<Request> live;
      live.reserve(batch.size());
      for (Request& r : batch) {
        if (r.deadline.expired(now)) {
          fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                       "svc.deadline_exceeded");
        } else {
          live.push_back(std::move(r));
        }
      }
      batch = std::move(live);
      if (batch.empty()) return;
    }
  }

  if (shared_err) {
    const AbandonKind kind = abandon_kind(shared_err);
    if (kind != AbandonKind::kNone) {
      // A stage kernel abandoned the shared work at a poll point. Fail
      // every member with the typed error — no retry, no degraded
      // fallback: the request asked to stop (or ran out of time), and
      // more work is exactly what it doesn't want.
      for (Request& r : batch) {
        reg.counter_add("svc.cancelled_midstage");
        if (kind == AbandonKind::kCancelled) {
          fail_request(r, std::make_exception_ptr(CancelledError{}),
                       "svc.cancelled_requests");
        } else {
          fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                       "svc.deadline_exceeded");
        }
      }
      return;
    }
    // Batched path is down for this batch: rescue each member through the
    // solo serial pipeline, or fail it with the shared error.
    for (Request& r : batch) {
      if (cfg_.degraded_fallback) {
        run_degraded(r, batch_start_us);
      } else {
        fail_request(r, shared_err, "svc.requests_failed");
      }
    }
    return;
  }

  // Per-request encode: a transient failure retries while the request's
  // remaining budget allows, then degrades; a poll-point abort fails the
  // future with the typed error immediately.
  for (Request& r : batch) {
    // Boundary re-check: a member whose own (earlier) deadline passed
    // during the shared phase fails here, before its encode starts — it
    // never reached a kernel, so it doesn't count as a mid-stage abort.
    if (r.deadline.expired(clock_->now())) {
      fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                   "svc.deadline_exceeded");
      continue;
    }
    CompressResult<Sym> res;
    std::exception_ptr err;
    for (int attempt = 0;; ++attempt) {
      try {
        Timer t;
        faults.maybe_throw("svc.encode");
        res.codebook = cb;
        res.stream =
            encode_with_codebook<Sym>(std::span<const Sym>(r.data), *cb, cfg,
                                      freq, nullptr, &r.handle->token);
        res.cache_hit = cache_hit;
        res.batch_requests = batch.size();
        res.encode_seconds = t.seconds();
        res.queue_seconds = (batch_start_us - r.enqueue_us) / 1e6;
        err = nullptr;
        break;
      } catch (...) {
        err = std::current_exception();
        if (abandon_kind(err) != AbandonKind::kNone) break;
        if (!is_transient(err) || r.retry_budget <= 0) break;
        --r.retry_budget;
        reg.counter_add("svc.retries");
        rec.instant("svc.retry", "svc");
        util::backoff_sleep(cfg_.retry.backoff, attempt, rng, *clock_);
      }
    }
    if (err) {
      const AbandonKind kind = abandon_kind(err);
      if (kind != AbandonKind::kNone) {
        reg.counter_add("svc.cancelled_midstage");
        if (kind == AbandonKind::kCancelled) {
          fail_request(r, std::make_exception_ptr(CancelledError{}),
                       "svc.cancelled_requests");
        } else {
          fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                       "svc.deadline_exceeded");
        }
        continue;
      }
      if (cfg_.degraded_fallback) {
        run_degraded(r, batch_start_us);
      } else {
        fail_request(r, err, "svc.requests_failed");
      }
      continue;
    }
    reg.stage_add("svc.encode", res.encode_seconds);
    reg.counter_add("svc.requests_completed");
    reg.counter_add("svc.input_bytes", r.data.size() * sizeof(Sym));
    reg.counter_add("svc.output_bytes", res.stream.stored_bytes());
    const double done_us = rec.now_us();
    reg.histo_record("svc.request_seconds", (done_us - r.enqueue_us) / 1e6);
    // Lifecycle span: admission → completion, anchored at the enqueue
    // timestamp (crosses threads, so TraceSpan's RAII doesn't fit).
    rec.complete("svc.request", "svc", r.enqueue_us, done_us - r.enqueue_us);
    r.promise.set_value(std::move(res));
    finish_one();
  }
}

template <typename Sym>
void CompressionService<Sym>::run_degraded(Request& r,
                                           double batch_start_us) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  obs::TraceSpan span("svc.degraded", "svc");
  reg.counter_add("svc.degraded");
  // The rescue inherits the request's remaining budget: a member whose
  // deadline already passed (or that was cancelled) while the batched path
  // failed gets no solo work at all, and the solo stages below poll the
  // member's own token so a rescue cannot overshoot mid-stage either.
  if (r.deadline.expired(clock_->now())) {
    fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                 "svc.deadline_exceeded");
    return;
  }
  try {
    // The solo serial path shares nothing with the batched machinery: its
    // own histogram, a serial-tree codebook, the serial encoder — and no
    // fault-injection sites, making it a true last resort.
    PipelineConfig solo = r.pipeline;
    solo.histogram = HistogramKind::kSerial;
    solo.codebook = CodebookKind::kSerialTree;
    solo.encoder = EncoderKind::kSerial;
    const CancelToken* token = &r.handle->token;
    Timer t;
    const std::vector<u64> freq =
        histogram_serial<Sym>(r.data, solo.nbins, token);
    auto cb = std::make_shared<const Codebook>(
        build_codebook(freq, solo, nullptr, token));
    CompressResult<Sym> res;
    res.codebook = cb;
    res.stream = encode_with_codebook<Sym>(std::span<const Sym>(r.data), *cb,
                                           solo, freq, nullptr, token);
    res.degraded = true;
    res.encode_seconds = t.seconds();
    res.queue_seconds = (batch_start_us - r.enqueue_us) / 1e6;
    reg.counter_add("svc.requests_completed");
    reg.counter_add("svc.input_bytes", r.data.size() * sizeof(Sym));
    reg.counter_add("svc.output_bytes", res.stream.stored_bytes());
    const double done_us = rec.now_us();
    reg.histo_record("svc.request_seconds", (done_us - r.enqueue_us) / 1e6);
    rec.complete("svc.request", "svc", r.enqueue_us, done_us - r.enqueue_us);
    r.promise.set_value(std::move(res));
    finish_one();
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    const AbandonKind kind = abandon_kind(err);
    if (kind == AbandonKind::kCancelled) {
      reg.counter_add("svc.cancelled_midstage");
      fail_request(r, std::make_exception_ptr(CancelledError{}),
                   "svc.cancelled_requests");
    } else if (kind == AbandonKind::kDeadline) {
      reg.counter_add("svc.cancelled_midstage");
      fail_request(r, std::make_exception_ptr(DeadlineExceeded{}),
                   "svc.deadline_exceeded");
    } else {
      fail_request(r, err, "svc.requests_failed");
    }
  }
}

template <typename Sym>
void CompressionService<Sym>::run_lossy(LossyJob& job) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  obs::TraceSpan span("svc.lossy", "svc");
  const double start_us = rec.now_us();
  reg.histo_record("svc.queue_wait_seconds",
                   (start_us - job.enqueue_us) / 1e6);

  // cancel() wins outright while the job waited for a worker.
  if (!job.handle->try_transition(ReqPhase::kPending, ReqPhase::kDispatched)) {
    job.promise.set_exception(std::make_exception_ptr(CancelledError{}));
    reg.counter_add("lossy.failed");
    reg.counter_add("svc.cancelled_requests");
    finish_one();
    return;
  }
  // Deadline boundary re-check before any quantization work is spent.
  if (job.deadline.expired(clock_->now())) {
    job.promise.set_exception(std::make_exception_ptr(DeadlineExceeded{}));
    reg.counter_add("lossy.failed");
    reg.counter_add("svc.deadline_exceeded");
    finish_one();
    return;
  }

  // Splice the service's sharded-LRU cache into the fused path. The hooks
  // run synchronously inside compress_field_fused, so capturing locals by
  // reference is safe. Keying mirrors run_batch: the residual histogram's
  // fingerprint under cache_seed(pc), guarded by covers() so an aliased
  // hit can never drop symbols.
  bool cache_hit = false;
  lossy::CodebookSource books;
  if (cfg_.enable_cache) {
    books.find = [this, &reg, &cache_hit](std::span<const u64> freq,
                                          const PipelineConfig& pc)
        -> std::shared_ptr<const Codebook> {
      const Fingerprint fp = fingerprint_histogram(freq, cache_seed(pc));
      if (std::shared_ptr<const Codebook> hit = cache_.find(fp)) {
        if (CodebookCache::covers(*hit, freq)) {
          cache_hit = true;
          reg.counter_add("lossy.cache_hits");
          return hit;
        }
        reg.counter_add("svc.cache_guard_rejects");
      }
      reg.counter_add("lossy.cache_misses");
      return nullptr;
    };
    books.store = [this, &reg](std::span<const u64> freq,
                               const PipelineConfig& pc,
                               const std::shared_ptr<const Codebook>& cb) {
      try {
        cache_.insert(fingerprint_histogram(freq, cache_seed(pc)), cb);
      } catch (...) {
        reg.counter_add("svc.cache_insert_dropped");
      }
    };
  }

  // One attempt, no retry tier: the fused pass has no batch machinery to
  // fall back from, and re-running a whole-field quantization on a
  // transient blip costs more than letting the caller decide.
  try {
    LossyResult res;
    res.container = lossy::compress_field_fused(
        job.field, job.dims, job.cfg, &res.report,
        cfg_.enable_cache ? &books : nullptr, &job.handle->token);
    res.cache_hit = cache_hit;
    res.queue_seconds = (start_us - job.enqueue_us) / 1e6;
    reg.counter_add("lossy.completed");
    reg.counter_add("svc.input_bytes", job.field.size() * sizeof(float));
    reg.counter_add("svc.output_bytes", res.container.size());
    const double done_us = rec.now_us();
    reg.histo_record("svc.request_seconds", (done_us - job.enqueue_us) / 1e6);
    rec.complete("svc.request", "svc", job.enqueue_us,
                 done_us - job.enqueue_us);
    job.promise.set_value(std::move(res));
    finish_one();
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    const AbandonKind kind = abandon_kind(err);
    reg.counter_add("lossy.failed");
    if (kind == AbandonKind::kCancelled) {
      reg.counter_add("svc.cancelled_midstage");
      job.promise.set_exception(std::make_exception_ptr(CancelledError{}));
      reg.counter_add("svc.cancelled_requests");
    } else if (kind == AbandonKind::kDeadline) {
      reg.counter_add("svc.cancelled_midstage");
      job.promise.set_exception(std::make_exception_ptr(DeadlineExceeded{}));
      reg.counter_add("svc.deadline_exceeded");
    } else {
      job.promise.set_exception(err);
      reg.counter_add("svc.requests_failed");
    }
    finish_one();
  }
}

template <typename Sym>
double CompressionService<Sym>::expected_service_seconds() const {
  // Triage estimate: a quantile of the observed end-to-end latency
  // (svc.request_seconds). Until enough samples accumulate the estimate
  // is 0, which disables triage — a cold service never sheds load on a
  // guess.
  if (!cfg_.triage.enabled) return 0.0;
  const obs::HistoStat stat =
      obs::MetricsRegistry::global().histo("svc.request_seconds");
  if (stat.count < cfg_.triage.min_samples) return 0.0;
  return stat.quantile(cfg_.triage.quantile);
}

template <typename Sym>
void CompressionService<Sym>::finish_one() {
  std::size_t now_outstanding;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    now_outstanding = outstanding_;
  }
  obs::MetricsRegistry::global().gauge_set(
      "svc.queue_depth", static_cast<double>(now_outstanding));
  space_cv_.notify_one();
  if (now_outstanding == 0) drain_cv_.notify_all();
}

template <typename Sym>
void CompressionService<Sym>::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

template <typename Sym>
std::size_t CompressionService<Sym>::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

template struct CompressResult<u8>;
template struct CompressResult<u16>;
template class CompressionService<u8>;
template class CompressionService<u16>;
template std::vector<u8> decompress<u8>(const CompressResult<u8>&, int,
                                        const CancelToken*);
template std::vector<u16> decompress<u16>(const CompressResult<u16>&, int,
                                          const CancelToken*);

}  // namespace parhuff::svc
