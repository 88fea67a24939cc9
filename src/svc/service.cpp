#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "core/decode.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace parhuff::svc {

namespace {

using detail::ReqPhase;

[[nodiscard]] bool is_transient(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const util::TransientError&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// A stage abandoned work at a poll point (cancel or deadline). Outranks
/// transient classification: no retry, no degraded fallback, straight to
/// the typed failure.
[[nodiscard]] bool is_abandon(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const OperationCancelled&) {
    return true;
  } catch (const DeadlineExpired&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// The one retry loop: runs `attempt(n)` until it succeeds. A transient
/// failure is retried after a jittered backoff while `charge()` grants
/// budget; abandons and permanent errors return at once. Returns the last
/// error, or nullptr on success.
template <typename Attempt, typename Charge>
std::exception_ptr with_retry(Attempt&& attempt, Charge&& charge,
                              const util::BackoffPolicy& backoff,
                              const util::Clock& clock, Xoshiro256& rng) {
  for (int n = 0;; ++n) {
    try {
      attempt(n);
      return nullptr;
    } catch (...) {
      std::exception_ptr err = std::current_exception();
      if (is_abandon(err) || !is_transient(err) || !charge()) return err;
      obs::MetricsRegistry::global().counter_add("svc.retries");
      obs::TraceRecorder::global().instant("svc.retry", "svc");
      util::backoff_sleep(backoff, n, rng, clock);
    }
  }
}

/// Draw one retry from a request's budget; false once it is spent.
[[nodiscard]] bool take_retry(int& budget) {
  if (budget <= 0) return false;
  --budget;
  return true;
}

/// A fresh backoff-jitter stream per handoff / batch.
[[nodiscard]] Xoshiro256 jitter_rng(std::atomic<u64>& salt) {
  return Xoshiro256(salt.fetch_add(1, std::memory_order_relaxed) *
                        0x9e3779b97f4a7c15ull +
                    1);
}

template <typename Sym>
[[nodiscard]] std::size_t output_bytes(const CompressResult<Sym>& r) {
  return r.stream.stored_bytes();
}

[[nodiscard]] std::size_t output_bytes(const LossyResult& r) {
  return r.container.size();
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
  Request r;
  r.data = std::move(data);
  r.pipeline = pipeline;
  r.priority = opts.priority;
  Submission<Sym> sub;
  if (admit(r, opts.deadline, sub, [&] { pending_.push_back(std::move(r)); })) {
    obs::TraceRecorder::global().instant("svc.enqueue", "svc");
    sched_cv_.notify_one();
  }
  return sub;
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
  LossyJob j;
  j.field = std::move(field);
  j.dims = dims;
  j.cfg = cfg;
  LossySubmission sub;
  if (admit(j, opts.deadline, sub, [] {})) {
    obs::TraceRecorder::global().instant("svc.lossy_enqueue", "svc");
    // Solo dispatch, straight to the pool — a float field amortizes its
    // own codebook build, so the batching scheduler has nothing to add.
    auto boxed = std::make_shared<LossyJob>(std::move(j));
    hand_off([this, boxed] { run_lossy(*boxed); });
  }
  return sub;
}

template <typename Sym>
template <typename Job, typename Sub, typename Enqueue>
bool CompressionService<Sym>::admit(Job& j, const Deadline& deadline,
                                    Sub& sub, Enqueue&& enqueue) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  j.deadline = deadline;
  j.retry_budget = cfg_.retry.max_attempts;
  j.handle = std::make_shared<detail::HandleState>();
  // Arm the in-flight token before the request is shared: the stage
  // kernels poll it per chunk, so the deadline keeps biting even after
  // encode begins (core/cancel.hpp).
  if (!deadline.unlimited()) j.handle->token.arm_deadline(deadline.at, *clock_);
  sub.result = j.promise.get_future();
  sub.handle = RequestHandle(j.handle);

  // Dead on arrival, or the deadline passes while blocked at the bound:
  // the future fails instead of the caller blocking past its budget.
  bool admitted = !deadline.expired(clock_->now());
  if (admitted) {
    std::unique_lock<std::mutex> lock(mu_);
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
    }
    if (admitted) {
      ++outstanding_;
      reg.gauge_set("svc.queue_depth", static_cast<double>(outstanding_));
      j.enqueue_us = obs::TraceRecorder::global().now_us();
      enqueue();
    }
  }
  // A request that timed out at admission still counts as submitted, so
  // the submitted/resolved balance holds.
  reg.counter_add(Job::kSubmitted);
  if (!admitted) {
    j.handle->try_transition(ReqPhase::kPending, ReqPhase::kResolved);
    fail_request(j, std::make_exception_ptr(DeadlineExceeded{}),
                 "svc.deadline_exceeded", /*admitted=*/false);
  }
  return admitted;
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
  prune_pending(expired, cancelled);
  for (auto it = pending_.begin();
       it != pending_.end() && batch.size() < cfg_.batch_max_requests;) {
    if (!(it->pipeline == want) ||
        it->data.size() > cfg_.batch_eligible_symbols ||
        total_syms + it->data.size() > cfg_.batch_max_symbols) {
      ++it;
      continue;
    }
    if (it->handle->try_transition(ReqPhase::kPending,
                                   ReqPhase::kDispatched)) {
      total_syms += it->data.size();
      batch.push_back(std::move(*it));
    } else {
      cancelled.push_back(std::move(*it));  // cancel() won the race
    }
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
void CompressionService<Sym>::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Request> expired, cancelled;
  for (;;) {
    sched_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
    prune_pending(expired, cancelled);

    // Leader: oldest request of the highest priority present that the
    // scheduler can still claim (cancel() may win the race).
    std::vector<Request> batch;
    while (!pending_.empty()) {
      // max_element keeps the first of equals: the oldest.
      const auto lead = std::max_element(
          pending_.begin(), pending_.end(),
          [](const Request& a, const Request& b) {
            return a.priority < b.priority;
          });
      const bool claimed = lead->handle->try_transition(
          ReqPhase::kPending, ReqPhase::kDispatched);
      (claimed ? batch : cancelled).push_back(std::move(*lead));
      pending_.erase(lead);
      if (claimed) break;
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

    std::size_t total_syms = batch.front().data.size();
    if (total_syms <= cfg_.batch_eligible_symbols &&
        cfg_.batch_max_requests > 1 && cfg_.batch_window_seconds > 0) {
      const auto window_end =
          clock_->now() + util::Clock::dur(cfg_.batch_window_seconds);
      // Sweep, then linger until the batch is full or the window closes;
      // at shutdown, flush without lingering.
      for (bool closed = false;;) {
        sweep_batch(batch, total_syms, expired, cancelled);
        if (closed || stopping_ || batch.size() >= cfg_.batch_max_requests) {
          break;
        }
        closed = clock_->wait_until(sched_cv_, lock, window_end) ==
                 std::cv_status::timeout;
      }
    }
    lock.unlock();
    resolve_doomed(expired, cancelled);
    // std::function needs a copyable callable; promises are move-only, so
    // the batch rides behind a shared_ptr.
    auto boxed = std::make_shared<std::vector<Request>>(std::move(batch));
    hand_off([this, boxed] { run_batch(std::move(*boxed)); });
    lock.lock();
  }
}

template <typename Sym>
void CompressionService<Sym>::hand_off(std::function<void()> task) {
  Xoshiro256 rng = jitter_rng(rng_salt_);
  const std::exception_ptr err = with_retry(
      [&](int) { pool_->submit(task); },
      [left = cfg_.retry.max_attempts]() mutable { return take_retry(left); },
      cfg_.retry.backoff, *clock_, rng);
  if (!err) return;
  // Executor unavailable even after retries: run the work inline on the
  // calling thread. Throughput degrades but every future resolves.
  obs::MetricsRegistry::global().counter_add("svc.inline_dispatches");
  task();
}

template <typename Sym>
void CompressionService<Sym>::run_batch(std::vector<Request> batch) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceSpan batch_span("svc.batch", "svc");
  util::FaultInjector& faults = util::FaultInjector::global();
  const double batch_start_us = obs::TraceRecorder::global().now_us();
  Xoshiro256 rng = jitter_rng(rng_salt_);

  // Members whose deadline passed while the batch waited for a worker (or,
  // later, during a retry backoff) are failed before more work is spent
  // on them. Returns whether anyone is left.
  const auto drop_expired = [&] {
    std::erase_if(batch, [&](Request& r) { return fail_if_expired(r); });
    return !batch.empty();
  };
  if (!drop_expired()) return;

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
  } else if (std::none_of(batch.begin(), batch.end(), [](const Request& r) {
               return r.deadline.unlimited();
             })) {
    const auto latest = std::max_element(
        batch.begin(), batch.end(), [](const Request& a, const Request& b) {
          return a.deadline.at < b.deadline.at;
        });
    batch_token.arm_deadline(latest->deadline.at, *clock_);
  }

  // By value: drop_expired() reassigns `batch`'s elements.
  const PipelineConfig cfg = batch.front().pipeline;
  reg.counter_add("svc.batches");
  if (batch.size() > 1) reg.counter_add("svc.coalesced_requests", batch.size());
  for (const Request& r : batch) {
    reg.histo_record("svc.queue_wait_seconds",
                     (batch_start_us - r.enqueue_us) / 1e6);
  }

  // Shared stages: pooled histogram, cache lookup, codebook build. A
  // transient failure retries the whole shared phase while any live
  // member still has budget, charging every live member for the round
  // (they all consume the repeated work); exhaustion falls through to the
  // per-request degraded path.
  std::vector<u64> freq;
  std::shared_ptr<const Codebook> cb;
  bool cache_hit = false;
  const std::exception_ptr shared_err = with_retry(
      [&](int attempt) {
        if (attempt > 0 && !drop_expired()) return;
        Timer t;
        freq.clear();
        for (const Request& r : batch) {
          faults.maybe_throw("svc.histogram");
          std::vector<u64> h = build_histogram<Sym>(r.data, cfg, nullptr,
                                                    shared_cancel);
          if (freq.empty()) {
            freq = std::move(h);
          } else {
            for (std::size_t b = 0; b < freq.size(); ++b) freq[b] += h[b];
          }
        }
        reg.stage_add("svc.histogram", t.seconds());

        t.reset();
        CacheLookup look;
        if (cfg_.enable_cache) {
          look = find_cached(freq, cfg, "svc.cache_hits", "svc.cache_misses");
        }
        cache_hit = look.book != nullptr;
        cb = std::move(look.book);
        if (!cb) {
          faults.maybe_throw("svc.codebook");
          cb = std::make_shared<const Codebook>(
              build_codebook(freq, cfg, nullptr, shared_cancel));
          if (cfg_.enable_cache) store_cached(look.key, cb);
        }
        reg.stage_add("svc.codebook", t.seconds());
        // Feed the adaptive lifecycle manager (never throws, never fails
        // the batch; it exists only with the cache on). The degraded
        // fallback does not observe: its serial books are built outside
        // the cache's fingerprint discipline.
        if (adaptive_) adaptive_->observe(look.key, freq, cb, cfg, cache_hit);
      },
      [&] {
        bool any = false;
        for (Request& r : batch) any |= take_retry(r.retry_budget);
        return any;
      },
      cfg_.retry.backoff, *clock_, rng);
  if (batch.empty()) return;

  // Per-request encode: a transient failure retries while the request's
  // remaining budget allows, then degrades; a poll-point abort fails the
  // future with the typed error immediately.
  for (Request& r : batch) {
    CompressResult<Sym> res;
    std::exception_ptr err = shared_err;
    if (!err) {
      // Boundary re-check: a member whose own (earlier) deadline passed
      // during the shared phase fails here, before its encode starts — it
      // never reached a kernel, so it doesn't count as a mid-stage abort.
      if (fail_if_expired(r)) continue;
      err = with_retry(
          [&](int) {
            Timer t;
            faults.maybe_throw("svc.encode");
            res.stream = encode_and_annotate<Sym>(r.data, *cb, cfg, freq,
                                                  nullptr, &r.handle->token);
            res.encode_seconds = t.seconds();
          },
          [&] { return take_retry(r.retry_budget); }, cfg_.retry.backoff,
          *clock_, rng);
    }
    if (err) {
      // Abandons take the typed failure; anything else gets the solo
      // serial rescue, or fails as is.
      if (!is_abandon(err) && cfg_.degraded_fallback) {
        run_degraded(r, batch_start_us);
      } else {
        fail_stage(r, err);
      }
      continue;
    }
    res.codebook = cb;
    res.cache_hit = cache_hit;
    res.batch_requests = batch.size();
    res.queue_seconds = (batch_start_us - r.enqueue_us) / 1e6;
    reg.stage_add("svc.encode", res.encode_seconds);
    complete(r, std::move(res));
  }
}

template <typename Sym>
void CompressionService<Sym>::run_degraded(Request& r,
                                           double batch_start_us) {
  obs::TraceSpan span("svc.degraded", "svc");
  obs::MetricsRegistry::global().counter_add("svc.degraded");
  // The rescue inherits the request's remaining budget: a member whose
  // deadline already passed (or that was cancelled) while the batched path
  // failed gets no solo work at all, and the solo stages below poll the
  // member's own token so a rescue cannot overshoot mid-stage either.
  if (fail_if_expired(r)) return;
  CompressResult<Sym> res;
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
        build_histogram<Sym>(r.data, solo, nullptr, token);
    res.codebook = std::make_shared<const Codebook>(
        build_codebook(freq, solo, nullptr, token));
    res.stream = encode_and_annotate<Sym>(r.data, *res.codebook, solo, freq,
                                          nullptr, token);
    res.encode_seconds = t.seconds();
  } catch (...) {
    fail_stage(r, std::current_exception());
    return;
  }
  res.degraded = true;
  res.queue_seconds = (batch_start_us - r.enqueue_us) / 1e6;
  complete(r, std::move(res));
}

template <typename Sym>
void CompressionService<Sym>::run_lossy(LossyJob& job) {
  obs::TraceSpan span("svc.lossy", "svc");
  const double start_us = obs::TraceRecorder::global().now_us();
  obs::MetricsRegistry::global().histo_record(
      "svc.queue_wait_seconds", (start_us - job.enqueue_us) / 1e6);

  // cancel() wins outright while the job waited for a worker.
  if (!job.handle->try_transition(ReqPhase::kPending, ReqPhase::kDispatched)) {
    fail_request(job, std::make_exception_ptr(CancelledError{}),
                 "svc.cancelled_requests");
    return;
  }
  // Deadline boundary re-check before any quantization work is spent.
  if (fail_if_expired(job)) return;

  // Splice the service's cache into the fused path, keyed on the residual
  // histogram. The hooks run synchronously inside compress_field_fused,
  // and find() always precedes store(), which reuses its key.
  Fingerprint key{};
  lossy::CodebookSource books;
  books.find = [&](std::span<const u64> freq, const PipelineConfig& pc) {
    CacheLookup look =
        find_cached(freq, pc, "lossy.cache_hits", "lossy.cache_misses");
    key = look.key;
    return std::move(look.book);
  };
  books.store = [&](std::span<const u64>, const PipelineConfig&,
                    const std::shared_ptr<const Codebook>& cb) {
    store_cached(key, cb);
  };

  LossyResult res;
  try {
    res.container = lossy::compress_field_fused(
        job.field, job.dims, job.cfg, &res.report,
        cfg_.enable_cache ? &books : nullptr, &job.handle->token);
  } catch (...) {
    fail_stage(job, std::current_exception());
    return;
  }
  res.cache_hit = res.report.cache_hit;
  res.queue_seconds = (start_us - job.enqueue_us) / 1e6;
  complete(job, std::move(res));
}

template <typename Sym>
typename CompressionService<Sym>::CacheLookup
CompressionService<Sym>::find_cached(std::span<const u64> freq,
                                     const PipelineConfig& cfg,
                                     const char* hits, const char* misses) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  CacheLookup look;
  look.key = fingerprint_histogram(freq, cache_seed(cfg));
  std::shared_ptr<const Codebook> hit = cache_.find(look.key);
  if (!hit) {
    reg.counter_add(misses);
  } else if (CodebookCache::covers(*hit, freq)) {
    reg.counter_add(hits);
    look.book = std::move(hit);
  } else {
    // Fingerprint aliased onto a codebook missing some of these symbols —
    // the caller rebuilds, and the fresh book replaces the entry.
    reg.counter_add("svc.cache_guard_rejects");
  }
  return look;
}

template <typename Sym>
void CompressionService<Sym>::store_cached(
    const Fingerprint& key, const std::shared_ptr<const Codebook>& book) {
  try {
    cache_.insert(key, book);
  } catch (...) {
    // An insert failure loses only the cache write, never the request:
    // keep the fresh codebook, don't retry, don't degrade — later lookups
    // just miss and rebuild.
    obs::MetricsRegistry::global().counter_add("svc.cache_insert_dropped");
  }
}

template <typename Sym>
template <typename Job, typename Result>
void CompressionService<Sym>::complete(Job& j, Result&& res) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  reg.counter_add(Job::kCompleted);
  reg.counter_add("svc.input_bytes", j.input_bytes());
  reg.counter_add("svc.output_bytes", output_bytes(res));
  const double done_us = rec.now_us();
  reg.histo_record("svc.request_seconds", (done_us - j.enqueue_us) / 1e6);
  // Lifecycle span: admission → completion, anchored at the enqueue
  // timestamp (crosses threads, so TraceSpan's RAII doesn't fit).
  rec.complete("svc.request", "svc", j.enqueue_us, done_us - j.enqueue_us);
  j.promise.set_value(std::forward<Result>(res));
  finish_one();
}

template <typename Sym>
template <typename Job>
void CompressionService<Sym>::fail_request(Job& j, std::exception_ptr err,
                                           const char* counter,
                                           bool admitted) {
  // Count before resolving: a caller that wakes on the future already
  // sees the failure in the ledger.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  if (Job::kFailed) reg.counter_add(Job::kFailed);
  reg.counter_add(counter);
  j.promise.set_exception(std::move(err));
  if (admitted) finish_one();
}

template <typename Sym>
template <typename Job>
void CompressionService<Sym>::fail_stage(Job& j, std::exception_ptr err) {
  try {
    std::rethrow_exception(err);
  } catch (const OperationCancelled&) {
    obs::MetricsRegistry::global().counter_add("svc.cancelled_midstage");
    fail_request(j, std::make_exception_ptr(CancelledError{}),
                 "svc.cancelled_requests");
  } catch (const DeadlineExpired&) {
    obs::MetricsRegistry::global().counter_add("svc.cancelled_midstage");
    fail_request(j, std::make_exception_ptr(DeadlineExceeded{}),
                 "svc.deadline_exceeded");
  } catch (...) {
    fail_request(j, std::move(err), "svc.requests_failed");
  }
}

template <typename Sym>
template <typename Job>
bool CompressionService<Sym>::fail_if_expired(Job& j) {
  if (!j.deadline.expired(clock_->now())) return false;
  fail_request(j, std::make_exception_ptr(DeadlineExceeded{}),
               "svc.deadline_exceeded");
  return true;
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
