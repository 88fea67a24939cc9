// Fault-tolerance layer: the injector itself, backoff bounds, deadlines,
// cancellation, retry + degraded fallback, executor-failure inline
// dispatch, the shutdown-vs-blocked-submitter ordering, and the soak test
// that proves the service invariant: every submitted future resolves —
// with a value or a typed exception — under any injected failure mix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "data/quant.hpp"
#include "lossy/fused.hpp"
#include "obs/metrics.hpp"
#include "svc/deadline.hpp"
#include "svc/service.hpp"
#include "util/backoff.hpp"
#include "util/clock.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

using svc::CancelledError;
using svc::CompressionService;
using svc::Deadline;
using svc::DeadlineExceeded;
using svc::Priority;
using svc::ServiceConfig;
using svc::SubmitOptions;
using util::Clock;
using util::FaultInjector;
using util::InjectedFault;
using util::ScopedFaults;
using util::TransientError;
using util::VirtualClock;

PipelineConfig serial_config(std::size_t nbins = 256) {
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.histogram = HistogramKind::kSerial;
  cfg.codebook = CodebookKind::kSerialTree;
  cfg.encoder = EncoderKind::kSerial;
  return cfg;
}

std::vector<u8> ramp_data(std::size_t n, u64 seed = 7) {
  Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (auto& s : v) s = static_cast<u8>(rng.below(97));
  return v;
}

/// Fast-retry policy so fault-heavy tests don't sleep through real
/// backoff schedules.
svc::RetryPolicy fast_retry() {
  svc::RetryPolicy r;
  r.max_attempts = 2;
  r.backoff.initial_seconds = 20e-6;
  r.backoff.max_seconds = 200e-6;
  return r;
}

// --- FaultInjector. ----------------------------------------------------------

TEST(FaultInjector, CertainProbabilityAlwaysFires) {
  FaultInjector inj;
  inj.seed(1);
  inj.arm("stage.x", 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(inj.should_fail("stage.x"));
  EXPECT_THROW(inj.maybe_throw("stage.x"), InjectedFault);
  const auto st = inj.stats("stage.x");
  EXPECT_EQ(st.evaluations, 101u);
  EXPECT_EQ(st.fired, 101u);
}

TEST(FaultInjector, ZeroProbabilityAndUnknownSitesNeverFire) {
  FaultInjector inj;
  inj.arm("stage.x", 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fail("stage.x"));
    EXPECT_FALSE(inj.should_fail("never.armed"));
  }
  EXPECT_NO_THROW(inj.maybe_throw("stage.x"));
  EXPECT_FALSE(inj.armed());
  EXPECT_EQ(inj.total_fired(), 0u);
}

TEST(FaultInjector, DisarmStopsFiring) {
  FaultInjector inj;
  inj.arm("stage.x", 1.0);
  EXPECT_TRUE(inj.armed());
  EXPECT_TRUE(inj.should_fail("stage.x"));
  inj.disarm("stage.x");
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.should_fail("stage.x"));
}

TEST(FaultInjector, ProbabilityIsApproximatelyHonored) {
  FaultInjector inj;
  inj.seed(42);
  inj.arm("stage.x", 0.3);
  int fired = 0;
  for (int i = 0; i < 4000; ++i) fired += inj.should_fail("stage.x") ? 1 : 0;
  EXPECT_GT(fired, 4000 * 0.2);
  EXPECT_LT(fired, 4000 * 0.4);
}

TEST(FaultInjector, SpecParsingArmsSitesAndSkipsMalformedEntries) {
  FaultInjector inj;
  EXPECT_EQ(inj.arm_from_spec("svc.encode=1.0,svc.cache.find=0.5"), 2u);
  EXPECT_TRUE(inj.should_fail("svc.encode"));
  // Malformed entries are skipped, valid ones still land.
  FaultInjector inj2;
  EXPECT_EQ(inj2.arm_from_spec("=0.5,noequals,x=abc,good=1"), 1u);
  EXPECT_TRUE(inj2.should_fail("good"));
  EXPECT_FALSE(inj2.should_fail("x"));
  // Empty spec arms nothing.
  FaultInjector inj3;
  EXPECT_EQ(inj3.arm_from_spec(""), 0u);
}

TEST(FaultInjector, ScopedFaultsDisarmsOnExit) {
  FaultInjector inj;
  {
    ScopedFaults scope(inj);
    scope.arm("stage.x", 1.0).arm("stage.y", 1.0);
    EXPECT_TRUE(inj.should_fail("stage.x"));
  }
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.should_fail("stage.x"));
  EXPECT_FALSE(inj.should_fail("stage.y"));
}

TEST(FaultInjector, InjectedFaultIsTransient) {
  // The retry classifier keys on TransientError; injected faults must be
  // retryable by construction.
  try {
    throw InjectedFault("stage.x");
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("stage.x"), std::string::npos);
  }
}

// --- Backoff. ----------------------------------------------------------------

TEST(Backoff, DelayGrowsAndIsCappedAndJittered) {
  util::BackoffPolicy p;
  p.initial_seconds = 1e-3;
  p.multiplier = 2.0;
  p.max_seconds = 8e-3;
  p.jitter = 0.5;
  Xoshiro256 rng(9);
  for (int attempt = 0; attempt < 10; ++attempt) {
    double base = p.initial_seconds;
    for (int i = 0; i < attempt; ++i) base *= p.multiplier;
    if (base > p.max_seconds) base = p.max_seconds;
    for (int rep = 0; rep < 20; ++rep) {
      const double d = util::backoff_delay_seconds(p, attempt, rng);
      EXPECT_GE(d, base * (1.0 - p.jitter));
      EXPECT_LE(d, base);
    }
  }
}

TEST(Backoff, ZeroJitterIsDeterministic) {
  util::BackoffPolicy p;
  p.initial_seconds = 1e-3;
  p.multiplier = 4.0;
  p.max_seconds = 1.0;
  p.jitter = 0.0;
  Xoshiro256 rng(1);
  EXPECT_DOUBLE_EQ(util::backoff_delay_seconds(p, 0, rng), 1e-3);
  EXPECT_DOUBLE_EQ(util::backoff_delay_seconds(p, 1, rng), 4e-3);
  EXPECT_DOUBLE_EQ(util::backoff_delay_seconds(p, 2, rng), 16e-3);
}

// --- Deadline / handle state machine. ---------------------------------------

TEST(Deadline, ExpiryArithmetic) {
  EXPECT_TRUE(Deadline::none().unlimited());
  EXPECT_FALSE(Deadline::none().expired());
  EXPECT_TRUE(Deadline::in(-1.0).expired());
  EXPECT_TRUE(Deadline::in(0.0).expired());
  EXPECT_FALSE(Deadline::in(3600.0).expired());
  const auto tp = Deadline::clock::now() + std::chrono::hours(1);
  EXPECT_FALSE(Deadline::at_time(tp).expired());
}

TEST(Deadline, HandleStateExactlyOneTransitionWins) {
  svc::detail::HandleState st;
  EXPECT_TRUE(st.try_transition(svc::detail::ReqPhase::kPending,
                                svc::detail::ReqPhase::kDispatched));
  // Cancel lost the race — and every later claim fails too.
  EXPECT_FALSE(st.try_transition(svc::detail::ReqPhase::kPending,
                                 svc::detail::ReqPhase::kCancelled));
  EXPECT_FALSE(st.try_transition(svc::detail::ReqPhase::kPending,
                                 svc::detail::ReqPhase::kResolved));
  EXPECT_EQ(st.load(), svc::detail::ReqPhase::kDispatched);
}

// --- Pipeline cancellation hooks. --------------------------------------------

TEST(CancelToken, RequestedTokenAbortsCompressBetweenStages) {
  CancelToken tok;
  const auto data = ramp_data(4096);
  EXPECT_NO_THROW(
      (void)compress<u8>(data, serial_config(), nullptr, &tok));
  tok.request();
  EXPECT_THROW((void)compress<u8>(data, serial_config(), nullptr, &tok),
               OperationCancelled);
}

// --- Service: deadlines. -----------------------------------------------------

TEST(ServiceFault, ExpiredDeadlineAtSubmitFailsFastWithoutAdmission) {
  ServiceConfig sc;
  sc.workers = 2;
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(1000);
  SubmitOptions opts;
  opts.deadline = Deadline::in(-1.0);
  auto sub = svc.submit(std::span<const u8>(data), serial_config(), opts);
  EXPECT_THROW(sub.result.get(), DeadlineExceeded);
  // Never admitted: the handle can't be cancelled after the fact either.
  EXPECT_FALSE(sub.handle.cancel());
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(ServiceFault, PendingRequestPastDeadlineFailsWithDeadlineExceeded) {
  // A leader with config A holds the scheduler in its batch window; a
  // config-B request with a tiny deadline expires while pending and must
  // be pruned, not dispatched. All on the virtual clock: the batch window
  // and the deadline tick by query activity, not by real sleeping.
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(2e-3));
  ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 0.2;
  sc.clock = &vc;
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(2000);
  auto leader =
      svc.submit(std::span<const u8>(data), serial_config(256)).share();
  SubmitOptions opts;
  opts.deadline = Deadline::in(5e-3, vc);
  auto doomed =
      svc.submit(std::span<const u8>(data), serial_config(128), opts);
  EXPECT_THROW(doomed.result.get(), DeadlineExceeded);
  EXPECT_NO_THROW((void)leader.get());
  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);
}

// --- Service: cancellation. --------------------------------------------------

TEST(ServiceFault, CancelWinsWhilePendingAndFailsTheFuture) {
  // Same structure: the config-B request stays pending during the leader's
  // batch window, so cancel() beats dispatch deterministically. The window
  // is virtual-clock time — it cannot close before cancel() runs.
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(2e-3));
  ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 0.2;
  sc.clock = &vc;
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(2000);
  auto leader =
      svc.submit(std::span<const u8>(data), serial_config(256)).share();
  auto sub = svc.submit(std::span<const u8>(data), serial_config(128),
                        SubmitOptions{});
  EXPECT_TRUE(sub.handle.cancel());
  EXPECT_TRUE(sub.handle.cancelled());
  EXPECT_FALSE(sub.handle.cancel());  // second cancel is a no-op
  EXPECT_THROW(sub.result.get(), CancelledError);
  EXPECT_NO_THROW((void)leader.get());
  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(ServiceFault, CancelAfterCompletionIsRefused) {
  CompressionService<u8> svc;
  const auto data = ramp_data(2000);
  auto sub = svc.submit(std::span<const u8>(data), serial_config(),
                        SubmitOptions{});
  const auto res = sub.result.get();
  EXPECT_FALSE(sub.handle.cancel());
  EXPECT_EQ(svc::decompress(res), data);
}

// --- Service: retry and degraded fallback. -----------------------------------

TEST(ServiceFault, CodebookFaultsDegradeToSerialPathAndRoundTrip) {
  ScopedFaults scope(FaultInjector::global());
  scope.arm("svc.codebook", 1.0);  // every batched build attempt fails
  auto& reg = obs::MetricsRegistry::global();
  const u64 retries0 = reg.counter("svc.retries");
  const u64 degraded0 = reg.counter("svc.degraded");

  ServiceConfig sc;
  sc.workers = 2;
  sc.retry = fast_retry();
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(4000);
  const auto res =
      svc.submit(std::span<const u8>(data), serial_config()).get();
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(svc::decompress(res), data);
  EXPECT_GT(reg.counter("svc.retries"), retries0);
  EXPECT_GT(reg.counter("svc.degraded"), degraded0);
}

TEST(ServiceFault, DegradedRescueCannotOvershootExpiredDeadline) {
  // Regression: the batched encode burns the whole retry budget (each
  // backoff sleep advancing the virtual clock), so by the time the
  // degraded fallback is reached the request's deadline has passed. The
  // rescue must fail the future with DeadlineExceeded instead of spending
  // solo-pipeline work on — and then returning — a result the caller's
  // budget already disowned.
  ScopedFaults scope(FaultInjector::global());
  scope.arm("svc.encode", 1.0);
  auto& reg = obs::MetricsRegistry::global();
  const u64 degraded0 = reg.counter("svc.degraded");
  const u64 completed0 = reg.counter("svc.requests_completed");
  const u64 expired0 = reg.counter("svc.deadline_exceeded");

  VirtualClock vc;
  ServiceConfig sc;
  sc.workers = 1;
  sc.batch_max_requests = 1;
  sc.clock = &vc;
  sc.retry.max_attempts = 1;
  sc.retry.backoff.initial_seconds = 1.0;  // virtual: one sleep = 1 s
  sc.retry.backoff.max_seconds = 1.0;
  sc.retry.backoff.jitter = 0.0;
  CompressionService<u8> svc(sc);

  const auto data = ramp_data(4000);
  SubmitOptions opts;
  opts.deadline = Deadline::in(0.5, vc);  // expires inside the first backoff
  auto sub = svc.submit(std::span<const u8>(data), serial_config(), opts);
  EXPECT_THROW(sub.result.get(), DeadlineExceeded);
  svc.drain();
  EXPECT_GE(reg.counter("svc.degraded"), degraded0 + 1);  // fallback reached
  EXPECT_EQ(reg.counter("svc.requests_completed"), completed0);  // no rescue
  EXPECT_GE(reg.counter("svc.deadline_exceeded"), expired0 + 1);
}

TEST(ServiceFault, EncodeFaultsWithFallbackDisabledFailTheFuture) {
  ScopedFaults scope(FaultInjector::global());
  scope.arm("svc.encode", 1.0);
  auto& reg = obs::MetricsRegistry::global();
  const u64 failed0 = reg.counter("svc.requests_failed");

  ServiceConfig sc;
  sc.workers = 2;
  sc.retry = fast_retry();
  sc.degraded_fallback = false;
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(4000);
  auto fut = svc.submit(std::span<const u8>(data), serial_config());
  EXPECT_THROW((void)fut.get(), InjectedFault);
  EXPECT_EQ(reg.counter("svc.requests_failed"), failed0 + 1);
}

TEST(ServiceFault, TransientEncodeFaultIsRetriedToSuccess) {
  // p = 0.5 across attempts: with 2 retries per request the chance all
  // requests exhaust their budget is negligible; most succeed on the
  // batched path (not degraded).
  ScopedFaults scope(FaultInjector::global());
  FaultInjector::global().seed(1234);
  scope.arm("svc.encode", 0.5);

  ServiceConfig sc;
  sc.workers = 2;
  sc.retry = fast_retry();
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(3000);
  int batched = 0;
  for (int i = 0; i < 16; ++i) {
    const auto res =
        svc.submit(std::span<const u8>(data), serial_config()).get();
    EXPECT_EQ(svc::decompress(res), data);
    batched += res.degraded ? 0 : 1;
  }
  EXPECT_GT(batched, 0);
}

TEST(ServiceFault, CacheFaultsAreSurvivable) {
  ScopedFaults scope(FaultInjector::global());
  scope.arm("svc.cache.find", 1.0).arm("svc.cache.insert", 1.0);

  ServiceConfig sc;
  sc.workers = 2;
  sc.retry = fast_retry();
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(4000);
  const auto res =
      svc.submit(std::span<const u8>(data), serial_config()).get();
  EXPECT_EQ(svc::decompress(res), data);
}

TEST(ServiceFault, CacheInsertFailureDropsWriteAndStaysOnBatchedPath) {
  // Insert-failure policy: losing the cache write must cost nothing but
  // the write — the request completes on the batched path with the
  // freshly built codebook (degraded == false), consuming no retries.
  ScopedFaults scope(FaultInjector::global());
  scope.arm("svc.cache.insert", 1.0);
  auto& reg = obs::MetricsRegistry::global();
  const u64 dropped0 = reg.counter("svc.cache_insert_dropped");
  const u64 retries0 = reg.counter("svc.retries");

  ServiceConfig sc;
  sc.workers = 2;
  sc.retry = fast_retry();
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(4000);
  const auto res =
      svc.submit(std::span<const u8>(data), serial_config()).get();
  EXPECT_FALSE(res.degraded);
  EXPECT_EQ(svc::decompress(res), data);
  EXPECT_GT(reg.counter("svc.cache_insert_dropped"), dropped0);
  EXPECT_EQ(reg.counter("svc.retries"), retries0);
}

// --- Streaming layer fault sites. --------------------------------------------

TEST(StreamingFault, ObserveFaultLeavesProfileRetryable) {
  ScopedFaults scope(FaultInjector::global());
  scope.arm("streaming.observe", 1.0);
  StreamingCompressor<u8> comp(serial_config());
  const auto seg = ramp_data(4000);
  EXPECT_THROW(comp.observe(std::span<const u8>(seg)), InjectedFault);
  // The site fires before freq_ is touched: the same observe() succeeds
  // once the fault clears, with nothing double-counted.
  FaultInjector::global().disarm("streaming.observe");
  EXPECT_NO_THROW(comp.observe(std::span<const u8>(seg)));
  comp.freeze();
  StreamingDecompressor<u8> dec(comp.header());
  EXPECT_EQ(dec.decode_segment(comp.encode_segment(std::span<const u8>(seg))),
            seg);
}

TEST(StreamingFault, FreezeFaultThenResetRecovers) {
  ScopedFaults scope(FaultInjector::global());
  StreamingCompressor<u8> comp(serial_config());
  const auto seg = ramp_data(4000);
  comp.observe(std::span<const u8>(seg));
  FaultInjector::global().arm("streaming.freeze", 1.0);
  EXPECT_THROW(comp.freeze(), InjectedFault);
  // The failed freeze left the compressor un-frozen...
  EXPECT_THROW((void)comp.codebook(), std::logic_error);
  FaultInjector::global().disarm("streaming.freeze");
  // ...and reset() returns it to a clean slate mid-stream: re-observe,
  // re-freeze, and the stream round-trips.
  comp.reset();
  comp.observe(std::span<const u8>(seg));
  EXPECT_NO_THROW(comp.freeze());
  StreamingDecompressor<u8> dec(comp.header());
  EXPECT_EQ(dec.decode_segment(comp.encode_segment(std::span<const u8>(seg))),
            seg);
}

TEST(StreamingFault, EncodeSegmentFaultLosesOnlyThatFrame) {
  ScopedFaults scope(FaultInjector::global());
  StreamingCompressor<u8> comp(serial_config());
  const auto seg = ramp_data(4000);
  comp.observe(std::span<const u8>(seg));
  comp.freeze();
  FaultInjector::global().arm("streaming.encode_segment", 1.0);
  EXPECT_THROW((void)comp.encode_segment(std::span<const u8>(seg)),
               InjectedFault);
  // Codebook and header survive; the caller just re-encodes the segment.
  FaultInjector::global().disarm("streaming.encode_segment");
  StreamingDecompressor<u8> dec(comp.header());
  EXPECT_EQ(dec.decode_segment(comp.encode_segment(std::span<const u8>(seg))),
            seg);
}

// --- Lossy layer fault sites. ------------------------------------------------

TEST(LossyFault, QuantizeAndEncodeSitesFireAndAreRecoverable) {
  ScopedFaults scope(FaultInjector::global());
  const data::Dims dims{16, 16, 16};
  const auto field = data::generate_cosmo_field(dims, 11);
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = 1e-3;

  FaultInjector::global().arm("lossy.quantize", 1.0);
  EXPECT_THROW((void)lossy::compress_field_fused(field, dims, cfg),
               InjectedFault);
  FaultInjector::global().disarm("lossy.quantize");
  FaultInjector::global().arm("lossy.encode", 1.0);
  EXPECT_THROW((void)lossy::compress_field_fused(field, dims, cfg),
               InjectedFault);
  FaultInjector::global().disarm("lossy.encode");

  // Both sites cleared: the same inputs compress and honor the bound.
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
  const auto back = lossy::decompress_field(bytes);
  ASSERT_EQ(back.values.size(), field.size());
  double worst = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(field[i]) -
                                     static_cast<double>(back.values[i])));
  }
  EXPECT_LE(worst, rep.error_bound);
}

// --- Service: executor faults → inline dispatch. -----------------------------

TEST(ServiceFault, ExecutorFaultsFallBackToInlineDispatch) {
  ScopedFaults scope(FaultInjector::global());
  scope.arm("executor.submit", 1.0);
  auto& reg = obs::MetricsRegistry::global();
  const u64 inline0 = reg.counter("svc.inline_dispatches");

  ServiceConfig sc;
  sc.workers = 2;
  sc.retry = fast_retry();
  CompressionService<u8> svc(sc);
  const auto data = ramp_data(4000);
  const auto res =
      svc.submit(std::span<const u8>(data), serial_config()).get();
  EXPECT_EQ(svc::decompress(res), data);
  EXPECT_GT(reg.counter("svc.inline_dispatches"), inline0);
}

// --- Soak: every future resolves under a mixed fault storm. ------------------

TEST(ServiceFault, SoakEveryFutureResolvesUnderFaultStorm) {
  ScopedFaults scope(FaultInjector::global());
  FaultInjector::global().seed(2026);
  scope.arm("svc.histogram", 0.05)
      .arm("svc.codebook", 0.1)
      .arm("svc.encode", 0.1)
      .arm("svc.cache.find", 0.05)
      .arm("svc.cache.insert", 0.05)
      .arm("executor.submit", 0.05);

  auto& reg = obs::MetricsRegistry::global();
  const u64 submitted0 = reg.counter("svc.requests_submitted");
  const u64 completed0 = reg.counter("svc.requests_completed");
  const u64 failed0 = reg.counter("svc.requests_failed");
  const u64 deadline0 = reg.counter("svc.deadline_exceeded");
  const u64 cancelled0 = reg.counter("svc.cancelled_requests");
  const u64 fired0 = FaultInjector::global().total_fired();

  // Virtual clock with activity-driven advance: every clock query (poll
  // points, window sweeps, deadline checks) moves time 20 µs, and backoff
  // sleeps advance instead of blocking — the storm's deadline/retry
  // machinery runs at full logical coverage with no real sleeping.
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(20e-6));
  ServiceConfig sc;
  sc.workers = 4;
  sc.queue_capacity = 64;
  sc.retry = fast_retry();
  sc.batch_window_seconds = 100e-6;
  sc.clock = &vc;
  CompressionService<u8> svc(sc);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::atomic<int> ok{0}, deadline{0}, cancelled{0}, other{0};
  std::atomic<int> bad_roundtrip{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + static_cast<u64>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const auto data = ramp_data(200 + rng.below(3000), rng.below(1u << 30));
        SubmitOptions opts;
        const u64 prio = rng.below(3);
        opts.priority = prio == 0   ? Priority::kLow
                        : prio == 1 ? Priority::kNormal
                                    : Priority::kHigh;
        const u64 dl = rng.below(10);
        if (dl < 2) {
          opts.deadline =
              Deadline::in(50e-6 * static_cast<double>(1 + dl), vc);
        } else if (dl < 4) {
          opts.deadline = Deadline::in(5.0, vc);
        }  // else: no deadline
        auto sub = svc.submit(std::span<const u8>(data),
                              serial_config(rng.below(2) ? 256 : 128), opts);
        if (rng.below(10) == 0) (void)sub.handle.cancel();
        try {
          const auto res = sub.result.get();
          ok.fetch_add(1);
          if (svc::decompress(res) != data) bad_roundtrip.fetch_add(1);
        } catch (const DeadlineExceeded&) {
          deadline.fetch_add(1);
        } catch (const CancelledError&) {
          cancelled.fetch_add(1);
        } catch (...) {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // The invariant: every future resolved, and only with the sanctioned
  // outcomes — success (round-tripping), DeadlineExceeded, or
  // CancelledError. Anything else means a fault leaked past the
  // retry/degrade net.
  EXPECT_EQ(ok.load() + deadline.load() + cancelled.load() + other.load(),
            kThreads * kPerThread);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(bad_roundtrip.load(), 0);
  EXPECT_GT(ok.load(), 0);

  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);

  // Counter balance: submitted == completed + failed + expired + cancelled.
  const u64 submitted = reg.counter("svc.requests_submitted") - submitted0;
  const u64 completed = reg.counter("svc.requests_completed") - completed0;
  const u64 failed = reg.counter("svc.requests_failed") - failed0;
  const u64 expired = reg.counter("svc.deadline_exceeded") - deadline0;
  const u64 cancels = reg.counter("svc.cancelled_requests") - cancelled0;
  EXPECT_EQ(submitted, static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(submitted, completed + failed + expired + cancels);

  // The storm actually stormed.
  EXPECT_GT(FaultInjector::global().total_fired(), fired0);
}

}  // namespace
}  // namespace parhuff
