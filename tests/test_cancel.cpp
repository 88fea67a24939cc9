// Cancellation & deadline propagation into the SIMT stages, driven by the
// deterministic virtual clock (util/clock.hpp): the clock and token
// primitives themselves, a mid-stage abort test per kernel poll-point site
// (histogram serial/SIMT, parallel codebook rounds, reduce-shuffle /
// coarse / prefix-sum chunks, and the decode tiers), the service-level
// translation to DeadlineExceeded / CancelledError with the
// svc.cancelled_midstage counter, the per-request retry budget, and a
// concurrent cancel storm for TSan.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/encode_simt.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "obs/metrics.hpp"
#include "svc/deadline.hpp"
#include "svc/service.hpp"
#include "util/clock.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

using util::Clock;
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

/// Codebook for the encoder-site tests, built without any token.
Codebook codebook_for(std::span<const u8> data, std::size_t nbins = 256) {
  const std::vector<u64> freq = histogram_serial<u8>(data, nbins);
  return build_codebook(freq, serial_config(nbins));
}

// --- VirtualClock. -----------------------------------------------------------

TEST(VirtualClock, AdvanceAndSleepMoveTimeWithoutBlocking) {
  VirtualClock vc;
  const auto t0 = vc.peek();
  vc.advance_seconds(2.5);
  EXPECT_EQ(vc.peek() - t0, Clock::dur(2.5));
  // A virtual sleep advances instead of blocking.
  const auto wall0 = std::chrono::steady_clock::now();
  vc.sleep_for(Clock::dur(3600.0));
  EXPECT_LT(std::chrono::steady_clock::now() - wall0, std::chrono::seconds(5));
  EXPECT_EQ(vc.peek() - t0, Clock::dur(2.5) + Clock::dur(3600.0));
  // peek() doesn't count as a query; now() does.
  EXPECT_EQ(vc.queries(), 0u);
  (void)vc.now();
  EXPECT_EQ(vc.queries(), 1u);
}

TEST(VirtualClock, AutoAdvanceTicksOnEveryNthQuery) {
  VirtualClock vc;
  vc.auto_advance_every(2, Clock::dur(1e-3));
  const auto t0 = vc.peek();
  (void)vc.now();  // query 1: no tick
  EXPECT_EQ(vc.peek(), t0);
  (void)vc.now();  // query 2: tick
  EXPECT_EQ(vc.peek() - t0, Clock::dur(1e-3));
  (void)vc.now();
  (void)vc.now();  // query 4: second tick
  EXPECT_EQ(vc.peek() - t0, Clock::dur(2e-3));
  vc.auto_advance_every(0, {});  // disable
  (void)vc.now();
  EXPECT_EQ(vc.peek() - t0, Clock::dur(2e-3));
}

TEST(VirtualClock, WaitUntilTimesOutOnVirtualExpiry) {
  VirtualClock vc;
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  // Already-passed target: immediate timeout, no real wait.
  EXPECT_EQ(vc.wait_until(cv, lock, vc.peek() - Clock::dur(1.0)),
            std::cv_status::timeout);
  // Future target: a bounded real nap, then no_timeout (time didn't move).
  const auto future_tp = vc.peek() + Clock::dur(100.0);
  EXPECT_EQ(vc.wait_until(cv, lock, future_tp), std::cv_status::no_timeout);
  // After a concurrent-style advance the same wait reports timeout.
  vc.advance_seconds(200.0);
  EXPECT_EQ(vc.wait_until(cv, lock, future_tp), std::cv_status::timeout);
}

// --- CancelToken. ------------------------------------------------------------

TEST(CancelToken, IdleChecksPassAndRequestLatches) {
  CancelToken tok;
  EXPECT_NO_THROW(tok.check());
  EXPECT_FALSE(tok.requested());
  tok.request();
  EXPECT_TRUE(tok.requested());
  EXPECT_THROW(tok.check(), OperationCancelled);
  tok.request();  // idempotent
  EXPECT_THROW(tok.check(), OperationCancelled);
}

TEST(CancelToken, ArmedDeadlineLatchesExpiry) {
  VirtualClock vc;
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(1e-3), vc);
  EXPECT_NO_THROW(tok.check());  // deadline still ahead
  vc.advance_seconds(2e-3);
  EXPECT_THROW(tok.check(), DeadlineExpired);
  // Expiry is latched: a later request() doesn't rewrite history.
  tok.request();
  EXPECT_THROW(tok.check(), DeadlineExpired);
}

TEST(CancelToken, RequestBeforeExpiryReportsCancelled) {
  VirtualClock vc;
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(3600.0), vc);
  tok.request();
  EXPECT_THROW(tok.check(), OperationCancelled);
}

// --- Per-site mid-stage aborts (one test per kernel poll point). -------------
//
// Pattern: auto_advance_every(1, step) ties virtual time to the token's
// poll points (each armed-token check() queries the clock once), so a
// deadline placed K steps out expires deterministically at the K-th poll —
// provably *inside* the kernel, because the kernel has more poll points
// than K.

TEST(CancelSite, SerialHistogramAbortsMidStageOnDeadline) {
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  const auto data = ramp_data(512 * 1024);  // 8 polls at the 64 Ki stride
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(3.5e-3), vc);  // poll 4 of 8
  EXPECT_THROW((void)histogram_serial<u8>(data, 256, &tok), DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)histogram_serial<u8>(data, 256, &cancelled),
               OperationCancelled);
}

TEST(CancelSite, SimtHistogramAbortsMidGridOnDeadline) {
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  const auto data = ramp_data(64 * 1024);  // every one of the 160 blocks polls
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(50e-3), vc);  // ~poll 50 of 160
  EXPECT_THROW((void)histogram_simt<u8>(data, 256, nullptr,
                                        SimtHistogramConfig{}, &tok),
               DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)histogram_simt<u8>(data, 256, nullptr,
                                        SimtHistogramConfig{}, &cancelled),
               OperationCancelled);
}

TEST(CancelSite, ParallelCodebookAbortsMidRoundOnDeadline) {
  // Fibonacci-like frequencies force a deep, skewed tree: every merge
  // round combines just one pair, so GenerateCL runs ~n rounds and the
  // deadline lands well inside the round loop.
  std::vector<u64> freq(48);
  u64 a = 1, b = 2;
  for (auto& f : freq) {
    f = a;
    const u64 next = a + b;
    a = b;
    b = next;
  }
  PipelineConfig cfg;
  cfg.nbins = freq.size();
  cfg.codebook = CodebookKind::kParallelSimt;

  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  // Query 1 is build_codebook's entry check; expiry at ~query 6 is inside
  // the ~47 merge rounds.
  tok.arm_deadline(vc.peek() + Clock::dur(5.5e-3), vc);
  EXPECT_THROW((void)build_codebook(freq, cfg, nullptr, &tok),
               DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)build_codebook(freq, cfg, nullptr, &cancelled),
               OperationCancelled);
}

TEST(CancelSite, ReduceShuffleAbortsMidChunkOnDeadline) {
  const auto data = ramp_data(64 * 1024);
  const Codebook cb = codebook_for(data);
  ReduceShuffleConfig rs;
  rs.magnitude = 10;  // 64 chunks of 1024 symbols → 64 merge-kernel polls
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(20e-3), vc);  // ~poll 20 of 64
  EXPECT_THROW((void)encode_reduceshuffle_simt<u8>(data, cb, rs, nullptr,
                                                   nullptr, &tok),
               DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)encode_reduceshuffle_simt<u8>(data, cb, rs, nullptr,
                                                   nullptr, &cancelled),
               OperationCancelled);
}

TEST(CancelSite, CoarseEncoderAbortsMidChunkOnDeadline) {
  const auto data = ramp_data(64 * 1024);
  const Codebook cb = codebook_for(data);
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(20e-3), vc);
  EXPECT_THROW((void)encode_coarse_simt<u8>(data, cb, 1024, nullptr, &tok),
               DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)encode_coarse_simt<u8>(data, cb, 1024, nullptr,
                                            &cancelled),
               OperationCancelled);
}

TEST(CancelSite, PrefixSumEncoderAbortsMidChunkOnDeadline) {
  const auto data = ramp_data(64 * 1024);
  const Codebook cb = codebook_for(data);
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(20e-3), vc);
  EXPECT_THROW((void)encode_prefixsum_simt<u8>(data, cb, 1024, nullptr, &tok),
               DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)encode_prefixsum_simt<u8>(data, cb, 1024, nullptr,
                                               &cancelled),
               OperationCancelled);
}

TEST(CancelSite, ArmedFarDeadlineDoesNotPerturbOutput) {
  // The no-fire path must be pure observation: an armed token whose
  // deadline never arrives yields a bit-identical stream to no token.
  const auto data = ramp_data(32 * 1024);
  const Codebook cb = codebook_for(data);
  ReduceShuffleConfig rs;
  rs.magnitude = 10;
  VirtualClock vc;
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(3600.0), vc);
  const EncodedStream plain =
      encode_reduceshuffle_simt<u8>(data, cb, rs);
  const EncodedStream guarded =
      encode_reduceshuffle_simt<u8>(data, cb, rs, nullptr, nullptr, &tok);
  EXPECT_EQ(plain.payload, guarded.payload);
  EXPECT_EQ(plain.chunk_bits, guarded.chunk_bits);
  EXPECT_EQ(plain.overflow_bits, guarded.overflow_bits);
  EXPECT_GT(vc.queries(), 0u);  // the guard really did consult the clock
}

// --- Decode-side aborts (the reverse direction of the same contract). --------

TEST(CancelSite, HostDecodeAbortsMidStreamOnDeadline) {
  const auto data = ramp_data(256 * 1024);
  const Codebook cb = codebook_for(data);
  ReduceShuffleConfig rs;
  rs.magnitude = 10;  // 256 chunks: the decode walk polls at every chunk entry
  const EncodedStream s = encode_reduceshuffle_simt<u8>(data, cb, rs);
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(50e-3), vc);  // ~poll 50 of 256+
  EXPECT_THROW((void)decode_stream<u8>(s, cb, /*threads=*/1, &tok),
               DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)decode_stream<u8>(s, cb, /*threads=*/1, &cancelled),
               OperationCancelled);
}

TEST(CancelSite, SimtDecodeAbortsMidGridOnDeadline) {
  const auto data = ramp_data(256 * 1024);
  const Codebook cb = codebook_for(data);
  ReduceShuffleConfig rs;
  rs.magnitude = 10;
  const EncodedStream s = encode_reduceshuffle_simt<u8>(data, cb, rs);
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(50e-3), vc);
  EXPECT_THROW((void)decode_simt<u8>(s, cb, nullptr, &tok), DeadlineExpired);
  CancelToken cancelled;
  cancelled.request();
  EXPECT_THROW((void)decode_simt<u8>(s, cb, nullptr, &cancelled),
               OperationCancelled);
}

TEST(CancelSite, ArmedFarDeadlineDecodeIsBitIdentical) {
  // Same purity bar as the encode side: a token that never fires must not
  // perturb the decode in any way.
  const auto data = ramp_data(64 * 1024);
  const Codebook cb = codebook_for(data);
  ReduceShuffleConfig rs;
  rs.magnitude = 10;
  const EncodedStream s = encode_reduceshuffle_simt<u8>(data, cb, rs);
  VirtualClock vc;
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(3600.0), vc);
  const std::vector<u8> plain = decode_stream<u8>(s, cb);
  const std::vector<u8> guarded = decode_stream<u8>(s, cb, 0, &tok);
  EXPECT_EQ(plain, guarded);
  EXPECT_EQ(plain, data);
  EXPECT_GT(vc.queries(), 0u);  // the guard really did consult the clock
}

TEST(CancelSite, InterleavedDecodesAbortAfterTheFirstPoll) {
  // Every decode tier runs on the interleaved core, which polls at chunk
  // entries and every 64 Ki symbols. A deadline that passes between the
  // first poll and the second must abort each entry point with the typed
  // error — not only a token that has fired before the decode starts.
  const auto data = ramp_data(64 * 1024);
  const Codebook cb = codebook_for(data);
  ReduceShuffleConfig rs;
  rs.magnitude = 10;  // 64 chunks, with overflow groups
  const EncodedStream ovf = encode_reduceshuffle_simt<u8>(data, cb, rs);
  ASSERT_FALSE(ovf.overflow.empty());
  EncodedStream gapped = encode_serial<u8>(data, cb, 1024);
  annotate_gaps(gapped, cb);
  StreamingCompressor<u8> sc(serial_config());
  sc.observe(data);
  sc.freeze();
  const std::vector<u8> frame = sc.encode_segment(data);
  const StreamingDecompressor<u8> sd(sc.header());

  const auto expires_after_first_poll = [&](const char* what, auto&& decode) {
    SCOPED_TRACE(what);
    VirtualClock vc;
    vc.auto_advance_every(1, Clock::dur(1e-3));
    CancelToken tok;
    tok.arm_deadline(vc.peek() + Clock::dur(1.5e-3), vc);
    EXPECT_THROW((void)decode(&tok), DeadlineExpired);
    EXPECT_GE(vc.queries(), 2u);  // the first poll passed
    // The same decode under a token that never fires is untouched.
    CancelToken far;
    far.arm_deadline(vc.peek() + Clock::dur(3600.0), vc);
    EXPECT_EQ(decode(&far), data);
  };
  expires_after_first_poll("decode_stream", [&](const CancelToken* t) {
    return decode_stream<u8>(ovf, cb, /*threads=*/1, t);
  });
  expires_after_first_poll("decode_gaparray", [&](const CancelToken* t) {
    return decode_gaparray<u8>(gapped, cb, nullptr, nullptr, t);
  });
  expires_after_first_poll("decode_segment", [&](const CancelToken* t) {
    return sd.decode_segment(frame, t);
  });
}

// --- Service-level propagation. ----------------------------------------------

TEST(ServiceCancel, DeadlineExpiresMidEncodeAsDeadlineExceeded) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 midstage0 = reg.counter("svc.cancelled_midstage");
  const u64 completed0 = reg.counter("svc.requests_completed");

  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_max_requests = 1;  // no batch window: encode is the only stage
                              // with poll points under this config
  sc.clock = &vc;
  svc::CompressionService<u8> svc(sc);

  PipelineConfig cfg = serial_config();
  cfg.encoder = EncoderKind::kReduceShuffleSimt;
  cfg.magnitude = 10;                       // 64 chunks → 64 encode polls
  const auto data = ramp_data(64 * 1024);
  svc::SubmitOptions opts;
  // ~7 clock queries happen between submit and the first encode chunk
  // (boundary checks + serial histogram + stage-entry checks), so an
  // expiry at query 20 lands deterministically inside the encode kernel.
  opts.deadline = svc::Deadline::in(20e-3, vc);
  auto sub = svc.submit(std::span<const u8>(data), cfg, opts);
  EXPECT_THROW(sub.result.get(), svc::DeadlineExceeded);
  svc.drain();
  EXPECT_GE(reg.counter("svc.cancelled_midstage"), midstage0 + 1);
  EXPECT_EQ(reg.counter("svc.requests_completed"), completed0);
}

TEST(ServiceCancel, DeadlineExpiresMidHistogramAsDeadlineExceeded) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 midstage0 = reg.counter("svc.cancelled_midstage");

  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_max_requests = 1;
  sc.clock = &vc;
  svc::CompressionService<u8> svc(sc);

  PipelineConfig cfg = serial_config();
  cfg.histogram = HistogramKind::kSimt;  // 160 block polls, serial rest
  const auto data = ramp_data(32 * 1024);
  svc::SubmitOptions opts;
  opts.deadline = svc::Deadline::in(20e-3, vc);  // inside the SIMT grid
  auto sub = svc.submit(std::span<const u8>(data), cfg, opts);
  EXPECT_THROW(sub.result.get(), svc::DeadlineExceeded);
  svc.drain();
  EXPECT_GE(reg.counter("svc.cancelled_midstage"), midstage0 + 1);
}

TEST(ServiceCancel, MidFlightCancelAbortsDispatchedRequest) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 midstage0 = reg.counter("svc.cancelled_midstage");
  const u64 cancelled0 = reg.counter("svc.cancelled_requests");

  // The virtual clock freezes the batch window open: the leader is claimed
  // (kDispatched) and the scheduler lingers until the test advances time.
  // cancel() then signals the in-flight token, and the shared histogram
  // abandons at its first poll once the batch finally runs.
  VirtualClock vc;
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 60.0;  // virtual — held open by the frozen clock
  sc.batch_max_requests = 4;
  sc.clock = &vc;
  svc::CompressionService<u8> svc(sc);

  const auto data = ramp_data(4000);
  auto sub = svc.submit(std::span<const u8>(data), serial_config(),
                        svc::SubmitOptions{});
  // Give the scheduler ample real time to claim the leader and park in the
  // window (claiming takes microseconds; the window itself cannot close).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const bool won_pending = sub.handle.cancel();
  vc.advance_seconds(120.0);  // close the window; the batch dispatches
  EXPECT_THROW(sub.result.get(), svc::CancelledError);
  svc.drain();
  if (!won_pending) {
    // The expected path: cancel() found the request dispatched, the token
    // fired inside the shared stage.
    EXPECT_GE(reg.counter("svc.cancelled_midstage"), midstage0 + 1);
  }
  EXPECT_GE(reg.counter("svc.cancelled_requests"), cancelled0 + 1);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(ServiceCancel, ConcurrentCancelStormKeepsCountersBalanced) {
  // TSan target: cancel() races dispatch and the in-kernel polls across
  // worker threads; every future must still resolve and the lifecycle
  // counters must still balance.
  auto& reg = obs::MetricsRegistry::global();
  const u64 submitted0 = reg.counter("svc.requests_submitted");
  const u64 completed0 = reg.counter("svc.requests_completed");
  const u64 failed0 = reg.counter("svc.requests_failed");
  const u64 deadline0 = reg.counter("svc.deadline_exceeded");
  const u64 cancelled0 = reg.counter("svc.cancelled_requests");

  svc::ServiceConfig sc;
  sc.workers = 2;
  sc.batch_window_seconds = 100e-6;
  svc::CompressionService<u8> svc(sc);

  constexpr int kRequests = 48;
  PipelineConfig cfg = serial_config();
  cfg.encoder = EncoderKind::kReduceShuffleSimt;  // polls under the race
  cfg.magnitude = 10;
  std::vector<svc::Submission<u8>> subs;
  subs.reserve(kRequests);
  const auto data = ramp_data(16 * 1024);
  for (int i = 0; i < kRequests; ++i) {
    subs.push_back(
        svc.submit(std::span<const u8>(data), cfg, svc::SubmitOptions{}));
  }
  std::vector<std::thread> cancellers;
  for (int t = 0; t < 4; ++t) {
    cancellers.emplace_back([&, t] {
      for (int i = t; i < kRequests; i += 4) (void)subs[i].handle.cancel();
    });
  }
  int ok = 0, cancelled = 0, other = 0;
  for (auto& sub : subs) {
    try {
      const auto res = sub.result.get();
      ++ok;
      EXPECT_EQ(svc::decompress(res), data);
    } catch (const svc::CancelledError&) {
      ++cancelled;
    } catch (...) {
      ++other;
    }
  }
  for (auto& t : cancellers) t.join();
  svc.drain();

  EXPECT_EQ(ok + cancelled + other, kRequests);
  EXPECT_EQ(other, 0);
  const u64 submitted = reg.counter("svc.requests_submitted") - submitted0;
  const u64 completed = reg.counter("svc.requests_completed") - completed0;
  const u64 failed = reg.counter("svc.requests_failed") - failed0;
  const u64 expired = reg.counter("svc.deadline_exceeded") - deadline0;
  const u64 cancels = reg.counter("svc.cancelled_requests") - cancelled0;
  EXPECT_EQ(submitted, static_cast<u64>(kRequests));
  EXPECT_EQ(submitted, completed + failed + expired + cancels);
}

TEST(ServiceCancel, RetryBudgetIsPerRequestTotal) {
  // Every encode attempt fails; with a budget of 2 each request retries
  // exactly twice end to end — the budget belongs to the request, not to
  // each stage, and resets for the next request.
  util::ScopedFaults scope(util::FaultInjector::global());
  scope.arm("svc.encode", 1.0);
  auto& reg = obs::MetricsRegistry::global();

  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.degraded_fallback = false;
  sc.retry.max_attempts = 2;
  sc.retry.backoff.initial_seconds = 10e-6;
  sc.retry.backoff.max_seconds = 50e-6;
  svc::CompressionService<u8> svc(sc);
  const auto data = ramp_data(2000);
  for (int round = 0; round < 2; ++round) {
    const u64 retries0 = reg.counter("svc.retries");
    auto fut = svc.submit(std::span<const u8>(data), serial_config());
    EXPECT_THROW((void)fut.get(), util::InjectedFault);
    EXPECT_EQ(reg.counter("svc.retries"), retries0 + 2);
  }
}

}  // namespace
}  // namespace parhuff
