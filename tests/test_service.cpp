// Compression service layer: work-stealing executor, histogram
// fingerprinting, the sharded codebook cache (including its correctness
// guard), and the service itself — concurrent round trips, batching,
// backpressure under both overflow policies, and cache behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"
#include "lossy/lossy.hpp"
#include "obs/metrics.hpp"
#include "svc/codebook_cache.hpp"
#include "svc/fingerprint.hpp"
#include "svc/service.hpp"
#include "util/clock.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"
#include "util/work_steal.hpp"

namespace parhuff {
namespace {

// A host-realistic config: everything serial, so timings and coverage are
// deterministic and the tests don't depend on the SIMT simulator.
PipelineConfig serial_config(std::size_t nbins = 256) {
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.histogram = HistogramKind::kSerial;
  cfg.codebook = CodebookKind::kSerialTree;
  cfg.encoder = EncoderKind::kSerial;
  return cfg;
}

// --- WorkStealExecutor. ------------------------------------------------------

TEST(WorkSteal, RunsEverythingAndWaitIdleIsABarrier) {
  WorkStealExecutor ex(4);
  EXPECT_EQ(ex.worker_count(), 4u);
  std::atomic<i64> sum{0};
  for (int i = 0; i < 1000; ++i) {
    ex.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  ex.wait_idle();
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
  EXPECT_EQ(ex.stats().executed, 1000u);
}

TEST(WorkSteal, NestedSubmissionsComplete) {
  WorkStealExecutor ex(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    ex.submit([&] {
      for (int j = 0; j < 4; ++j) {
        ex.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  ex.wait_idle();
  EXPECT_EQ(count.load(), 32);
  EXPECT_EQ(ex.stats().executed, 40u);
}

TEST(WorkSteal, IdleWorkersStealFromABusyDeque) {
  WorkStealExecutor ex(4);
  std::atomic<int> count{0};
  // The root task floods its own deque (nested submits land there), then
  // stays busy until every nested task ran. Its owner can never pop its
  // own deque, so all 64 nested tasks must be stolen by the idle workers.
  ex.submit([&] {
    for (int j = 0; j < 64; ++j) {
      ex.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    while (count.load(std::memory_order_relaxed) < 64) {
      std::this_thread::yield();
    }
  });
  ex.wait_idle();
  EXPECT_EQ(count.load(), 64);
  EXPECT_GE(ex.stats().stolen, 64u);
}

TEST(WorkSteal, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    WorkStealExecutor ex(2);
    for (int i = 0; i < 64; ++i) {
      ex.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // dtor must run everything already accepted
  EXPECT_EQ(count.load(), 64);
}

TEST(WorkSteal, IdleParkRunsOnTheInjectedClock) {
  // A frozen VirtualClock must not wedge the pool: the idle park is a
  // bounded timed wait re-armed until work arrives, so tasks submitted
  // while time stands still run promptly, and the park provably consults
  // the injected clock rather than the process steady clock.
  util::VirtualClock vc;
  WorkStealExecutor ex(2, &vc);
  // Let the workers reach their first park so the submit below has to
  // wake a clock-parked worker, not catch one mid-startup.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(vc.queries(), 0u);  // parking consulted the virtual clock
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    ex.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  ex.wait_idle();
  EXPECT_EQ(count.load(), 16);
  EXPECT_EQ(ex.stats().executed, 16u);
}

// --- Histogram fingerprinting. -----------------------------------------------

TEST(ServiceFingerprint, ShapeIsScaleInvariant) {
  const std::vector<u64> a = {10, 20, 30, 0, 5};
  const std::vector<u64> b = {100, 200, 300, 0, 50};  // 10x the counts
  EXPECT_EQ(svc::fingerprint_histogram(a), svc::fingerprint_histogram(b));
}

TEST(ServiceFingerprint, SupportChangeAlwaysChangesHash) {
  const std::vector<u64> a = {10, 20, 30, 0};
  std::vector<u64> b = a;
  b[3] = 1;  // bin 3 gains support
  EXPECT_NE(svc::fingerprint_histogram(a).hash,
            svc::fingerprint_histogram(b).hash);
}

TEST(ServiceFingerprint, SeedAndAlphabetSizeDistinguish) {
  const std::vector<u64> a = {4, 4, 4, 4};
  EXPECT_NE(svc::fingerprint_histogram(a, 1).hash,
            svc::fingerprint_histogram(a, 2).hash);
  const std::vector<u64> wider = {4, 4, 4, 4, 0, 0};
  EXPECT_NE(svc::fingerprint_histogram(a), svc::fingerprint_histogram(wider));

  PipelineConfig tree = serial_config();
  PipelineConfig par = serial_config();
  par.codebook = CodebookKind::kParallelOmp;
  EXPECT_NE(svc::cache_seed(tree), svc::cache_seed(par));
}

// --- CodebookCache. ----------------------------------------------------------

std::shared_ptr<const Codebook> book_for(const std::vector<u64>& freq) {
  return std::make_shared<const Codebook>(
      build_codebook(freq, serial_config(freq.size())));
}

TEST(CodebookCacheTest, HitTouchesLruAndEvictionDropsColdest) {
  svc::CodebookCache cache(svc::CacheConfig{.shards = 1,
                                            .capacity_per_shard = 2});
  const auto book = book_for({1, 1, 1, 1});
  const svc::Fingerprint fp1{101, 4}, fp2{102, 4}, fp3{103, 4};
  cache.insert(fp1, book);
  cache.insert(fp2, book);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(fp1), nullptr);  // touch: fp2 is now coldest
  cache.insert(fp3, book);              // evicts fp2
  EXPECT_EQ(cache.find(fp2), nullptr);
  EXPECT_NE(cache.find(fp1), nullptr);
  EXPECT_NE(cache.find(fp3), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.insertions, 3u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CodebookCacheTest, MismatchedFingerprintOnSameHashIsAMiss) {
  svc::CodebookCache cache;
  cache.insert(svc::Fingerprint{7, 4}, book_for({1, 1, 1, 1}));
  // Same hash slot, different alphabet size: must not serve the entry.
  EXPECT_EQ(cache.find(svc::Fingerprint{7, 8}), nullptr);
}

TEST(CodebookCacheTest, CoversRequiresEveryPresentSymbol) {
  const auto book = book_for({5, 5, 0, 5});  // symbols 0, 1, 3 encodable
  EXPECT_TRUE(svc::CodebookCache::covers(*book, {{1, 0, 0, 1}}));
  EXPECT_TRUE(svc::CodebookCache::covers(*book, {{0, 9, 0, 0}}));
  EXPECT_FALSE(svc::CodebookCache::covers(*book, {{0, 0, 1, 0}}));
  // A wider request histogram is covered only where the extra bins are
  // empty.
  EXPECT_TRUE(svc::CodebookCache::covers(*book, {{1, 1, 0, 1, 0, 0}}));
  EXPECT_FALSE(svc::CodebookCache::covers(*book, {{1, 1, 0, 1, 0, 2}}));
}

// --- CompressionService: round trips under concurrency. ----------------------

TEST(Service, RoundTripUnderConcurrentSubmitters) {
  svc::ServiceConfig sc;
  sc.workers = 4;
  sc.batch_window_seconds = 200e-6;
  svc::CompressionService<u16> service(sc);

  const PipelineConfig cfg_a = serial_config(1024);
  PipelineConfig cfg_b = cfg_a;
  cfg_b.magnitude = 12;  // distinct config: never coalesced with cfg_a

  const auto base = data::generate_nyx_quant(1 << 18, 42);
  // Cache-ineligible: larger than batch_eligible_symbols, dispatches solo.
  const auto big = data::generate_nyx_quant(200000, 7);
  ASSERT_GT(big.size(), sc.batch_eligible_symbols);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  using Item = std::pair<std::vector<u16>, std::future<svc::CompressResult<u16>>>;
  std::vector<std::vector<Item>> work(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t off =
            (static_cast<std::size_t>(t * kPerThread + i) * 4096) %
            (base.size() - 4096);
        const std::span<const u16> slice(base.data() + off, 4096);
        const PipelineConfig& cfg = (i % 2) ? cfg_b : cfg_a;
        const svc::Priority prio =
            (i % 3 == 0) ? svc::Priority::kHigh : svc::Priority::kNormal;
        auto fut = service.submit(slice, cfg, prio);
        work[t].emplace_back(std::vector<u16>(slice.begin(), slice.end()),
                             std::move(fut));
      }
      work[t].emplace_back(big,
                           service.submit(std::span<const u16>(big), cfg_a));
    });
  }
  for (std::thread& t : submitters) t.join();

  for (auto& thread_work : work) {
    for (auto& [original, fut] : thread_work) {
      const svc::CompressResult<u16> res = fut.get();
      ASSERT_NE(res.codebook, nullptr);
      EXPECT_EQ(svc::decompress(res), original);
    }
  }
  service.drain();
  EXPECT_EQ(service.queue_depth(), 0u);

  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  EXPECT_GE(reg.counter("svc.requests_completed"),
            static_cast<u64>(kThreads * (kPerThread + 1)));
  EXPECT_GE(reg.histo("svc.request_seconds").count,
            static_cast<u64>(kThreads * (kPerThread + 1)));
  EXPECT_GE(reg.counter("svc.batches"), 1u);
}

// --- Batching. ---------------------------------------------------------------

TEST(Service, BatcherCoalescesConfigEqualSmallRequests) {
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 50e-3;  // long window: the cap closes the batch
  sc.batch_max_requests = 8;
  svc::CompressionService<u8> service(sc);
  const PipelineConfig cfg = serial_config();

  const auto text = data::generate_text(4096, 9);
  std::vector<std::future<svc::CompressResult<u8>>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(service.submit(std::span<const u8>(text), cfg));
  }
  std::shared_ptr<const Codebook> shared;
  for (auto& f : futs) {
    const svc::CompressResult<u8> res = f.get();
    EXPECT_EQ(res.batch_requests, 8u);
    if (!shared) shared = res.codebook;
    // One codebook instance built for (and shared by) the whole batch.
    EXPECT_EQ(res.codebook.get(), shared.get());
    EXPECT_EQ(svc::decompress(res), text);
  }
}

TEST(Service, BatchesNeverMixConfigs) {
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 20e-3;
  sc.batch_max_requests = 2;  // each pair fills a batch immediately
  svc::CompressionService<u8> service(sc);
  const PipelineConfig cfg_a = serial_config();
  PipelineConfig cfg_b = cfg_a;
  cfg_b.magnitude = 8;

  const auto text = data::generate_text(2048, 17);
  std::vector<std::future<svc::CompressResult<u8>>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(
        service.submit(std::span<const u8>(text), (i % 2) ? cfg_b : cfg_a));
  }
  for (auto& f : futs) {
    const svc::CompressResult<u8> res = f.get();
    EXPECT_LE(res.batch_requests, 2u);
    EXPECT_EQ(svc::decompress(res), text);
  }
}

// --- Backpressure. -----------------------------------------------------------

TEST(Service, RejectPolicyThrowsAtTheOutstandingBound) {
  // Two small requests with one config sit in the scheduler's batch
  // window, which waits on a virtual clock that does not move: both stay
  // outstanding until the test advances it, whatever the thread timing.
  util::VirtualClock vc;
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.queue_capacity = 2;
  sc.overflow = svc::OverflowPolicy::kReject;
  sc.batch_window_seconds = 1.0;
  sc.clock = &vc;
  svc::CompressionService<u8> service(sc);
  const PipelineConfig cfg = serial_config();

  const auto text = data::generate_text(4096, 5);
  ASSERT_LE(text.size(), sc.batch_eligible_symbols);
  const u64 rejected_before =
      obs::MetricsRegistry::global().counter("svc.rejected_requests");

  auto f1 = service.submit(std::span<const u8>(text), cfg);
  auto f2 = service.submit(std::span<const u8>(text), cfg);
  EXPECT_THROW((void)service.submit(std::span<const u8>(text), cfg),
               svc::QueueFullError);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("svc.rejected_requests"),
            rejected_before + 1);

  // The admitted requests are unaffected once the window closes. Time
  // moves until the batch holding `f` dispatches: the scheduler may open
  // its window only after a first advance.
  const auto result = [&](std::future<svc::CompressResult<u8>>& f) {
    while (f.wait_for(std::chrono::milliseconds(1)) !=
           std::future_status::ready) {
      vc.advance_seconds(2.0);
    }
    return svc::decompress(f.get());
  };
  EXPECT_EQ(result(f1), text);
  EXPECT_EQ(result(f2), text);
  // Capacity freed: submitting works again.
  service.drain();
  auto f3 = service.submit(std::span<const u8>(text), cfg);
  EXPECT_EQ(result(f3), text);
}

TEST(Service, BlockPolicyStallsSubmittersUntilCapacityFrees) {
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.queue_capacity = 1;
  sc.overflow = svc::OverflowPolicy::kBlock;
  sc.batch_window_seconds = 0;
  svc::CompressionService<u8> service(sc);
  const PipelineConfig cfg = serial_config();

  const auto text = data::generate_text(512u << 10, 23);
  const u64 stalls_before =
      obs::MetricsRegistry::global().counter("svc.backpressure_events");

  std::vector<std::future<svc::CompressResult<u8>>> futs;
  for (int i = 0; i < 4; ++i) {
    // With capacity 1, every submit after the first must block until the
    // previous request completes — yet all are admitted eventually.
    futs.push_back(service.submit(std::span<const u8>(text), cfg));
    EXPECT_LE(service.queue_depth(), 1u);
  }
  for (auto& f : futs) EXPECT_EQ(svc::decompress(f.get()), text);
  EXPECT_GE(obs::MetricsRegistry::global().counter("svc.backpressure_events"),
            stalls_before + 1);
}

// --- Codebook cache behavior through the service. ----------------------------

TEST(Service, CacheHitOnRepeatedDistribution) {
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 0;  // isolate caching from batching
  svc::CompressionService<u8> service(sc);
  const PipelineConfig cfg = serial_config();
  const auto text = data::generate_text(16384, 31);

  const svc::CompressResult<u8> first =
      service.submit(std::span<const u8>(text), cfg).get();
  EXPECT_FALSE(first.cache_hit);
  const svc::CompressResult<u8> second =
      service.submit(std::span<const u8>(text), cfg).get();
  EXPECT_TRUE(second.cache_hit);
  // The hit serves the very codebook instance the first request built.
  EXPECT_EQ(second.codebook.get(), first.codebook.get());
  EXPECT_EQ(svc::decompress(second), text);
  EXPECT_GE(service.cache().stats().hits, 1u);
}

TEST(Service, CacheDisabledNeverHits) {
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 0;
  sc.enable_cache = false;
  svc::CompressionService<u8> service(sc);
  const PipelineConfig cfg = serial_config();
  const auto text = data::generate_text(8192, 37);
  for (int i = 0; i < 3; ++i) {
    const svc::CompressResult<u8> res =
        service.submit(std::span<const u8>(text), cfg).get();
    EXPECT_FALSE(res.cache_hit);
    EXPECT_EQ(svc::decompress(res), text);
  }
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST(Service, CacheGuardForcesRebuildWhenCachedBookLacksSymbols) {
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 0;
  svc::CompressionService<u8> service(sc);
  const PipelineConfig cfg = serial_config();

  std::vector<u8> request(10000);
  for (std::size_t i = 0; i < request.size(); ++i) {
    request[i] = static_cast<u8>(i % 10);  // symbols 0..9
  }

  // Plant a codebook under the exact fingerprint the service will compute
  // for this request — but one that can only encode symbols {0, 1}. The
  // coarse fingerprint can alias distributions like this in the wild; the
  // covers() guard is what keeps it correct.
  const auto freq = histogram_serial<u8>(request, cfg.nbins);
  const svc::Fingerprint fp =
      svc::fingerprint_histogram(freq, svc::cache_seed(cfg));
  std::vector<u64> poison_freq(cfg.nbins, 0);
  poison_freq[0] = poison_freq[1] = 1;
  service.cache().insert(fp, book_for(poison_freq));

  const u64 guard_before =
      obs::MetricsRegistry::global().counter("svc.cache_guard_rejects");
  const svc::CompressResult<u8> res =
      service.submit(std::span<const u8>(request), cfg).get();
  EXPECT_FALSE(res.cache_hit);  // the poisoned entry was not used
  EXPECT_EQ(svc::decompress(res), request);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("svc.cache_guard_rejects"),
            guard_before + 1);

  // The rebuilt book replaced the poisoned entry: a repeat now hits.
  const svc::CompressResult<u8> repeat =
      service.submit(std::span<const u8>(request), cfg).get();
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(svc::decompress(repeat), request);
}

TEST(Service, GapSubseqBitsYieldsGapArrayStreams) {
  // Regression: the batched and degraded encodes skipped the gap-array
  // annotation compress() applies, so the service silently ignored
  // PipelineConfig::gap_subseq_bits.
  const auto text = data::generate_text(32768, 47);
  PipelineConfig cfg = serial_config();
  cfg.gap_subseq_bits = 1024;
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.retry.max_attempts = 0;
  svc::CompressionService<u8> service(sc);

  const svc::CompressResult<u8> batched =
      service.submit(std::span<const u8>(text), cfg).get();
  EXPECT_FALSE(batched.degraded);
  EXPECT_TRUE(batched.stream.has_gaps());
  EXPECT_EQ(svc::decompress(batched), text);

  // The solo serial rescue annotates too.
  util::ScopedFaults faults(util::FaultInjector::global());
  faults.arm("svc.encode", 1.0);
  const svc::CompressResult<u8> rescued =
      service.submit(std::span<const u8>(text), cfg).get();
  EXPECT_TRUE(rescued.degraded);
  EXPECT_TRUE(rescued.stream.has_gaps());
  EXPECT_EQ(svc::decompress(rescued), text);
}

// --- Lifecycle. --------------------------------------------------------------

TEST(Service, InvalidConfigThrows) {
  svc::ServiceConfig sc;
  sc.queue_capacity = 0;
  EXPECT_THROW(svc::CompressionService<u8> service(sc),
               std::invalid_argument);

  svc::CompressionService<u8> ok;
  PipelineConfig bad;
  bad.nbins = 0;
  EXPECT_THROW((void)ok.submit(std::span<const u8>(), bad),
               std::invalid_argument);
}

TEST(Service, DestructorCompletesAdmittedRequests) {
  const auto text = data::generate_text(32768, 41);
  std::vector<std::future<svc::CompressResult<u8>>> futs;
  {
    svc::ServiceConfig sc;
    sc.workers = 2;
    sc.batch_window_seconds = 5e-3;
    svc::CompressionService<u8> service(sc);
    for (int i = 0; i < 16; ++i) {
      futs.push_back(
          service.submit(std::span<const u8>(text), serial_config()));
    }
  }  // dtor drains
  for (auto& f : futs) EXPECT_EQ(svc::decompress(f.get()), text);
}

TEST(Service, DestructorWakesSubmitterBlockedAtCapacity) {
  // Regression: a thread blocked in submit() under OverflowPolicy::kBlock
  // while the destructor runs must be woken and receive std::logic_error —
  // not deadlock on the capacity condition variable, and not race the
  // teardown of the members it still touches. The first request is large
  // enough to hold the single capacity slot while the second submitter
  // parks and the destructor starts.
  const auto text = data::generate_text(8 << 20, 43);
  std::atomic<bool> submitter_threw{false};
  std::atomic<bool> submitter_admitted{false};
  std::future<svc::CompressResult<u8>> first;
  std::thread blocked;
  {
    svc::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 1;
    sc.overflow = svc::OverflowPolicy::kBlock;
    svc::CompressionService<u8> service(sc);
    first = service.submit(std::span<const u8>(text), serial_config());
    blocked = std::thread([&] {
      try {
        auto f = service.submit(std::span<const u8>(text), serial_config());
        submitter_admitted.store(true);
        (void)f.get();  // if admitted, the dtor still drains it
      } catch (const std::logic_error&) {
        submitter_threw.store(true);
      }
    });
    // Give the thread time to park on the capacity wait, then destroy the
    // service underneath it. The dtor must wake it before teardown.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }  // dtor: wakes blocked submitters, waits for them to leave, drains
  blocked.join();
  // Either outcome is legal — the submitter squeezed in before shutdown or
  // was woken with logic_error — but it must never deadlock, and the
  // admitted request must still resolve.
  EXPECT_TRUE(submitter_threw.load() || submitter_admitted.load());
  EXPECT_EQ(svc::decompress(first.get()), text);
}

// --- Lossy submissions. ------------------------------------------------------

std::vector<float> lossy_test_field(data::Dims dims, u64 seed = 17) {
  std::vector<float> f(dims.total());
  Xoshiro256 rng(seed);
  const double phase = 0.001 * static_cast<double>(rng.below(1000));
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = static_cast<float>(
        std::sin(static_cast<double>(i) * 0.02 + phase));
  }
  return f;
}

lossy::FusedConfig lossy_serial_config(u32 nbins) {
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = 1e-3;
  cfg.nbins = nbins;
  cfg.rle_min_run = 64;
  cfg.pipeline = serial_config(nbins);
  return cfg;
}

TEST(ServiceLossy, SubmitRoundTripsWithinTheBound) {
  svc::ServiceConfig sc;
  sc.workers = 2;
  svc::CompressionService<u16> service(sc);
  const data::Dims dims{24, 24, 12};
  const auto field = lossy_test_field(dims);

  svc::LossySubmission sub = service.submit_lossy(
      std::vector<float>(field), dims, lossy_serial_config(1024));
  const svc::LossyResult res = sub.result.get();
  ASSERT_FALSE(res.container.empty());
  EXPECT_GT(res.report.ratio(), 1.0);
  EXPECT_EQ(res.report.rle_run_symbols + res.report.residual_symbols,
            dims.total());

  const lossy::Field back = lossy::decompress_field(res.container);
  ASSERT_EQ(back.values.size(), field.size());
  double worst = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(field[i]) -
                                     static_cast<double>(back.values[i])));
  }
  EXPECT_LE(worst, res.report.error_bound);
}

TEST(ServiceLossy, WidthPredicateIsEnforcedAtSubmit) {
  // nbins <= 256 belongs to the u8 service, wider to the u16 service —
  // the same invariant the RPC server's routing relies on.
  svc::CompressionService<u8> narrow;
  svc::CompressionService<u16> wide;
  const data::Dims dims{8, 8, 8};
  const auto field = lossy_test_field(dims);
  EXPECT_THROW((void)narrow.submit_lossy(std::vector<float>(field), dims,
                                         lossy_serial_config(1024)),
               std::invalid_argument);
  EXPECT_THROW((void)wide.submit_lossy(std::vector<float>(field), dims,
                                       lossy_serial_config(256)),
               std::invalid_argument);
  // The valid pairings go through.
  EXPECT_FALSE(narrow
                   .submit_lossy(std::vector<float>(field), dims,
                                 lossy_serial_config(256))
                   .result.get()
                   .container.empty());
  EXPECT_FALSE(wide
                   .submit_lossy(std::vector<float>(field), dims,
                                 lossy_serial_config(1024))
                   .result.get()
                   .container.empty());
}

TEST(ServiceLossy, RepeatedConfigHitsTheCodebookCache) {
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.batch_window_seconds = 0;
  svc::CompressionService<u16> service(sc);
  const data::Dims dims{24, 24, 12};
  const lossy::FusedConfig cfg = lossy_serial_config(1024);

  // Same field → same residual histogram → same fingerprint.
  const auto field = lossy_test_field(dims, 23);
  const svc::LossyResult first =
      service.submit_lossy(std::vector<float>(field), dims, cfg).result.get();
  EXPECT_FALSE(first.cache_hit);
  const svc::LossyResult second =
      service.submit_lossy(std::vector<float>(field), dims, cfg).result.get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.report.cache_hit);
  // The hit must not have changed the bytes.
  EXPECT_EQ(second.container, first.container);
}

TEST(ServiceLossy, CountersBalanceAcrossSuccessAndFailure) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 req0 = reg.counter("lossy.requests");
  const u64 done0 = reg.counter("lossy.completed");
  const u64 fail0 = reg.counter("lossy.failed");

  svc::ServiceConfig sc;
  sc.workers = 1;
  svc::CompressionService<u16> service(sc);
  const data::Dims dims{16, 16, 8};
  const auto field = lossy_test_field(dims, 29);

  // Two successes.
  for (int i = 0; i < 2; ++i) {
    (void)service
        .submit_lossy(std::vector<float>(field), dims,
                      lossy_serial_config(1024))
        .result.get();
  }
  // One failure past admission: a dead-on-arrival deadline counts a
  // request AND a failure (the reject-at-submit width error above counts
  // neither — it never became a request).
  svc::SubmitOptions doa;
  doa.deadline = svc::Deadline::in(-1.0);
  svc::LossySubmission sub = service.submit_lossy(
      std::vector<float>(field), dims, lossy_serial_config(1024), doa);
  EXPECT_THROW((void)sub.result.get(), svc::DeadlineExceeded);

  EXPECT_EQ(reg.counter("lossy.requests") - req0, 3u);
  EXPECT_EQ(reg.counter("lossy.requests") - req0,
            (reg.counter("lossy.completed") - done0) +
                (reg.counter("lossy.failed") - fail0));
}

TEST(ServiceLossy, FailuresAreCountedBeforeTheFutureResolves) {
  // Regression: the lossy path resolved a failed future before bumping
  // lossy.failed and the typed svc.* counter, so a caller woken by get()
  // could read a stale ledger. Every read below follows get() directly.
  auto& reg = obs::MetricsRegistry::global();
  const data::Dims dims{64, 64, 32};
  const auto field = lossy_test_field(dims, 31);
  const lossy::FusedConfig cfg = lossy_serial_config(1024);
  svc::ServiceConfig sc;
  sc.workers = 1;
  sc.enable_cache = false;

  // Cancelled: `a` is cancelled mid-stage (or before it starts), `b`
  // while it queues behind `a` on the single worker.
  {
    svc::CompressionService<u16> service(sc);
    u64 throws = 0;
    const u64 failed0 = reg.counter("lossy.failed");
    const u64 cancelled0 = reg.counter("svc.cancelled_requests");
    for (int round = 0; round < 4; ++round) {
      svc::LossySubmission a =
          service.submit_lossy(std::vector<float>(field), dims, cfg);
      svc::LossySubmission b =
          service.submit_lossy(std::vector<float>(field), dims, cfg);
      a.handle.cancel();
      b.handle.cancel();
      for (svc::LossySubmission* sub : {&a, &b}) {
        try {
          (void)sub->result.get();
        } catch (const svc::CancelledError&) {
          ++throws;
          EXPECT_GE(reg.counter("lossy.failed") - failed0, throws);
          EXPECT_GE(reg.counter("svc.cancelled_requests") - cancelled0,
                    throws);
        }
      }
    }
    EXPECT_GT(throws, 0u);
  }

  // Expired: a virtual clock that steps 1 s per query runs a 3.5 s budget
  // out within the first few checks — at admission, at the start
  // boundary, or at a mid-stage poll. Each is a DeadlineExceeded.
  {
    util::VirtualClock vc;
    vc.auto_advance_every(1, std::chrono::seconds(1));
    sc.clock = &vc;
    svc::CompressionService<u16> service(sc);
    for (u64 i = 1; i <= 4; ++i) {
      const u64 failed0 = reg.counter("lossy.failed");
      const u64 expired0 = reg.counter("svc.deadline_exceeded");
      svc::SubmitOptions opts;
      opts.deadline = svc::Deadline::in(3.5, vc);
      svc::LossySubmission sub = service.submit_lossy(
          std::vector<float>(field), dims, cfg, opts);
      EXPECT_THROW((void)sub.result.get(), svc::DeadlineExceeded);
      EXPECT_EQ(reg.counter("lossy.failed") - failed0, 1u);
      EXPECT_EQ(reg.counter("svc.deadline_exceeded") - expired0, 1u);
    }
  }
}

}  // namespace
}  // namespace parhuff
