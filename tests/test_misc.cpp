// Entropy + reduction-factor rule, parallel scan helpers,
// histogram variants, and the performance models' sanity properties.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/entropy.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "perf/cpu_model.hpp"
#include "perf/gpu_model.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace parhuff {
namespace {

// --- Entropy / reduction factor (Fig. 3). ---------------------------------

TEST(Entropy, UniformIsLogN) {
  std::vector<u64> h(256, 10);
  EXPECT_NEAR(shannon_entropy(h), 8.0, 1e-9);
}

TEST(Entropy, DegenerateIsZero) {
  std::vector<u64> h(256, 0);
  h[3] = 1000;
  EXPECT_NEAR(shannon_entropy(h), 0.0, 1e-9);
  EXPECT_NEAR(shannon_entropy(std::vector<u64>(4, 0)), 0.0, 1e-9);
}

TEST(ReduceFactorRule, PaperOperatingPoints) {
  // β = 1.0272 → rule 4 (paper: "potentially r=4 for Nyx-Quant").
  EXPECT_EQ(reduce_factor_rule(1.0272), 4u);
  // β = 2.7307 (NCI) → 3; β = 5.16 (enwik) → 2; β = 4.02 (MR) → 2.
  EXPECT_EQ(reduce_factor_rule(2.7307), 3u);
  EXPECT_EQ(reduce_factor_rule(5.1639), 2u);
  EXPECT_EQ(reduce_factor_rule(4.0165), 2u);
  EXPECT_EQ(reduce_factor_rule(4.1428), 2u);
}

TEST(ReduceFactorRule, MergedWidthInHalfOpenBand) {
  // For any β, the chosen r puts β·2^r in [W/2, W) whenever β ≤ W/4.
  for (double beta = 0.4; beta < 8.0; beta += 0.13) {
    const u32 r = reduce_factor_rule(beta, 32);
    const double merged = merged_bitwidth(beta, r);
    EXPECT_LT(merged, 32.0) << beta;
    if (r > 1) {
      EXPECT_GE(merged, 16.0) << beta;
    }
  }
}

TEST(ReduceFactorRule, DecisionCappedAtThree) {
  EXPECT_EQ(decide_reduce_factor(1.0272, 10), 3u);
  EXPECT_EQ(decide_reduce_factor(5.16, 10), 2u);
  EXPECT_EQ(decide_reduce_factor(1.0, 2), 1u);  // cap at magnitude-1
}

// --- Parallel helpers. ------------------------------------------------------

TEST(Scan, ExclusiveSmallAndLarge) {
  std::vector<u64> v = {3, 1, 4, 1, 5};
  EXPECT_EQ(exclusive_scan(v), 14u);
  EXPECT_EQ(v, (std::vector<u64>{0, 3, 4, 8, 9}));

  Xoshiro256 rng(8);
  std::vector<u64> big(100000);
  for (auto& x : big) x = rng.below(100);
  std::vector<u64> ref = big;
  u64 run = 0;
  for (auto& x : ref) {
    const u64 t = x;
    x = run;
    run += t;
  }
  const u64 total = exclusive_scan(big, 2);
  EXPECT_EQ(total, run);
  EXPECT_EQ(big, ref);
}

// --- Histogram variants. ----------------------------------------------------

TEST(Histogram, AllVariantsAgree) {
  const auto input = data::generate_text(300000, 12);
  const auto a = histogram_serial<u8>(input, 256);
  const auto b = histogram_openmp<u8>(input, 256, 2);
  simt::MemTally tally;
  const auto c = histogram_simt<u8>(input, 256, &tally);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_GT(tally.shared_atomics, 0u);
  u64 total = 0;
  for (u64 f : a) total += f;
  EXPECT_EQ(total, input.size());
}

TEST(Histogram, LargeAlphabetMultiPass) {
  // 65536 bins exceed the shared budget (the paper's footnote-3 limit);
  // the multi-pass kernel re-reads the input once per bin range.
  std::vector<u16> input(100000);
  Xoshiro256 rng(4);
  for (auto& s : input) s = static_cast<u16>(rng.below(65536));
  simt::MemTally tally;
  const auto h = histogram_simt<u16>(input, 65536, &tally);
  EXPECT_EQ(h, histogram_serial<u16>(input, 65536));
  // 6 passes over the data: read amplification visible in the tally.
  EXPECT_GT(tally.global_read_bytes, input.size() * sizeof(u16) * 5);
}

TEST(Histogram, LargeAlphabetGlobalAtomicFallback) {
  std::vector<u16> input(50000);
  Xoshiro256 rng(5);
  for (auto& s : input) s = static_cast<u16>(rng.below(65536));
  SimtHistogramConfig cfg;
  cfg.allow_multipass = false;
  simt::MemTally tally;
  const auto h = histogram_simt<u16>(input, 65536, &tally, cfg);
  EXPECT_EQ(h, histogram_serial<u16>(input, 65536));
  EXPECT_GE(tally.global_atomics, input.size());  // one RMW per symbol
}

TEST(Histogram, MultiPassBoundaryBins) {
  // Alphabet sized to land symbols exactly on pass boundaries.
  SimtHistogramConfig cfg;
  cfg.shared_budget_bytes = 64 * sizeof(u32);  // 64 bins per pass
  std::vector<u16> input;
  for (u16 s = 0; s < 200; ++s) {
    for (int k = 0; k <= s % 3; ++k) input.push_back(s);
  }
  const auto h = histogram_simt<u16>(input, 200, nullptr, cfg);
  EXPECT_EQ(h, histogram_serial<u16>(input, 200));
}

TEST(Histogram, EmptyInput) {
  const auto h = histogram_simt<u8>(std::vector<u8>{}, 256, nullptr);
  for (u64 f : h) EXPECT_EQ(f, 0u);
}

// --- Performance models. ----------------------------------------------------

TEST(GpuModel, MoreSectorsMoreTime) {
  simt::MemTally small, large;
  small.global_read(1000, 4, simt::Pattern::kCoalesced);
  large.global_read(1000, 4, simt::Pattern::kStrided);
  const auto spec = simt::DeviceSpec::v100();
  EXPECT_LT(perf::model_time(small, spec).total(),
            perf::model_time(large, spec).total());
}

TEST(GpuModel, V100FasterThanRtx5000OnBandwidthBoundWork) {
  simt::MemTally t;
  t.global_read(u64{1} << 24, 4, simt::Pattern::kCoalesced);
  EXPECT_LT(perf::model_time(t, simt::DeviceSpec::v100()).total(),
            perf::model_time(t, simt::DeviceSpec::rtx5000()).total());
}

TEST(GpuModel, LaunchOverheadCounts) {
  simt::MemTally t;
  t.kernel_launches = 10;
  const auto spec = simt::DeviceSpec::v100();
  EXPECT_NEAR(perf::model_time(t, spec).total(), 600e-6, 1e-9);
}

TEST(CpuModel, ScalingShapeMatchesTableVI) {
  const perf::CpuSpec spec;
  const double single = 1.22;  // paper's 1-core encode GB/s
  // Monotone growth to 56 cores, collapse at 64.
  const double t32 = perf::scaled_throughput_gbps(single, 32, spec);
  const double t56 = perf::scaled_throughput_gbps(single, 56, spec);
  const double t64 = perf::scaled_throughput_gbps(single, 64, spec);
  EXPECT_GT(t32, perf::scaled_throughput_gbps(single, 16, spec));
  EXPECT_GT(t56, t32);
  EXPECT_LT(t64, t56);
  // Parallel efficiency bands from Table VI.
  EXPECT_GT(perf::parallel_efficiency(single, 32, spec), 0.90);
  const double e56 = perf::parallel_efficiency(single, 56, spec);
  EXPECT_GT(e56, 0.70);
  EXPECT_LT(e56, 0.92);
}

TEST(CpuModel, RegionOverheadHurtsSmallTasks) {
  const perf::CpuSpec spec;
  // A tiny task with many regions: more threads should NOT help (Table IV's
  // small-codebook regime).
  const double serial = 200e-6;
  const double t1 = perf::region_task_seconds(serial, 120, 1, spec);
  const double t8 = perf::region_task_seconds(serial, 120, 8, spec);
  EXPECT_GT(t8, t1);
  // A large task amortizes the overhead.
  const double big = 50e-3;
  EXPECT_LT(perf::region_task_seconds(big, 120, 8, spec),
            perf::region_task_seconds(big, 120, 1, spec));
}

// --- Table formatting (bench output backbone). ------------------------------

TEST(TextTable, RendersAlignedRows) {
  TextTable t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1.25"});
  t.rule();
  t.row({"beta", "100.00"});
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("100.00"), std::string::npos);
}

TEST(Fmt, Helpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.0012, 4), "0.1200%");
  EXPECT_EQ(fmt_bytes(256 * 1000 * 1000), "256 MB");
  EXPECT_EQ(fmt_bytes(std::size_t{1400} * 1000 * 1000), "1.4 GB");
}

}  // namespace
}  // namespace parhuff
