// The cuSZ-style lossy compressor: error-bound guarantee through the full
// stack (predict → quantize → Huffman → container → decode →
// reconstruct), ratio behaviour, container robustness — for both the
// glued PHL1 path (lossy.hpp) and the fused PHL2 path (fused.hpp).
//
// The round-trip coverage is property-based (proptest.hpp): seeded field
// families × error-bound modes × both Huffman alphabets, asserting
// |x - x'| <= eb elementwise on every case. The named tests below the
// property suites pin specific behaviors (ratio floors, outlier
// exactness, container rejection) the properties don't express.
#include <gtest/gtest.h>

#include <cmath>

#include "core/format.hpp"
#include "data/quant.hpp"
#include "lossy/fused.hpp"
#include "lossy/lossy.hpp"
#include "proptest.hpp"

namespace parhuff {
namespace {

using data::Dims;
namespace pt = proptest;

double max_error(std::span<const float> a, std::span<const float> b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) -
                                     static_cast<double>(b[i])));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Property suites. FusedRoundTrip covers {relative, absolute} bound modes
// × {256, 1024} bins (the u8 and u16 Huffman alphabets) × every field
// family — 120 seeded cases. GluedRoundTrip covers the PHL1 path on the
// finite families. Every case replays from the family/index/seed printed
// on failure.

struct BoundMode {
  const char* name;
  double rel = 0;
  double abs = 0;
  u32 nbins = 0;
};

class FusedRoundTrip : public ::testing::TestWithParam<BoundMode> {};

TEST_P(FusedRoundTrip, ErrorBoundHoldsEndToEnd) {
  const BoundMode mode = GetParam();
  for (const pt::FieldKind kind :
       {pt::FieldKind::kSmooth, pt::FieldKind::kTurbulent,
        pt::FieldKind::kConstant, pt::FieldKind::kDenormal,
        pt::FieldKind::kSpiky}) {
    const auto failure = pt::find_field_failure(
        kind, 6,
        [&](const std::vector<float>& field, Dims dims,
            const pt::CaseId&) -> std::optional<std::string> {
          lossy::FusedConfig cfg;
          cfg.rel_error_bound = mode.rel;
          cfg.abs_error_bound = mode.abs;
          cfg.nbins = mode.nbins;
          cfg.rle_min_run = 64;  // small shapes: let RLE engage
          lossy::FusedReport rep;
          const auto bytes =
              lossy::compress_field_fused(field, dims, cfg, &rep);
          const lossy::Field back = lossy::decompress_field(bytes);
          if (back.values.size() != field.size()) return "size mismatch";
          const double worst = pt::max_abs_error(field, back.values);
          if (worst > rep.error_bound) {
            return "worst error " + std::to_string(worst) + " > bound " +
                   std::to_string(rep.error_bound);
          }
          if (rep.rle_run_symbols + rep.residual_symbols != dims.total()) {
            return "RLE accounting does not cover the field";
          }
          return std::nullopt;
        });
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FusedRoundTrip,
    ::testing::Values(BoundMode{"rel_u8", 1e-2, 0, 256},
                      BoundMode{"rel_u16", 1e-3, 0, 1024},
                      BoundMode{"abs_u8", 0, 0.05, 256},
                      BoundMode{"abs_u16", 0, 0.01, 1024}),
    [](const ::testing::TestParamInfo<BoundMode>& pi) {
      return pi.param.name;
    });

class GluedRoundTrip : public ::testing::TestWithParam<BoundMode> {};

TEST_P(GluedRoundTrip, ErrorBoundHoldsEndToEnd) {
  const BoundMode mode = GetParam();
  for (const pt::FieldKind kind :
       {pt::FieldKind::kSmooth, pt::FieldKind::kTurbulent,
        pt::FieldKind::kConstant}) {
    const auto failure = pt::find_field_failure(
        kind, 4,
        [&](const std::vector<float>& field, Dims dims,
            const pt::CaseId&) -> std::optional<std::string> {
          lossy::Config cfg;
          cfg.rel_error_bound = mode.rel;
          cfg.abs_error_bound = mode.abs;
          cfg.nbins = mode.nbins;
          lossy::Report rep;
          const auto bytes = lossy::compress_field(field, dims, cfg, &rep);
          const lossy::Field back = lossy::decompress_field(bytes);
          const double worst = pt::max_abs_error(field, back.values);
          if (worst > rep.error_bound) {
            return "worst error " + std::to_string(worst) + " > bound " +
                   std::to_string(rep.error_bound);
          }
          return std::nullopt;
        });
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, GluedRoundTrip,
    ::testing::Values(BoundMode{"rel_u8", 1e-2, 0, 256},
                      BoundMode{"rel_u16", 1e-3, 0, 1024},
                      BoundMode{"abs_u8", 0, 0.05, 256},
                      BoundMode{"abs_u16", 0, 0.01, 1024}),
    [](const ::testing::TestParamInfo<BoundMode>& pi) {
      return pi.param.name;
    });

TEST(LossyProp, HarnessCatchesABrokenBound) {
  // Sanity-check the harness itself: a deliberately broken property (the
  // claimed bound is 1/100th of the real one) must produce a failure with
  // a shrunk, replayable case — otherwise the 100+ green cases above
  // prove nothing.
  const auto failure = pt::find_field_failure(
      pt::FieldKind::kTurbulent, 6,
      [&](const std::vector<float>& field, Dims dims,
          const pt::CaseId&) -> std::optional<std::string> {
        lossy::FusedConfig cfg;
        cfg.rel_error_bound = 1e-2;
        lossy::FusedReport rep;
        const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
        const lossy::Field back = lossy::decompress_field(bytes);
        const double worst = pt::max_abs_error(field, back.values);
        if (worst > rep.error_bound * 0.01) {  // deliberately too strict
          return "broken bound trips";
        }
        return std::nullopt;
      });
  ASSERT_TRUE(failure.has_value());
  // The report names the family, the seed, and the shrunk dims.
  EXPECT_NE(failure->find("family=turbulent"), std::string::npos) << *failure;
  EXPECT_NE(failure->find("seed=0x"), std::string::npos) << *failure;
}

TEST(LossyProp, FusedAndGluedReconstructionsAgree) {
  // Same field, same absolute bound: both paths must satisfy the bound
  // independently (they need not produce identical floats — the fused
  // path's RLE/outlier handling differs — but each must be within eb).
  const auto failure = pt::find_field_failure(
      pt::FieldKind::kSmooth, 8,
      [&](const std::vector<float>& field, Dims dims,
          const pt::CaseId&) -> std::optional<std::string> {
        lossy::Config gc;
        gc.abs_error_bound = 0.02;
        lossy::FusedConfig fc;
        fc.abs_error_bound = 0.02;
        const auto glued = lossy::decompress_field(
            lossy::compress_field(field, dims, gc));
        const auto fused = lossy::decompress_field(
            lossy::compress_field_fused(field, dims, fc));
        if (pt::max_abs_error(field, glued.values) > 0.02) {
          return "glued path out of bound";
        }
        if (pt::max_abs_error(field, fused.values) > 0.02) {
          return "fused path out of bound";
        }
        return std::nullopt;
      });
  EXPECT_FALSE(failure.has_value()) << *failure;
}

TEST(Fused, SmoothSeed2FieldStaysWithinTheExactBound) {
  // Regression: the reconstruction is rounded to float, and on this field
  // (the benchmark's smooth field, seed 2, rel 1e-2) one value used to land
  // 0.12944603 from its input against eb 0.129445915 — under one ulp past
  // the bound. Such a value must become an outlier, on both paths.
  const Dims dims{128, 128, 64};
  const double phase = 0.002;
  std::vector<float> field(dims.total());
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++i) {
        field[i] = static_cast<float>(
            8.0 * std::sin(x * 0.02 + phase) * std::cos(y * 0.017) +
            0.5 * std::sin(z * 0.05 + 2 * phase));
      }
    }
  }
  lossy::FusedConfig fc;
  fc.rel_error_bound = 1e-2;
  lossy::FusedReport frep;
  const auto fused = lossy::decompress_field(
      lossy::compress_field_fused(field, dims, fc, &frep));
  EXPECT_LE(max_error(field, fused.values), frep.error_bound);

  lossy::Config gc;
  gc.rel_error_bound = 1e-2;
  lossy::Report grep;
  const auto glued =
      lossy::decompress_field(lossy::compress_field(field, dims, gc, &grep));
  EXPECT_LE(max_error(field, glued.values), grep.error_bound);
}

// ---------------------------------------------------------------------------
// Named glued-path (PHL1) tests: ratio behaviour and container rules the
// properties don't pin.

TEST(Lossy, LooserBoundCompressesBetter) {
  const Dims dims{40, 40, 40};
  const auto field = data::generate_cosmo_field(dims, 9);
  lossy::Report loose, tight;
  lossy::Config cl, ct;
  cl.rel_error_bound = 1e-1;
  ct.rel_error_bound = 1e-4;
  (void)lossy::compress_field(field, dims, cl, &loose);
  (void)lossy::compress_field(field, dims, ct, &tight);
  EXPECT_GT(loose.ratio(), tight.ratio());
  EXPECT_GT(loose.ratio(), 4.0);  // smooth field at 10% relative: easy
}

TEST(Lossy, ConstantFieldHitsTheOneBitFloor) {
  // Huffman cannot spend less than one bit per symbol, so a perfectly
  // predictable f32 field tops out near 32x (minus container overhead) on
  // the glued path — the reason the fused path stacks the RLE stage.
  const Dims dims{32, 32, 32};
  std::vector<float> field(dims.total(), 3.25f);
  lossy::Report rep;
  const auto bytes = lossy::compress_field(field, dims, {}, &rep);
  EXPECT_GT(rep.ratio(), 20.0);
  EXPECT_LT(rep.ratio(), 33.0);
  const auto back = lossy::decompress_field(bytes);
  EXPECT_LE(max_error(field, back.values), rep.error_bound);
}

TEST(Lossy, OutliersSurviveRoundTrip) {
  const Dims dims{24, 24, 24};
  auto field = data::generate_cosmo_field(dims, 7);
  // Plant extreme spikes the quantizer must store verbatim.
  field[100] = 1e9f;
  field[5000] = -1e9f;
  lossy::Config cfg;
  cfg.abs_error_bound = 0.01;
  lossy::Report rep;
  const auto bytes = lossy::compress_field(field, dims, cfg, &rep);
  EXPECT_GE(rep.outliers, 2u);
  const auto back = lossy::decompress_field(bytes);
  EXPECT_EQ(back.values[100], 1e9f);  // outliers are exact
  EXPECT_EQ(back.values[5000], -1e9f);
  EXPECT_LE(max_error(field, back.values), 0.01);
}

TEST(Lossy, RejectsBadParameters) {
  const Dims dims{8, 8, 8};
  const auto field = data::generate_cosmo_field(dims, 1);
  EXPECT_THROW((void)lossy::compress_field(field, Dims{9, 8, 8}, {}),
               std::invalid_argument);
  lossy::Config bad;
  bad.rel_error_bound = 0;
  EXPECT_THROW((void)lossy::compress_field(field, dims, bad),
               std::invalid_argument);
  bad = {};
  bad.nbins = 2;
  EXPECT_THROW((void)lossy::compress_field(field, dims, bad),
               std::invalid_argument);
}

TEST(Lossy, RejectsCorruptContainer) {
  const Dims dims{16, 16, 16};
  const auto field = data::generate_cosmo_field(dims, 3);
  auto bytes = lossy::compress_field(field, dims, {});
  {
    auto bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW((void)lossy::decompress_field(bad), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad.resize(bad.size() / 3);
    EXPECT_THROW((void)lossy::decompress_field(bad), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad.push_back(0);
    EXPECT_THROW((void)lossy::decompress_field(bad), std::runtime_error);
  }
}

TEST(Lossy, FileRoundTrip) {
  const Dims dims{32, 32, 16};
  const auto field = data::generate_cosmo_field(dims, 4);
  const auto bytes = lossy::compress_field(field, dims, {});
  const std::string path = "/tmp/parhuff_lossy_test.phl";
  write_file(path, bytes);
  const auto back = lossy::decompress_field(read_file(path));
  EXPECT_EQ(back.values.size(), field.size());
}

TEST(Lossy, ReportSectionsAddUp) {
  const Dims dims{32, 32, 32};
  const auto field = data::generate_cosmo_field(dims, 6);
  lossy::Report rep;
  const auto bytes = lossy::compress_field(field, dims, {}, &rep);
  EXPECT_EQ(rep.compressed_bytes, bytes.size());
  EXPECT_GT(rep.huffman.compression_ratio(), 1.0);
  EXPECT_LE(rep.outlier_bytes, rep.compressed_bytes);
}

// ---------------------------------------------------------------------------
// Named fused-path (PHL2) tests.

TEST(Fused, ConstantFieldBreaksTheOneBitFloor) {
  // The same field that tops out near 32x on the glued path: with every
  // perfect-prediction run extracted into RLE1, the fused container holds
  // a handful of runs instead of 32768 one-bit symbols.
  const Dims dims{32, 32, 32};
  std::vector<float> field(dims.total(), 3.25f);
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(field, dims, {}, &rep);
  EXPECT_GT(rep.ratio(), 100.0);
  EXPECT_GE(rep.rle_runs, 1u);
  const auto back = lossy::decompress_field(bytes);
  EXPECT_LE(max_error(field, back.values), rep.error_bound);
}

TEST(Fused, NonFinitesRoundTripExactly) {
  const Dims dims{16, 16, 16};
  auto field = data::generate_cosmo_field(dims, 8);
  field[0] = std::numeric_limits<float>::quiet_NaN();
  field[17] = std::numeric_limits<float>::infinity();
  field[300] = -std::numeric_limits<float>::infinity();
  field[4095] = std::numeric_limits<float>::quiet_NaN();
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = 1e-3;
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
  EXPECT_GE(rep.outliers, 4u);
  const auto back = lossy::decompress_field(bytes);
  EXPECT_TRUE(std::isnan(back.values[0]));
  EXPECT_EQ(back.values[17], std::numeric_limits<float>::infinity());
  EXPECT_EQ(back.values[300], -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(back.values[4095]));
  // Finite neighbours stay in bound: the NaNs predicted as 0.0f on both
  // sides, so the reconstructions never diverged.
  EXPECT_LE(pt::max_abs_error(field, back.values), rep.error_bound);
}

TEST(Fused, RleDisabledProducesPlainContainer) {
  const Dims dims{24, 24, 24};
  std::vector<float> field(dims.total(), 1.0f);
  lossy::FusedConfig on, off;
  off.rle_min_run = 0;
  lossy::FusedReport ron, roff;
  const auto bon = lossy::compress_field_fused(field, dims, on, &ron);
  const auto boff = lossy::compress_field_fused(field, dims, off, &roff);
  EXPECT_GE(ron.rle_runs, 1u);
  EXPECT_EQ(roff.rle_runs, 0u);
  EXPECT_EQ(roff.residual_symbols, dims.total());
  EXPECT_LT(bon.size(), boff.size());
  // Both decompress through the shared entry point.
  EXPECT_EQ(lossy::decompress_field(bon).values,
            lossy::decompress_field(boff).values);
}

TEST(Fused, ReportAccountsForEverySymbol) {
  const Dims dims{32, 32, 32};
  const auto field = data::generate_cosmo_field(dims, 6);
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = 1e-2;
  cfg.rle_min_run = 64;
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
  EXPECT_EQ(rep.compressed_bytes, bytes.size());
  EXPECT_EQ(rep.rle_run_symbols + rep.residual_symbols, dims.total());
  EXPECT_LE(rep.outlier_bytes, rep.compressed_bytes);
  EXPECT_DOUBLE_EQ(
      lossy::decompress_field(bytes).error_bound, rep.error_bound);
}

TEST(Fused, RejectsBadParameters) {
  const Dims dims{8, 8, 8};
  const auto field = data::generate_cosmo_field(dims, 1);
  EXPECT_THROW((void)lossy::compress_field_fused(field, Dims{9, 8, 8}, {}),
               std::invalid_argument);
  lossy::FusedConfig bad;
  bad.rel_error_bound = 0;
  EXPECT_THROW((void)lossy::compress_field_fused(field, dims, bad),
               std::invalid_argument);
  bad = {};
  bad.nbins = 2;
  EXPECT_THROW((void)lossy::compress_field_fused(field, dims, bad),
               std::invalid_argument);
  bad = {};
  bad.nbins = 1 << 17;
  EXPECT_THROW((void)lossy::compress_field_fused(field, dims, bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Lossless byte-stream round trips on the same harness: the Huffman core
// under the quantizer must be exact on arbitrary run-heavy byte soup.

TEST(LossyProp, ByteStreamsRoundTripLosslessly) {
  for (std::uint64_t idx = 0; idx < 16; ++idx) {
    const std::uint64_t seed = pt::case_seed(/*family_tag=*/100, idx);
    Xoshiro256 rng(seed);
    std::vector<u8> bytes = pt::make_bytes(rng, 8192);
    if (bytes.empty()) bytes.push_back(static_cast<u8>(rng.below(256)));
    const Compressed<u8> blob = compress<u8>(bytes, PipelineConfig{});
    EXPECT_EQ(decompress(blob), bytes) << "seed=0x" << std::hex << seed;
  }
}

}  // namespace
}  // namespace parhuff
