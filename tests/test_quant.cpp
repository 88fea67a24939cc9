// Mini-SZ quantizer substrate: the error-bound guarantee, outlier handling,
// reconstruction round trip, and the Nyx-Quant statistical profile. The
// bound/round-trip coverage is property-based (proptest.hpp): seeded field
// families × bin counts, every case replayable from the printed seed.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "data/quant.hpp"
#include "core/entropy.hpp"
#include "proptest.hpp"

namespace parhuff {
namespace {

using data::Dims;
namespace pt = proptest;

// ---------------------------------------------------------------------------
// Property suites: quantize → reconstruct must land within eb elementwise
// for every finite field family, across both Huffman-alphabet bin counts
// and an in-between size — 72 seeded cases.

class QuantRoundTrip : public ::testing::TestWithParam<u32> {};

TEST_P(QuantRoundTrip, ErrorBoundHolds) {
  const u32 nbins = GetParam();
  for (const pt::FieldKind kind :
       {pt::FieldKind::kSmooth, pt::FieldKind::kTurbulent,
        pt::FieldKind::kConstant}) {
    const auto failure = pt::find_field_failure(
        kind, 8,
        [&](const std::vector<float>& field, Dims dims,
            const pt::CaseId& id) -> std::optional<std::string> {
          // Vary the bound per case, seeded: 1e-1 .. 1e-3.
          Xoshiro256 rng(id.seed ^ 0x5bd1e995);
          const double eb = std::pow(10.0, -1.0 - 2.0 * pt::uniform(rng, 0, 1));
          const auto q = data::lorenzo_quantize(field, dims, eb, nbins);
          for (const u16 c : q.codes) {
            if (c >= nbins) return "code out of range";
          }
          const auto recon = data::lorenzo_reconstruct(q);
          const double worst = pt::max_abs_error(field, recon);
          if (worst > eb) {
            return "worst error " + std::to_string(worst) + " > eb " +
                   std::to_string(eb);
          }
          return std::nullopt;
        });
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, QuantRoundTrip,
                         ::testing::Values(64u, 256u, 1024u),
                         [](const ::testing::TestParamInfo<u32>& pi) {
                           return "nbins" + std::to_string(pi.param);
                         });

TEST(QuantProp, OutliersReconstructExactly) {
  // Every (index, value) pair in the outlier table must come back
  // bit-identical — the error bound only covers quantized elements.
  const auto failure = pt::find_field_failure(
      pt::FieldKind::kTurbulent, 8,
      [&](const std::vector<float>& field, Dims dims,
          const pt::CaseId&) -> std::optional<std::string> {
        const auto q = data::lorenzo_quantize(field, dims, 1e-4, 64);
        const auto recon = data::lorenzo_reconstruct(q);
        for (const auto& [oi, value] : q.outliers) {
          if (recon[oi] != value) return "outlier not exact";
        }
        return std::nullopt;
      });
  EXPECT_FALSE(failure.has_value()) << *failure;
}

TEST(CheckedTotal, MatchesTotalWithinTheLimit) {
  EXPECT_EQ(data::checked_total(Dims{4, 5, 6}, 1000), 120u);
  EXPECT_EQ(data::checked_total(Dims{4, 5, 6}, 120), 120u);  // limit inclusive
  EXPECT_EQ(data::checked_total(Dims{1, 1, 1}, 1), 1u);
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(data::checked_total(Dims{max, 1, 1}, max), max);
}

TEST(CheckedTotal, RejectsZeroExtentsAndProductsOverTheLimit) {
  EXPECT_FALSE(data::checked_total(Dims{0, 5, 6}, 1000));
  EXPECT_FALSE(data::checked_total(Dims{4, 0, 6}, 1000));
  EXPECT_FALSE(data::checked_total(Dims{4, 5, 0}, 1000));
  EXPECT_FALSE(data::checked_total(Dims{4, 5, 6}, 119));
  EXPECT_FALSE(data::checked_total(Dims{121, 1, 1}, 120));
  EXPECT_FALSE(data::checked_total(Dims{1, 1, 121}, 120));
}

TEST(CheckedTotal, RejectsProductsThatWrap) {
  // Each forgery wraps nx*ny*nz back to 2, so Dims::total() alone would
  // pass a check against a 2-element stream.
  const std::size_t wrap = (std::size_t{1} << 63) + 1;
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  for (const Dims d : {Dims{wrap, 2, 1}, Dims{1, wrap, 2}, Dims{2, 1, wrap}}) {
    ASSERT_EQ(d.total(), 2u);
    const std::string name = std::to_string(d.nx) + "x" +
                             std::to_string(d.ny) + "x" + std::to_string(d.nz);
    EXPECT_FALSE(data::checked_total(d, 2)) << name;
    EXPECT_FALSE(data::checked_total(d, max)) << name;
  }
}

TEST(Quantizer, TighterBoundMoreOutliersOrCodes) {
  const Dims dims{24, 24, 24};
  const auto field = data::generate_cosmo_field(dims, 3);
  const auto loose = data::lorenzo_quantize(field, dims, 1e-1, 64);
  const auto tight = data::lorenzo_quantize(field, dims, 1e-4, 64);
  EXPECT_GE(tight.outliers.size(), loose.outliers.size());
}

TEST(Quantizer, RejectsBadParameters) {
  const Dims dims{4, 4, 4};
  const auto field = data::generate_cosmo_field(dims, 1);
  EXPECT_THROW((void)data::lorenzo_quantize(field, dims, 0.0, 256),
               std::invalid_argument);
  EXPECT_THROW((void)data::lorenzo_quantize(field, Dims{5, 4, 4}, 1e-2, 256),
               std::invalid_argument);
  EXPECT_THROW((void)data::lorenzo_quantize(field, dims, 1e-2, 2),
               std::invalid_argument);
}

TEST(Quantizer, DeterministicInSeed) {
  const Dims dims{16, 16, 16};
  const auto a = data::generate_cosmo_field(dims, 77);
  const auto b = data::generate_cosmo_field(dims, 77);
  const auto c = data::generate_cosmo_field(dims, 78);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Quantizer, TwoDimensionalFields) {
  // dims {nx, ny, 1}: the predictor degenerates to the 2-D Lorenzo
  // stencil (left + up - upleft). SZ treats 2-D slices exactly this way.
  const Dims dims{64, 64, 1};
  std::vector<float> field(dims.total());
  for (std::size_t y = 0; y < dims.ny; ++y) {
    for (std::size_t x = 0; x < dims.nx; ++x) {
      field[y * dims.nx + x] =
          static_cast<float>(std::sin(x * 0.1) * std::cos(y * 0.07));
    }
  }
  const double eb = 1e-2;
  const auto q = data::lorenzo_quantize(field, dims, eb, 256);
  const auto recon = data::lorenzo_reconstruct(q);
  EXPECT_LE(pt::max_abs_error(field, recon), eb);
  // Smooth 2-D data: the center bin dominates.
  std::size_t center = 0;
  for (u16 c : q.codes) center += c == 128 ? 1 : 0;
  EXPECT_GT(static_cast<double>(center) / q.codes.size(), 0.5);
}

TEST(Quantizer, OneDimensionalSeries) {
  // dims {n, 1, 1}: plain 1-D delta prediction — time-series mode.
  const Dims dims{4096, 1, 1};
  std::vector<float> series(dims.total());
  for (std::size_t i = 0; i < series.size(); ++i) {
    series[i] = static_cast<float>(10.0 * std::sin(i * 0.01) + 0.5 * i * 0.001);
  }
  const double eb = 1e-2;
  const auto q = data::lorenzo_quantize(series, dims, eb, 512);
  const auto recon = data::lorenzo_reconstruct(q);
  ASSERT_LE(pt::max_abs_error(series, recon), eb);
}

TEST(NyxQuant, ProfileMatchesPaper) {
  // The paper's Nyx-Quant: 1024 bins, avg Huffman bits ≈ 1.03 — i.e. the
  // center bin dominates. Check entropy lands in the right band.
  const auto codes = data::generate_nyx_quant(1 << 20, 42);
  std::vector<u64> h(1024, 0);
  for (u16 c : codes) ++h[c];
  const double ent = shannon_entropy(h);
  EXPECT_GT(ent, 0.05);
  EXPECT_LT(ent, 0.5);
  // Center bin carries the bulk of the mass (perfect predictions).
  EXPECT_GT(static_cast<double>(h[512]) / static_cast<double>(codes.size()),
            0.95);
}

TEST(NyxQuant, RequestedSizeExact) {
  EXPECT_EQ(data::generate_nyx_quant(12345, 1).size(), 12345u);
}

}  // namespace
}  // namespace parhuff
