// End-to-end pipeline: quant-code profiles, the reduce-factor override,
// stage tallies, tiny inputs, magnitude bounds and the entropy-ratio
// relation. Every histogram, codebook and encoder kind through compress()
// lives in test_equivalence.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "data/datasets.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"

namespace parhuff {
namespace {

TEST(Pipeline, MultiByteQuantCodes) {
  const auto input = data::generate_nyx_quant(200000, 5);
  PipelineConfig cfg;
  cfg.nbins = 1024;
  PipelineReport rep;
  const auto blob = compress<u16>(input, cfg, &rep);
  EXPECT_EQ(decompress(blob, 2), input);
  // Nyx-Quant profile: very low average bits, high ratio, r decided >= 3.
  EXPECT_LT(rep.avg_bits, 2.5);
  EXPECT_GE(rep.reduce_factor, 2u);
  EXPECT_GT(rep.compression_ratio(), 4.0);
}

TEST(Pipeline, ReduceFactorOverrideHonored) {
  const auto input = data::generate_nyx_quant(50000, 6);
  PipelineConfig cfg;
  cfg.nbins = 1024;
  cfg.reduce_factor = 2;
  PipelineReport rep;
  (void)compress<u16>(input, cfg, &rep);
  EXPECT_EQ(rep.reduce_factor, 2u);
}

TEST(Pipeline, SimtStagesProduceTallies) {
  const auto input = data::generate_text(100000, 1);
  PipelineConfig cfg;
  cfg.nbins = 256;
  PipelineReport rep;
  (void)compress<u8>(input, cfg, &rep);
  EXPECT_GT(rep.hist_tally.global_read_bytes, 0u);
  EXPECT_GT(rep.codebook_tally.grid_syncs, 0u);
  EXPECT_GT(rep.encode_tally.global_read_bytes, 0u);
  EXPECT_GT(rep.encode_tally.shared_bytes, 0u);
}

TEST(Pipeline, TinyInputs) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{1023}, std::size_t{1025}}) {
    std::vector<u8> input(n);
    for (std::size_t i = 0; i < n; ++i) input[i] = static_cast<u8>(i % 7);
    PipelineConfig cfg;
    cfg.nbins = 256;
    const auto blob = compress<u8>(input, cfg);
    EXPECT_EQ(decompress(blob, 1), input) << "n=" << n;
  }
}

TEST(Pipeline, MagnitudeOutOfRangeRejectedForEveryEncoder) {
  // The prefix-sum encoder stages a chunk's bit offsets in shared memory:
  // at magnitude 14 they would need 128 KiB of the block's 96 KiB. Every
  // encoder kind rejects the magnitude at stage entry instead.
  const auto input = data::generate_text(20000, 3);
  for (const EncoderKind e :
       {EncoderKind::kSerial, EncoderKind::kOpenMP, EncoderKind::kCoarseSimt,
        EncoderKind::kPrefixSumSimt, EncoderKind::kReduceShuffleSimt,
        EncoderKind::kAdaptiveSimt}) {
    PipelineConfig cfg;
    cfg.encoder = e;
    for (const u32 m : {0u, 13u, 14u, 40u}) {
      cfg.magnitude = m;
      EXPECT_THROW((void)compress<u8>(input, cfg), std::invalid_argument)
          << "encoder " << static_cast<int>(e) << " magnitude " << m;
    }
    for (const u32 m : {8u, 12u}) {
      cfg.magnitude = m;
      EXPECT_EQ(decompress(compress<u8>(input, cfg), 2), input)
          << "encoder " << static_cast<int>(e) << " magnitude " << m;
    }
  }
}

TEST(Pipeline, CompressionRatioTracksEntropy) {
  // ~1-bit data compresses ~8x harder than ~8-bit data.
  const auto low = data::generate_nyx_quant(100000, 7);
  std::vector<u8> high(100000);
  for (std::size_t i = 0; i < high.size(); ++i) {
    high[i] = static_cast<u8>((i * 2654435761u) >> 24);  // near-uniform
  }
  PipelineConfig cfg16;
  cfg16.nbins = 1024;
  PipelineReport rl, rh;
  (void)compress<u16>(low, cfg16, &rl);
  PipelineConfig cfg8;
  cfg8.nbins = 256;
  (void)compress<u8>(high, cfg8, &rh);
  EXPECT_GT(rl.compression_ratio(), 6.0);
  EXPECT_LT(rh.compression_ratio(), 1.3);
}

}  // namespace
}  // namespace parhuff
