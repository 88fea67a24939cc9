// Adaptive per-chunk reduce factors (§VII future-work extension): drifting
// traffic, breaking on bimodal data, per-chunk factors tracking local
// density, config bounds, the per-chunk factor container field, and
// matching fixed-r on uniform data. Also pins the lookup-phase bit
// accounting (AdaptiveStats::total_code_bits) the service's adaptive
// codebook lifecycle prices stale books with. Both cell widths against
// every decoder, on every stream family, live in test_equivalence.cpp.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/decode.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/entropy.hpp"
#include "core/format.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/tree.hpp"
#include "data/datasets.hpp"
#include "data/textgen.hpp"
#include "proptest.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

using proptest::bimodal_stream;

/// Exact total codeword bits of `input` under `cb` — what
/// AdaptiveStats::total_code_bits must equal.
u64 exact_code_bits(const std::vector<u16>& input, const Codebook& cb) {
  u64 bits = 0;
  for (const u16 s : input) bits += cb.cw[s].len;
  return bits;
}

// ---------------------------------------------------------------------------

TEST(Adaptive, RoundTripsOnDriftingTraffic) {
  // The drifting-source families feed the service-layer lifecycle tests;
  // the encoder must round-trip every batch shape they emit, and the
  // lookup bit totals must stay exact (the manager's divergence estimate
  // is priced off them).
  for (const proptest::DriftKind kind :
       {proptest::DriftKind::kGradual, proptest::DriftKind::kAbrupt,
        proptest::DriftKind::kPeriodic}) {
    proptest::DriftSpec spec;
    spec.batches = 6;
    spec.log2_batch_symbols = 12;
    const auto failure = proptest::find_drift_failure(
        kind, 2,
        [](const proptest::DriftSource& src, const proptest::DriftCaseId&)
            -> std::optional<std::string> {
          for (std::size_t t = 0; t < src.spec().batches; t += 2) {
            const std::vector<u16> input = src.batch<u16>(t);
            const auto freq =
                histogram_serial<u16>(input, src.spec().nbins);
            const Codebook cb = build_codebook_serial(freq);
            AdaptiveStats st;
            const EncodedStream enc =
                encode_adaptive_simt<u16, 32>(input, cb, {}, nullptr, &st);
            if (decode_stream<u16>(enc, cb, 2) != input)
              return "drift batch round trip mismatch";
            if (st.total_code_bits != exact_code_bits(input, cb))
              return "total_code_bits wrong on drift batch";
          }
          return std::nullopt;
        },
        spec);
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(Adaptive, ReducesBreakingOnBimodalData) {
  const auto input =
      bimodal_stream(400000, proptest::case_seed(0xada9b10dull, 0));
  const auto freq = histogram_serial<u16>(input, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const double avg = average_bitwidth(cb, freq);

  // Fixed r from the global average (what Fig. 3 prescribes).
  ReduceShuffleStats fixed_stats;
  const u32 r = decide_reduce_factor(avg, 10);
  const auto fixed = encode_reduceshuffle_simt<u16>(
      input, cb, ReduceShuffleConfig{10, r}, nullptr, &fixed_stats);

  AdaptiveStats ad_stats;
  const auto adaptive =
      encode_adaptive_simt<u16, 32>(input, cb, {}, nullptr, &ad_stats);

  EXPECT_EQ(decode_stream<u16>(fixed, cb, 2), input);
  EXPECT_EQ(decode_stream<u16>(adaptive, cb, 2), input);
  EXPECT_LT(ad_stats.breaking_symbols, fixed_stats.breaking_symbols / 3)
      << "adaptive should all but eliminate breaking on bimodal data "
      << "(fixed: " << fixed_stats.breaking_symbols
      << ", adaptive: " << ad_stats.breaking_symbols << ")";
}

TEST(Adaptive, ChunkFactorsTrackLocalDensity) {
  const auto input =
      bimodal_stream(300000, proptest::case_seed(0xada9c43cull, 0));
  const auto freq = histogram_serial<u16>(input, 1024);
  const Codebook cb = build_codebook_serial(freq);
  AdaptiveStats st;
  const auto enc = encode_adaptive_simt<u16, 32>(input, cb, {}, nullptr, &st);
  ASSERT_EQ(enc.chunk_reduce.size(), enc.chunks());
  // The stream has both calm and dense regions, so more than one factor
  // must be in play.
  std::size_t distinct = 0;
  for (std::size_t r = 0; r < st.r_histogram.size(); ++r) {
    if (st.r_histogram[r] > 0) ++distinct;
  }
  EXPECT_GE(distinct, 2u);
  u64 total = 0;
  for (u64 h : st.r_histogram) total += h;
  EXPECT_EQ(total, enc.chunks());
}

TEST(Adaptive, HonorsConfigBounds) {
  const auto input =
      bimodal_stream(50000, proptest::case_seed(0xada9d21aull, 0));
  const auto freq = histogram_serial<u16>(input, 1024);
  const Codebook cb = build_codebook_serial(freq);
  AdaptiveConfig cfg;
  cfg.min_reduce = 2;
  cfg.max_reduce = 3;
  const auto enc = encode_adaptive_simt<u16, 32>(input, cb, cfg);
  for (const u8 r : enc.chunk_reduce) {
    EXPECT_GE(r, 2);
    EXPECT_LE(r, 3);
  }
  EXPECT_EQ(decode_stream<u16>(enc, cb, 1), input);
}

TEST(Adaptive, RejectsBadConfig) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  const std::vector<u16> input = {0, 1};
  AdaptiveConfig bad;
  bad.min_reduce = 0;
  auto encode32 = [&](const AdaptiveConfig& c) {
    (void)encode_adaptive_simt<u16, 32>(input, cb, c);
  };
  EXPECT_THROW(encode32(bad), std::invalid_argument);
  bad = {};
  bad.max_reduce = 10;  // >= magnitude
  EXPECT_THROW(encode32(bad), std::invalid_argument);
}

TEST(Adaptive, FormatRoundTripsPerChunkFactors) {
  const auto bytes8 = data::generate_text(200000, 31);
  PipelineConfig cfg;
  cfg.nbins = 256;
  cfg.encoder = EncoderKind::kAdaptiveSimt;
  PipelineReport rep;
  const auto blob = compress<u8>(bytes8, cfg, &rep);
  ASSERT_FALSE(blob.stream.chunk_reduce.empty());
  const auto serialized = serialize(blob);
  const auto blob2 = deserialize<u8>(serialized);
  EXPECT_EQ(blob2.stream.chunk_reduce, blob.stream.chunk_reduce);
  EXPECT_EQ(decompress(blob2, 2), bytes8);
}

TEST(Adaptive, FormatRejectsCorruptChunkReduce) {
  const auto bytes8 = data::generate_text(50000, 33);
  PipelineConfig cfg;
  cfg.nbins = 256;
  cfg.encoder = EncoderKind::kAdaptiveSimt;
  auto serialized = serialize(compress<u8>(bytes8, cfg));
  // The per-chunk array sits right after chunk_bits; find a byte holding a
  // small reduce factor and zero it (0 is invalid).
  bool mutated = false;
  for (std::size_t i = serialized.size() - 1; i > serialized.size() - 4000;
       --i) {
    if (serialized[i] >= 1 && serialized[i] <= 6) {
      serialized[i] = 0;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  // Either the loader rejects it outright, or the mutation hit payload and
  // decode must still not crash (it may throw).
  try {
    const auto blob = deserialize<u8>(serialized);
    (void)decompress(blob, 1);
  } catch (const std::exception&) {
    SUCCEED();
  }
}

TEST(Adaptive, MatchesFixedWhenUniform) {
  // On statistically uniform data every chunk picks the same factor, and
  // the payload matches the fixed-r encoder bit for bit.
  const auto input = data::generate_nyx_quant(200000, 41);
  const auto freq = histogram_serial<u16>(input, 1024);
  const Codebook cb = build_codebook_serial(freq);
  AdaptiveStats st;
  const auto adaptive =
      encode_adaptive_simt<u16, 32>(input, cb, {}, nullptr, &st);
  u32 common = 0;
  std::size_t kinds = 0;
  for (std::size_t r = 0; r < st.r_histogram.size(); ++r) {
    if (st.r_histogram[r] > 0) {
      common = static_cast<u32>(r);
      ++kinds;
    }
  }
  if (kinds == 1) {
    const auto fixed = encode_reduceshuffle_simt<u16>(
        input, cb, ReduceShuffleConfig{10, common}, nullptr, nullptr);
    EXPECT_EQ(adaptive.payload, fixed.payload);
    EXPECT_EQ(adaptive.chunk_bits, fixed.chunk_bits);
  }
}

}  // namespace
}  // namespace parhuff
