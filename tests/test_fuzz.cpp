// Randomized integration sweeps: every encoder against randomized
// alphabets, distributions, sizes and chunkings must round-trip; corrupted
// containers must be rejected or decoded defensively (throw, never crash);
// cross-encoder decoded-output equality holds for every draw.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "core/decode.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/encode_simt.hpp"
#include "core/executor.hpp"
#include "core/format.hpp"
#include "core/par_codebook.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/tree.hpp"
#include "data/synth_hist.hpp"
#include "lossy/fused.hpp"
#include "lossy/lossy.hpp"
#include "proptest.hpp"
#include "svc/service.hpp"
#include "util/clock.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/work_steal.hpp"

namespace parhuff {
namespace {

/// Random symbol stream: alphabet size, skew and run structure all drawn
/// from the seed.
std::vector<u16> random_stream(Xoshiro256& rng, std::size_t max_n,
                               std::size_t& nbins_out) {
  const std::size_t nbins = 2 + rng.below(2000);
  nbins_out = nbins;
  const std::size_t n = 1 + rng.below(max_n);
  // Distribution shape: uniform, zipf-ish, or runs-of-one-symbol.
  const u64 shape = rng.below(3);
  std::vector<u16> v(n);
  if (shape == 0) {
    for (auto& s : v) s = static_cast<u16>(rng.below(nbins));
  } else if (shape == 1) {
    for (auto& s : v) {
      // Squared draw skews toward small symbols.
      const u64 a = rng.below(nbins);
      const u64 b = rng.below(nbins);
      s = static_cast<u16>(a * b / (nbins ? nbins : 1));
    }
  } else {
    std::size_t i = 0;
    while (i < n) {
      const u16 sym = static_cast<u16>(rng.below(nbins));
      const std::size_t run = 1 + rng.geometric(0.02);
      for (std::size_t k = 0; k < run && i < n; ++k) v[i++] = sym;
    }
  }
  return v;
}

class FuzzRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FuzzRoundTrip, EveryEncoderEveryDraw) {
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 7919 + 3);
  for (int draw = 0; draw < 6; ++draw) {
    std::size_t nbins = 0;
    const auto input = random_stream(rng, 60000, nbins);
    const auto freq = histogram_serial<u16>(input, nbins);
    const Codebook cb = build_codebook_serial(freq);
    ASSERT_EQ(cb.validate(), "");

    const u32 chunk = static_cast<u32>(64 << rng.below(6));
    const auto ref = encode_serial<u16>(input, cb, chunk);
    ASSERT_EQ(decode_stream<u16>(ref, cb, 1), input);

    const auto omp = encode_openmp<u16>(input, cb, chunk, 2);
    ASSERT_EQ(omp.payload, ref.payload);
    const auto coarse = encode_coarse_simt<u16>(input, cb, chunk);
    ASSERT_EQ(coarse.payload, ref.payload);
    if (chunk <= 4096) {
      const auto ps = encode_prefixsum_simt<u16>(input, cb, chunk);
      ASSERT_EQ(ps.payload, ref.payload);
    }

    const u32 M = 6 + static_cast<u32>(rng.below(7));   // 6..12
    const u32 r = 1 + static_cast<u32>(rng.below(std::min(M - 1, 6u)));
    const auto rs = encode_reduceshuffle_simt<u16>(
        input, cb, ReduceShuffleConfig{M, r}, nullptr, nullptr);
    ASSERT_EQ(decode_stream<u16>(rs, cb, 1), input)
        << "M=" << M << " r=" << r << " n=" << input.size();
    ASSERT_EQ(decode_simt<u16>(rs, cb, nullptr), input);

    AdaptiveConfig ac;
    ac.magnitude = std::max(M, 3u);
    ac.max_reduce = std::min(6u, ac.magnitude - 1);
    const auto ad = encode_adaptive_simt<u16, 32>(input, cb, ac);
    ASSERT_EQ(decode_stream<u16>(ad, cb, 1), input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundTrip, ::testing::Range(0, 10));

class FuzzContainer : public ::testing::TestWithParam<int> {};

TEST_P(FuzzContainer, MutatedBytesNeverCrash) {
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 131 + 17);
  std::size_t nbins = 0;
  const auto input = random_stream(rng, 20000, nbins);
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.encoder = rng.below(2) ? EncoderKind::kReduceShuffleSimt
                             : EncoderKind::kAdaptiveSimt;
  const auto blob = compress<u16>(input, cfg);
  const auto bytes = serialize(blob);

  for (int trial = 0; trial < 40; ++trial) {
    auto mutated = bytes;
    const u64 kind = rng.below(4);
    if (kind == 0) {
      mutated[rng.below(mutated.size())] ^= static_cast<u8>(1 + rng.below(255));
    } else if (kind == 1) {
      mutated.resize(rng.below(mutated.size()));
    } else if (kind == 2) {
      for (int k = 0; k < 16; ++k) {
        mutated[rng.below(mutated.size())] =
            static_cast<u8>(rng.below(256));
      }
    } else {
      mutated.insert(mutated.end(), rng.below(64), static_cast<u8>(0xAA));
    }
    // Every outcome is acceptable except a crash/UB: reject at parse, throw
    // at decode, or decode to (possibly wrong) symbols.
    try {
      const auto blob2 = deserialize<u16>(mutated);
      (void)decode_stream<u16>(blob2.stream, blob2.codebook, 1);
    } catch (const std::exception&) {
      // expected for most mutations
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzContainer, ::testing::Range(0, 8));

TEST_P(FuzzContainer, ForgedHeaderFieldsWithValidChecksumNeverCrash) {
  // Random byte flips are almost always rejected by the stream section's
  // trailing fnv1a digest before any decode logic runs, so they never
  // exercise the layout-arithmetic checks. These mutations target the
  // stream header fields specifically and then RECOMPUTE the digest, so
  // the forged values reach deserialize_stream's validation and, when they
  // pass it, the decoders — which must throw or decode, never read OOB.
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 977 + 5);
  std::size_t nbins = 0;
  const auto input = random_stream(rng, 20000, nbins);
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.encoder = rng.below(2) ? EncoderKind::kReduceShuffleSimt
                             : EncoderKind::kAdaptiveSimt;
  const auto blob = compress<u16>(input, cfg);
  const auto bytes = serialize(blob);

  // Stream section offset: magic (4) + symbol width (1) + codebook.
  const std::size_t stream_at =
      5 + serialize_codebook(blob.codebook).size();
  ASSERT_LT(stream_at + 8, bytes.size());

  const auto patch_u64 = [](std::vector<u8>& buf, std::size_t at, u64 v) {
    std::memcpy(buf.data() + at, &v, sizeof(v));
  };
  const auto patch_u32 = [](std::vector<u8>& buf, std::size_t at, u32 v) {
    std::memcpy(buf.data() + at, &v, sizeof(v));
  };
  const auto fix_digest = [&](std::vector<u8>& buf) {
    const u64 d = fnv1a(std::span<const u8>(buf.data() + stream_at,
                                            buf.size() - stream_at - 8));
    std::memcpy(buf.data() + buf.size() - 8, &d, sizeof(d));
  };

  // Interesting forgeries per field, including the wrap-provoking extremes.
  const u64 u64_forgeries[] = {0,       1,          u64{1} << 32,
                               ~u64{0}, ~u64{0} - 30, ~u64{0} / 2};
  const u32 u32_forgeries[] = {0, 1, 0x7FFFFFFFu, 0xFFFFFFFFu};

  for (int trial = 0; trial < 60; ++trial) {
    auto mutated = bytes;
    const u64 field = rng.below(6);
    if (field == 0) {  // n_symbols
      patch_u64(mutated, stream_at, u64_forgeries[rng.below(6)]);
    } else if (field == 1) {  // chunk_symbols
      patch_u32(mutated, stream_at + 8, u32_forgeries[rng.below(4)]);
    } else if (field == 2) {  // reduce_factor
      patch_u32(mutated, stream_at + 12, u32_forgeries[rng.below(4)]);
    } else if (field == 3) {  // per-chunk-reduce flag
      mutated[stream_at + 16] ^= static_cast<u8>(1 + rng.below(255));
    } else if (field == 4) {  // n_chunks
      patch_u32(mutated, stream_at + 17, u32_forgeries[rng.below(4)]);
    } else {  // chunk_bits[0] — the release-mode OOB route
      patch_u64(mutated, stream_at + 21, u64_forgeries[rng.below(6)]);
    }
    fix_digest(mutated);
    try {
      const auto blob2 = deserialize<u16>(mutated);
      (void)decode_stream<u16>(blob2.stream, blob2.codebook, 1);
    } catch (const std::exception&) {
      // expected for most forgeries
    }
  }

  // The concrete exploit this PR closes: chunk_bits[0] near 2^64 wraps
  // words_for_bits() to 0 cells, so the forged chunk passes the payload
  // size comparison while claiming billions of bits over no storage. It
  // must be rejected at parse, not handed to a decoder.
  auto forged = bytes;
  patch_u64(forged, stream_at + 21, ~u64{0} - 30);
  fix_digest(forged);
  EXPECT_THROW((void)deserialize<u16>(forged), std::exception);
}

TEST_P(FuzzContainer, GapAnnotatedContainersMutatedBytesNeverCrash) {
  // Same contract as MutatedBytesNeverCrash, but over "PHF3" containers
  // carrying the GAP1 optional field — random damage to the field region
  // (tag, length, payload, per-field checksum) must be rejected at parse,
  // thrown at decode, or decoded defensively; never UB.
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 389 + 29);
  std::size_t nbins = 0;
  const auto input = random_stream(rng, 20000, nbins);
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.gap_subseq_bits = static_cast<u32>(128 << rng.below(6));
  cfg.encoder = rng.below(2) ? EncoderKind::kReduceShuffleSimt
                             : EncoderKind::kAdaptiveSimt;
  const auto blob = compress<u16>(input, cfg);
  const auto bytes = serialize(blob);
  ASSERT_EQ(std::memcmp(bytes.data(), "PHF3", 4), 0);
  // Bias damage toward the optional-field region at the container's tail.
  const std::size_t field_region =
      5 + serialize_codebook(blob.codebook).size() +
      serialize_stream(blob.stream).size();

  for (int trial = 0; trial < 40; ++trial) {
    auto mutated = bytes;
    const u64 kind = rng.below(4);
    if (kind == 0) {
      const std::size_t at =
          field_region + rng.below(mutated.size() - field_region);
      mutated[at] ^= static_cast<u8>(1 + rng.below(255));
    } else if (kind == 1) {
      mutated.resize(field_region + rng.below(mutated.size() - field_region));
    } else if (kind == 2) {
      for (int k = 0; k < 8; ++k) {
        mutated[field_region + rng.below(mutated.size() - field_region)] =
            static_cast<u8>(rng.below(256));
      }
    } else {
      mutated[rng.below(mutated.size())] ^= static_cast<u8>(1 + rng.below(255));
    }
    try {
      const auto blob2 = deserialize<u16>(mutated);
      (void)decompress(blob2);  // gap-array tier when metadata survived
    } catch (const std::exception&) {
      // expected for most mutations
    }
  }
}

TEST_P(FuzzContainer, ForgedGapFieldWithValidChecksumNeverCrashes) {
  // Checksum-fixing forgeries aimed at the GAP1 payload header: subseq
  // size and entry count reach parse_gap_field's validation with a valid
  // per-field digest; whatever passes must then survive the kernel's
  // count/chain checks without OOB.
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 523 + 41);
  std::size_t nbins = 0;
  const auto input = random_stream(rng, 20000, nbins);
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.gap_subseq_bits = 1024;
  const auto blob = compress<u16>(input, cfg);
  auto bytes = serialize(blob);
  const std::size_t field_region =
      5 + serialize_codebook(blob.codebook).size() +
      serialize_stream(blob.stream).size();
  // n_fields(4) | tag(4) | len(8) | payload | digest(8)
  const std::size_t payload_at = field_region + 16;
  const std::size_t payload_len =
      12 + blob.stream.gaps.size() + 2 * blob.stream.gap_counts.size();
  const auto fix_field = [&](std::vector<u8>& buf) {
    const u64 d =
        fnv1a(std::span<const u8>(buf.data() + payload_at, payload_len));
    std::memcpy(buf.data() + payload_at + payload_len, &d, sizeof(d));
  };

  const u64 u64_forgeries[] = {0,       1,            u64{1} << 32,
                               ~u64{0}, ~u64{0} - 30, ~u64{0} / 2};
  const u32 u32_forgeries[] = {0,    1,     63,         1024,
                               4096, 32768, 0x7FFFFFFFu, 0xFFFFFFFFu};
  for (int trial = 0; trial < 40; ++trial) {
    auto mutated = bytes;
    if (rng.below(2)) {  // subseq_bits
      std::memcpy(mutated.data() + payload_at, &u32_forgeries[rng.below(8)],
                  4);
    } else {  // n entries
      std::memcpy(mutated.data() + payload_at + 4,
                  &u64_forgeries[rng.below(6)], 8);
    }
    fix_field(mutated);
    try {
      const auto blob2 = deserialize<u16>(mutated);
      (void)decompress(blob2);
    } catch (const std::exception&) {
      // expected for most forgeries
    }
  }
}

TEST(FuzzCodebook, ParallelBuilderOnAdversarialHistograms) {
  // Degenerate shapes the melding rounds must survive: all-equal, strictly
  // doubling, single-heavy, two-valued, saw-tooth.
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + rng.below(300);
    std::vector<u64> freq(n);
    switch (trial % 5) {
      case 0:
        for (auto& f : freq) f = 7;
        break;
      case 1: {
        u64 v = 1;
        for (auto& f : freq) {
          f = v;
          v = std::min<u64>(v * 2, u64{1} << 50);
        }
        break;
      }
      case 2:
        for (auto& f : freq) f = 1;
        freq[rng.below(n)] = u64{1} << 40;
        break;
      case 3:
        for (std::size_t i = 0; i < n; ++i) freq[i] = i % 2 ? 1 : 1000;
        break;
      default:
        for (std::size_t i = 0; i < n; ++i) freq[i] = 1 + (i * 37) % 100;
        break;
    }
    SeqExec exec;
    const Codebook cb = build_codebook_parallel(exec, freq);
    ASSERT_EQ(cb.validate(), "") << "trial " << trial << " n=" << n;
    // Optimality vs the serial reference.
    const auto lens = build_lengths_twoqueue(freq);
    u64 par = 0, ser = 0;
    for (std::size_t i = 0; i < n; ++i) {
      par += freq[i] * cb.cw[i].len;
      ser += freq[i] * lens[i];
    }
    ASSERT_EQ(par, ser) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Lossy (PHL2) container fuzzing: random damage, checksum-fixing forgeries
// of the RLE1 optional field, forged outlier tables, and hostile float
// inputs. Contract everywhere: throw a typed std::exception or decode
// defensively — never read out of bounds.

/// A field whose fused container carries both RLE runs and residual
/// symbols: a noisy prefix over a constant bulk.
std::vector<float> rle_heavy_field(data::Dims dims, Xoshiro256& rng) {
  std::vector<float> field(dims.total(), 2.5f);
  const std::size_t noisy = std::min<std::size_t>(field.size() / 4, 2000);
  for (std::size_t i = 0; i < noisy; ++i) {
    field[i] = static_cast<float>(proptest::uniform(rng, -10.0, 10.0));
  }
  return field;
}

/// Offset of the "RLE1" tag inside a serialized container, or npos.
std::size_t find_rle_tag(std::span<const u8> bytes) {
  static constexpr u8 kTag[4] = {'R', 'L', 'E', '1'};
  const auto it = std::search(bytes.begin(), bytes.end(), std::begin(kTag),
                              std::end(kTag));
  return it == bytes.end()
             ? std::string::npos
             : static_cast<std::size_t>(it - bytes.begin());
}

class FuzzLossy : public ::testing::TestWithParam<int> {};

TEST_P(FuzzLossy, MutatedLossyContainersNeverCrash) {
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 263 + 7);
  const data::Dims dims{24, 24, 24};
  const auto field = rle_heavy_field(dims, rng);
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = 1e-3;
  cfg.rle_min_run = 64;
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
  ASSERT_GE(rep.rle_runs, 1u);  // the damage must reach RLE metadata

  for (int trial = 0; trial < 60; ++trial) {
    auto mutated = bytes;
    const u64 kind = rng.below(4);
    if (kind == 0) {
      mutated[rng.below(mutated.size())] ^= static_cast<u8>(1 + rng.below(255));
    } else if (kind == 1) {
      mutated.resize(rng.below(mutated.size()));
    } else if (kind == 2) {
      for (int k = 0; k < 16; ++k) {
        mutated[rng.below(mutated.size())] = static_cast<u8>(rng.below(256));
      }
    } else {
      mutated.insert(mutated.end(), rng.below(64), static_cast<u8>(0x55));
    }
    try {
      (void)lossy::decompress_field(mutated);
    } catch (const std::exception&) {
      // expected for most mutations
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLossy, ::testing::Range(0, 6));

TEST_P(FuzzLossy, ForgedRleFieldWithValidChecksumNeverCrashes) {
  // Checksum-fixing forgeries aimed at the RLE1 payload: run symbol, run
  // count, positions and lengths reach rle_expand's validation with a
  // valid per-field digest; whatever passes must survive expansion and
  // reconstruction without OOB.
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 709 + 13);
  const data::Dims dims{24, 24, 24};
  const auto field = rle_heavy_field(dims, rng);
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = 1e-3;
  cfg.rle_min_run = 64;
  const auto bytes = lossy::compress_field_fused(field, dims, cfg);

  const std::size_t tag_at = find_rle_tag(bytes);
  ASSERT_NE(tag_at, std::string::npos);
  // tag(4) | len(8) | payload(len) | digest(8)
  u64 payload_len = 0;
  std::memcpy(&payload_len, bytes.data() + tag_at + 4, 8);
  const std::size_t payload_at = tag_at + 12;
  ASSERT_LE(payload_at + payload_len + 8, bytes.size());
  const auto fix_field = [&](std::vector<u8>& buf) {
    const u64 d = fnv1a(
        std::span<const u8>(buf.data() + payload_at, payload_len));
    std::memcpy(buf.data() + payload_at + payload_len, &d, sizeof(d));
  };

  // Payload: run_symbol u32 | orig_symbols u64 | n_runs u64 | pos[] | len[]
  const u64 u64_forgeries[] = {0,       1,            u64{1} << 32,
                               ~u64{0}, ~u64{0} - 30, ~u64{0} / 2};
  const u32 u32_forgeries[] = {0, 1, 512, 0x7FFFFFFFu, 0xFFFFFFFFu};
  for (int trial = 0; trial < 60; ++trial) {
    auto mutated = bytes;
    const u64 which = rng.below(5);
    if (which == 0) {  // run_symbol (0 = forged outlier-marker run)
      std::memcpy(mutated.data() + payload_at, &u32_forgeries[rng.below(5)],
                  4);
    } else if (which == 1) {  // orig_symbols
      std::memcpy(mutated.data() + payload_at + 4,
                  &u64_forgeries[rng.below(6)], 8);
    } else if (which == 2) {  // n_runs
      std::memcpy(mutated.data() + payload_at + 12,
                  &u64_forgeries[rng.below(6)], 8);
    } else if (which == 3 && payload_len >= 28) {  // pos[0]
      std::memcpy(mutated.data() + payload_at + 20,
                  &u64_forgeries[rng.below(6)], 8);
    } else if (payload_len >= 32) {  // len[last] (tail of the payload)
      std::memcpy(mutated.data() + payload_at + payload_len - 4,
                  &u32_forgeries[rng.below(5)], 4);
    }
    fix_field(mutated);
    try {
      (void)lossy::decompress_field(mutated);
    } catch (const std::exception&) {
      // expected for most forgeries
    }
  }

  // The specific forgery the decoder must always reject: a run of the
  // outlier marker (symbol 0) would desynchronize the outlier side
  // channel, so it fails typed even with a valid digest.
  auto forged = bytes;
  const u32 zero = 0;
  std::memcpy(forged.data() + payload_at, &zero, 4);
  fix_field(forged);
  EXPECT_THROW((void)lossy::decompress_field(forged), std::exception);
}

TEST_P(FuzzLossy, ForgedOutlierTablesNeverCrash) {
  // The PHL2 outlier table sits at a fixed offset (no digest guards it —
  // the embedded Huffman container's digests cover only the code stream),
  // so forged counts, indices and orderings hit the parse checks directly.
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 811 + 3);
  const data::Dims dims{16, 16, 16};
  auto field = data::generate_cosmo_field(dims, 21);
  field[9] = 1e9f;  // guarantee at least one outlier entry
  field[4000] = -1e9f;
  lossy::FusedConfig cfg;
  cfg.abs_error_bound = 0.01;
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
  ASSERT_GE(rep.outliers, 2u);

  // PHL2 header: magic(4) dims(24) eb(8) nbins(4) sym_bytes(1) = 41, then
  // n_outliers u64 at 41 and {u32 idx, f32 val} pairs from 49.
  constexpr std::size_t kCountAt = 41;
  constexpr std::size_t kTableAt = 49;
  const u64 u64_forgeries[] = {0, 1, dims.nx * dims.ny * dims.nz + 1,
                               u64{1} << 32, ~u64{0}};
  const u32 u32_forgeries[] = {0, 9, 4095, 4096, 0xFFFFFFFFu};
  for (int trial = 0; trial < 60; ++trial) {
    auto mutated = bytes;
    const u64 which = rng.below(3);
    if (which == 0) {  // outlier count
      std::memcpy(mutated.data() + kCountAt, &u64_forgeries[rng.below(5)], 8);
    } else if (which == 1) {  // first outlier index (ordering/range checks)
      std::memcpy(mutated.data() + kTableAt, &u32_forgeries[rng.below(5)], 4);
    } else {  // random damage inside the table
      mutated[kTableAt + rng.below(rep.outliers * 8)] ^=
          static_cast<u8>(1 + rng.below(255));
    }
    try {
      (void)lossy::decompress_field(mutated);
    } catch (const std::exception&) {
      // expected for most forgeries
    }
  }

  // A count past the field size must fail typed, never allocate/scan.
  auto forged = bytes;
  const u64 huge = ~u64{0};
  std::memcpy(forged.data() + kCountAt, &huge, 8);
  EXPECT_THROW((void)lossy::decompress_field(forged), std::exception);
}

TEST(FuzzLossy, HostileFloatsNeverCrashTheFusedQuantizer) {
  // NaN/Inf/-0.0/denormal soup is a *valid* input: the fused quantizer
  // must compress it (non-finites as exact outliers) and the round trip
  // must hold the bound on the finite elements. llround never sees a
  // non-finite or an out-of-range quotient.
  namespace pt = proptest;
  const data::Dims dims{12, 12, 12};
  Xoshiro256 rng(31337);

  std::vector<std::vector<float>> fields;
  fields.push_back(pt::make_field(pt::FieldKind::kSpiky, dims, 1));
  fields.push_back(pt::make_field(pt::FieldKind::kDenormal, dims, 2));
  fields.emplace_back(dims.total(),
                      std::numeric_limits<float>::quiet_NaN());
  fields.emplace_back(dims.total(), std::numeric_limits<float>::infinity());
  {
    std::vector<float> mixed(dims.total());
    for (auto& v : mixed) {
      const u64 pick = rng.below(5);
      v = pick == 0   ? std::numeric_limits<float>::quiet_NaN()
          : pick == 1 ? std::numeric_limits<float>::infinity()
          : pick == 2 ? -std::numeric_limits<float>::infinity()
          : pick == 3 ? -0.0f
                      : static_cast<float>(pt::uniform(rng, -1.0, 1.0));
    }
    fields.push_back(std::move(mixed));
  }

  for (const auto& field : fields) {
    for (const u32 nbins : {256u, 1024u}) {
      lossy::FusedConfig cfg;
      cfg.rel_error_bound = 1e-3;
      cfg.nbins = nbins;
      lossy::FusedReport rep;
      const auto bytes =
          lossy::compress_field_fused(field, dims, cfg, &rep);
      const auto back = lossy::decompress_field(bytes);
      ASSERT_EQ(back.values.size(), field.size());
      // Finite values in bound; non-finites back as the same class.
      EXPECT_LE(pt::max_abs_error(field, back.values),
                rep.error_bound)
          << "nbins=" << nbins;
    }
  }
}

TEST(FuzzOverflow, ForgedGroupCountIsRejectedAtParseAndInTheChunkWalk) {
  // A wide alphabet breaks 2^3-symbol groups constantly, so the stream
  // carries many overflow entries.
  Xoshiro256 rng(77);
  std::vector<u16> input(20000);
  for (auto& v : input) v = static_cast<u16>(rng.below(1500));
  const Codebook cb = build_codebook_serial(histogram_serial<u16>(input, 1500));
  ReduceShuffleConfig rs;
  rs.magnitude = 10;
  rs.reduce_factor = 3;
  const EncodedStream enc = encode_reduceshuffle_simt<u16>(input, cb, rs);
  ASSERT_FALSE(enc.overflow.empty());
  ASSERT_EQ(decode_stream<u16>(enc, cb, 1), input);
  EXPECT_EQ(deserialize_stream(serialize_stream(enc)).overflow.size(),
            enc.overflow.size());

  // The last entry (the last group of the short last chunk) claims its
  // group plus 8 symbols, decoded from the start of the side stream so
  // the bits never run out: the splice would write 16 symbols past the
  // output. serialize_stream recomputes the checksum, so only the entry
  // rules stand between the forgery and a decoder.
  EncodedStream forged = enc;
  OverflowEntry& last = forged.overflow.back();
  ASSERT_EQ(last.chunk + 1, forged.chunks());
  last.n_symbols = static_cast<u32>(forged.group_symbols(last.chunk) + 8);
  last.bit_offset = 0;
  EXPECT_THROW((void)deserialize_stream(serialize_stream(forged)),
               std::runtime_error);
  // Built in memory, the stream skips the parser; every decoder's chunk
  // walk rejects the entry instead.
  EXPECT_THROW((void)decode_stream<u16>(forged, cb, 1), std::runtime_error);
  EXPECT_THROW((void)decode_range<u16>(forged, cb, 0, input.size(), 1),
               std::runtime_error);
  EXPECT_THROW((void)decode_simt<u16>(forged, cb), std::runtime_error);

  // The other entry rules: a group past its chunk, a duplicate, and
  // descending order are rejected at parse as well.
  EncodedStream outside = enc;
  outside.overflow.back().group = 1u << 20;
  EXPECT_THROW((void)deserialize_stream(serialize_stream(outside)),
               std::runtime_error);
  ASSERT_GE(enc.overflow.size(), 2u);
  EncodedStream duplicate = enc;
  duplicate.overflow[1] = duplicate.overflow[0];
  EXPECT_THROW((void)deserialize_stream(serialize_stream(duplicate)),
               std::runtime_error);
  EXPECT_THROW((void)decode_stream<u16>(duplicate, cb, 1), std::runtime_error);
  EncodedStream swapped = enc;
  std::swap(swapped.overflow[0], swapped.overflow[1]);
  EXPECT_THROW((void)deserialize_stream(serialize_stream(swapped)),
               std::runtime_error);
}

TEST(FuzzDecode, RandomPayloadBitFlipsThrowOrMisdecode) {
  Xoshiro256 rng(404);
  std::size_t nbins = 0;
  const auto input = random_stream(rng, 30000, nbins);
  const auto freq = histogram_serial<u16>(input, nbins);
  const Codebook cb = build_codebook_serial(freq);
  auto enc = encode_serial<u16>(input, cb, 1024);
  for (int trial = 0; trial < 60 && !enc.payload.empty(); ++trial) {
    auto broken = enc;
    broken.payload[rng.below(broken.payload.size())] ^=
        word_t{1} << rng.below(32);
    try {
      const auto out = decode_stream<u16>(broken, cb, 1);
      EXPECT_EQ(out.size(), input.size());  // sized output even if wrong
    } catch (const std::exception&) {
      // acceptable: the flip desynchronized a chunk past its bit budget
    }
  }
}

// --- Adaptive codebook lifecycle races (svc/codebook_manager.hpp). -----------
// Seeded sweeps over the three race windows the drift tests can't pin
// one-shot: stop() landing mid-swap, a covers() hard miss resyncing a
// bucket while its rebuild is in flight, and a forged fingerprint
// colliding a fresh-looking book with traffic it cannot encode.

namespace fuzz_adaptive {

svc::AdaptivePolicy eager_policy() {
  svc::AdaptivePolicy p;
  p.enabled = true;
  p.window_decay = 0.5;
  p.min_window_symbols = 256;
  p.divergence_high_bits = 0.02;
  p.divergence_low_bits = 0.01;
  p.max_rebuilds_per_period = 0;  // unlimited: the fuzz wants max traffic
  return p;
}

PipelineConfig bins64_config() {
  PipelineConfig cfg;
  cfg.nbins = 64;
  cfg.codebook = CodebookKind::kSerialTree;
  return cfg;
}

}  // namespace fuzz_adaptive

TEST(FuzzAdaptive, StopRacingInflightRebuildAlwaysBalances) {
  // Trigger a rebuild, then stop()/destroy at a seed-chosen point — with
  // or without an intervening quiesce(). Whatever the interleaving, every
  // started rebuild must resolve as exactly one outcome and destruction
  // must not hang or touch freed state (TSan/ASan runs cover this test).
  const PipelineConfig cfg = fuzz_adaptive::bins64_config();
  proptest::DriftSpec spec;
  const proptest::DriftSource src(spec, proptest::case_seed(0xfa2e0001ull, 0));
  const std::vector<u64> h0 = src.histogram(0);
  const std::vector<u64> h1 = src.histogram(spec.batches - 1);
  const svc::Fingerprint fp =
      svc::fingerprint_histogram(h0, svc::cache_seed(cfg));
  for (u64 trial = 0; trial < 24; ++trial) {
    Xoshiro256 rng(proptest::case_seed(0xfa2e1000ull, trial));
    svc::CodebookCache cache;
    WorkStealExecutor pool(2);
    util::VirtualClock vc;
    svc::CodebookManager::Counters c;
    {
      svc::CodebookManager mgr(fuzz_adaptive::eager_policy(), cache, pool, vc);
      const auto book = std::make_shared<const Codebook>(
          build_codebook(h0, cfg));
      cache.insert(fp, book);
      mgr.observe(fp, h0, book, cfg, false);
      mgr.observe(fp, h1, book, cfg, true);  // divergence >> high: triggers
      if (rng.below(2)) mgr.quiesce();       // else: stop races the rebuild
      mgr.stop();
      if (rng.below(2)) mgr.quiesce();
      // Post-stop observes are no-ops, not crashes.
      mgr.observe(fp, h1, book, cfg, true);
      mgr.stop();  // idempotent
      mgr.quiesce();
      c = mgr.counters();
    }  // dtor: stop + quiesce again
    EXPECT_EQ(c.rebuilds_started, 1u);
    EXPECT_EQ(c.rebuilds_started,
              c.rebuilds_applied + c.rebuilds_superseded +
                  c.rebuilds_cancelled + c.rebuilds_failed);
  }
}

TEST(FuzzAdaptive, HardMissResyncRacingRebuildKeepsTheFresherBook) {
  // While a rebuild for bucket fp is in flight, a covers()-style hard
  // miss installs its own fresh book and resyncs the bucket (generation
  // bump). Depending on scheduling the rebuild lands first (applied) or
  // comes home stale (superseded) — both are sanctioned; what may never
  // happen is the race losing the bucket's coverage of recent traffic.
  const PipelineConfig cfg = fuzz_adaptive::bins64_config();
  for (u64 trial = 0; trial < 24; ++trial) {
    proptest::DriftSpec spec;
    const proptest::DriftSource src(spec,
                                    proptest::case_seed(0xfa2e2000ull, trial));
    const std::vector<u64> h0 = src.histogram(0);
    const std::vector<u64> h1 = src.histogram(spec.batches - 1);
    const svc::Fingerprint fp =
        svc::fingerprint_histogram(h0, svc::cache_seed(cfg));
    svc::CodebookCache cache;
    WorkStealExecutor pool(2);
    util::VirtualClock vc;
    svc::CodebookManager mgr(fuzz_adaptive::eager_policy(), cache, pool, vc);

    const auto book0 =
        std::make_shared<const Codebook>(build_codebook(h0, cfg));
    cache.insert(fp, book0);
    mgr.observe(fp, h0, book0, cfg, false);
    mgr.observe(fp, h1, book0, cfg, true);  // rebuild in flight
    // The racing hard miss: a fresh build for the same bucket goes in
    // through the same insert path the batcher uses.
    const auto book1 =
        std::make_shared<const Codebook>(build_codebook(h1, cfg));
    cache.insert(fp, book1);
    mgr.observe(fp, h1, book1, cfg, false);
    mgr.quiesce();

    const auto c = mgr.counters();
    EXPECT_EQ(c.rebuilds_started, 1u);
    EXPECT_EQ(c.rebuilds_applied + c.rebuilds_superseded, 1u)
        << "a faultless race must resolve applied or superseded";
    EXPECT_EQ(c.rebuilds_failed, 0u);
    const auto cached = cache.find(fp);
    ASSERT_NE(cached, nullptr);
    EXPECT_TRUE(svc::CodebookCache::covers(*cached, h1));
  }
}

TEST(FuzzAdaptive, ForgedFingerprintCollisionNeverDecodesWrong) {
  // A forged (or stale-across-alphabet) cache entry colliding with live
  // traffic it cannot encode must always be caught by the covers() guard:
  // the request builds fresh, round-trips exactly, and the adaptive
  // manager resyncs the bucket rather than estimating against the
  // imposter. Randomize which symbols the imposter is missing.
  const PipelineConfig cfg = fuzz_adaptive::bins64_config();
  for (u64 trial = 0; trial < 12; ++trial) {
    Xoshiro256 rng(proptest::case_seed(0xfa2e3000ull, trial));
    util::VirtualClock vc;
    vc.auto_advance_every(1, util::Clock::dur(20e-6));
    svc::ServiceConfig sc;
    sc.workers = 2;
    sc.batch_window_seconds = 0;
    sc.adaptive = fuzz_adaptive::eager_policy();
    sc.clock = &vc;
    svc::CompressionService<u16> service(sc);

    // Live traffic over the full 64-bin support.
    proptest::DriftSpec spec;
    spec.log2_batch_symbols = 11;
    const proptest::DriftSource src(spec,
                                    proptest::case_seed(0xfa2e4000ull, trial));
    const std::vector<u16> request = src.batch<u16>(0);
    const auto freq = histogram_serial<u16>(request, cfg.nbins);
    const svc::Fingerprint fp =
        svc::fingerprint_histogram(freq, svc::cache_seed(cfg));

    // The imposter covers a random strict subset of the support.
    std::vector<u64> forged(cfg.nbins, 0);
    for (std::size_t i = 0; i < forged.size(); ++i) {
      if (rng.below(3) != 0) forged[i] = 1 + rng.below(100);
    }
    forged[rng.below(forged.size())] = 0;  // at least one hole
    bool any = false, hole = false;
    for (std::size_t i = 0; i < forged.size(); ++i) {
      any |= forged[i] > 0;
      hole |= forged[i] == 0 && freq[i] > 0;
    }
    if (!any || !hole) continue;  // degenerate draw: nothing to prove
    service.cache().insert(
        fp, std::make_shared<const Codebook>(build_codebook(forged, cfg)));

    const auto res =
        service.submit(std::span<const u16>(request), cfg).get();
    EXPECT_FALSE(res.cache_hit) << "the imposter book was used for encoding";
    EXPECT_EQ(svc::decompress(res), request);

    // The guard reject reached the manager as a resync, not an estimate
    // against the imposter: no rebuild can have started off it.
    ASSERT_NE(service.adaptive(), nullptr);
    service.adaptive()->quiesce();
    const auto c = service.adaptive()->counters();
    EXPECT_EQ(c.rebuilds_started, 0u);
    EXPECT_GT(c.observations, 0u);
  }
}

}  // namespace
}  // namespace parhuff
