// Randomized robustness sweeps: corrupted containers must be rejected or
// decoded defensively (throw, never crash), forged fields with repaired
// checksums fail typed, and the codebook builders survive adversarial
// histograms. Every encoder's round trip on random streams lives in
// test_equivalence.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/executor.hpp"
#include "core/format.hpp"
#include "core/par_codebook.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/tree.hpp"
#include "data/synth_hist.hpp"
#include "container_digest.hpp"
#include "golden_phl2.hpp"
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

/// Random symbol stream: alphabet size, length and shape all drawn from
/// the seed.
std::vector<u16> random_stream(Xoshiro256& rng, std::size_t max_n,
                               std::size_t& nbins_out) {
  const std::size_t nbins = 2 + rng.below(2000);
  nbins_out = nbins;
  const std::size_t n = 1 + rng.below(max_n);
  return proptest::random_symbols(rng, n, nbins);
}

/// Offset of the stream section in a serialized container: magic (4),
/// symbol width (1), then the codebook section.
std::size_t stream_offset(const Codebook& cb) {
  ByteWriter w;
  write_codebook(w, cb);
  return 5 + w.size();
}

/// Offset of the optional-field region, which follows the stream section
/// and its 8-byte digest.
std::size_t field_region_at(const Codebook& cb, const EncodedStream& s) {
  ByteWriter w;
  write_codebook(w, cb);
  write_stream(w, s);
  return 5 + w.size();
}

/// The u16 container of `cb` and `s`. The writers recompute every digest,
/// so a forged table or field reaches the reader's checks.
std::vector<u8> container_of(const Codebook& cb, const EncodedStream& s) {
  ByteWriter w;
  write_container<u16>(w, cb, s);
  return w.take();
}

/// A stream section written and read back; the reader must stop at the
/// section's end.
EncodedStream stream_round_trip(const EncodedStream& s) {
  ByteWriter w;
  write_stream(w, s);
  const std::vector<u8> bytes = w.take();
  ByteReader r(bytes);
  EncodedStream back = read_stream(r, SectionDigest::kLanes);
  EXPECT_TRUE(r.done());
  return back;
}

/// True when `e` is a digest failure: a forgery whose digests were repaired
/// must fail on something else.
bool is_checksum_failure(const std::exception& e) {
  return std::strstr(e.what(), "checksum mismatch") != nullptr;
}

/// Expect deserialize<u16>(bytes) to fail typed with `what` in the message.
void expect_container_failure(const std::vector<u8>& bytes, const char* what) {
  SCOPED_TRACE(what);
  try {
    (void)deserialize<u16>(bytes);
    ADD_FAILURE() << "forged container parsed; expected \"" << what << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::strstr(e.what(), what), nullptr) << e.what();
  }
}

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
  // trailing digest before any decode logic runs, so they never
  // exercise the layout-arithmetic checks. These mutations target the
  // stream header fields specifically and then RECOMPUTE the digest, so
  // the forged values reach read_stream's validation and, when they
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

  const std::size_t stream_at = stream_offset(blob.codebook);
  const std::size_t digest_at = field_region_at(blob.codebook, blob.stream) - 8;
  ASSERT_LT(stream_at + 8, digest_at);

  const auto patch_u64 = [](std::vector<u8>& buf, std::size_t at, u64 v) {
    std::memcpy(buf.data() + at, &v, sizeof(v));
  };
  const auto patch_u32 = [](std::vector<u8>& buf, std::size_t at, u32 v) {
    std::memcpy(buf.data() + at, &v, sizeof(v));
  };
  const auto fix_digest = [&](std::vector<u8>& buf) {
    const std::span<const u8> section(buf.data() + stream_at,
                                      digest_at - stream_at);
    const u64 d = digest_for(buf, section);
    std::memcpy(buf.data() + digest_at, &d, sizeof(d));
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
    } catch (const std::exception& e) {
      // Expected for most forgeries, but never at the repaired digest.
      EXPECT_FALSE(is_checksum_failure(e)) << "field " << field;
    }
  }

  // The concrete exploit this PR closes: chunk_bits[0] near 2^64 wraps
  // words_for_bits() to 0 cells, so the forged chunk passes the payload
  // size comparison while claiming billions of bits over no storage. It
  // must be rejected at parse, not handed to a decoder.
  auto forged = bytes;
  patch_u64(forged, stream_at + 21, ~u64{0} - 30);
  fix_digest(forged);
  expect_container_failure(forged, "implausible chunk bits");
}

TEST_P(FuzzContainer, GapAnnotatedContainersMutatedBytesNeverCrash) {
  // Same contract as MutatedBytesNeverCrash, but over containers
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
  ASSERT_TRUE(blob.stream.has_gaps());
  // Bias damage toward the optional-field region at the container's tail.
  const std::size_t field_region =
      field_region_at(blob.codebook, blob.stream);

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
      field_region_at(blob.codebook, blob.stream);
  // n_fields(4) | tag(4) | len(8) | payload | digest(8)
  const std::size_t payload_at = field_region + 16;
  const std::size_t payload_len =
      12 + blob.stream.gaps.size() + 2 * blob.stream.gap_counts.size();
  const auto fix_field = [&](std::vector<u8>& buf) {
    const u64 d = digest_for(
        buf, std::span<const u8>(buf.data() + payload_at, payload_len));
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
    } catch (const std::exception& e) {
      // Expected for most forgeries, but never at the repaired digest.
      EXPECT_FALSE(is_checksum_failure(e)) << e.what();
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
// Lossy container fuzzing: random damage, checksum-fixing forgeries of the
// RLE1 optional field, forged outlier tables and headers, and hostile float
// inputs. Each damage and forgery test runs over a fresh PHL3 container and
// the frozen PHL2 bytes (golden_phl2.hpp), the two formats the reader
// accepts. Contract everywhere: throw a typed std::exception or decode
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

/// `phl3` and the frozen PHL2 container (RLE runs and 76 outliers).
std::vector<std::vector<u8>> with_golden_phl2(std::vector<u8> phl3) {
  std::vector<std::vector<u8>> inputs;
  inputs.push_back(std::move(phl3));
  inputs.emplace_back(std::begin(testdata::kGoldenPhl2),
                      std::end(testdata::kGoldenPhl2));
  return inputs;
}

/// Offset of the u64 outlier count: the header is magic(4) dims(24) eb(8)
/// nbins(4) sym_bytes(1), and PHL3 adds an f32 anchor after it.
std::size_t outlier_count_at(std::span<const u8> bytes) {
  return std::memcmp(bytes.data(), "PHL3", 4) == 0 ? 45 : 41;
}

/// The embedded Huffman container of a lossy container: it follows the
/// {u32, f32} outlier table and a u64 length.
std::span<const u8> embedded_container(std::span<const u8> bytes) {
  const std::size_t count_at = outlier_count_at(bytes);
  u64 n_outliers = 0;
  std::memcpy(&n_outliers, bytes.data() + count_at, 8);
  const std::size_t huff_at = count_at + 8 + n_outliers * 8;
  return bytes.subspan(huff_at + 8);
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
  auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
  ASSERT_GE(rep.rle_runs, 1u);  // the damage must reach RLE metadata

  for (const auto& input : with_golden_phl2(std::move(bytes))) {
    for (int trial = 0; trial < 60; ++trial) {
      auto mutated = input;
      const u64 kind = rng.below(4);
      if (kind == 0) {
        mutated[rng.below(mutated.size())] ^=
            static_cast<u8>(1 + rng.below(255));
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
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLossy, ::testing::Range(0, 6));

TEST_P(FuzzLossy, ForgedRleFieldWithValidChecksumNeverCrashes) {
  // Checksum-fixing forgeries aimed at the RLE1 payload: run symbol, run
  // count, positions and lengths reach validate_rle with a valid
  // per-field digest; whatever passes must survive the run splice and
  // reconstruction without OOB.
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 709 + 13);
  const data::Dims dims{24, 24, 24};
  const auto field = rle_heavy_field(dims, rng);
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = 1e-3;
  cfg.rle_min_run = 64;
  for (const auto& bytes :
       with_golden_phl2(lossy::compress_field_fused(field, dims, cfg))) {
    const std::size_t tag_at = find_rle_tag(bytes);
    ASSERT_NE(tag_at, std::string::npos);
    // tag(4) | len(8) | payload(len) | digest(8)
    u64 payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + tag_at + 4, 8);
    const std::size_t payload_at = tag_at + 12;
    ASSERT_LE(payload_at + payload_len + 8, bytes.size());
    // The inner container's magic (PHF4 in PHL3, PHF3 in the frozen
    // PHL2) names the field digest.
    const std::span<const u8> inner = embedded_container(bytes);
    const auto fix_field = [&](std::vector<u8>& buf) {
      const u64 d = digest_for(
          inner, std::span<const u8>(buf.data() + payload_at, payload_len));
      std::memcpy(buf.data() + payload_at + payload_len, &d, sizeof(d));
    };

    // Payload: run_symbol u32 | orig_symbols u64 | n_runs u64 | pos[] |
    // len[]
    const u64 u64_forgeries[] = {0,       1,            u64{1} << 32,
                                 ~u64{0}, ~u64{0} - 30, ~u64{0} / 2};
    const u32 u32_forgeries[] = {0, 1, 512, 0x7FFFFFFFu, 0xFFFFFFFFu};
    for (int trial = 0; trial < 60; ++trial) {
      auto mutated = bytes;
      const u64 which = rng.below(5);
      if (which == 0) {  // run_symbol (0 = forged outlier-marker run)
        std::memcpy(mutated.data() + payload_at,
                    &u32_forgeries[rng.below(5)], 4);
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
      } catch (const std::exception& e) {
        // Expected for most forgeries, but never at the repaired digest.
        EXPECT_FALSE(is_checksum_failure(e)) << e.what();
      }
    }

    // The specific forgery the decoder must always reject: a run of the
    // outlier marker (symbol 0) would desynchronize the outlier side
    // channel, so it fails typed even with a valid digest.
    auto forged = bytes;
    const u32 zero = 0;
    std::memcpy(forged.data() + payload_at, &zero, 4);
    fix_field(forged);
    try {
      (void)lossy::decompress_field(forged);
      ADD_FAILURE() << "a run of the outlier marker decoded";
    } catch (const std::exception& e) {
      EXPECT_FALSE(is_checksum_failure(e)) << e.what();
    }
  }
}

TEST_P(FuzzLossy, ForgedOutlierTablesNeverCrash) {
  // The outlier table sits at a fixed offset (no digest guards it — the
  // embedded Huffman container's digests cover only the code stream), so
  // forged counts, indices, orderings and values hit the parse checks and
  // the reconstruct walk directly.
  Xoshiro256 rng(static_cast<u64>(GetParam()) * 811 + 3);
  const data::Dims dims{16, 16, 16};
  auto field = data::generate_cosmo_field(dims, 21);
  field[9] = 1e9f;  // guarantee at least one outlier entry
  field[4000] = -1e9f;
  lossy::FusedConfig cfg;
  cfg.abs_error_bound = 0.01;
  lossy::FusedReport rep;
  auto phl3 = lossy::compress_field_fused(field, dims, cfg, &rep);
  ASSERT_GE(rep.outliers, 2u);

  for (const auto& bytes : with_golden_phl2(std::move(phl3))) {
    // n_outliers u64, then {u32 idx, f32 val} pairs.
    const std::size_t count_at = outlier_count_at(bytes);
    const std::size_t table_at = count_at + 8;
    u64 n_outliers = 0;
    u64 dim[3] = {};
    std::memcpy(&n_outliers, bytes.data() + count_at, 8);
    std::memcpy(dim, bytes.data() + 4, sizeof(dim));
    ASSERT_GE(n_outliers, 2u);
    const u64 u64_forgeries[] = {0, 1, dim[0] * dim[1] * dim[2] + 1,
                                 u64{1} << 32, ~u64{0}};
    const u32 u32_forgeries[] = {0, 9, 4095, 4096, 0xFFFFFFFFu};
    const float f32_forgeries[] = {
        0.0f, -1e30f, 4503599358935040.0f,
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN()};
    for (int trial = 0; trial < 60; ++trial) {
      auto mutated = bytes;
      const u64 which = rng.below(4);
      if (which == 0) {  // outlier count
        std::memcpy(mutated.data() + count_at, &u64_forgeries[rng.below(5)],
                    8);
      } else if (which == 1) {  // first outlier index (ordering/range checks)
        std::memcpy(mutated.data() + table_at, &u32_forgeries[rng.below(5)],
                    4);
      } else if (which == 2) {  // an outlier value (feeds the predictions)
        std::memcpy(mutated.data() + table_at + rng.below(n_outliers) * 8 + 4,
                    &f32_forgeries[rng.below(6)], 4);
      } else {  // random damage inside the table
        mutated[table_at + rng.below(n_outliers * 8)] ^=
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
    std::memcpy(forged.data() + count_at, &huge, 8);
    EXPECT_THROW((void)lossy::decompress_field(forged), std::exception);
  }
}

/// Expect `bytes` to fail typed with a message containing `what`.
void expect_typed_failure(const std::vector<u8>& bytes, const char* what) {
  try {
    (void)lossy::decompress_field(bytes);
    ADD_FAILURE() << "forged container decoded; expected \"" << what << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::strstr(e.what(), what), nullptr) << e.what();
  }
}

TEST(FuzzLossy, RaisedHeaderNbinsFailsTyped) {
  // A header nbins raised past the embedded codebook's alphabet moves the
  // center bin, so every decoded delta would be off by the difference.
  // The header is implausible against its own codebook.
  constexpr std::size_t kNbinsAt = 36;
  Xoshiro256 rng(17);
  const data::Dims dims{16, 16, 8};
  const auto field = rle_heavy_field(dims, rng);
  const auto forge = [](std::vector<u8> bytes, u32 nbins) {
    std::memcpy(bytes.data() + kNbinsAt, &nbins, 4);
    return bytes;
  };
  for (const u32 nbins : {128u, 1024u}) {
    lossy::FusedConfig cfg;
    cfg.abs_error_bound = 0.01;
    cfg.nbins = nbins;
    const auto bytes = lossy::compress_field_fused(field, dims, cfg);
    ASSERT_NO_THROW((void)lossy::decompress_field(bytes));
    const u32 raised = nbins <= 256 ? 256 : 65536;
    for (const u32 forged : {nbins + 2, 2 * nbins, raised}) {
      SCOPED_TRACE(std::to_string(nbins) + " -> " + std::to_string(forged));
      expect_typed_failure(forge(bytes, forged), "implausible header");
    }
  }
  // The frozen PHL2 container (u8, 256 bins): any raise needs u16 symbols.
  const std::vector<u8> phl2(std::begin(testdata::kGoldenPhl2),
                             std::end(testdata::kGoldenPhl2));
  expect_typed_failure(forge(phl2, 65536), "symbol width mismatch");
}

TEST(FuzzLossy, LoweredHeaderNbinsFailsTyped) {
  // A header nbins lowered to just above the run symbol (128 in both
  // containers) passes the header, codebook and run-symbol checks, but
  // some residual code is at or above it: the reader's range check is
  // what stops it.
  constexpr std::size_t kNbinsAt = 36;
  constexpr u32 kLowered = 130;
  Xoshiro256 rng(23);
  const data::Dims dims{16, 16, 8};
  lossy::FusedConfig cfg;
  cfg.abs_error_bound = 0.01;
  cfg.nbins = 256;
  lossy::FusedReport rep;
  const auto phl3 =
      lossy::compress_field_fused(rle_heavy_field(dims, rng), dims, cfg, &rep);
  ASSERT_GE(rep.rle_runs, 1u);
  for (auto bytes : with_golden_phl2(phl3)) {
    SCOPED_TRACE(std::string(bytes.begin(), bytes.begin() + 4));
    ASSERT_NO_THROW((void)lossy::decompress_field(bytes));
    std::memcpy(bytes.data() + kNbinsAt, &kLowered, 4);
    expect_typed_failure(bytes, "code out of range");
  }
}

TEST(FuzzLossy, NonFiniteAnchorFailsTyped) {
  constexpr std::size_t kAnchorAt = 41;  // after sym_bytes
  const data::Dims dims{8, 8, 8};
  const auto bytes =
      lossy::compress_field_fused(data::generate_cosmo_field(dims, 4), dims);
  for (const float anchor : {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()}) {
    auto forged = bytes;
    std::memcpy(forged.data() + kAnchorAt, &anchor, 4);
    expect_typed_failure(forged, "implausible header");
  }
}

TEST(FuzzLossy, ForgedOutliersThatRunTheQuantaPastTheirRangeFailTyped) {
  // A 2x2 plane with anchor 0 and 2·eb = 1: v(1,0) and v(0,1) are outliers
  // (quanta 1000 against a prediction of 0), and v(1,1) = 2000 is
  // predicted exactly. Forging both outliers to 2^52 - 2^28, the largest
  // float whose quanta are still in range, predicts v(1,1) at 2^53 - 2^29:
  // the reader must stop there instead of feeding it to the next stencil.
  const std::vector<float> field = {0.0f, 1000.0f, 1000.0f, 2000.0f};
  lossy::FusedConfig cfg;
  cfg.abs_error_bound = 0.5;
  cfg.nbins = 256;
  lossy::FusedReport rep;
  auto bytes =
      lossy::compress_field_fused(field, data::Dims{2, 2, 1}, cfg, &rep);
  ASSERT_EQ(rep.outliers, 2u);
  EXPECT_EQ(lossy::decompress_field(bytes).values, field);

  const float far = 4503599358935040.0f;  // 2^52 - 2^28
  const std::size_t table_at = outlier_count_at(bytes) + 8;
  for (const std::size_t slot : {0, 1}) {
    std::memcpy(bytes.data() + table_at + slot * 8 + 4, &far, 4);
  }
  expect_typed_failure(bytes, "quanta out of range");
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

TEST(FuzzLossy, WrappingDimsFailTyped) {
  // Forged PHL2 dims whose 64-bit product wraps back to the real element
  // count: a check on the wrapped total passes, while the reconstruct walk
  // loops over the real nx*ny*nz. The header must reject them typed.
  const std::vector<float> field = {1.0f, 2.0f};
  const auto bytes = lossy::compress_field_fused(field, data::Dims{2, 1, 1});
  constexpr std::size_t kDimsAt = 4;  // after the magic: u64 nx, ny, nz
  const u64 wrap = (u64{1} << 63) + 1;  // wrap * 2 == 2 (mod 2^64)
  const u64 forgeries[][3] = {{wrap, 2, 1}, {1, wrap, 2}, {2, 1, wrap}};
  for (const auto& dims : forgeries) {
    auto forged = bytes;
    std::memcpy(forged.data() + kDimsAt, dims, sizeof(dims));
    EXPECT_THROW((void)lossy::decompress_field(forged), std::runtime_error)
        << dims[0] << "x" << dims[1] << "x" << dims[2];
  }
}

TEST(FuzzLossy, DimsOverTheElementCapFailTyped) {
  // Dims that do not wrap but exceed the u32 outlier index space must
  // fail typed at the header, before any allocation sized from them; dims
  // under the cap that merely disagree with the stream fail at the code
  // count.
  const std::vector<float> field = {1.0f, 2.0f};
  const auto bytes = lossy::compress_field_fused(field, data::Dims{2, 1, 1});
  constexpr std::size_t kDimsAt = 4;  // after the magic: u64 nx, ny, nz
  const u64 forgeries[][3] = {
      {u64{1} << 32, 1, 1}, {1 << 20, 1 << 20, 1}, {1 << 16, 1 << 16, 1 << 16},
      {3, 1, 1}};
  for (const auto& dims : forgeries) {
    auto forged = bytes;
    std::memcpy(forged.data() + kDimsAt, dims, sizeof(dims));
    EXPECT_THROW((void)lossy::decompress_field(forged), std::runtime_error)
        << dims[0] << "x" << dims[1] << "x" << dims[2];
  }
}

/// A stream whose wide alphabet breaks 2^3-symbol groups constantly, so it
/// carries many overflow entries.
struct OverflowHeavy {
  std::vector<u16> input;
  Codebook cb;
  EncodedStream enc;
};

OverflowHeavy overflow_heavy() {
  Xoshiro256 rng(77);
  OverflowHeavy o;
  o.input.resize(20000);
  for (auto& v : o.input) v = static_cast<u16>(rng.below(1500));
  o.cb = build_codebook_serial(histogram_serial<u16>(o.input, 1500));
  ReduceShuffleConfig rs;
  rs.magnitude = 10;
  rs.reduce_factor = 3;
  o.enc = encode_reduceshuffle_simt<u16>(o.input, o.cb, rs);
  return o;
}

TEST(FuzzOverflow, ForgedGroupCountIsRejectedAtParseAndInTheChunkWalk) {
  const auto [input, cb, enc] = overflow_heavy();
  ASSERT_FALSE(enc.overflow.empty());
  ASSERT_EQ(decode_stream<u16>(enc, cb, 1), input);
  EXPECT_EQ(stream_round_trip(enc).overflow.size(), enc.overflow.size());

  // The last entry (the last group of the short last chunk) claims its
  // group plus 8 symbols, decoded from the start of the side stream so
  // the bits never run out: the splice would write 16 symbols past the
  // output. write_stream recomputes the checksum, so only the entry
  // rules stand between the forgery and a decoder.
  EncodedStream forged = enc;
  OverflowEntry& last = forged.overflow.back();
  ASSERT_EQ(last.chunk + 1, forged.chunks());
  last.n_symbols = static_cast<u32>(forged.group_symbols(last.chunk) + 8);
  last.bit_offset = 0;
  EXPECT_THROW((void)stream_round_trip(forged), std::runtime_error);
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
  EXPECT_THROW((void)stream_round_trip(outside), std::runtime_error);
  ASSERT_GE(enc.overflow.size(), 2u);
  EncodedStream duplicate = enc;
  duplicate.overflow[1] = duplicate.overflow[0];
  EXPECT_THROW((void)stream_round_trip(duplicate), std::runtime_error);
  EXPECT_THROW((void)decode_stream<u16>(duplicate, cb, 1), std::runtime_error);
  EncodedStream swapped = enc;
  std::swap(swapped.overflow[0], swapped.overflow[1]);
  EXPECT_THROW((void)stream_round_trip(swapped), std::runtime_error);
}

TEST(FuzzOverflow, ForgedTableBoundsFailTyped) {
  const auto [input, cb, enc] = overflow_heavy();
  ASSERT_FALSE(enc.overflow.empty());
  EncodedStream far = enc;
  far.overflow.back().chunk = static_cast<u32>(far.chunks());
  expect_container_failure(container_of(cb, far), "overflow chunk range");
  EncodedStream bits = enc;
  bits.overflow_bits = bits.overflow_payload.size() * kWordBits + 1;
  expect_container_failure(container_of(cb, bits), "overflow bits range");
  EncodedStream past = enc;  // the last entry's bits start at the end
  past.overflow.back().bit_offset = past.overflow_bits;
  ASSERT_GT(past.overflow.back().bit_len, 0u);
  expect_container_failure(container_of(cb, past), "overflow entry range");
}

// The reader's checks on the codebook section and the optional fields,
// one forged container each. The writers recompute every digest.

TEST(FuzzFormat, ForgedCodebookSectionsFailTyped) {
  Xoshiro256 rng(31);
  const auto input = proptest::random_symbols(rng, 5000, 300);
  PipelineConfig cfg;
  cfg.nbins = 300;
  const auto blob = compress<u16>(input, cfg);
  ASSERT_NO_THROW((void)deserialize<u16>(
      container_of(blob.codebook, blob.stream)));

  Codebook extra = blob.codebook;  // one reverse entry too many
  extra.sorted_syms.push_back(extra.sorted_syms.front());
  expect_container_failure(container_of(extra, blob.stream),
                           "reverse table size");
  Codebook deeper = blob.codebook;  // stored max_len past the lengths'
  deeper.max_len += 1;
  expect_container_failure(container_of(deeper, blob.stream),
                           "max_len mismatch");
}

TEST(FuzzFormat, ForgedGapFieldsFailTyped) {
  // 128-bit subsequences: a u8 gap can then point past one.
  Xoshiro256 rng(37);
  const auto input = proptest::random_symbols(rng, 20000, 300);
  PipelineConfig cfg;
  cfg.nbins = 300;
  cfg.gap_subseq_bits = 128;
  const auto blob = compress<u16>(input, cfg);
  ASSERT_FALSE(blob.stream.gaps.empty());
  ASSERT_NO_THROW((void)deserialize<u16>(
      container_of(blob.codebook, blob.stream)));

  EncodedStream trailing = blob.stream;  // one count more than gaps
  trailing.gap_counts.push_back(0);
  expect_container_failure(container_of(blob.codebook, trailing),
                           "gap field trailing bytes");
  EncodedStream sentinel = blob.stream;
  sentinel.gaps[0] = EncodedStream::kNoGap;
  sentinel.gap_counts[0] = 1;
  expect_container_failure(container_of(blob.codebook, sentinel),
                           "gap sentinel with nonzero count");
  EncodedStream past = blob.stream;
  past.gaps[0] = 200;
  expect_container_failure(container_of(blob.codebook, past),
                           "gap exceeds subsequence");
}

TEST(FuzzFormat, DuplicateRleFieldFailsTyped) {
  Xoshiro256 rng(41);
  const auto input = proptest::random_symbols(rng, 5000, 300);
  PipelineConfig cfg;
  cfg.nbins = 300;
  auto blob = compress<u16>(input, cfg);
  // A run table with no runs: valid, and the container's only field.
  blob.stream.rle_symbol = 1;
  blob.stream.rle_orig_symbols = blob.stream.n_symbols;
  auto bytes = container_of(blob.codebook, blob.stream);
  ASSERT_NO_THROW((void)deserialize<u16>(bytes));

  // n_fields | tag | len | payload (run_symbol, orig, n_runs) | digest
  constexpr std::size_t kField = 4 + 8 + (4 + 8 + 8) + 8;
  const std::size_t n_fields_at = bytes.size() - kField - 4;
  ASSERT_EQ(n_fields_at, field_region_at(blob.codebook, blob.stream));
  ASSERT_EQ(bytes[n_fields_at], 1);
  const std::vector<u8> field(bytes.end() - kField, bytes.end());
  bytes.insert(bytes.end(), field.begin(), field.end());
  bytes[n_fields_at] = 2;
  expect_container_failure(bytes, "duplicate optional field");
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
