// Table-driven decoder: equivalence of the interleaved core (and every
// decoder built on it) with the bit-serial canonical decoder and with a
// brute-force codeword-matching reference decoder; BitReader peek/skip
// semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/decode_selfsync.hpp"
#include "core/decode_simt.hpp"
#include "core/decode_table.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "proptest.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

/// Reference decoder: longest-prefix match against the raw (code, len)
/// pairs, independent of First/Entry. O(n * H) — test-only.
template <typename Sym>
void reference_decode(const EncodedStream& s, const Codebook& cb,
                      std::vector<Sym>& out) {
  std::map<std::pair<u64, unsigned>, u32> by_code;
  for (u32 sym = 0; sym < cb.nbins; ++sym) {
    if (cb.cw[sym].len) {
      by_code[{cb.cw[sym].bits, cb.cw[sym].len}] = sym;
    }
  }
  out.clear();
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    BitReader br = s.chunk_reader(c);
    for (std::size_t i = 0; i < s.chunk_size(c); ++i) {
      u64 v = 0;
      unsigned l = 0;
      for (;;) {
        v = (v << 1) | br.bit();
        ++l;
        const auto it = by_code.find({v, l});
        if (it != by_code.end()) {
          out.push_back(static_cast<Sym>(it->second));
          break;
        }
        ASSERT_LE(l, cb.max_len) << "no codeword matched";
      }
    }
  }
}

/// The interleaved core over every chunk of `s` with a k-bit table.
template <typename Sym>
std::vector<Sym> table_decode(const EncodedStream& s, const Codebook& cb,
                              unsigned k) {
  const DecodeTable table(cb, k);
  std::vector<Sym> out(s.n_symbols);
  const std::vector<std::size_t> index = overflow_index(s);
  SegmentPlan<Sym> plan;
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    plan_chunk(s, index, c, out.data() + c * s.chunk_symbols, plan);
  }
  decode_segments(table, plan);
  return out;
}

TEST(BitReaderPeek, MatchesTake) {
  Xoshiro256 rng(3);
  BitWriter bw;
  for (int i = 0; i < 100; ++i) bw.put(rng.next() & 0x7FFF, 15);
  const u64 total = bw.bits();
  const auto words = bw.finish();
  BitReader br(words, total);
  while (br.remaining() >= 9) {
    const u64 peeked = br.peek(9);
    EXPECT_EQ(br.take(9), peeked);
  }
}

TEST(BitReaderPeek, ZeroPadsBeyondEnd) {
  BitWriter bw;
  bw.put(0b101, 3);
  const auto words = bw.finish();
  BitReader br(words, 3);
  EXPECT_EQ(br.peek(8), 0b10100000u);
  br.skip(2);
  EXPECT_EQ(br.peek(4), 0b1000u);
  EXPECT_EQ(br.remaining(), 1u);
}

TEST(DecodeTable, KnownSmallCode) {
  // lens {1,2,3,3}: codes 0, 10, 110, 111. k=3 table.
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
  const std::vector<u8> input = {0, 3, 1, 2, 0, 0, 3};
  const auto enc = encode_serial<u8>(input, cb, 1024);
  EXPECT_EQ(table_decode<u8>(enc, cb, 3), input);
  EXPECT_EQ(table_decode<u8>(enc, cb, 1), input);  // heavy slow-path use
  EXPECT_EQ(table_decode<u8>(enc, cb, 12), input);
}

class DecodeTableEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(DecodeTableEquivalence, AgreesWithSerialAndReference) {
  const unsigned k = GetParam();
  const auto input = data::generate_text(120000, 7);
  const auto freq = histogram_serial<u8>(input, 256);
  const Codebook cb = build_codebook_serial(freq);
  const auto enc = encode_serial<u8>(input, cb, 2048);

  EXPECT_EQ(table_decode<u8>(enc, cb, k), input);
  EXPECT_EQ(decode_stream<u8>(enc, cb, 1), input);
}

INSTANTIATE_TEST_SUITE_P(Ks, DecodeTableEquivalence,
                         ::testing::Values(1u, 4u, 8u, 12u, 16u));

TEST(DecodeTable, DeepCodesEscapeToSlowPath) {
  // Exponential freqs: codes far longer than the table's k.
  const auto freq = data::exponential_histogram(30, 2.0, 1);
  const Codebook cb = build_codebook_serial(freq);
  ASSERT_GT(cb.max_len, 12u);
  Xoshiro256 rng(2);
  std::vector<u16> input(20000);
  for (auto& s : input) s = static_cast<u16>(rng.below(30));
  const auto enc = encode_serial<u16>(input, cb, 1024);
  EXPECT_EQ(table_decode<u16>(enc, cb, 8), input);
}

TEST(DecodeTable, ReferenceDecoderAgreesOnRandomAlphabets) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t nbins = 2 + rng.below(300);
    std::vector<u16> input(5000);
    for (auto& s : input) s = static_cast<u16>(rng.below(nbins));
    const auto freq = histogram_serial<u16>(input, nbins);
    const Codebook cb = build_codebook_serial(freq);
    const auto enc = encode_serial<u16>(input, cb, 512);
    std::vector<u16> ref;
    {
      SCOPED_TRACE(trial);
      reference_decode<u16>(enc, cb, ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(ref, input);
    EXPECT_EQ(table_decode<u16>(enc, cb, 10), input);
  }
}

TEST(DecodeTable, RejectsOversizedK) {
  // Deep codebook (max_len > 20): an oversized k cannot be clamped away.
  const auto freq = data::exponential_histogram(40, 2.0, 1);
  const Codebook cb = build_codebook_serial(freq);
  ASSERT_GT(cb.max_len, 20u);
  EXPECT_THROW(DecodeTable(cb, 24), std::invalid_argument);
  // A modest k on the same deep book is fine.
  EXPECT_NO_THROW(DecodeTable(cb, 10));
}

TEST(DecodeTable, SizeIsClampedToMaxLen) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{2, 2, 2, 2});
  const DecodeTable t(cb, 12);
  EXPECT_EQ(t.bits(), 2u);
  EXPECT_EQ(t.entries(), 4u);
}

// --- Equivalence property: the interleaved core against the references. ----
//
// Inputs come from the proptest families (byte buffers with runs for u8,
// drifting-histogram batches for u16). Each case draws a chunk count in
// 1..9 (so the 4 lanes rarely divide it), a chunk size down to 8 symbols
// (chunks shorter than the 64-bit fast window), and a tail that is either
// short or empty (the last chunk full). Some cases swap in a deep
// exponential book (max_len > kDecodeTableBits: escapes) or a
// single-symbol book. Every decoder built on the core must agree with
// the bit-serial decoder and the reference decoder, on plain,
// overflow-bearing and gap-annotated streams and on decode_range slices.

struct CoreCase {
  u32 magnitude = 0;   ///< chunk = 2^magnitude symbols
  std::size_t n = 0;   ///< symbols
  int book = 0;        ///< 0 = from the input, 1 = deep, 2 = single symbol
};

CoreCase draw_case(Xoshiro256& rng, std::uint64_t index) {
  CoreCase k;
  k.magnitude = 3 + static_cast<u32>(rng.below(8));  // 8..1024 symbols
  const std::size_t chunk = std::size_t{1} << k.magnitude;
  const std::size_t chunks = 1 + index % 9;
  const std::size_t tail = rng.below(2) == 0 ? chunk : 1 + rng.below(chunk);
  k.n = (chunks - 1) * chunk + tail;
  const std::uint64_t pick = rng.below(6);
  k.book = pick == 0 ? 1 : pick == 1 ? 2 : 0;
  return k;
}

/// Bit-serial decode of a stream without overflow, chunk by chunk.
template <typename Sym>
std::vector<Sym> bitserial_decode(const EncodedStream& s, const Codebook& cb) {
  std::vector<Sym> out(s.n_symbols);
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    BitReader br = s.chunk_reader(c);
    decode_symbols(br, cb, s.chunk_size(c), out.data() + c * s.chunk_symbols);
  }
  return out;
}

/// Runs every core-based decoder on one input; returns how many overflow
/// entries the reduce/shuffle stream carried (coverage bookkeeping).
template <typename Sym>
std::size_t check_core_case(std::vector<Sym> input, std::size_t nbins,
                            const CoreCase& k, Xoshiro256& rng) {
  std::vector<u64> freq;
  if (k.book == 1) {  // deep: rare symbols get codes far longer than k
    nbins = 30;
    for (auto& v : input) v = static_cast<Sym>(v % nbins);
    freq = data::exponential_histogram(nbins, 2.0, 1);
  } else if (k.book == 2) {  // single symbol
    std::fill(input.begin(), input.end(), input.empty() ? Sym{0} : input[0]);
    freq = histogram_serial<Sym>(input, nbins);
  } else {
    freq = histogram_serial<Sym>(input, nbins);
  }
  const Codebook cb = build_codebook_serial(freq);
  if (k.book == 1) {
    EXPECT_GT(cb.max_len, kDecodeTableBits);
  }
  const u32 chunk = u32{1} << k.magnitude;

  // Plain stream: every tier against both references.
  EncodedStream plain = encode_serial<Sym>(input, cb, chunk);
  std::vector<Sym> ref;
  reference_decode<Sym>(plain, cb, ref);
  EXPECT_EQ(ref, input);
  EXPECT_EQ(bitserial_decode<Sym>(plain, cb), input);
  EXPECT_EQ(table_decode<Sym>(plain, cb, kDecodeTableBits), input);
  EXPECT_EQ(decode_stream<Sym>(plain, cb, 1), input);
  EXPECT_EQ(decode_stream<Sym>(plain, cb, 0), input);
  EXPECT_EQ(decode_simt<Sym>(plain, cb), input);
  EXPECT_EQ(decode_selfsync<Sym>(plain, cb, {}), input);
  for (int r = 0; r < 3; ++r) {
    const std::size_t first = rng.below(input.size());
    const std::size_t count = rng.below(input.size() - first + 1);
    const auto slice = decode_range<Sym>(plain, cb, first, count);
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(),
                           input.begin() + static_cast<std::ptrdiff_t>(first)))
        << "decode_range(" << first << ", " << count << ")";
  }
  EncodedStream gapped = plain;
  annotate_gaps(gapped, cb, std::max<u32>(64, 2 * cb.max_len));
  EXPECT_EQ(decode_gaparray<Sym>(gapped, cb), input);

  // Overflow-bearing stream: the chunk walk splices the side stream.
  ReduceShuffleConfig rs;
  rs.magnitude = k.magnitude;
  rs.reduce_factor = 1 + static_cast<u32>(rng.below(std::min(k.magnitude, 4u)));
  EncodedStream ovf = encode_reduceshuffle_simt<Sym>(input, cb, rs);
  EXPECT_EQ(decode_stream<Sym>(ovf, cb, 1), input);
  EXPECT_EQ(decode_simt<Sym>(ovf, cb), input);
  EXPECT_EQ(decode_selfsync<Sym>(ovf, cb, {}), input);
  const std::size_t first = rng.below(input.size());
  const auto slice = decode_range<Sym>(ovf, cb, first, input.size() - first);
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(),
                         input.begin() + static_cast<std::ptrdiff_t>(first)));
  annotate_gaps(ovf, cb, std::max<u32>(64, 2 * cb.max_len));
  EXPECT_EQ(decode_gaparray<Sym>(ovf, cb), input);
  return ovf.overflow.size();
}

TEST(DecodeCoreEquivalence, BytesFromProptestFamilies) {
  std::size_t overflow_entries = 0;
  for (std::uint64_t i = 0; i < 45; ++i) {
    const std::uint64_t seed = proptest::case_seed(0xdec0de08ull, i);
    Xoshiro256 rng(seed);
    const CoreCase k = draw_case(rng, i);
    std::vector<u8> input;
    while (input.size() < k.n) {
      const auto more = proptest::make_bytes(rng, k.n);
      input.insert(input.end(), more.begin(), more.end());
    }
    input.resize(k.n);
    SCOPED_TRACE("case " + std::to_string(i) + " seed " +
                 std::to_string(seed) + " n " + std::to_string(k.n) +
                 " magnitude " + std::to_string(k.magnitude) + " book " +
                 std::to_string(k.book));
    overflow_entries += check_core_case<u8>(input, 256, k, rng);
    if (HasFailure()) return;
  }
  EXPECT_GT(overflow_entries, 0u);
}

TEST(DecodeCoreEquivalence, WideSymbolsFromDriftFamilies) {
  std::size_t overflow_entries = 0;
  for (std::uint64_t i = 0; i < 45; ++i) {
    const std::uint64_t seed = proptest::case_seed(0xdec0de16ull, i);
    Xoshiro256 rng(seed);
    const CoreCase k = draw_case(rng, i);
    proptest::DriftSpec spec;
    spec.kind = static_cast<proptest::DriftKind>(i % 3);
    spec.nbins = 8 + rng.below(2000);
    spec.log2_batch_symbols = 13;
    const proptest::DriftSource src(spec, seed);
    std::vector<u16> input;
    for (std::size_t t = 0; input.size() < k.n; ++t) {
      const auto batch = src.batch<u16>(t);
      input.insert(input.end(), batch.begin(), batch.end());
    }
    input.resize(k.n);
    SCOPED_TRACE("case " + std::to_string(i) + " seed " +
                 std::to_string(seed) + " n " + std::to_string(k.n) +
                 " magnitude " + std::to_string(k.magnitude) + " book " +
                 std::to_string(k.book));
    overflow_entries += check_core_case<u16>(input, spec.nbins, k, rng);
    if (HasFailure()) return;
  }
  EXPECT_GT(overflow_entries, 0u);
}

}  // namespace
}  // namespace parhuff
