// Table-driven decoder: the interleaved core against the bit-serial
// decoder at every table width, deep-code escapes, table sizing, and
// BitReader peek/skip semantics. Equivalence of every decoder built on the
// core, on every encoder's stream, lives in test_equivalence.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "core/decode.hpp"
#include "core/decode_table.hpp"
#include "core/encode_serial.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

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

}  // namespace
}  // namespace parhuff
