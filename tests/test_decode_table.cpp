// Table-driven decoder: the interleaved core against the bit-serial
// decoder at every table width, deep-code escapes, table sizing and entry
// layout, stores that must stay inside their output piece, and BitReader
// peek/skip semantics. Equivalence of every decoder built on the
// core, on every encoder's stream, lives in test_equivalence.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
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
  const DecodeTable<Sym> table(cb, k);
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
  // Deep codebook (max_len > 20): k above 20 is rejected, not shrunk.
  const auto freq = data::exponential_histogram(40, 2.0, 1);
  const Codebook cb = build_codebook_serial(freq);
  ASSERT_GT(cb.max_len, 20u);
  EXPECT_THROW(DecodeTable<u16>(cb, 24), std::invalid_argument);
  // A modest k on the same deep book is fine.
  EXPECT_NO_THROW(DecodeTable<u16>(cb, 10));
}

TEST(DecodeTable, SizeIsTheRequestedWidthNotMaxLen) {
  // A 2-bit book still gets the full window: an 11-bit window holds up to
  // five of its codewords, and the table packs as many as an entry holds.
  const Codebook cb = canonize_from_lengths(std::vector<u8>{2, 2, 2, 2});
  const DecodeTable<u8> t(cb);
  EXPECT_EQ(t.bits(), kDecodeTableBits);
  EXPECT_EQ(t.entries(), std::size_t{1} << kDecodeTableBits);
  // Window 00 01 10 11 00 0: five whole codewords in ten bits.
  const u64 e = t.data()[0b00011011000];
  EXPECT_EQ(e & 0x1F, 10u);          // bits consumed
  EXPECT_EQ((e >> 5) & 0x1F, 2u);    // first codeword's length
  EXPECT_EQ((e >> 10) & 0xF, 5u);    // codewords
  EXPECT_EQ(e >> 16, 0x03020100u);   // symbols 0, 1, 2, 3, 0
  EXPECT_EQ(DecodeTable<u8>(cb, 5).entries(), 32u);
  EXPECT_THROW(DecodeTable<u8>(cb, 0), std::invalid_argument);
}

/// Pieces of lengths 1..17 whose output slots are separated by guard gaps
/// prefilled with a sentinel no codeword decodes to. Each length is decoded
/// three ways: as a one-piece segment whose bits run on past the piece (so
/// its windows hold more whole codewords than the piece needs), as a
/// one-piece segment ending at the stream's last bit, and as a piece of one
/// long segment that skips a gap after each piece, the way a chunk's main
/// stream skips its overflow groups. No store may touch a guard, and every
/// piece must equal decode_symbols on the same bits.
template <typename Sym>
void check_write_slack(const Codebook& cb, const std::vector<Sym>& alphabet,
                       Sym guard) {
  constexpr std::size_t kMaxPiece = 17;
  constexpr std::size_t kGap = 9;
  Xoshiro256 rng(11);
  std::vector<Sym> syms(2000);
  for (Sym& v : syms) v = alphabet[rng.below(alphabet.size())];
  BitWriter bw;
  std::vector<u64> at(syms.size() + 1, 0);  // bit offset of each symbol
  for (std::size_t i = 0; i < syms.size(); ++i) {
    bw.put(cb.cw[syms[i]].bits, cb.cw[syms[i]].len);
    at[i + 1] = bw.bits();
  }
  const u64 total = bw.bits();
  const std::vector<word_t> words = bw.finish();

  SegmentPlan<Sym> plan;
  std::vector<Sym> out(3 * kMaxPiece * (kMaxPiece + kGap) + kGap, guard);
  std::vector<std::pair<std::size_t, std::size_t>> placed;  // (out, first)
  std::size_t o = kGap;
  const auto piece = [&](std::size_t first, std::size_t len) {
    plan.pieces.push_back(OutputPiece<Sym>{out.data() + o, len});
    placed.emplace_back(o, first);
    o += len + kGap;
  };
  std::size_t first = 0;
  for (std::size_t len = 1; len <= kMaxPiece; ++len) {
    const std::size_t mid = 500 + 40 * len;
    plan.segments.push_back(DecodeSegment{words, total, at[mid],
                                          plan.pieces.size(),
                                          plan.pieces.size() + 1});
    piece(mid, len);
    const std::size_t end = syms.size() - len;
    plan.segments.push_back(DecodeSegment{words, total, at[end],
                                          plan.pieces.size(),
                                          plan.pieces.size() + 1});
    piece(end, len);
  }
  plan.segments.push_back(DecodeSegment{words, total, 0, plan.pieces.size(),
                                        plan.pieces.size() + kMaxPiece});
  for (std::size_t len = 1; len <= kMaxPiece; first += len, ++len) {
    piece(first, len);
  }
  ASSERT_LE(o, out.size());
  decode_segments(DecodeTable<Sym>(cb), plan);

  std::vector<bool> in_piece(out.size(), false);
  for (std::size_t p = 0; p < plan.pieces.size(); ++p) {
    const auto [slot, sym0] = placed[p];
    const std::size_t len = plan.pieces[p].count;
    BitReader br(words, total);
    br.seek(at[sym0]);
    std::vector<Sym> ref(len);
    decode_symbols(br, cb, len, ref.data());
    EXPECT_TRUE(std::equal(ref.begin(), ref.end(), out.begin() + slot))
        << "piece " << p << " of length " << len;
    std::fill_n(in_piece.begin() + slot, len, true);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!in_piece[i]) {
      EXPECT_EQ(out[i], guard) << "guard slot " << i;
    }
  }
}

TEST(DecodeTable, StoresNeverPassTheirPiece) {
  // u8: lens {1,2,3,3} put up to eleven codewords in a window, past the
  // six an entry holds.
  check_write_slack<u8>(canonize_from_lengths(std::vector<u8>{1, 2, 3, 3}),
                        {0, 1, 2, 3}, u8{0xA5});
  // u16: the same shape over symbols above 255, three to an entry.
  std::vector<u8> lens(1024, 0);
  lens[1000] = 1;
  lens[3] = 2;
  lens[700] = 3;
  lens[5] = 3;
  check_write_slack<u16>(canonize_from_lengths(lens), {1000, 3, 700, 5},
                         u16{0xA5A5});
}

TEST(DecodeTable, SegmentPastItsBackingSpanIsRejected) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
  const std::vector<word_t> words(2, 0);
  std::vector<u8> out(4);
  SegmentPlan<u8> plan;
  plan.add(words, 3 * kWordBits, 0, out.data(), out.size());
  EXPECT_THROW(decode_segments(DecodeTable<u8>(cb), plan), std::out_of_range);
}

}  // namespace
}  // namespace parhuff
