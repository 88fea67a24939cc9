// The REDUCE/SHUFFLE-merge encoder: breaking statistics, config
// rejection, the kernel's tally, and the MergedCell unit behaviour. The
// (M, r) sweep, forced breaking and codewords longer than a cell, against
// the serial encoder and every decoder, live in test_equivalence.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "core/encode_reduceshuffle.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "data/synth_hist.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

TEST(MergedCell, AppendConcatenatesMsbFirst) {
  MergedCell<32> a{0b101, 3, false};
  const MergedCell<32> b{0b01, 2, false};
  a.append(b);
  EXPECT_FALSE(a.breaking);
  EXPECT_EQ(a.len, 5);
  EXPECT_EQ(a.bits, 0b10101u);
}

TEST(MergedCell, OverflowMarksBreaking) {
  MergedCell<32> a{0xFFFF, 20, false};
  const MergedCell<32> b{0xFFFF, 20, false};
  a.append(b);
  EXPECT_TRUE(a.breaking);
}

TEST(MergedCell, BreakingPropagates) {
  MergedCell<32> a{0, 1, true};
  const MergedCell<32> b{1, 1, false};
  a.append(b);
  EXPECT_TRUE(a.breaking);
  MergedCell<32> c{1, 1, false};
  c.append(MergedCell<32>{0, 1, true});
  EXPECT_TRUE(c.breaking);
}

std::vector<u64> hist16(const std::vector<u16>& data, std::size_t nbins) {
  std::vector<u64> h(nbins, 0);
  for (u16 s : data) ++h[s];
  return h;
}

TEST(ReduceShuffle, BreakingFractionMatchesStats) {
  const auto freq = data::exponential_histogram(24, 2.1, 5);
  Xoshiro256 rng(9);
  std::vector<u16> input(8192);
  for (auto& d : input) d = static_cast<u16>(rng.below(24));
  const auto h = hist16(input, 24);
  const Codebook cb = build_codebook_serial(h);
  ReduceShuffleStats stats;
  const EncodedStream enc = encode_reduceshuffle_simt<u16>(
      input, cb, ReduceShuffleConfig{10, 3}, nullptr, &stats);
  u64 from_entries = 0;
  for (const auto& e : enc.overflow) from_entries += e.n_symbols;
  EXPECT_EQ(from_entries, stats.breaking_symbols);
  EXPECT_DOUBLE_EQ(enc.breaking_fraction(),
                   static_cast<double>(from_entries) / 8192.0);
}

TEST(ReduceShuffle, InvalidConfigThrows) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  const std::vector<u16> input = {0, 1};
  EXPECT_THROW((void)encode_reduceshuffle_simt<u16>(
                   input, cb, ReduceShuffleConfig{13, 3}, nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)encode_reduceshuffle_simt<u16>(
                   input, cb, ReduceShuffleConfig{10, 11}, nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)encode_reduceshuffle_simt<u16>(
                   input, cb, ReduceShuffleConfig{10, 0}, nullptr, nullptr),
               std::invalid_argument);
}

TEST(ReduceShuffle, TallyShowsCoalescedTraffic) {
  const auto quant = data::generate_nyx_quant(65536, 4);
  const auto freq = hist16(quant, 1024);
  const Codebook cb = build_codebook_serial(freq);
  simt::MemTally tally;
  (void)encode_reduceshuffle_simt<u16>(quant, cb, ReduceShuffleConfig{10, 3},
                                       &tally, nullptr);
  // Global traffic must be near the useful payload (the whole point of the
  // scheme): sectors * 32 within 2x of bytes read+written.
  const u64 useful = tally.global_read_bytes + tally.global_write_bytes;
  const u64 sector_bytes =
      (tally.global_read_sectors + tally.global_write_sectors) * 32;
  EXPECT_LT(sector_bytes, 2 * useful);
  EXPECT_GT(tally.shared_bytes, 0u);
  EXPECT_EQ(tally.kernel_launches, 2u);
}

}  // namespace
}  // namespace parhuff
