// Shared memory is uninitialised: a block sees whatever the previous block
// on its host thread left in the reused arena. Every SIMT kernel must
// therefore write what it reads. Each test runs one kernel twice, after
// filling every pool thread's arenas with 0x00 and then with 0xFF, and
// requires identical output and an identical MemTally both times.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "core/decode_gaparray.hpp"
#include "core/decode_selfsync.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_simt.hpp"
#include "core/format.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "data/textgen.hpp"
#include "simt/block.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

/// Fill the arenas of every thread in the default pool with `value`. A
/// static schedule over max_threads() iterations gives each thread one.
void fill_pool_arenas(std::byte value) {
  const int n = max_threads();
  parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t) { simt::fill_thread_arenas(value); }, n);
}

/// Run `kernel(tally)` once after a zero fill and once after a 0xFF fill;
/// expect equal results and equal tallies.
template <typename Kernel>
void expect_fill_invariant(Kernel&& kernel) {
  fill_pool_arenas(std::byte{0x00});
  simt::MemTally zero_tally;
  const auto zero = kernel(&zero_tally);
  fill_pool_arenas(std::byte{0xFF});
  simt::MemTally ones_tally;
  const auto ones = kernel(&ones_tally);
  EXPECT_EQ(zero, ones);
  EXPECT_EQ(zero_tally, ones_tally);
}

// Text input: several bits per symbol, so r = 3 overflows many groups and the
// breaking-point path runs. The size leaves a short last chunk.
const std::vector<u8>& text() {
  static const std::vector<u8> t = data::generate_text(200'003, 41);
  return t;
}

// The fill reaches only the first block each pool thread runs; later
// blocks see what earlier, deterministic blocks left behind. A lone short
// chunk makes a padded tail the first block on its thread.
std::vector<std::span<const u8>> text_inputs() {
  const std::span<const u8> all(text());
  return {all, all.first(3001)};
}

const Codebook& text_book() {
  static const Codebook cb =
      build_codebook_serial(histogram_serial<u8>(text(), 256));
  return cb;
}

std::vector<u16> wide_symbols() {
  Xoshiro256 rng(7);
  std::vector<u16> v(100'000);
  for (auto& x : v) x = static_cast<u16>(rng.below(20'000));
  return v;
}

TEST(SharedMemDirty, HistogramReplicated) {
  for (const auto in : text_inputs()) {
    expect_fill_invariant([&](simt::MemTally* t) {
      return histogram_simt<u8>(in, 256, t);
    });
  }
}

TEST(SharedMemDirty, HistogramMultipass) {
  const auto wide = wide_symbols();
  expect_fill_invariant([&](simt::MemTally* t) {
    return histogram_simt<u16>(wide, 20'000, t);
  });
}

TEST(SharedMemDirty, CoarseEncoder) {
  for (const auto in : text_inputs()) {
    expect_fill_invariant([&](simt::MemTally* t) {
      return serialize_stream(
          encode_coarse_simt<u8>(in, text_book(), 1024, t));
    });
  }
}

TEST(SharedMemDirty, PrefixSumEncoder) {
  for (const auto in : text_inputs()) {
    expect_fill_invariant([&](simt::MemTally* t) {
      return serialize_stream(
          encode_prefixsum_simt<u8>(in, text_book(), 4096, t));
    });
  }
}

TEST(SharedMemDirty, ReduceShuffleEncoder) {
  for (const auto in : text_inputs()) {
    for (const u32 r : {1u, 3u}) {
      ReduceShuffleConfig rs;
      rs.magnitude = 12;
      rs.reduce_factor = r;
      ReduceShuffleStats stats;
      expect_fill_invariant([&](simt::MemTally* t) {
        return serialize_stream(
            encode_reduceshuffle_simt<u8>(in, text_book(), rs, t, &stats));
      });
      if (r == 3) {
        EXPECT_GT(stats.breaking_groups, 0u);
      }
    }
  }
}

TEST(SharedMemDirty, AdaptiveEncoder) {
  AdaptiveConfig ac;
  ac.magnitude = 12;
  for (const auto in : text_inputs()) {
    expect_fill_invariant([&](simt::MemTally* t) {
      return serialize_stream(
          encode_adaptive_simt<u8, 32>(in, text_book(), ac, t));
    });
    expect_fill_invariant([&](simt::MemTally* t) {
      return serialize_stream(
          encode_adaptive_simt<u8, 64>(in, text_book(), ac, t));
    });
  }
}

TEST(SharedMemDirty, Decoders) {
  ReduceShuffleConfig rs;
  rs.reduce_factor = 3;  // overflow groups: the decoders' splice paths run
  EncodedStream s = encode_reduceshuffle_simt<u8>(text(), text_book(), rs);
  ASSERT_FALSE(s.overflow.empty());
  expect_fill_invariant([&](simt::MemTally* t) {
    return decode_simt<u8>(s, text_book(), t);
  });
  expect_fill_invariant([&](simt::MemTally* t) {
    return decode_selfsync<u8>(s, text_book(), {}, t);
  });
  EncodedStream gapped = s;
  annotate_gaps(gapped, text_book());
  expect_fill_invariant([&](simt::MemTally* t) {
    return decode_gaparray<u8>(gapped, text_book(), t);
  });
  EXPECT_EQ(decode_gaparray<u8>(gapped, text_book()), text());
}

}  // namespace
}  // namespace parhuff
