// Self-synchronizing fine-grained decoder (CUHD-style): convergence
// behaviour, fallback paths, subsequence sizes and corruption rejection.
// Its equivalence with every other decoder lives in test_equivalence.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "core/decode.hpp"
#include "core/decode_selfsync.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "data/datasets.hpp"
#include "data/quant.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

template <typename Sym>
std::vector<u64> hist_of(const std::vector<Sym>& v, std::size_t nbins) {
  std::vector<u64> h(nbins, 0);
  for (Sym s : v) ++h[static_cast<std::size_t>(s)];
  return h;
}

TEST(SelfSync, ConvergesFastOnRealisticStreams) {
  // The self-synchronization property: the overwhelming majority of
  // subsequences lock on after a couple of Jacobi passes.
  const auto input = data::generate_text(1 << 20, 2);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  const auto enc = encode_serial<u8>(input, cb, 8192);
  SelfSyncStats st;
  (void)decode_selfsync<u8>(enc, cb, {}, nullptr, &st);
  const double avg_passes = static_cast<double>(st.sync_passes) /
                            static_cast<double>(enc.chunks());
  EXPECT_LT(avg_passes, 6.0);
  EXPECT_LT(st.max_chunk_passes, 12u);
}

TEST(SelfSync, FallsBackOnOverflowChunks) {
  const auto input = data::generate_nyx_quant(200000, 7);
  const Codebook cb = build_codebook_serial(hist_of(input, 1024));
  ReduceShuffleStats est;
  const auto enc = encode_reduceshuffle_simt<u16>(
      input, cb, ReduceShuffleConfig{10, 6}, nullptr, &est);
  ASSERT_GT(est.breaking_groups, 0u);
  SelfSyncStats st;
  EXPECT_EQ(decode_selfsync<u16>(enc, cb, {}, nullptr, &st), input);
  EXPECT_GT(st.fallback_chunks, 0u);
}

class SelfSyncSubseq : public ::testing::TestWithParam<u32> {};

TEST_P(SelfSyncSubseq, AllSubsequenceSizes) {
  const auto input = data::generate_text(200000, 9);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  const auto enc = encode_serial<u8>(input, cb, 2048);
  SelfSyncConfig cfg;
  cfg.subseq_bits = GetParam();
  EXPECT_EQ(decode_selfsync<u8>(enc, cb, cfg), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelfSyncSubseq,
                         ::testing::Values(64u, 128u, 256u, 1024u, 4096u));

TEST(SelfSync, RejectsTooSmallSubsequences) {
  const auto freq = data::exponential_histogram(40, 2.0, 1);
  const Codebook cb = build_codebook_serial(freq);  // max_len > 32
  EncodedStream dummy;
  dummy.n_symbols = 1;
  dummy.chunk_symbols = 1024;
  dummy.chunk_bits = {1};
  SelfSyncConfig cfg;
  cfg.subseq_bits = 16;
  EXPECT_THROW((void)decode_selfsync<u16>(dummy, cb, cfg),
               std::invalid_argument);
}

TEST(SelfSync, CorruptionDetectedViaCountMismatch) {
  const auto input = data::generate_text(100000, 11);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  auto enc = encode_serial<u8>(input, cb, 4096);
  Xoshiro256 rng(5);
  int outcomes = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto broken = enc;
    broken.payload[rng.below(broken.payload.size())] ^=
        word_t{1} << rng.below(32);
    try {
      const auto got = decode_selfsync<u8>(broken, cb, {});
      // A flip can still produce a consistent (wrong) stream; size holds.
      EXPECT_EQ(got.size(), input.size());
    } catch (const std::exception&) {
      ++outcomes;  // detected
    }
  }
  // At least some flips must be detected by the count/fixpoint checks.
  EXPECT_GT(outcomes, 0);
}

TEST(SelfSync, EmptyAndTinyInputs) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  EncodedStream empty;
  empty.chunk_symbols = 1024;
  EXPECT_TRUE(decode_selfsync<u8>(empty, cb, {}).empty());

  const std::vector<u8> tiny = {0, 1, 1, 0, 1};
  const auto enc = encode_serial<u8>(tiny, cb, 1024);
  EXPECT_EQ(decode_selfsync<u8>(enc, cb, {}), tiny);
}

}  // namespace
}  // namespace parhuff
