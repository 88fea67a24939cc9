// Host-emitter edge cases: absent symbols throw, a token firing after the
// first chunk poll cancels both forms of both kernels, and the merge cost
// model's pair fold. Kernel-vs-emitter equivalence on every input family
// lives in test_equivalence.cpp.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <vector>

#include "core/cancel.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/histogram.hpp"
#include "core/merge.hpp"
#include "core/tree.hpp"
#include "util/clock.hpp"

namespace parhuff {
namespace {

TEST(Emitter, AbsentSymbolThrows) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1, 0});
  const std::vector<u8> absent = {0, 1, 2, 0};
  EXPECT_THROW((void)emit_reduceshuffle<u8>(absent, cb, {10, 1}),
               std::runtime_error);
  const std::vector<u8> group_of_absent = {0, 1, 2, 2};
  EXPECT_THROW((void)emit_reduceshuffle<u8>(group_of_absent, cb, {10, 1}),
               std::runtime_error);
  EXPECT_THROW(
      (void)encode_reduceshuffle_simt<u8>(group_of_absent, cb, {10, 1}),
      std::runtime_error);
  EXPECT_THROW((void)emit_adaptive<u8>(absent, cb), std::runtime_error);
  EXPECT_THROW((void)emit_reduceshuffle<u8>(absent, cb, {10, 11}),
               std::invalid_argument);
}

/// Cancels its token from the first clock read and reports a time before
/// any deadline: the first poll passes, every later poll sees the request.
class CancelOnFirstRead final : public util::Clock {
 public:
  explicit CancelOnFirstRead(CancelToken& tok) : tok_(tok) {}
  [[nodiscard]] time_point now() const override {
    tok_.request();
    return time_point{};
  }
  void sleep_for(duration) const override {}
  std::cv_status wait_until(std::condition_variable&,
                            std::unique_lock<std::mutex>&,
                            time_point) const override {
    return std::cv_status::timeout;
  }

 private:
  CancelToken& tok_;
};

TEST(Emitter, TokenFiringAfterTheFirstChunkPollCancels) {
  std::vector<u8> in(64 * 1024);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<u8>(i % 97);
  const Codebook cb = build_codebook_serial(histogram_serial<u8>(in, 256));
  const auto run = [&](auto&& encode) {
    CancelToken tok;
    const CancelOnFirstRead clock(tok);
    tok.arm_deadline(util::Clock::time_point::max(), clock);
    EXPECT_THROW(encode(&tok), OperationCancelled);
  };
  const ReduceShuffleConfig rs{10, 3};  // 64 chunks, one poll each
  run([&](const CancelToken* t) {
    return emit_reduceshuffle<u8>(in, cb, rs, nullptr, nullptr, t);
  });
  run([&](const CancelToken* t) {
    return encode_reduceshuffle_simt<u8>(in, cb, rs, nullptr, nullptr, t);
  });
  const AdaptiveConfig ac{10, 1, 6};  // 64 chunks, one poll each
  run([&](const CancelToken* t) {
    return emit_adaptive<u8>(in, cb, ac, nullptr, nullptr, t);
  });
  run([&](const CancelToken* t) {
    return encode_adaptive_simt<u8>(in, cb, ac, nullptr, nullptr, t);
  });
}

TEST(MergeCost, ShuffleChargesEachMovedSubtree) {
  // Eight group lengths; SHUFFLE-merge moves slot j > 0 at iteration
  // ctz(j) + 1 carrying slots [j, j + lowbit(j)): 2, 30+4, 4, 50+6+70+8,
  // 6, 70+8 and 8 bits, i.e. 1 + 2 + 1 + 5 + 1 + 3 + 1 = 14 32-bit cells.
  const std::vector<u64> lens = {40, 2, 30, 4, 50, 6, 70, 8};
  std::vector<u64> offsets(lens.size() + 1, 0);
  for (std::size_t j = 0; j < lens.size(); ++j) {
    offsets[j + 1] = offsets[j] + lens[j];
  }
  const merging::BlockShape shape{merging::Kernel::kReduceShuffle, 4, 1, 16,
                                  1, 1};
  simt::MemTally moved, still;
  merging::charge_block(moved, shape, {}, offsets);
  merging::charge_block(still, shape, {},
                        std::vector<u64>(lens.size() + 1, 0));
  EXPECT_EQ(moved.shared_bytes - still.shared_bytes, 14u * 3 * 4);
  // Everything else the shuffle charges is per slot, not per moved bit.
  moved.shared_bytes = still.shared_bytes;
  EXPECT_EQ(moved, still);
}

}  // namespace
}  // namespace parhuff
