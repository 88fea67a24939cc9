// The host emitters against the SIMT kernels they stand in for:
// emit_reduceshuffle must reproduce encode_reduceshuffle_simt, and
// emit_adaptive encode_adaptive_simt, field for field — payload, chunk bits
// and offsets, overflow entries and payload — with an equal MemTally and
// equal stats. Inputs cover the proptest field families (as u16 symbols),
// seeded byte streams (u8), every r in [1, M] for M in {1, 4, 10, 12},
// short tail chunks, codewords longer than a cell and chunks in which every
// group breaks.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/histogram.hpp"
#include "core/merge.hpp"
#include "core/tree.hpp"
#include "data/synth_hist.hpp"
#include "proptest.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

namespace pt = proptest;

/// Names every EncodedStream field on which `a` and `b` differ.
std::string stream_diff(const EncodedStream& a, const EncodedStream& b) {
  std::ostringstream d;
  if (a.chunk_symbols != b.chunk_symbols) d << " chunk_symbols";
  if (a.n_symbols != b.n_symbols) d << " n_symbols";
  if (a.payload != b.payload) d << " payload";
  if (a.chunk_bits != b.chunk_bits) d << " chunk_bits";
  if (a.chunk_word_offset != b.chunk_word_offset) d << " chunk_word_offset";
  if (a.reduce_factor != b.reduce_factor) d << " reduce_factor";
  if (a.chunk_reduce != b.chunk_reduce) d << " chunk_reduce";
  if (a.overflow_payload != b.overflow_payload) d << " overflow_payload";
  if (a.overflow_bits != b.overflow_bits) d << " overflow_bits";
  bool same_entries = a.overflow.size() == b.overflow.size();
  for (std::size_t i = 0; same_entries && i < a.overflow.size(); ++i) {
    const OverflowEntry& x = a.overflow[i];
    const OverflowEntry& y = b.overflow[i];
    same_entries = x.chunk == y.chunk && x.group == y.group &&
                   x.bit_offset == y.bit_offset && x.bit_len == y.bit_len &&
                   x.n_symbols == y.n_symbols;
  }
  if (!same_entries) d << " overflow";
  if (a.gap_subseq_bits != b.gap_subseq_bits || a.gaps != b.gaps ||
      a.gap_counts != b.gap_counts) {
    d << " gaps";
  }
  if (a.rle_orig_symbols != b.rle_orig_symbols) d << " rle";
  return d.str();
}

template <typename Sym>
Codebook book_for(std::span<const Sym> in, std::size_t nbins) {
  return build_codebook_serial(histogram_serial<Sym>(in, nbins));
}

/// Kernel vs emitter at one (M, r); nullopt when they agree.
template <typename Sym>
std::optional<std::string> rs_mismatch(std::span<const Sym> in,
                                       const Codebook& cb, u32 M, u32 r,
                                       ReduceShuffleStats* kernel_stats =
                                           nullptr) {
  const ReduceShuffleConfig cfg{M, r};
  simt::MemTally kt, et;
  ReduceShuffleStats ks, es;
  const EncodedStream k =
      encode_reduceshuffle_simt<Sym>(in, cb, cfg, &kt, &ks);
  const EncodedStream e = emit_reduceshuffle<Sym>(in, cb, cfg, &et, &es);
  std::string d = stream_diff(k, e);
  if (!(kt == et)) d += " tally";
  if (!(ks == es)) d += " stats";
  if (kernel_stats) *kernel_stats = ks;
  if (d.empty()) return std::nullopt;
  return "M=" + std::to_string(M) + " r=" + std::to_string(r) +
         " n=" + std::to_string(in.size()) + " differs in:" + d;
}

/// Every r in [1, M] for every M in `magnitudes`.
template <typename Sym>
std::optional<std::string> rs_mismatch_every_r(
    std::span<const Sym> in, const Codebook& cb,
    std::initializer_list<u32> magnitudes = {1, 4, 10, 12}) {
  for (const u32 M : magnitudes) {
    for (u32 r = 1; r <= M; ++r) {
      if (auto d = rs_mismatch(in, cb, M, r)) return d;
    }
  }
  return std::nullopt;
}

template <typename Sym, unsigned Width>
std::optional<std::string> adaptive_mismatch(std::span<const Sym> in,
                                             const Codebook& cb,
                                             const AdaptiveConfig& cfg) {
  simt::MemTally kt, et;
  AdaptiveStats ks, es;
  const EncodedStream k =
      encode_adaptive_simt<Sym, Width>(in, cb, cfg, &kt, &ks);
  const EncodedStream e = emit_adaptive<Sym, Width>(in, cb, cfg, &et, &es);
  std::string d = stream_diff(k, e);
  if (!(kt == et)) d += " tally";
  if (!(ks == es)) d += " stats";
  if (d.empty()) return std::nullopt;
  return "Width=" + std::to_string(Width) + " M=" +
         std::to_string(cfg.magnitude) + " r=[" +
         std::to_string(cfg.min_reduce) + "," +
         std::to_string(cfg.max_reduce) + "] n=" + std::to_string(in.size()) +
         " differs in:" + d;
}

template <typename Sym>
std::optional<std::string> adaptive_mismatch_all(std::span<const Sym> in,
                                                 const Codebook& cb) {
  for (const AdaptiveConfig cfg :
       {AdaptiveConfig{}, AdaptiveConfig{4, 1, 3}, AdaptiveConfig{12, 2, 6},
        AdaptiveConfig{10, 3, 3}}) {
    if (auto d = adaptive_mismatch<Sym, 32>(in, cb, cfg)) return d;
    if (auto d = adaptive_mismatch<Sym, 64>(in, cb, cfg)) return d;
  }
  return std::nullopt;
}

/// A float field as u16 symbols: the top 12 bits of each value (sign,
/// exponent, three mantissa bits), so every family keeps its own shape —
/// one symbol for constants, a long tail for spikes and non-finites.
std::vector<u16> field_symbols(const std::vector<float>& field) {
  std::vector<u16> out(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    u32 bits;
    std::memcpy(&bits, &field[i], sizeof bits);
    out[i] = static_cast<u16>(bits >> 20);
  }
  return out;
}

constexpr pt::FieldKind kFamilies[] = {
    pt::FieldKind::kSmooth, pt::FieldKind::kTurbulent,
    pt::FieldKind::kConstant, pt::FieldKind::kDenormal,
    pt::FieldKind::kSpiky};

TEST(Emitter, MatchesReduceShuffleKernelOnFieldFamilies) {
  for (const pt::FieldKind kind : kFamilies) {
    const auto failure = pt::find_field_failure(
        kind, 3,
        [](const std::vector<float>& field, data::Dims,
           const pt::CaseId&) -> std::optional<std::string> {
          const std::vector<u16> syms = field_symbols(field);
          const Codebook cb = book_for<u16>(syms, 4096);
          return rs_mismatch_every_r<u16>(syms, cb);
        });
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(Emitter, MatchesReduceShuffleKernelOnByteStreams) {
  for (u64 idx = 0; idx < 6; ++idx) {
    Xoshiro256 rng(pt::case_seed(0xe1e1, idx));
    const std::vector<u8> bytes = pt::make_bytes(rng, 9000);
    if (bytes.empty()) continue;
    const Codebook cb = book_for<u8>(bytes, 256);
    const auto d = rs_mismatch_every_r<u8>(bytes, cb);
    EXPECT_FALSE(d.has_value()) << "case " << idx << ": " << *d;
  }
}

TEST(Emitter, MatchesKernelOnShortTailChunks) {
  Xoshiro256 rng(5);
  std::vector<u8> in(3 * 1024 + 5);
  for (auto& s : in) s = static_cast<u8>(rng.below(40));
  const Codebook cb = book_for<u8>(in, 256);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{1023}, std::size_t{1025},
                              in.size()}) {
    const std::span<const u8> head(in.data(), n);
    const auto d = rs_mismatch_every_r<u8>(head, cb, {10, 12});
    EXPECT_FALSE(d.has_value()) << *d;
  }
}

TEST(Emitter, MatchesKernelWithCodewordsLongerThanACell) {
  // Exponential frequencies give codes past 32 bits: such a symbol breaks
  // its group on its own, whatever r is.
  const Codebook cb =
      build_codebook_serial(data::exponential_histogram(40, 2.0, 11));
  ASSERT_GT(cb.max_len, 32u);
  u16 deep = 0;
  for (u32 s = 0; s < 40; ++s) {
    if (cb.cw[s].len > 32) deep = static_cast<u16>(s);
  }
  u16 shortest = 0;
  for (u32 s = 0; s < 40; ++s) {
    if (cb.cw[s].len < cb.cw[shortest].len) shortest = static_cast<u16>(s);
  }
  std::vector<u16> in(5000, shortest);
  for (std::size_t i = 3; i < in.size(); i += 611) in[i] = deep;
  in.back() = deep;  // in the short tail group too
  ReduceShuffleStats st;
  ASSERT_FALSE(rs_mismatch<u16>(in, cb, 10, 1, &st).has_value());
  EXPECT_GT(st.breaking_groups, 0u);
  EXPECT_FALSE(rs_mismatch_every_r<u16>(in, cb).has_value());
  const std::vector<u8> narrow(in.begin(), in.end());
  EXPECT_FALSE(rs_mismatch_every_r<u8>(narrow, cb).has_value());
  EXPECT_FALSE(adaptive_mismatch_all<u16>(in, cb).has_value());
}

TEST(Emitter, MatchesKernelWhenEveryGroupBreaks) {
  // 1024 equally likely symbols: 10-bit codes, so every group of four or
  // more symbols overflows a 32-bit cell.
  std::vector<u16> in(8 * 1024);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<u16>((i * 389) % 1024);
  }
  const Codebook cb = book_for<u16>(in, 1024);
  ASSERT_EQ(cb.max_len, 10u);
  for (const u32 r : {2u, 5u, 10u}) {
    ReduceShuffleStats st;
    const auto d = rs_mismatch<u16>(in, cb, 10, r, &st);
    EXPECT_FALSE(d.has_value()) << *d;
    EXPECT_EQ(st.breaking_symbols, in.size()) << "r=" << r;
  }
  EXPECT_FALSE(rs_mismatch_every_r<u16>(in, cb).has_value());
}

TEST(Emitter, AdaptiveMatchesKernelOnFieldFamilies) {
  for (const pt::FieldKind kind : kFamilies) {
    const auto failure = pt::find_field_failure(
        kind, 3,
        [](const std::vector<float>& field, data::Dims,
           const pt::CaseId&) -> std::optional<std::string> {
          const std::vector<u16> syms = field_symbols(field);
          return adaptive_mismatch_all<u16>(syms, book_for<u16>(syms, 4096));
        });
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
  for (u64 idx = 0; idx < 4; ++idx) {
    Xoshiro256 rng(pt::case_seed(0xada, idx));
    const std::vector<u8> bytes = pt::make_bytes(rng, 20000);
    if (bytes.empty()) continue;
    const auto d = adaptive_mismatch_all<u8>(bytes, book_for<u8>(bytes, 256));
    EXPECT_FALSE(d.has_value()) << "case " << idx << ": " << *d;
  }
}

TEST(Emitter, EmptyInputAndAbsentSymbolMatchKernel) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1, 0});
  EXPECT_FALSE(rs_mismatch<u8>({}, cb, 10, 3).has_value());
  EXPECT_FALSE((adaptive_mismatch<u8, 32>({}, cb, {}).has_value()));
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
  const Codebook cb = book_for<u8>(in, 256);
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
}

TEST(MergeCost, FoldLeavesEachMovedLength) {
  std::vector<u64> tree = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(merging::fold_pair_tree(tree), 36u);
  // Slot j > 0 keeps the length of the subtree the fold moved out of it.
  EXPECT_EQ(tree, (std::vector<u64>{36, 2, 7, 4, 26, 6, 15, 8}));
}

}  // namespace
}  // namespace parhuff
