#pragma once
// Adaptive reduce-factor encoding — the paper's §VII future work ("we plan
// to further optimize the performance for low-compression-ratio data to
// handle the breaking points"), implemented as an extension of the
// reduce/shuffle scheme.
//
// The fixed-r encoder picks one reduce factor from the *global* average
// bitwidth (Fig. 3). On data whose local statistics swing — text with
// markup islands, images with tissue/background bimodality — a globally
// sound r still overflows cells wherever the local average doubles,
// producing breaking points whose backtrace + sparse storage is exactly
// the overhead §VII wants to eliminate.
//
// This encoder decides r *per chunk*: the lookup phase already touches
// every codeword, so the chunk's total bit count is a free byproduct, and
//    r_c = max { r : ceil(chunk_bits / N) · 2^r < Width }   (clamped)
// keeps each chunk's expected merged cell at least half full without
// overflowing on locally dense chunks. The per-chunk factors travel in
// EncodedStream::chunk_reduce (one byte per chunk — the "more metadata"
// cost the paper accepts for magnitude reductions already).
//
// The cell width is a template parameter: 32 reproduces the paper's
// uint32_t configuration; 64 trades double the shuffle traffic for another
// 2x merge headroom (the uint{8,16,32}_t discussion of §IV-C).
//
// Two entry points produce the same stream, as for the fixed-r encoder:
// encode_adaptive_simt runs merging::simulate and emit_adaptive runs
// merging::emit (core/merge.hpp), both with the one per-chunk rule above
// as their reduce_of, so they write the same stream, stats and MemTally.

#include <array>
#include <span>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "simt/mem_model.hpp"
#include "util/types.hpp"

namespace parhuff {

struct AdaptiveConfig {
  u32 magnitude = 10;   ///< chunk = 2^magnitude symbols
  u32 min_reduce = 1;
  u32 max_reduce = 6;   ///< upper clamp for very sparse chunks
};

struct AdaptiveStats {
  u64 breaking_groups = 0;
  u64 breaking_symbols = 0;
  /// Total codeword bits across the input — the lookup phase's free
  /// byproduct, summed over chunks. total_code_bits / n_symbols is the
  /// exact achieved bits-per-symbol of this (data, codebook) pairing,
  /// which is what the service's adaptive lifecycle manager compares
  /// against the window entropy to price a stale book without a second
  /// pass over the data.
  u64 total_code_bits = 0;
  /// Histogram of chosen per-chunk reduce factors (index = r).
  std::array<u64, 16> r_histogram{};

  friend bool operator==(const AdaptiveStats&, const AdaptiveStats&) = default;
};

/// `cancel` is polled once per chunk (= one thread block) — see
/// core/cancel.hpp.
template <typename Sym, unsigned Width = 32>
[[nodiscard]] EncodedStream encode_adaptive_simt(
    std::span<const Sym> data, const Codebook& cb,
    const AdaptiveConfig& cfg = {}, simt::MemTally* tally = nullptr,
    AdaptiveStats* stats = nullptr, const CancelToken* cancel = nullptr);

/// The same stream, stats and MemTally as encode_adaptive_simt, from the
/// one-pass host emitter (core/merge.hpp). `cancel` is polled once per
/// chunk.
template <typename Sym, unsigned Width = 32>
[[nodiscard]] EncodedStream emit_adaptive(
    std::span<const Sym> data, const Codebook& cb,
    const AdaptiveConfig& cfg = {}, simt::MemTally* tally = nullptr,
    AdaptiveStats* stats = nullptr, const CancelToken* cancel = nullptr);

extern template EncodedStream encode_adaptive_simt<u8, 32>(
    std::span<const u8>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);
extern template EncodedStream encode_adaptive_simt<u16, 32>(
    std::span<const u16>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);
extern template EncodedStream encode_adaptive_simt<u8, 64>(
    std::span<const u8>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);
extern template EncodedStream encode_adaptive_simt<u16, 64>(
    std::span<const u16>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);
extern template EncodedStream emit_adaptive<u8, 32>(
    std::span<const u8>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);
extern template EncodedStream emit_adaptive<u16, 32>(
    std::span<const u16>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);
extern template EncodedStream emit_adaptive<u8, 64>(
    std::span<const u8>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);
extern template EncodedStream emit_adaptive<u16, 64>(
    std::span<const u16>, const Codebook&, const AdaptiveConfig&,
    simt::MemTally*, AdaptiveStats*, const CancelToken*);

}  // namespace parhuff
