#pragma once
// The paper's contribution: reduction-based encoding (§IV-C).
//
// Per chunk of N = 2^M symbols, mapped to one thread block:
//
//  1. REDUCE-merge (Fig. 1): the chunk's codewords are merged pairwise for
//     r iterations inside fixed-width cells (uint32_t, as in the paper), so
//     each surviving cell carries ~2^r codewords and is at least half full
//     when r is chosen by the bitwidth rule (Fig. 3). Active threads halve
//     each iteration — the reason r is bounded — and the merged payload is
//     moved word-at-a-time from then on.
//
//  2. Breaking points: a group whose 2^r codewords exceed the 32-bit cell
//     is "breaking". The kernel backtraces it (a second reduction without
//     bit operations), re-encodes the group's source symbols into an
//     overflow bitstream, and records it in an ascending scan over the
//     block's groups (the compact index list cuSPARSE's dense→sparse
//     produces on hardware). The group contributes zero bits to the main
//     stream.
//
//  3. SHUFFLE-merge (Fig. 2): s = M − r iterations merge adjacent
//     variable-length cell groups with the two-step batch move (residual
//     fill + shifted copy), producing a dense chunk bitstream within 2^s
//     cells.
//
//  4. Coalescing copy: per-chunk bit lengths go through a prefix sum and
//     every chunk's cells are copied contiguously into the final payload.
//
// The decoded output is identical to the baseline encoders'; when no group
// breaks, the chunk payload is bit-identical too.
//
// Two entry points produce the same stream, each a thin wrapper that passes
// the constant r as reduce_of. encode_reduceshuffle_simt runs
// merging::simulate, the kernel above thread block by thread block on the
// SIMT substrate — the model the kernel benches (Table II, Fig. 3,
// ablation) study. emit_reduceshuffle runs merging::emit, which writes the
// same bytes in one host pass and charges the same MemTally from lengths
// (core/merge.hpp); compress() runs it.

#include <span>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "simt/mem_model.hpp"
#include "util/types.hpp"

namespace parhuff {

struct ReduceShuffleConfig {
  u32 magnitude = 10;     ///< M: chunk holds 2^M symbols
  u32 reduce_factor = 3;  ///< r: REDUCE-merge iterations (1..magnitude)
};

/// Per-run statistics surfaced by the benches.
struct ReduceShuffleStats {
  u64 breaking_groups = 0;
  u64 breaking_symbols = 0;
  u64 reduce_iterations = 0;
  u64 shuffle_iterations = 0;

  friend bool operator==(const ReduceShuffleStats&,
                         const ReduceShuffleStats&) = default;
};

/// `cancel` is polled once per chunk (= one thread block) at the top of
/// the merge kernel — see core/cancel.hpp.
template <typename Sym>
[[nodiscard]] EncodedStream encode_reduceshuffle_simt(
    std::span<const Sym> data, const Codebook& cb,
    const ReduceShuffleConfig& cfg = {}, simt::MemTally* tally = nullptr,
    ReduceShuffleStats* stats = nullptr, const CancelToken* cancel = nullptr);

/// The same stream, stats and MemTally as encode_reduceshuffle_simt, from
/// the one-pass host emitter (core/merge.hpp). The tally is the kernel's
/// modeled cost, not a measurement of the emitter. `cancel` is polled once
/// per chunk.
template <typename Sym>
[[nodiscard]] EncodedStream emit_reduceshuffle(
    std::span<const Sym> data, const Codebook& cb,
    const ReduceShuffleConfig& cfg = {}, simt::MemTally* tally = nullptr,
    ReduceShuffleStats* stats = nullptr, const CancelToken* cancel = nullptr);

extern template EncodedStream encode_reduceshuffle_simt<u8>(
    std::span<const u8>, const Codebook&, const ReduceShuffleConfig&,
    simt::MemTally*, ReduceShuffleStats*, const CancelToken*);
extern template EncodedStream encode_reduceshuffle_simt<u16>(
    std::span<const u16>, const Codebook&, const ReduceShuffleConfig&,
    simt::MemTally*, ReduceShuffleStats*, const CancelToken*);
extern template EncodedStream emit_reduceshuffle<u8>(
    std::span<const u8>, const Codebook&, const ReduceShuffleConfig&,
    simt::MemTally*, ReduceShuffleStats*, const CancelToken*);
extern template EncodedStream emit_reduceshuffle<u16>(
    std::span<const u16>, const Codebook&, const ReduceShuffleConfig&,
    simt::MemTally*, ReduceShuffleStats*, const CancelToken*);

}  // namespace parhuff
