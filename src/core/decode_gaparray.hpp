#pragma once
// Gap-array fully parallel decoder, after Rivera, Di, Tian, Yu, Tao &
// Cappello ("Optimizing Huffman Decoding for Error-Bounded Lossy
// Compression on GPUs", IPDPS'22) — the decode-side successor to the
// self-synchronizing scheme in decode_selfsync.hpp.
//
// The self-sync decoder (CUHD-style) recovers subsequence boundaries at
// decode time with Jacobi correction passes: a tentative decode of every
// S-bit subsequence, then passes that re-decode every subsequence whose
// start was corrected, then an emit pass — ~3 full walks over the chunk's
// bits plus a data-dependent number of corrections. The gap-array insight
// is that the ENCODER already knows every boundary: while the stream is
// produced (or in one cheap post-encode scan) it records, per subsequence,
//
//   gap[i]   — bit distance from the boundary i·S to the first codeword
//              starting at/after it (< max codeword length, one byte),
//   count[i] — how many codewords start inside subsequence i.
//
// With both stored, decoding is embarrassingly parallel with NO
// synchronization scan: thread i seeks to i·S + gap[i], an exclusive scan
// of the counts gives its output offset, and a single emit walk writes the
// symbols — one pass over the payload instead of the self-sync decoder's
// three, and no inter-thread fixpoint iteration at all.
//
// Chunks containing overflow (breaking) groups fall back to the shared
// chunk → segment walk (plan_chunk), exactly like decode_selfsync: the side
// stream interrupts the main bitstream, so per-subsequence metadata does
// not apply.
//
// Metadata travels in the container as a versioned optional field
// (docs/format.md): old streams simply lack it (decoders pick another
// tier), and readers that do not understand it skip the field and fall
// back to self-sync — see docs/decode.md for the compatibility matrix.
//
// All deserialized metadata is untrusted: the kernel re-validates counts
// against the chunk's symbol total, bounds every seek through the
// hardened BitReader, and throws (never reads out of bounds) on forgeries.

#include <vector>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "simt/mem_model.hpp"
#include "util/types.hpp"

namespace parhuff {

/// Default gap granularity: 1024-bit subsequences cost 3 bytes of metadata
/// per 128 payload bytes (~2.3%) and still expose 2^10-way intra-chunk
/// parallelism per 2^10-symbol chunk on hardware.
inline constexpr u32 kDefaultGapSubseqBits = 1024;

struct GapArrayStats {
  u64 subsequences = 0;     ///< gap-metadata entries consumed
  u64 fallback_chunks = 0;  ///< overflow chunks decoded by the chunk walk
};

/// Encode-time annotation: scan each chunk's main bitstream against `cb`
/// and fill `s.gaps` / `s.gap_counts` / `s.gap_subseq_bits`. Chunks with
/// overflow groups get all-sentinel entries (the decoder falls back for
/// them). Throws std::invalid_argument when `subseq_bits` is out of range
/// ([64, 32768], and at least twice the longest codeword) and
/// std::runtime_error when the stream does not decode under `cb`.
/// Idempotent: re-annotating replaces the previous metadata.
void annotate_gaps(EncodedStream& s, const Codebook& cb,
                   u32 subseq_bits = kDefaultGapSubseqBits);

/// Fully parallel per-chunk decode using the stream's gap metadata.
/// Throws std::invalid_argument when `s` carries none (callers select the
/// tier; see pipeline decode_auto), std::runtime_error on corrupt or
/// forged metadata. `cancel` is polled at every chunk entry and per 64 Ki
/// emitted symbols, matching the decode-side cancellation contract.
template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_gaparray(
    const EncodedStream& s, const Codebook& cb,
    simt::MemTally* tally = nullptr, GapArrayStats* stats = nullptr,
    const CancelToken* cancel = nullptr);

extern template std::vector<u8> decode_gaparray<u8>(const EncodedStream&,
                                                    const Codebook&,
                                                    simt::MemTally*,
                                                    GapArrayStats*,
                                                    const CancelToken*);
extern template std::vector<u16> decode_gaparray<u16>(const EncodedStream&,
                                                      const Codebook&,
                                                      simt::MemTally*,
                                                      GapArrayStats*,
                                                      const CancelToken*);

}  // namespace parhuff
