#pragma once
// Self-synchronizing fine-grained parallel decoder, after Weißenberger &
// Schmidt's CUHD ("Massively Parallel Huffman Decoding on GPUs", ICPP'18)
// — the decode-side counterpart the paper cites in §VI.
//
// Chunk-level decoding (decode_simt) is limited to one thread per chunk.
// CUHD's observation: Huffman streams self-synchronize — a decoder started
// at an arbitrary bit offset usually locks onto the true codeword
// boundaries within a few codewords. The kernel exploits it per chunk:
//
//   1. The chunk's bitstream is cut into fixed S-bit subsequences; one
//      thread per subsequence decodes from its tentative start (bit i·S)
//      and records where it crossed into subsequence i+1 and how many
//      symbols it produced.
//   2. Synchronization passes: thread i+1's true start is thread i's
//      recorded exit. Each pass re-decodes every subsequence whose start
//      was corrected; passes repeat until a fixpoint (typically 1-3
//      passes — measured in SelfSyncStats::sync_passes).
//   3. An exclusive scan over per-subsequence symbol counts gives every
//      subsequence's output position; the final pass writes symbols.
//
// The functional result is bit-exact with the sequential decoder (tested
// against it); the win on hardware is 2^s-way parallelism inside every
// chunk. Chunks containing overflow (breaking) groups fall back to the
// shared chunk → segment walk (plan_chunk) — the side stream interrupts
// the main bitstream, which breaks the self-synchronization argument.

#include <span>
#include <vector>

#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "simt/mem_model.hpp"
#include "util/types.hpp"

namespace parhuff {

struct SelfSyncConfig {
  /// Subsequence size in bits. Must comfortably exceed the longest
  /// codeword; 4x the paper's typical bitwidths works well.
  u32 subseq_bits = 256;
};

struct SelfSyncStats {
  u64 subsequences = 0;
  u64 sync_passes = 0;       ///< total correction passes across chunks
  u64 max_chunk_passes = 0;  ///< worst chunk
  u64 fallback_chunks = 0;   ///< overflow chunks decoded by the chunk walk
};

template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_selfsync(
    const EncodedStream& s, const Codebook& cb,
    const SelfSyncConfig& cfg = {}, simt::MemTally* tally = nullptr,
    SelfSyncStats* stats = nullptr);

extern template std::vector<u8> decode_selfsync<u8>(const EncodedStream&,
                                                    const Codebook&,
                                                    const SelfSyncConfig&,
                                                    simt::MemTally*,
                                                    SelfSyncStats*);
extern template std::vector<u16> decode_selfsync<u16>(const EncodedStream&,
                                                      const Codebook&,
                                                      const SelfSyncConfig&,
                                                      simt::MemTally*,
                                                      SelfSyncStats*);

}  // namespace parhuff
