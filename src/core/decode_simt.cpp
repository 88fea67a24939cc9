#include "core/decode_simt.hpp"

#include <algorithm>

#include "core/decode.hpp"
#include "simt/block.hpp"

namespace parhuff {

template <typename Sym>
std::vector<Sym> decode_simt(const EncodedStream& s, const Codebook& cb,
                             simt::MemTally* tally,
                             const CancelToken* cancel) {
  std::vector<Sym> out(s.n_symbols);
  if (s.n_symbols == 0) return out;
  const std::size_t chunks = s.chunks();
  const std::vector<std::size_t> index = overflow_index(s);
  const DecodeTable table(cb);

  const int block_dim = 128;
  const int grid =
      static_cast<int>((chunks + static_cast<std::size_t>(block_dim) - 1) /
                       static_cast<std::size_t>(block_dim));
  // Decoder state staged once per block: First/Entry/count arrays plus the
  // reverse codebook — the cache-the-reverse-codebook strategy of §IV-B2.
  const u64 state_bytes =
      (cb.first.size() * 8 + cb.entry.size() * 4 + cb.count.size() * 4 +
       cb.sorted_syms.size() * 4);

  simt::launch(std::max(grid, 1), block_dim, tally, [&](simt::BlockCtx& blk) {
    blk.tally().global_read(state_bytes, 1, simt::Pattern::kCoalesced);
    blk.tally().shared_access(state_bytes, 1);
    blk.sync();
    // One thread per chunk: the block's chunks are independent segments,
    // decoded by the host core in lockstep. The chunk walk polls the
    // cancel token at every chunk entry (one poll per simulated thread).
    const std::size_t lo = std::min(blk.global_id(0), chunks);
    const std::size_t hi = std::min(blk.global_id(block_dim - 1) + 1, chunks);
    SegmentPlan<Sym> plan;
    for (std::size_t c = lo; c < hi; ++c) {
      plan_chunk(s, index, c, out.data() + c * s.chunk_symbols, plan);
    }
    decode_segments(table, plan, cancel);
    blk.threads([&](int tid) {
      const std::size_t c = blk.global_id(tid);
      if (c >= chunks) return;
      const std::size_t nc = s.chunk_size(c);
      // Per-lane sequential chunk walk: strided payload reads; output
      // writes are per-thread sequential too (strided across the warp).
      auto& t = blk.tally();
      t.global_read(words_for_bits(s.chunk_bits[c]), sizeof(word_t),
                    simt::Pattern::kStrided);
      t.global_write(nc, sizeof(Sym), simt::Pattern::kStrided);
      // Bit-serial decode: a dependent chain with full intra-warp
      // divergence — ~32 issue slots per payload bit.
      t.ops(s.chunk_bits[c] * 32 + nc * 2);
      t.shared_access(nc, 8);  // table lookups hit the staged state
    });
  });
  return out;
}

template std::vector<u8> decode_simt<u8>(const EncodedStream&,
                                         const Codebook&, simt::MemTally*,
                                         const CancelToken*);
template std::vector<u16> decode_simt<u16>(const EncodedStream&,
                                           const Codebook&, simt::MemTally*,
                                           const CancelToken*);

}  // namespace parhuff
