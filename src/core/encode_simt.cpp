#include "core/encode_simt.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bitstream.hpp"
#include "simt/block.hpp"

namespace parhuff {

namespace {

/// Per-chunk bit lengths ("get blockwise code len" kernel), one thread per
/// chunk, then the word layout via prefix sum.
template <typename Sym>
EncodedStream size_chunks(std::span<const Sym> data, const Codebook& cb,
                          u32 chunk_symbols, simt::MemTally* tally,
                          simt::Pattern read_pattern,
                          const CancelToken* cancel) {
  EncodedStream out;
  out.chunk_symbols = chunk_symbols;
  out.n_symbols = data.size();
  const std::size_t chunks =
      (data.size() + chunk_symbols - 1) / chunk_symbols;
  out.chunk_bits.assign(chunks, 0);

  const int block_dim = 256;
  const int grid =
      static_cast<int>((chunks + static_cast<std::size_t>(block_dim) - 1) /
                       static_cast<std::size_t>(block_dim));
  simt::launch(std::max(grid, 1), block_dim, tally, [&](simt::BlockCtx& blk) {
    if (cancel) cancel->check();
    blk.threads([&](int tid) {
      const std::size_t c = blk.global_id(tid);
      if (c >= chunks) return;
      const std::size_t begin = c * chunk_symbols;
      const std::size_t end =
          std::min<std::size_t>(begin + chunk_symbols, data.size());
      u64 bits = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const Codeword cw = cb.cw[static_cast<std::size_t>(data[i])];
        if (cw.len == 0) throw std::runtime_error("symbol absent");
        bits += cw.len;
      }
      out.chunk_bits[c] = bits;
      // Coarse encoders walk chunks serially per lane (strided); the
      // prefix-sum encoder sizes with one thread per symbol (coalesced).
      blk.tally().global_read(end - begin, sizeof(Sym), read_pattern);
      // Codebook lookups hit the cached table.
      blk.tally().shared_access(end - begin, sizeof(Codeword));
      blk.tally().ops((end - begin) * 2);
    });
  });
  out.payload.assign(layout_chunks(out), 0);
  return out;
}

}  // namespace

template <typename Sym>
EncodedStream encode_coarse_simt(std::span<const Sym> data, const Codebook& cb,
                                 u32 chunk_symbols, simt::MemTally* tally,
                                 const CancelToken* cancel) {
  EncodedStream out = size_chunks(data, cb, chunk_symbols, tally,
                                  simt::Pattern::kStrided, cancel);
  const std::size_t chunks = out.chunks();
  if (chunks == 0) return out;

  // cuSZ-style fill: one thread per chunk, walking its chunk serially. With
  // 32 lanes each owning a chunk, every element read and every word written
  // is chunk-strided — one sector per useful access.
  const int block_dim = 256;
  const int grid =
      static_cast<int>((chunks + static_cast<std::size_t>(block_dim) - 1) /
                       static_cast<std::size_t>(block_dim));
  simt::launch(std::max(grid, 1), block_dim, tally, [&](simt::BlockCtx& blk) {
    blk.threads([&](int tid) {
      const std::size_t c = blk.global_id(tid);
      if (c >= chunks) return;
      // Cooperative poll, once per chunk (core/cancel.hpp).
      if (cancel) cancel->check();
      const std::size_t begin = c * chunk_symbols;
      const std::size_t end =
          std::min<std::size_t>(begin + chunk_symbols, data.size());
      CellWriter w(out.payload.data() + out.chunk_word_offset[c]);
      for (std::size_t i = begin; i < end; ++i) {
        const Codeword cw = cb.cw[static_cast<std::size_t>(data[i])];
        w.put(cw.bits, cw.len);
      }
      w.finish();
      const u64 n = end - begin;
      blk.tally().global_read(n, sizeof(Sym), simt::Pattern::kStrided);
      blk.tally().shared_access(n, sizeof(Codeword));  // cached codebook
      blk.tally().global_write(words_for_bits(out.chunk_bits[c]),
                               sizeof(word_t), simt::Pattern::kStrided);
      blk.tally().ops(n * 6);
    });
  });
  return out;
}

template <typename Sym>
EncodedStream encode_prefixsum_simt(std::span<const Sym> data,
                                    const Codebook& cb, u32 chunk_symbols,
                                    simt::MemTally* tally,
                                    const CancelToken* cancel) {
  EncodedStream out = size_chunks(data, cb, chunk_symbols, tally,
                                  simt::Pattern::kCoalesced, cancel);
  const std::size_t chunks = out.chunks();
  if (chunks == 0) return out;

  // Rahmani-style fill: one block per chunk; per-symbol codeword lengths,
  // a block-level exclusive scan for bit offsets, then a concurrent scatter
  // of every codeword to its bit position.
  const int block_dim = 256;
  simt::launch(
      static_cast<int>(chunks), block_dim, tally, [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        // Cooperative poll, once per chunk (= one block; core/cancel.hpp).
        if (cancel) cancel->check();
        const std::size_t begin = c * chunk_symbols;
        const std::size_t end =
            std::min<std::size_t>(begin + chunk_symbols, data.size());
        const std::size_t n = end - begin;
        auto offsets = blk.shared_array<u64>(n + 1);

        // Phase 1: lengths (data-thread one-to-one over a grid stride).
        blk.threads([&](int tid) {
          for (std::size_t i = static_cast<std::size_t>(tid); i < n;
               i += static_cast<std::size_t>(blk.block_dim())) {
            const Codeword cw =
                cb.cw[static_cast<std::size_t>(data[begin + i])];
            offsets[i] = cw.len;
          }
        });
        blk.tally().global_read(n, sizeof(Sym), simt::Pattern::kCoalesced);
        blk.tally().shared_access(n, sizeof(Codeword));  // cached codebook
        blk.sync();

        // Phase 2: exclusive scan (classic work-efficient block scan;
        // log2(n) sweeps charged to the tally).
        u64 run = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const u64 len = offsets[i];
          offsets[i] = run;
          run += len;
        }
        offsets[n] = run;
        {
          u64 lg = 1;
          for (std::size_t s = n; s > 1; s >>= 1) ++lg;
          blk.tally().ops(2 * n * lg);
          blk.tally().shared_access(2 * n, sizeof(u64));
        }
        blk.sync();

        // Phase 3: concurrent scatter. Each codeword is OR-ed into its bit
        // position; on hardware this is an atomic RMW per touched word and
        // the addresses are effectively random at warp granularity.
        word_t* dst = out.payload.data() + out.chunk_word_offset[c];
        blk.threads([&](int tid) {
          for (std::size_t i = static_cast<std::size_t>(tid); i < n;
               i += static_cast<std::size_t>(blk.block_dim())) {
            const Codeword cw =
                cb.cw[static_cast<std::size_t>(data[begin + i])];
            u64 bitpos = offsets[i];
            u64 v = cw.bits;
            unsigned remaining = cw.len;
            while (remaining > 0) {
              const std::size_t w = static_cast<std::size_t>(bitpos / kWordBits);
              const unsigned off = static_cast<unsigned>(bitpos % kWordBits);
              const unsigned room = kWordBits - off;
              const unsigned take = remaining < room ? remaining : room;
              const u64 piece =
                  (v >> (remaining - take)) & ((u64{1} << take) - 1);
              dst[w] |= static_cast<word_t>(piece << (room - take));
              bitpos += take;
              remaining -= take;
            }
          }
        });
        blk.tally().global_atomic(n, 1.5);
        blk.tally().global_write(n, sizeof(word_t), simt::Pattern::kRandom);
      });
  return out;
}

template EncodedStream encode_coarse_simt<u8>(std::span<const u8>,
                                              const Codebook&, u32,
                                              simt::MemTally*,
                                              const CancelToken*);
template EncodedStream encode_coarse_simt<u16>(std::span<const u16>,
                                               const Codebook&, u32,
                                               simt::MemTally*,
                                               const CancelToken*);
template EncodedStream encode_prefixsum_simt<u8>(std::span<const u8>,
                                                 const Codebook&, u32,
                                                 simt::MemTally*,
                                                 const CancelToken*);
template EncodedStream encode_prefixsum_simt<u16>(std::span<const u16>,
                                                  const Codebook&, u32,
                                                  simt::MemTally*,
                                                  const CancelToken*);

}  // namespace parhuff
