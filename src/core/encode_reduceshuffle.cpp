#include "core/encode_reduceshuffle.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/codeword.hpp"
#include "core/merge.hpp"
#include "simt/block.hpp"

namespace parhuff {

namespace {

void validate(const ReduceShuffleConfig& cfg) {
  // 2^12 x 16-byte merge cells fill 64 KiB of the 96 KiB shared-memory
  // budget; the paper's sweep tops out at magnitude 12 for the same reason.
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.reduce_factor < 1 || cfg.reduce_factor > cfg.magnitude) {
    throw std::invalid_argument("reduce factor must be in [1, magnitude]");
  }
}

EncodedStream empty_stream(std::size_t n_symbols,
                           const ReduceShuffleConfig& cfg) {
  EncodedStream out;
  out.chunk_symbols = u32{1} << cfg.magnitude;
  out.n_symbols = n_symbols;
  out.reduce_factor = cfg.reduce_factor;
  out.chunk_bits.assign((n_symbols + out.chunk_symbols - 1) / out.chunk_symbols,
                        0);
  return out;
}

void record(ReduceShuffleStats* stats, merging::BreakingCount broken,
            const ReduceShuffleConfig& cfg) {
  if (!stats) return;
  stats->breaking_groups += broken.groups;
  stats->breaking_symbols += broken.symbols;
  stats->reduce_iterations = cfg.reduce_factor;
  stats->shuffle_iterations = cfg.magnitude - cfg.reduce_factor;
}

}  // namespace

template <typename Sym>
EncodedStream encode_reduceshuffle_simt(std::span<const Sym> data,
                                        const Codebook& cb,
                                        const ReduceShuffleConfig& cfg,
                                        simt::MemTally* tally,
                                        ReduceShuffleStats* stats,
                                        const CancelToken* cancel) {
  validate(cfg);
  const u32 M = cfg.magnitude;
  const u32 r = cfg.reduce_factor;
  const u32 s = M - r;
  const std::size_t N = std::size_t{1} << M;       // symbols per chunk
  const std::size_t group_syms = std::size_t{1} << r;
  const std::size_t n_cells = std::size_t{1} << s;  // cells after reduce

  EncodedStream out = empty_stream(data.size(), cfg);
  const std::size_t chunks = out.chunk_bits.size();
  if (chunks == 0) return out;

  // Workspace: every chunk's dense bitstream fits in 2^s cells (§IV-C),
  // plus one slack cell for the batch move's spill write.
  std::vector<word_t> work(chunks * (n_cells + 1), 0);
  std::vector<merging::OverflowSection> chunk_ovf(chunks);

  if (tally) {
    merging::charge_grid(*tally, merging::Kernel::kReduceShuffle,
                         cb.cw.size(), chunks);
  }

  // Every phase ends at a block barrier; merging::charge_block charges the
  // block's phases, barriers included, once its lengths are known.
  simt::launch(
      static_cast<int>(chunks),
      static_cast<int>(std::clamp<std::size_t>(n_cells, 32, 1024)), tally,
      [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        // Cooperative poll, once per chunk (= one block; core/cancel.hpp).
        if (cancel) cancel->check();
        const std::size_t begin = c * N;
        const std::size_t end = std::min(begin + N, data.size());
        const std::size_t nc = end - begin;

        auto cells = blk.shared_array<MergedCell<kWordBits>>(N);

        // --- Lookup: codeword per slot (one thread per symbol). ----------
        for (std::size_t i = 0; i < N; ++i) {
          if (i < nc) {
            const Codeword cw =
                cb.cw[static_cast<std::size_t>(data[begin + i])];
            if (cw.len == 0) throw std::runtime_error("symbol absent");
            cells[i] = MergedCell<kWordBits>{
                cw.bits, static_cast<u16>(cw.len), cw.len > kWordBits};
          } else {
            cells[i] = MergedCell<kWordBits>{};
          }
        }

        // --- REDUCE-merge: r in-place pairwise iterations (Fig. 1). ------
        for (u32 it = 1; it <= r; ++it) {
          const std::size_t active = N >> it;
          for (std::size_t k = 0; k < active; ++k) {
            MergedCell<kWordBits> m = cells[2 * k];
            m.append(cells[2 * k + 1]);
            cells[k] = m;
          }
        }

        // --- Breaking points: ascending scan, backtrace. -----------------
        // The block runs on one host thread, so the in-order scan over the
        // reduced cells already yields the compact, ascending index list.
        merging::OverflowWriter ovf(chunk_ovf[c], static_cast<u32>(c));
        for (std::size_t g = 0; g < n_cells; ++g) {
          if (!cells[g].breaking) continue;
          const std::size_t gb = begin + g * group_syms;
          const std::size_t ge = std::min(gb + group_syms, end);
          assert(gb < end);
          ovf.add(static_cast<u32>(g), data.subspan(gb, ge - gb), cb);
          cells[g] = MergedCell<kWordBits>{};  // zero bits in main stream
        }
        ovf.finish();

        // --- SHUFFLE-merge: s batch-move iterations (Fig. 2). ------------
        word_t* buf = work.data() + c * (n_cells + 1);
        auto glen = blk.shared_array<u64>(n_cells);
        for (std::size_t j = 0; j < n_cells; ++j) {
          const auto& cell = cells[j];
          glen[j] = cell.breaking ? 0 : cell.len;
          buf[j] = cell.len == 0
                       ? 0
                       : static_cast<word_t>(cell.bits
                                             << (kWordBits - cell.len));
        }
        // The running bit offsets charge_block reads.
        std::vector<u64> offsets(glen.begin(), glen.end());
        offsets.push_back(0);
        (void)exclusive_scan(offsets, 1);
        auto scratch = blk.shared_array<word_t>((n_cells / 2) + 1);
        for (u32 it = 1; it <= s; ++it) {
          const std::size_t half = std::size_t{1} << (it - 1);
          const std::size_t stride = half * 2;
          const std::size_t pairs = n_cells >> it;
          for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t base = p * stride;
            const u64 llen = glen[base];
            const u64 rlen = glen[base + half];
            if (rlen > 0) {
              const std::size_t rwords =
                  static_cast<std::size_t>(words_for_bits(rlen));
              // Two-step batch move via scratch: lift the right group out,
              // zero its cells (the left group's frontier grows into them),
              // then append at the left group's bit end.
              std::copy_n(buf + base + half, rwords, scratch.data());
              std::fill_n(buf + base + half, rwords, word_t{0});
              append_bits(buf + base, llen, scratch.data(), rlen);
            }
            glen[base] = llen + rlen;
          }
        }
        out.chunk_bits[c] = glen[0];
        merging::charge_block(
            blk.tally(),
            merging::BlockShape{merging::Kernel::kReduceShuffle, M, r, nc,
                                sizeof(Sym), 1},
            chunk_ovf[c].entries, offsets);
      });

  // --- Coalescing copy: prefix-sum layout + contiguous chunk copy. -------
  out.payload.assign(layout_chunks(out), 0);
  simt::launch(static_cast<int>(chunks), 256, tally,
               [&](simt::BlockCtx& blk) {
                 const std::size_t c =
                     static_cast<std::size_t>(blk.block_id());
                 const std::size_t words = words_for_bits(out.chunk_bits[c]);
                 std::copy_n(work.data() + c * (n_cells + 1), words,
                             out.payload.data() + out.chunk_word_offset[c]);
                 merging::charge_copy_block(blk.tally(), words);
               });

  record(stats, merging::merge_overflow(out, chunk_ovf), cfg);
  return out;
}

template <typename Sym>
EncodedStream emit_reduceshuffle(std::span<const Sym> data,
                                 const Codebook& cb,
                                 const ReduceShuffleConfig& cfg,
                                 simt::MemTally* tally,
                                 ReduceShuffleStats* stats,
                                 const CancelToken* cancel) {
  validate(cfg);
  EncodedStream out = empty_stream(data.size(), cfg);
  if (out.chunk_bits.empty()) return out;
  const u32 r = cfg.reduce_factor;
  const merging::BreakingCount broken = merging::emit<kWordBits>(
      out, data, cb, merging::Kernel::kReduceShuffle,
      std::size_t{1} << (cfg.magnitude - r),
      [r](std::size_t, std::span<const Sym>) { return r; }, tally, cancel);
  record(stats, broken, cfg);
  return out;
}

template EncodedStream encode_reduceshuffle_simt<u8>(std::span<const u8>,
                                                     const Codebook&,
                                                     const ReduceShuffleConfig&,
                                                     simt::MemTally*,
                                                     ReduceShuffleStats*,
                                                     const CancelToken*);
template EncodedStream encode_reduceshuffle_simt<u16>(
    std::span<const u16>, const Codebook&, const ReduceShuffleConfig&,
    simt::MemTally*, ReduceShuffleStats*, const CancelToken*);
template EncodedStream emit_reduceshuffle<u8>(std::span<const u8>,
                                              const Codebook&,
                                              const ReduceShuffleConfig&,
                                              simt::MemTally*,
                                              ReduceShuffleStats*,
                                              const CancelToken*);
template EncodedStream emit_reduceshuffle<u16>(std::span<const u16>,
                                               const Codebook&,
                                               const ReduceShuffleConfig&,
                                               simt::MemTally*,
                                               ReduceShuffleStats*,
                                               const CancelToken*);

}  // namespace parhuff
