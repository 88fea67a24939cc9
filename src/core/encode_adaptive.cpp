#include "core/encode_adaptive.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/codeword.hpp"
#include "core/merge.hpp"
#include "simt/block.hpp"

namespace parhuff {

namespace {

/// Largest r in [min_r, max_r] whose expected merged cell stays under
/// `Width` bits for a chunk averaging `avg_bits` per codeword.
u32 pick_chunk_reduce(double avg_bits, unsigned width, u32 min_r, u32 max_r) {
  // A 25% headroom below the cell width absorbs within-chunk variance:
  // a chunk whose average admits r exactly would break on every group
  // that runs slightly dense (mixed calm/burst chunks).
  const double budget = static_cast<double>(width) * 0.75;
  u32 r = min_r;
  while (r < max_r &&
         avg_bits * static_cast<double>(u64{1} << (r + 1)) < budget) {
    ++r;
  }
  return r;
}

/// The chunk's r from its lookup-phase bit total (a block-local reduction
/// on the GPU).
u32 chunk_reduce(u64 chunk_code_bits, std::size_t nc, unsigned width,
                 const AdaptiveConfig& cfg) {
  const double avg = nc > 0 ? static_cast<double>(chunk_code_bits) /
                                  static_cast<double>(nc)
                            : 1.0;
  return pick_chunk_reduce(avg, width, cfg.min_reduce, cfg.max_reduce);
}

void validate(const AdaptiveConfig& cfg) {
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.min_reduce < 1 || cfg.min_reduce > cfg.max_reduce ||
      cfg.max_reduce >= cfg.magnitude) {
    throw std::invalid_argument("need 1 <= min_reduce <= max_reduce < magnitude");
  }
}

EncodedStream empty_stream(std::size_t n_symbols, const AdaptiveConfig& cfg) {
  EncodedStream out;
  out.chunk_symbols = u32{1} << cfg.magnitude;
  out.n_symbols = n_symbols;
  out.reduce_factor = cfg.min_reduce;  // fallback for chunks beyond the array
  const std::size_t chunks =
      (n_symbols + out.chunk_symbols - 1) / out.chunk_symbols;
  out.chunk_bits.assign(chunks, 0);
  out.chunk_reduce.assign(chunks, static_cast<u8>(cfg.min_reduce));
  return out;
}

void record(AdaptiveStats* stats, merging::BreakingCount broken,
            const EncodedStream& out, std::span<const u64> chunk_code_bits) {
  if (!stats) return;
  stats->breaking_groups += broken.groups;
  stats->breaking_symbols += broken.symbols;
  for (std::size_t c = 0; c < out.chunks(); ++c) {
    stats->r_histogram[out.chunk_reduce[c]] += 1;
    stats->total_code_bits += chunk_code_bits[c];
  }
}

}  // namespace

template <typename Sym, unsigned Width>
EncodedStream encode_adaptive_simt(std::span<const Sym> data,
                                   const Codebook& cb,
                                   const AdaptiveConfig& cfg,
                                   simt::MemTally* tally,
                                   AdaptiveStats* stats) {
  static_assert(Width == 32 || Width == 64,
                "cells are stored in 32-bit payload words");
  validate(cfg);
  constexpr std::size_t kCellsPerSlot = Width / kWordBits;
  const u32 M = cfg.magnitude;
  const std::size_t N = std::size_t{1} << M;

  EncodedStream out = empty_stream(data.size(), cfg);
  const std::size_t chunks = out.chunks();
  if (chunks == 0) return out;

  // Worst-case workspace per chunk: the fewest-merged configuration
  // (r = min_reduce) needs (N >> min_reduce) * cells-per-slot cells.
  const std::size_t ws_stride =
      ((N >> cfg.min_reduce) * kCellsPerSlot) + 1;
  std::vector<word_t> work(chunks * ws_stride, 0);
  std::vector<merging::OverflowSection> chunk_ovf(chunks);
  // Per-chunk lookup-phase bit totals (each block writes its own slot).
  std::vector<u64> chunk_lookup_bits(chunks, 0);

  if (tally) {
    merging::charge_grid(*tally, merging::Kernel::kAdaptive, cb.cw.size(),
                         chunks);
  }

  // Every phase ends at a block barrier; merging::charge_block charges the
  // block's phases, barriers included, once its lengths are known.
  simt::launch(
      static_cast<int>(chunks),
      static_cast<int>(std::clamp<std::size_t>(N >> cfg.max_reduce, 32, 1024)),
      tally, [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        const std::size_t begin = c * N;
        const std::size_t end = std::min(begin + N, data.size());
        const std::size_t nc = end - begin;

        auto cells = blk.shared_array<MergedCell<Width>>(N);

        // --- Lookup + chunk bit count (free byproduct of the lookup). ----
        u64 chunk_code_bits = 0;
        for (std::size_t i = 0; i < N; ++i) {
          if (i < nc) {
            const Codeword cw =
                cb.cw[static_cast<std::size_t>(data[begin + i])];
            if (cw.len == 0) throw std::runtime_error("symbol absent");
            cells[i] = MergedCell<Width>{cw.bits, static_cast<u16>(cw.len),
                                         cw.len > Width};
            chunk_code_bits += cw.len;
          } else {
            cells[i] = MergedCell<Width>{};
          }
        }
        chunk_lookup_bits[c] = chunk_code_bits;

        // --- Per-chunk reduce decision. ----------------------------------
        const u32 r = chunk_reduce(chunk_code_bits, nc, Width, cfg);
        out.chunk_reduce[c] = static_cast<u8>(r);
        const std::size_t group_syms = std::size_t{1} << r;
        const std::size_t n_slots = N >> r;

        // --- REDUCE-merge. -----------------------------------------------
        for (u32 it = 1; it <= r; ++it) {
          const std::size_t active = N >> it;
          for (std::size_t k = 0; k < active; ++k) {
            MergedCell<Width> m = cells[2 * k];
            m.append(cells[2 * k + 1]);
            cells[k] = m;
          }
        }

        // --- Breaking points (rarer by construction, same handling). -----
        merging::OverflowWriter ovf(chunk_ovf[c], static_cast<u32>(c));
        for (std::size_t g = 0; g < n_slots; ++g) {
          if (!cells[g].breaking) continue;
          const std::size_t gb = begin + g * group_syms;
          const std::size_t ge = std::min(gb + group_syms, end);
          ovf.add(static_cast<u32>(g), data.subspan(gb, ge - gb), cb);
          cells[g] = MergedCell<Width>{};
        }
        ovf.finish();

        // --- SHUFFLE-merge over Width-bit slots. --------------------------
        word_t* buf = work.data() + c * ws_stride;
        const std::size_t slot_cells = kCellsPerSlot;
        auto glen = blk.shared_array<u64>(n_slots);
        for (std::size_t j = 0; j < n_slots; ++j) {
          const auto& cell = cells[j];
          const unsigned len = cell.breaking ? 0 : cell.len;
          glen[j] = len;
          const u64 aligned =
              len == 0 ? 0
                       : (Width == 64 && len == 64
                              ? cell.bits
                              : cell.bits << (Width - len));
          if constexpr (Width == 64) {
            buf[j * slot_cells] = static_cast<word_t>(aligned >> 32);
            buf[j * slot_cells + 1] = static_cast<word_t>(aligned);
          } else {
            buf[j * slot_cells] = static_cast<word_t>(aligned);
          }
        }

        // The running bit offsets charge_block reads.
        std::vector<u64> offsets(glen.begin(), glen.end());
        offsets.push_back(0);
        (void)exclusive_scan(offsets, 1);
        auto scratch = blk.shared_array<word_t>(n_slots * slot_cells / 2 + 1);
        const u32 s = M - r;
        for (u32 it = 1; it <= s; ++it) {
          const std::size_t pairs = n_slots >> it;
          for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t left_slot = p << it;
            const std::size_t right_slot =
                left_slot + (std::size_t{1} << (it - 1));
            word_t* left_cells = buf + left_slot * slot_cells;
            word_t* right_cells = buf + right_slot * slot_cells;
            const u64 llen = glen[left_slot];
            const u64 rlen = glen[right_slot];
            if (rlen > 0) {
              const std::size_t rwords =
                  static_cast<std::size_t>(words_for_bits(rlen));
              std::copy_n(right_cells, rwords, scratch.data());
              std::fill_n(right_cells, rwords, word_t{0});
              append_bits(left_cells, llen, scratch.data(), rlen);
            }
            glen[left_slot] = llen + rlen;
          }
        }
        out.chunk_bits[c] = glen[0];
        merging::charge_block(
            blk.tally(),
            merging::BlockShape{merging::Kernel::kAdaptive, M, r, nc,
                                sizeof(Sym), kCellsPerSlot},
            chunk_ovf[c].entries, offsets);
      });

  out.payload.assign(layout_chunks(out), 0);
  simt::launch(static_cast<int>(chunks), 256, tally,
               [&](simt::BlockCtx& blk) {
                 const std::size_t c =
                     static_cast<std::size_t>(blk.block_id());
                 const std::size_t words = words_for_bits(out.chunk_bits[c]);
                 std::copy_n(work.data() + c * ws_stride, words,
                             out.payload.data() + out.chunk_word_offset[c]);
                 merging::charge_copy_block(blk.tally(), words);
               });

  record(stats, merging::merge_overflow(out, chunk_ovf), out,
         chunk_lookup_bits);
  return out;
}

template <typename Sym, unsigned Width>
EncodedStream emit_adaptive(std::span<const Sym> data, const Codebook& cb,
                            const AdaptiveConfig& cfg, simt::MemTally* tally,
                            AdaptiveStats* stats) {
  static_assert(Width == 32 || Width == 64,
                "cells are stored in 32-bit payload words");
  validate(cfg);
  EncodedStream out = empty_stream(data.size(), cfg);
  if (out.chunk_bits.empty()) return out;
  std::vector<u64> chunk_lookup_bits(out.chunks(), 0);
  const merging::BreakingCount broken = merging::emit<Width>(
      out, data, cb, merging::Kernel::kAdaptive,
      out.chunk_symbols >> cfg.min_reduce,
      [&](std::size_t c, std::span<const Sym> chunk) {
        u64 bits = 0;
        for (const Sym sym : chunk) {
          const u8 len = cb.cw[static_cast<std::size_t>(sym)].len;
          if (len == 0) throw std::runtime_error("symbol absent");
          bits += len;
        }
        chunk_lookup_bits[c] = bits;
        const u32 r = chunk_reduce(bits, chunk.size(), Width, cfg);
        out.chunk_reduce[c] = static_cast<u8>(r);
        return r;
      },
      tally, nullptr);
  record(stats, broken, out, chunk_lookup_bits);
  return out;
}

template EncodedStream encode_adaptive_simt<u8, 32>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u16, 32>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u8, 64>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u16, 64>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);
template EncodedStream emit_adaptive<u8, 32>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);
template EncodedStream emit_adaptive<u16, 32>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);
template EncodedStream emit_adaptive<u8, 64>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);
template EncodedStream emit_adaptive<u16, 64>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*);

}  // namespace parhuff
