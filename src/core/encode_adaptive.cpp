#include "core/encode_adaptive.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/codeword.hpp"
#include "simt/block.hpp"

namespace parhuff {

namespace {

struct ChunkOverflow {
  std::vector<word_t> words;
  std::vector<OverflowEntry> entries;
};

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

}  // namespace

template <typename Sym, unsigned Width>
EncodedStream encode_adaptive_simt(std::span<const Sym> data,
                                   const Codebook& cb,
                                   const AdaptiveConfig& cfg,
                                   simt::MemTally* tally,
                                   AdaptiveStats* stats) {
  static_assert(Width == 32 || Width == 64,
                "cells are stored in 32-bit payload words");
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.min_reduce < 1 || cfg.min_reduce > cfg.max_reduce ||
      cfg.max_reduce >= cfg.magnitude) {
    throw std::invalid_argument("need 1 <= min_reduce <= max_reduce < magnitude");
  }
  constexpr std::size_t kCellsPerSlot = Width / kWordBits;
  const u32 M = cfg.magnitude;
  const std::size_t N = std::size_t{1} << M;

  EncodedStream out;
  out.chunk_symbols = static_cast<u32>(N);
  out.n_symbols = data.size();
  out.reduce_factor = cfg.min_reduce;  // fallback for chunks beyond the array
  const std::size_t chunks = (data.size() + N - 1) / N;
  out.chunk_bits.assign(chunks, 0);
  out.chunk_reduce.assign(chunks, static_cast<u8>(cfg.min_reduce));
  if (chunks == 0) return out;

  // Worst-case workspace per chunk: the fewest-merged configuration
  // (r = min_reduce) needs (N >> min_reduce) * cells-per-slot cells.
  const std::size_t ws_stride =
      ((N >> cfg.min_reduce) * kCellsPerSlot) + 1;
  std::vector<word_t> work(chunks * ws_stride, 0);
  std::vector<ChunkOverflow> chunk_ovf(chunks);
  // Per-chunk lookup-phase bit totals (each block writes its own slot).
  std::vector<u64> chunk_lookup_bits(chunks, 0);

  if (tally) {
    tally->global_read(cb.cw.size(), sizeof(Codeword),
                       simt::Pattern::kCoalesced);
  }

  simt::launch(
      static_cast<int>(chunks),
      static_cast<int>(std::clamp<std::size_t>(N >> cfg.max_reduce, 32, 1024)),
      tally, [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        const std::size_t begin = c * N;
        const std::size_t end = std::min(begin + N, data.size());
        const std::size_t nc = end - begin;

        auto cells = blk.shared_array<MergedCell<Width>>(N);
        auto& t = blk.tally();

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
        t.global_read(nc, sizeof(Sym), simt::Pattern::kCoalesced);
        t.shared_access(N, 12);
        t.ops(N * 8);
        chunk_lookup_bits[c] = chunk_code_bits;
        blk.sync();

        // --- Per-chunk reduce decision (a block-local reduction on GPU). -
        const double avg =
            nc > 0 ? static_cast<double>(chunk_code_bits) /
                         static_cast<double>(nc)
                   : 1.0;
        const u32 r =
            pick_chunk_reduce(avg, Width, cfg.min_reduce, cfg.max_reduce);
        out.chunk_reduce[c] = static_cast<u8>(r);
        const std::size_t group_syms = std::size_t{1} << r;
        const std::size_t n_slots = N >> r;
        t.ops(N);  // tree reduction for the bit count

        // --- REDUCE-merge. -----------------------------------------------
        for (u32 it = 1; it <= r; ++it) {
          const std::size_t active = N >> it;
          for (std::size_t k = 0; k < active; ++k) {
            MergedCell<Width> m = cells[2 * k];
            m.append(cells[2 * k + 1]);
            cells[k] = m;
          }
          t.shared_access(active * 3, 12);
          t.ops(N * 3 * static_cast<u64>(it) * it / 2);
          blk.sync();
        }

        // --- Breaking points (rarer by construction, same handling). -----
        auto& ovf = chunk_ovf[c];
        BitWriter bw(ovf.words);  // writes nothing until a slot breaks
        for (std::size_t g = 0; g < n_slots; ++g) {
          if (!cells[g].breaking) continue;
          const std::size_t gb = begin + g * group_syms;
          const std::size_t ge = std::min(gb + group_syms, end);
          OverflowEntry e;
          e.chunk = static_cast<u32>(c);
          e.group = static_cast<u32>(g);
          e.bit_offset = bw.bits();
          e.n_symbols = static_cast<u32>(ge - gb);
          for (std::size_t i = gb; i < ge; ++i) {
            const Codeword cw = cb.cw[static_cast<std::size_t>(data[i])];
            bw.put(cw.bits, cw.len);
          }
          e.bit_len = static_cast<u32>(bw.bits() - e.bit_offset);
          ovf.entries.push_back(e);
          cells[g] = MergedCell<Width>{};
          t.global_read(ge - gb, sizeof(Sym), simt::Pattern::kStrided);
          t.global_write((e.bit_len + 7) / 8, 1, simt::Pattern::kStrided);
        }
        if (!ovf.entries.empty()) bw.finish_into_sink();
        blk.sync();

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
        t.shared_access(n_slots * slot_cells * 2, sizeof(word_t));

        auto scratch = blk.shared_array<word_t>(n_slots * slot_cells / 2 + 1);
        const u32 s = M - r;
        for (u32 it = 1; it <= s; ++it) {
          const std::size_t pairs = n_slots >> it;
          u64 moved_cells = 0;
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
              moved_cells += rwords;
            }
            glen[left_slot] = llen + rlen;
          }
          t.shared_access(moved_cells * 3, sizeof(word_t));
          t.ops(n_slots * slot_cells * 32);
          t.divergent_branches += pairs;
          blk.sync();
        }
        out.chunk_bits[c] = glen[0];
      });

  out.payload.assign(layout_chunks(out), 0);
  simt::launch(static_cast<int>(chunks), 256, tally,
               [&](simt::BlockCtx& blk) {
                 const std::size_t c =
                     static_cast<std::size_t>(blk.block_id());
                 const std::size_t words = words_for_bits(out.chunk_bits[c]);
                 std::copy_n(work.data() + c * ws_stride, words,
                             out.payload.data() + out.chunk_word_offset[c]);
                 blk.tally().global_read(words, sizeof(word_t),
                                         simt::Pattern::kCoalesced);
                 blk.tally().global_write(words, sizeof(word_t),
                                          simt::Pattern::kCoalesced);
               });
  // Per-chunk factors travel with the stream: one strided byte per chunk.
  if (tally) {
    tally->global_write(chunks, 1, simt::Pattern::kCoalesced);
  }

  u64 ovf_bits = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    auto& ovf = chunk_ovf[c];
    if (ovf.entries.empty()) continue;
    for (OverflowEntry e : ovf.entries) {
      e.bit_offset += ovf_bits;
      out.overflow.push_back(e);
      if (stats) {
        stats->breaking_groups += 1;
        stats->breaking_symbols += e.n_symbols;
      }
    }
    out.overflow_payload.insert(out.overflow_payload.end(), ovf.words.begin(),
                                ovf.words.end());
    ovf_bits += static_cast<u64>(ovf.words.size()) * kWordBits;
  }
  out.overflow_bits = ovf_bits;
  if (stats) {
    for (std::size_t c = 0; c < chunks; ++c) {
      stats->r_histogram[out.chunk_reduce[c]] += 1;
      stats->total_code_bits += chunk_lookup_bits[c];
    }
  }
  return out;
}

template EncodedStream encode_adaptive_simt<u8, 32>(std::span<const u8>,
                                                    const Codebook&,
                                                    const AdaptiveConfig&,
                                                    simt::MemTally*,
                                                    AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u16, 32>(std::span<const u16>,
                                                     const Codebook&,
                                                     const AdaptiveConfig&,
                                                     simt::MemTally*,
                                                     AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u8, 64>(std::span<const u8>,
                                                    const Codebook&,
                                                    const AdaptiveConfig&,
                                                    simt::MemTally*,
                                                    AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u16, 64>(std::span<const u16>,
                                                     const Codebook&,
                                                     const AdaptiveConfig&,
                                                     simt::MemTally*,
                                                     AdaptiveStats*);

}  // namespace parhuff
