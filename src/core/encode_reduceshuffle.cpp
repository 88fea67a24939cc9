#include "core/encode_reduceshuffle.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/codeword.hpp"
#include "simt/block.hpp"

namespace parhuff {

namespace {

struct ChunkOverflow {
  std::vector<word_t> words;
  u64 bits = 0;
  std::vector<OverflowEntry> entries;  // bit_offset local to this chunk
};

}  // namespace

template <typename Sym>
EncodedStream encode_reduceshuffle_simt(std::span<const Sym> data,
                                        const Codebook& cb,
                                        const ReduceShuffleConfig& cfg,
                                        simt::MemTally* tally,
                                        ReduceShuffleStats* stats,
                                        const CancelToken* cancel) {
  // 2^12 x 16-byte merge cells fill 64 KiB of the 96 KiB shared-memory
  // budget; the paper's sweep tops out at magnitude 12 for the same reason.
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.reduce_factor < 1 || cfg.reduce_factor > cfg.magnitude) {
    throw std::invalid_argument("reduce factor must be in [1, magnitude]");
  }
  const u32 M = cfg.magnitude;
  const u32 r = cfg.reduce_factor;
  const u32 s = M - r;
  const std::size_t N = std::size_t{1} << M;       // symbols per chunk
  const std::size_t group_syms = std::size_t{1} << r;
  const std::size_t n_cells = std::size_t{1} << s;  // cells after reduce

  EncodedStream out;
  out.chunk_symbols = static_cast<u32>(N);
  out.n_symbols = data.size();
  out.reduce_factor = r;
  const std::size_t chunks = (data.size() + N - 1) / N;
  out.chunk_bits.assign(chunks, 0);
  if (chunks == 0) return out;

  // Workspace: every chunk's dense bitstream fits in 2^s cells (§IV-C),
  // plus one slack cell for the batch move's spill write.
  std::vector<word_t> work(chunks * (n_cells + 1), 0);
  std::vector<ChunkOverflow> chunk_ovf(chunks);

  // Codebook resident in cache: one coalesced pull per launch.
  if (tally) {
    tally->global_read(cb.cw.size(), sizeof(Codeword),
                       simt::Pattern::kCoalesced);
  }

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
        auto& t = blk.tally();

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
        t.global_read(nc, sizeof(Sym), simt::Pattern::kCoalesced);
        t.shared_access(N, 12);  // codebook lookups + cell writes
        t.ops(N * 8);
        blk.sync();

        // --- REDUCE-merge: r in-place pairwise iterations (Fig. 1). ------
        for (u32 it = 1; it <= r; ++it) {
          const std::size_t active = N >> it;
          for (std::size_t k = 0; k < active; ++k) {
            MergedCell<kWordBits> m = cells[2 * k];
            m.append(cells[2 * k + 1]);
            cells[k] = m;
          }
          t.shared_access(active * 3, 12);
          // Active threads halve each iteration, but retired lanes still
          // occupy their warps' issue slots until whole warps drain — the
          // "waste of parallelism" §IV-C describes — and later iterations
          // shift/or progressively wider accumulated operands. Charged as a
          // superlinear per-iteration slot cost (calibrated against
          // Table II's measured r-ordering; see DESIGN.md).
          t.ops(N * 3 * static_cast<u64>(it) * it / 2);
          blk.sync();
        }

        // --- Breaking points: ascending scan, backtrace. -----------------
        // The block runs on one host thread, so the in-order scan over the
        // reduced cells already yields the compact, ascending index list.
        auto& ovf = chunk_ovf[c];
        BitWriter bw(ovf.words);  // writes nothing until a group breaks
        for (std::size_t g = 0; g < n_cells; ++g) {
          if (!cells[g].breaking) continue;
          const std::size_t gb = begin + g * group_syms;
          const std::size_t ge = std::min(gb + group_syms, end);
          assert(gb < end);
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
          cells[g] = MergedCell<kWordBits>{};  // zero bits in main stream
          // Backtrace reduction: re-read the group's source symbols.
          t.global_read(ge - gb, sizeof(Sym), simt::Pattern::kStrided);
          t.global_write((e.bit_len + 7) / 8, 1, simt::Pattern::kStrided);
        }
        if (!ovf.entries.empty()) {
          ovf.bits = bw.bits();
          bw.finish_into_sink();
        }
        blk.sync();

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
        t.shared_access(n_cells * 2, 8);
        auto scratch = blk.shared_array<word_t>((n_cells / 2) + 1);
        for (u32 it = 1; it <= s; ++it) {
          const std::size_t half = std::size_t{1} << (it - 1);
          const std::size_t stride = half * 2;
          const std::size_t pairs = n_cells >> it;
          u64 moved_cells = 0;
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
              moved_cells += rwords;
            }
            glen[base] = llen + rlen;
          }
          // One thread per *cell slot*: a lane whose cell holds only a few
          // useful bits still executes the full two-step batch move, and
          // left/right groups diverge by a factor of two (§IV-C). This slot
          // cost — not the useful bits moved — is what makes an undersized
          // reduce factor expensive (Table II's r=2 column).
          t.shared_access(moved_cells * 3, sizeof(word_t));
          t.ops(n_cells * 32);
          t.divergent_branches += pairs;
          blk.sync();
        }
        out.chunk_bits[c] = glen[0];
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
                 blk.tally().global_read(words, sizeof(word_t),
                                         simt::Pattern::kCoalesced);
                 blk.tally().global_write(words, sizeof(word_t),
                                          simt::Pattern::kCoalesced);
               });

  // Merge per-chunk overflow sections (ascending chunk order).
  u64 ovf_bits = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto& ovf = chunk_ovf[c];
    if (ovf.entries.empty()) continue;
    // Word-align each chunk's overflow section so the concatenation stays a
    // simple copy; entries get the global bit base added.
    const u64 base_bits = ovf_bits;
    for (OverflowEntry e : ovf.entries) {
      e.bit_offset += base_bits;
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
    stats->reduce_iterations = r;
    stats->shuffle_iterations = s;
  }
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

}  // namespace parhuff
