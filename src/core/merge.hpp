#pragma once
// The merge encoder — the reduce/shuffle kernel (§IV-C) and its adaptive
// extension (§VII) — in its two forms, each written once and
// parameterized by `reduce_of(c, chunk)`, the chunk's r: a constant for
// the fixed-r kernel, the per-chunk rule for the adaptive one.
//
//  * simulate runs the paper's GPU kernel thread block by thread block on
//    the SIMT substrate: lookup, REDUCE-merge, the breaking scan with its
//    backtrace, SHUFFLE-merge, then the coalescing-copy launch. The kernel
//    benches and the tests run it (encode_reduceshuffle_simt,
//    encode_adaptive_simt).
//  * emit writes the same stream in one host pass: per group of 2^r
//    symbols it concatenates the codewords into one u64 cell, sends a cell
//    wider than the cell width to the overflow section, and streams every
//    other cell through a CellWriter. compress() and the service run it
//    (emit_reduceshuffle, emit_adaptive).
//
// Both forms charge the kernel's modeled cost through charge_block and its
// neighbours below. Every charge is a function of lengths only — the chunk
// shape, the breaking groups' symbol counts and bit lengths, and the
// chunk's running bit offsets (which fix what the shuffle phase moves) —
// so the emitter's MemTally is the kernel's by construction, with one
// definition of each charge.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/bitstream.hpp"
#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/codeword.hpp"
#include "core/encoded.hpp"
#include "simt/block.hpp"
#include "simt/mem_model.hpp"
#include "util/parallel.hpp"
#include "util/types.hpp"

namespace parhuff::merging {

// --- Modeled cost --------------------------------------------------------

/// The two merge kernels share every phase. The adaptive one also reduces
/// the chunk's bit count to pick its r and stages its shuffle cells one
/// 32-bit word at a time.
enum class Kernel { kReduceShuffle, kAdaptive };

/// One block (= one chunk) of the merge grid.
struct BlockShape {
  Kernel kernel = Kernel::kReduceShuffle;
  u32 magnitude = 0;         ///< M: the block holds 2^M symbol slots
  u32 reduce = 0;            ///< r: REDUCE-merge iterations of this chunk
  std::size_t symbols = 0;   ///< symbols actually in the chunk (tail: fewer)
  std::size_t sym_bytes = 0;
  std::size_t slot_words = 1;  ///< 32-bit words per merged cell
};

/// Launches per encode: the merge grid and the coalescing-copy grid.
/// simulate gets them from its two simt::launch calls; emit adds them.
inline constexpr u64 kLaunches = 2;

/// Charge one block of the merge grid: lookup, REDUCE-merge, the breaking
/// groups' backtrace (`entries`: only n_symbols and bit_len are read), and
/// SHUFFLE-merge. `offsets` holds the chunk's 2^(M−r) + 1 running bit
/// offsets: offsets[g] is the main-stream bits of the groups before g,
/// breaking groups counting 0, and offsets[2^(M−r)] the chunk's total.
void charge_block(simt::MemTally& t, const BlockShape& b,
                  std::span<const OverflowEntry> entries,
                  std::span<const u64> offsets);

/// Charge one block of the coalescing-copy grid: `words` payload cells.
void charge_copy_block(simt::MemTally& t, u64 words);

/// Charges outside any block: the codebook pull and, for the adaptive
/// kernel, the per-chunk reduce-factor bytes.
void charge_grid(simt::MemTally& t, Kernel k, std::size_t codebook_entries,
                 std::size_t chunks);

// --- Overflow sections ---------------------------------------------------

/// One chunk's breaking groups, re-encoded back to back and padded to a
/// whole word. Entry bit offsets are local to the section until
/// merge_overflow places it.
struct OverflowSection {
  std::vector<word_t> words;
  std::vector<OverflowEntry> entries;
};

/// Appends groups to one chunk's section. Writes nothing until a group
/// breaks; call finish() once the chunk's groups are done.
class OverflowWriter {
 public:
  OverflowWriter(OverflowSection& s, u32 chunk)
      : s_(s), bw_(s.words), chunk_(chunk) {}

  template <typename Sym>
  void add(u32 group, std::span<const Sym> syms, const Codebook& cb) {
    OverflowEntry e;
    e.chunk = chunk_;
    e.group = group;
    e.bit_offset = bw_.bits();
    e.n_symbols = static_cast<u32>(syms.size());
    for (const Sym sym : syms) {
      const Codeword cw = cb.cw[static_cast<std::size_t>(sym)];
      bw_.put(cw.bits, cw.len);
    }
    e.bit_len = static_cast<u32>(bw_.bits() - e.bit_offset);
    s_.entries.push_back(e);
  }

  void finish() {
    if (!s_.entries.empty()) bw_.finish_into_sink();
  }

 private:
  OverflowSection& s_;
  BitWriter bw_;
  u32 chunk_;
};

struct BreakingCount {
  u64 groups = 0;
  u64 symbols = 0;
};

/// Concatenate the per-chunk sections in ascending chunk order into
/// out.overflow / overflow_payload / overflow_bits, rebasing entry
/// offsets. Returns the breaking groups and their symbols.
BreakingCount merge_overflow(EncodedStream& out,
                             std::span<const OverflowSection> sections);

// --- The two forms --------------------------------------------------------
//
// Both write the merge kernel's stream for `out` (chunk_symbols = 2^M,
// n_symbols and chunk_bits sized by the caller). `reduce_of(c, chunk)`
// returns chunk c's r, and `max_slots` bounds 2^(M−r) over every chunk.
// `cancel` is polled once per chunk. Both return the breaking groups
// merged into the overflow section.

/// Simulate the kernel: one block per chunk, then the coalescing copy.
template <unsigned Width, typename Sym, typename ReduceOf>
BreakingCount simulate(EncodedStream& out, std::span<const Sym> data,
                       const Codebook& cb, Kernel kernel,
                       std::size_t max_slots, ReduceOf&& reduce_of,
                       simt::MemTally* tally, const CancelToken* cancel) {
  static_assert(Width == 32 || Width == 64);
  constexpr std::size_t kSlotWords = Width / kWordBits;
  const std::size_t N = out.chunk_symbols;
  const u32 M = static_cast<u32>(std::countr_zero(N));
  const std::size_t chunks = out.chunk_bits.size();
  if (chunks == 0) return {};

  // Workspace: every chunk's dense bitstream fits in its slots (§IV-C),
  // plus one slack word for the batch move's spill write.
  const std::size_t stride = max_slots * kSlotWords + 1;
  std::vector<word_t> work(chunks * stride, 0);
  std::vector<OverflowSection> sections(chunks);
  if (tally) charge_grid(*tally, kernel, cb.cw.size(), chunks);

  // Every phase ends at a block barrier; charge_block charges the block's
  // phases, barriers included, once its lengths are known.
  simt::launch(
      static_cast<int>(chunks),
      static_cast<int>(std::clamp<std::size_t>(max_slots, 32, 1024)), tally,
      [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        // Cooperative poll, once per chunk (= one block; core/cancel.hpp).
        if (cancel) cancel->check();
        const std::size_t begin = c * N;
        const std::size_t end = std::min(begin + N, data.size());
        const std::span<const Sym> chunk = data.subspan(begin, end - begin);

        // --- Lookup: codeword per slot (one thread per symbol). ----------
        auto cells = blk.shared_array<MergedCell<Width>>(N);
        for (std::size_t i = 0; i < N; ++i) {
          if (i < chunk.size()) {
            const Codeword cw = cb.cw[static_cast<std::size_t>(chunk[i])];
            if (cw.len == 0) throw std::runtime_error("symbol absent");
            cells[i] = MergedCell<Width>{cw.bits, static_cast<u16>(cw.len),
                                         cw.len > Width};
          } else {
            cells[i] = MergedCell<Width>{};
          }
        }
        const u32 r = reduce_of(c, chunk);
        const std::size_t group = std::size_t{1} << r;
        const std::size_t slots = N >> r;

        // --- REDUCE-merge: r in-place pairwise iterations (Fig. 1). ------
        for (u32 it = 1; it <= r; ++it) {
          for (std::size_t k = 0; k < (N >> it); ++k) {
            MergedCell<Width> m = cells[2 * k];
            m.append(cells[2 * k + 1]);
            cells[k] = m;
          }
        }

        // --- Breaking points: ascending scan, backtrace. -----------------
        // The block runs on one host thread, so the in-order scan over the
        // reduced cells already yields the compact, ascending index list.
        OverflowWriter ovf(sections[c], static_cast<u32>(c));
        for (std::size_t g = 0; g < slots; ++g) {
          if (!cells[g].breaking) continue;
          const std::size_t gb = g * group;
          ovf.add(static_cast<u32>(g),
                  chunk.subspan(gb, std::min(group, chunk.size() - gb)), cb);
          cells[g] = MergedCell<Width>{};  // zero bits in the main stream
        }
        ovf.finish();

        // --- SHUFFLE-merge: s batch-move iterations (Fig. 2). ------------
        // Each slot's cell goes left-aligned into its kSlotWords words.
        word_t* buf = work.data() + c * stride;
        auto glen = blk.shared_array<u64>(slots);
        for (std::size_t j = 0; j < slots; ++j) {
          glen[j] = cells[j].len;
          const u64 aligned =
              glen[j] == 0 ? 0 : cells[j].bits << (Width - glen[j]);
          for (std::size_t k = 0; k < kSlotWords; ++k) {
            buf[j * kSlotWords + k] = static_cast<word_t>(
                aligned >> (Width - kWordBits * (k + 1)));
          }
        }
        // The running bit offsets charge_block reads.
        std::vector<u64> offsets(glen.begin(), glen.end());
        offsets.push_back(0);
        (void)exclusive_scan(offsets, 1);
        auto scratch = blk.shared_array<word_t>(slots * kSlotWords / 2 + 1);
        for (u32 it = 1; it <= M - r; ++it) {
          const std::size_t half = std::size_t{1} << (it - 1);
          for (std::size_t p = 0; p < (slots >> it); ++p) {
            const std::size_t left = p << it;
            const u64 llen = glen[left];
            const u64 rlen = glen[left + half];
            if (rlen > 0) {
              // Two-step batch move via scratch: lift the right group out,
              // zero its words (the left group's frontier grows into
              // them), then append at the left group's bit end.
              word_t* const right = buf + (left + half) * kSlotWords;
              const std::size_t rwords =
                  static_cast<std::size_t>(words_for_bits(rlen));
              std::copy_n(right, rwords, scratch.data());
              std::fill_n(right, rwords, word_t{0});
              append_bits(buf + left * kSlotWords, llen, scratch.data(),
                          rlen);
            }
            glen[left] = llen + rlen;
          }
        }
        out.chunk_bits[c] = glen[0];
        charge_block(blk.tally(),
                     BlockShape{kernel, M, r, chunk.size(), sizeof(Sym),
                                kSlotWords},
                     sections[c].entries, offsets);
      });

  // --- Coalescing copy: prefix-sum layout + contiguous chunk copy. -------
  out.payload.assign(layout_chunks(out), 0);
  simt::launch(static_cast<int>(chunks), 256, tally,
               [&](simt::BlockCtx& blk) {
                 const std::size_t c =
                     static_cast<std::size_t>(blk.block_id());
                 const u64 words = words_for_bits(out.chunk_bits[c]);
                 std::copy_n(work.data() + c * stride, words,
                             out.payload.data() + out.chunk_word_offset[c]);
                 charge_copy_block(blk.tally(), words);
               });
  return merge_overflow(out, sections);
}

/// Emit the kernel's stream without simulating it.
template <unsigned Width, typename Sym, typename ReduceOf>
BreakingCount emit(EncodedStream& out, std::span<const Sym> data,
                   const Codebook& cb, Kernel kernel, std::size_t max_slots,
                   ReduceOf&& reduce_of, simt::MemTally* tally,
                   const CancelToken* cancel) {
  static_assert(Width == 32 || Width == 64);
  constexpr std::size_t kSlotWords = Width / kWordBits;
  const std::size_t N = out.chunk_symbols;
  const u32 M = static_cast<u32>(std::countr_zero(N));
  const std::size_t chunks = out.chunk_bits.size();
  if (chunks == 0) return {};

  // Each chunk's cells land in its own stride, as in the kernel's
  // workspace; every cell of a group holds at most Width bits.
  const std::size_t stride = max_slots * kSlotWords + 1;
  const auto work = std::make_unique_for_overwrite<word_t[]>(chunks * stride);
  std::vector<OverflowSection> sections(chunks);
  std::vector<simt::MemTally> block_tally(tally ? chunks : 0);
  // Each host thread's running bit offsets of its current chunk:
  // offsets[g] is the main-stream bits before group g (charge_block).
  const std::size_t offsets_len = max_slots + 1;
  std::vector<u64> thread_offsets(
      static_cast<std::size_t>(max_threads()) * offsets_len);
  // Codewords packed as bits << 6 | length: one 8-byte load per symbol.
  std::vector<u64> packed(cb.cw.size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = cb.cw[i].bits << 6 | cb.cw[i].len;
  }

  parallel_for(chunks, [&](std::size_t c) {
    if (cancel) cancel->check();
    const std::size_t begin = c * N;
    const std::size_t end = std::min(begin + N, data.size());
    const std::span<const Sym> chunk = data.subspan(begin, end - begin);
    const u32 r = reduce_of(c, chunk);
    const std::size_t slots = N >> r;

    u64* const offsets = thread_offsets.data() + thread_index() * offsets_len;
    OverflowWriter ovf(sections[c], static_cast<u32>(c));
    CellWriter w(work.get() + c * stride);
    u64 bits = 0;
    // Group g covers chunk[gb, gb + n): join its codewords into one cell.
    const auto put_group = [&](std::size_t g, std::size_t gb, std::size_t n) {
      offsets[g] = bits;
      u64 cell = 0;
      unsigned len = 0;
      bool absent = false;
      for (std::size_t i = gb; i < gb + n; ++i) {
        const u64 e = packed[static_cast<std::size_t>(chunk[i])];
        const unsigned l = static_cast<unsigned>(e & 63);
        absent |= l == 0;
        cell = (cell << l) | (e >> 6);
        len += l;
      }
      if (absent) throw std::runtime_error("symbol absent");
      if (len > Width) {
        ovf.add(static_cast<u32>(g), chunk.subspan(gb, n), cb);
        return;
      }
      if constexpr (Width == 32) {
        w.put32(cell, len);
      } else {
        w.put(cell, len);
      }
      bits += len;
    };
    // Whole groups with a compile-time size for the common r, then the
    // short tail group.
    const auto put_groups = [&](auto fixed) {
      const std::size_t group = fixed ? fixed : std::size_t{1} << r;
      const std::size_t whole = chunk.size() / group;
      for (std::size_t g = 0; g < whole; ++g) {
        put_group(g, g * group, fixed ? fixed : group);
      }
      std::size_t g = whole;
      if (whole * group < chunk.size()) {
        put_group(g++, whole * group, chunk.size() - whole * group);
      }
      if (tally) {
        std::fill(offsets + g, offsets + slots + 1, bits);
      }
    };
    switch (r) {
      case 1: put_groups(std::integral_constant<std::size_t, 2>{}); break;
      case 2: put_groups(std::integral_constant<std::size_t, 4>{}); break;
      case 3: put_groups(std::integral_constant<std::size_t, 8>{}); break;
      case 4: put_groups(std::integral_constant<std::size_t, 16>{}); break;
      default: put_groups(std::integral_constant<std::size_t, 0>{}); break;
    }
    w.finish();
    ovf.finish();
    out.chunk_bits[c] = bits;
    if (tally) {
      simt::MemTally& t = block_tally[c];
      charge_block(t,
                   BlockShape{kernel, M, r, chunk.size(), sizeof(Sym),
                              kSlotWords},
                   sections[c].entries,
                   std::span<const u64>(offsets, slots + 1));
      charge_copy_block(t, words_for_bits(bits));
    }
  });

  out.payload.assign(layout_chunks(out), 0);
  parallel_for(chunks, [&](std::size_t c) {
    std::copy_n(work.get() + c * stride, words_for_bits(out.chunk_bits[c]),
                out.payload.data() + out.chunk_word_offset[c]);
  });
  if (tally) {
    charge_grid(*tally, kernel, cb.cw.size(), chunks);
    tally->kernel_launches += kLaunches;
    for (const simt::MemTally& t : block_tally) *tally += t;
  }
  return merge_overflow(out, sections);
}

}  // namespace parhuff::merging
