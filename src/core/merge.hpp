#pragma once
// Pieces shared by the merge encoders — the reduce/shuffle kernel (§IV-C)
// and its adaptive extension — in both of their forms:
//
//  * the full SIMT kernels (encode_reduceshuffle_simt, encode_adaptive_simt)
//    simulate the paper's GPU kernel thread by thread; the kernel benches
//    and the tests run them;
//  * the host emitters (emit_reduceshuffle, emit_adaptive) write the same
//    stream in one pass: per group of 2^r symbols they concatenate the
//    codewords into one u64 cell, send a cell wider than the cell width to
//    the overflow section, and stream every other cell through a CellWriter.
//    compress() and the service run these.
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
#include "core/encoded.hpp"
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

/// Launches per encode: the merge grid and the coalescing-copy grid. The
/// full kernels get them from their two simt::launch calls; the emitters
/// add them.
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

// --- Host emitter --------------------------------------------------------

/// Write the merge kernel's stream for `out` (chunk_symbols = 2^M,
/// n_symbols and chunk_bits sized by the caller) without simulating it.
/// `reduce_of(c, chunk)` returns chunk c's r, and `max_slots` bounds
/// 2^(M−r) over every chunk. `cancel` is polled once per chunk. Returns
/// the breaking groups merged into the overflow section.
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
