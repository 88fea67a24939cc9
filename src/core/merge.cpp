#include "core/merge.hpp"

namespace parhuff::merging {

void charge_block(simt::MemTally& t, const BlockShape& b,
                  std::span<const OverflowEntry> entries,
                  std::span<const u64> offsets) {
  const std::size_t N = std::size_t{1} << b.magnitude;
  const std::size_t slots = N >> b.reduce;
  const u32 s = b.magnitude - b.reduce;

  // Lookup: one thread per symbol slot, codebook lookup + cell write.
  t.global_read(b.symbols, b.sym_bytes, simt::Pattern::kCoalesced);
  t.shared_access(N, 12);
  t.ops(N * 8);
  t.block_syncs += 1;
  if (b.kernel == Kernel::kAdaptive) t.ops(N);  // tree-reduced bit count

  // REDUCE-merge: active threads halve each iteration, but retired lanes
  // still occupy their warps' issue slots until whole warps drain — the
  // "waste of parallelism" §IV-C describes — and later iterations shift/or
  // progressively wider accumulated operands. Charged as a superlinear
  // per-iteration slot cost (calibrated against Table II's measured
  // r-ordering; see DESIGN.md).
  for (u32 it = 1; it <= b.reduce; ++it) {
    t.shared_access((N >> it) * 3, 12);
    t.ops(N * 3 * static_cast<u64>(it) * it / 2);
    t.block_syncs += 1;
  }

  // Breaking points: backtrace re-reads each group's source symbols and
  // writes its re-encoded bits to the overflow section.
  for (const OverflowEntry& e : entries) {
    t.global_read(e.n_symbols, b.sym_bytes, simt::Pattern::kStrided);
    t.global_write((e.bit_len + 7) / 8, 1, simt::Pattern::kStrided);
  }
  t.block_syncs += 1;

  // SHUFFLE-merge: staging the cells, then s batch-move iterations. One
  // thread per *cell slot*: a lane whose cell holds only a few useful bits
  // still executes the full two-step batch move, and left/right groups
  // diverge by a factor of two (§IV-C). This slot cost — not the useful
  // bits moved — is what makes an undersized reduce factor expensive
  // (Table II's r=2 column).
  if (b.kernel == Kernel::kAdaptive) {
    t.shared_access(slots * b.slot_words * 2, sizeof(word_t));
  } else {
    t.shared_access(slots * 2, 8);
  }
  // Iteration `it` moves the right member of every pair: slot j > 0 at
  // iteration ctz(j) + 1, carrying the bits of slots [j, j + lowbit(j))
  // that the earlier iterations gathered into it. Each moved cell costs
  // three shared accesses whichever iteration moves it, so one pass over
  // the offsets sums them all.
  u64 moved_cells = 0;
  for (std::size_t j = 1; j < slots; ++j) {
    const std::size_t end = j + (std::size_t{1} << std::countr_zero(j));
    moved_cells += words_for_bits(offsets[end] - offsets[j]);
  }
  t.shared_access(moved_cells * 3, sizeof(word_t));
  for (u32 it = 1; it <= s; ++it) {
    t.ops(slots * b.slot_words * 32);
    t.divergent_branches += slots >> it;
    t.block_syncs += 1;
  }
}

void charge_copy_block(simt::MemTally& t, u64 words) {
  t.global_read(words, sizeof(word_t), simt::Pattern::kCoalesced);
  t.global_write(words, sizeof(word_t), simt::Pattern::kCoalesced);
}

void charge_grid(simt::MemTally& t, Kernel k, std::size_t codebook_entries,
                 std::size_t chunks) {
  // Codebook resident in cache: one coalesced pull per launch.
  t.global_read(codebook_entries, sizeof(Codeword), simt::Pattern::kCoalesced);
  // Per-chunk factors travel with the stream: one byte per chunk.
  if (k == Kernel::kAdaptive) {
    t.global_write(chunks, 1, simt::Pattern::kCoalesced);
  }
}

BreakingCount merge_overflow(EncodedStream& out,
                             std::span<const OverflowSection> sections) {
  BreakingCount n;
  u64 ovf_bits = 0;
  for (const OverflowSection& sec : sections) {
    if (sec.entries.empty()) continue;
    // Word-aligned sections keep the concatenation a plain copy; entries
    // get the global bit base added.
    for (OverflowEntry e : sec.entries) {
      e.bit_offset += ovf_bits;
      out.overflow.push_back(e);
      n.groups += 1;
      n.symbols += e.n_symbols;
    }
    out.overflow_payload.insert(out.overflow_payload.end(), sec.words.begin(),
                                sec.words.end());
    ovf_bits += static_cast<u64>(sec.words.size()) * kWordBits;
  }
  out.overflow_bits = ovf_bits;
  return n;
}

}  // namespace parhuff::merging
