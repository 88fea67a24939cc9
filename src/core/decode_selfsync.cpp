#include "core/decode_selfsync.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/decode.hpp"
#include "simt/atomics.hpp"
#include "simt/block.hpp"

namespace parhuff {

namespace {

/// Decode codewords whose start bit lies in [br.position(), limit_bits),
/// discarding symbols; returns how many were consumed and leaves br at the
/// first codeword start at/after limit_bits. Tolerant by design: a
/// tentative start placed mid-codeword may hit prefixes no codeword owns —
/// the scan just stops there (the synchronization passes re-run it from a
/// corrected start; only the final emit pass may treat failure as
/// corruption).
std::size_t scan_subsequence(BitReader& br, const Codebook& cb,
                             u64 limit_bits) {
  std::size_t count = 0;
  const unsigned max_len = cb.max_len;
  while (br.position() < limit_bits && !br.exhausted()) {
    u64 v = 0;
    unsigned l = 0;
    bool matched = false;
    while (!br.exhausted() && l < max_len) {
      v = (v << 1) | br.bit();
      ++l;
      if (cb.count[l] != 0 && v >= cb.first[l] &&
          v - cb.first[l] < cb.count[l]) {
        matched = true;
        break;
      }
    }
    if (!matched) return count;  // desynchronized or exhausted: stop here
    ++count;
  }
  return count;
}

}  // namespace

template <typename Sym>
std::vector<Sym> decode_selfsync(const EncodedStream& s, const Codebook& cb,
                                 const SelfSyncConfig& cfg,
                                 simt::MemTally* tally,
                                 SelfSyncStats* stats) {
  if (cfg.subseq_bits < 2 * (cb.max_len ? cb.max_len : 1)) {
    throw std::invalid_argument(
        "selfsync: subsequence must exceed twice the longest codeword");
  }
  std::vector<Sym> out(s.n_symbols);
  if (s.n_symbols == 0) return out;
  const std::size_t chunks = s.chunks();

  const std::vector<std::size_t> ovf_begin = overflow_index(s);
  const DecodeTable<Sym> table(cb);

  // Per-chunk stats accumulated with atomics (chunks run concurrently).
  u64 total_subseq = 0;
  u64 total_passes = 0;
  u64 max_passes = 0;
  u64 fallbacks = 0;

  simt::launch(
      static_cast<int>(chunks), 256, tally, [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        const std::size_t begin = c * s.chunk_symbols;
        const std::size_t nc = s.chunk_size(c);
        if (nc == 0) return;
        Sym* dst = out.data() + begin;
        auto& t = blk.tally();

        SegmentPlan<Sym> plan;

        // --- Fallback: overflow-bearing chunks decode through the chunk
        // walk. -----------------------------------------------------------
        if (ovf_begin[c] != ovf_begin[c + 1]) {
          plan_chunk(s, ovf_begin, c, dst, plan);
          decode_segments(table, plan);
          simt::atomic_add(fallbacks, u64{1});
          t.global_read(words_for_bits(s.chunk_bits[c]), sizeof(word_t),
                        simt::Pattern::kStrided);
          t.global_write(nc, sizeof(Sym), simt::Pattern::kStrided);
          return;
        }

        // --- Phase 1: tentative decode of every subsequence. -------------
        const u64 B = s.chunk_bits[c];
        const u64 S = cfg.subseq_bits;
        const std::size_t n_sub = static_cast<std::size_t>((B + S - 1) / S);
        std::vector<u64> start(n_sub), exit_bit(n_sub);
        std::vector<std::size_t> count(n_sub);
        auto scan_from = [&](std::size_t i, u64 from) {
          BitReader br = s.chunk_reader(c);
          br.seek(std::min<u64>(from, B));
          const u64 limit = std::min<u64>((i + 1) * S, B);
          count[i] = from < limit ? scan_subsequence(br, cb, limit) : 0;
          start[i] = from;
          exit_bit[i] = std::max<u64>(br.position(), from);
        };
        for (std::size_t i = 0; i < n_sub; ++i) {
          scan_from(i, i * S);  // one thread per subsequence on hardware
        }
        t.global_read((B + 7) / 8, 1, simt::Pattern::kCoalesced);
        // Bit-serial decoding is a dependent chain with heavy intra-warp
        // divergence (every lane is at a different position in its code):
        // ~32 issue slots per payload bit.
        t.ops(B * 32);
        blk.sync();

        // --- Phase 2: synchronization passes until fixpoint. --------------
        // Jacobi iteration, as the parallel kernel executes it: every pass
        // corrects each subsequence against its neighbour's exit from the
        // *previous* pass. Streams that self-synchronize (the common case)
        // reach the fixpoint in one or two passes; the pass count is the
        // measurable signature of that property (see SelfSyncStats).
        u64 passes = 0;
        std::vector<u64> prev_exit(n_sub);
        for (;;) {
          ++passes;
          std::copy(exit_bit.begin(), exit_bit.end(), prev_exit.begin());
          bool changed = false;
          u64 corrected_bits = 0;
          for (std::size_t i = 1; i < n_sub; ++i) {
            const u64 want = prev_exit[i - 1];
            if (start[i] != want) {
              scan_from(i, want);
              changed = true;
              corrected_bits += S;
            }
          }
          t.ops(corrected_bits * 32 + n_sub);
          blk.sync();
          if (!changed) break;
          if (passes > n_sub + 1) {
            throw std::runtime_error("selfsync: no fixpoint (corrupt)");
          }
        }

        // --- Phase 3: scan counts, final emit. -----------------------------
        std::size_t total = 0;
        std::vector<std::size_t> offset(n_sub);
        for (std::size_t i = 0; i < n_sub; ++i) {
          offset[i] = total;
          total += count[i];
        }
        if (total != nc) {
          throw std::runtime_error("selfsync: symbol count mismatch");
        }
        const std::span<const word_t> words = s.chunk_words_to_end(c);
        for (std::size_t i = 0; i < n_sub; ++i) {
          if (count[i] != 0) {
            plan.add(words, B, start[i], dst + offset[i], count[i]);
          }
        }
        decode_segments(table, plan);
        t.global_read((B + 7) / 8, 1, simt::Pattern::kCoalesced);
        t.global_write(nc, sizeof(Sym), simt::Pattern::kCoalesced);
        t.ops(B * 32 + nc * 2);

        simt::atomic_add(total_subseq, static_cast<u64>(n_sub));
        simt::atomic_add(total_passes, passes);
        simt::atomic_max(max_passes, passes);
      });

  if (stats) {
    stats->subsequences = total_subseq;
    stats->sync_passes = total_passes;
    stats->max_chunk_passes = max_passes;
    stats->fallback_chunks = fallbacks;
  }
  return out;
}

template std::vector<u8> decode_selfsync<u8>(const EncodedStream&,
                                             const Codebook&,
                                             const SelfSyncConfig&,
                                             simt::MemTally*, SelfSyncStats*);
template std::vector<u16> decode_selfsync<u16>(const EncodedStream&,
                                               const Codebook&,
                                               const SelfSyncConfig&,
                                               simt::MemTally*,
                                               SelfSyncStats*);

}  // namespace parhuff
