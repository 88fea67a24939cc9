#include "core/decode_gaparray.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/decode.hpp"
#include "simt/atomics.hpp"
#include "simt/block.hpp"
#include "util/parallel.hpp"

namespace parhuff {

namespace {

constexpr u32 kMinSubseqBits = 64;
constexpr u32 kMaxSubseqBits = 32768;

}  // namespace

void annotate_gaps(EncodedStream& s, const Codebook& cb, u32 subseq_bits) {
  const u32 max_len = cb.max_len ? cb.max_len : 1;
  if (subseq_bits < kMinSubseqBits || subseq_bits > kMaxSubseqBits ||
      subseq_bits < 2 * max_len) {
    throw std::invalid_argument(
        "gaparray: subsequence bits must lie in [64, 32768] and exceed "
        "twice the longest codeword");
  }
  s.gap_subseq_bits = subseq_bits;
  const std::size_t chunks = s.chunks();
  std::vector<std::size_t> base(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    base[c + 1] = base[c] + s.gap_subsequences(c);
  }
  // Sentinel-initialized: overflow chunks and post-final-codeword tail
  // subsequences keep kNoGap / 0 and are skipped by the decoder.
  s.gaps.assign(base[chunks], EncodedStream::kNoGap);
  s.gap_counts.assign(base[chunks], 0);

  const std::vector<std::size_t> ovf_begin = overflow_index(s);
  parallel_for(chunks, [&](std::size_t c) {
    if (ovf_begin[c] != ovf_begin[c + 1]) return;  // fallback chunk
    const std::size_t nc = s.chunk_size(c);
    if (nc == 0) return;
    const u64 S = subseq_bits;
    const std::size_t n_sub = s.gap_subsequences(c);
    u8* g = s.gaps.data() + base[c];
    u16* cnt = s.gap_counts.data() + base[c];
    BitReader br = s.chunk_reader(c);
    std::size_t sub = 0;
    for (std::size_t k = 0; k < nc; ++k) {
      const u64 p = br.position();
      // A codeword is at most max_len ≤ S/2 bits, so each one crosses at
      // most one boundary and every gap fits in [0, max_len) ⊂ u8.
      while (sub < n_sub && static_cast<u64>(sub) * S <= p) {
        g[sub] = static_cast<u8>(p - static_cast<u64>(sub) * S);
        ++sub;
      }
      // Encode-side ground truth, unlike the self-sync tentative scan: a
      // codeword that fails to decode is corruption.
      u16 discard;
      decode_symbols(br, cb, 1, &discard);
      ++cnt[sub - 1];
    }
    if (br.position() != s.chunk_bits[c]) {
      throw std::runtime_error(
          "gaparray: chunk bit length mismatch during annotation");
    }
  });
}

template <typename Sym>
std::vector<Sym> decode_gaparray(const EncodedStream& s, const Codebook& cb,
                                 simt::MemTally* tally, GapArrayStats* stats,
                                 const CancelToken* cancel) {
  if (!s.has_gaps()) {
    throw std::invalid_argument("gaparray: stream carries no gap metadata");
  }
  // Everything below treats the metadata as untrusted (it may come off the
  // wire): sizes, sentinels, counts, and chain positions are all checked
  // before or while they steer a read.
  const u32 max_len = cb.max_len ? cb.max_len : 1;
  const u64 S = s.gap_subseq_bits;
  if (S < kMinSubseqBits || S > kMaxSubseqBits || S < 2 * max_len) {
    throw std::runtime_error("gaparray: invalid subsequence size");
  }
  const std::size_t chunks = s.chunks();
  std::vector<std::size_t> base(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    base[c + 1] = base[c] + s.gap_subsequences(c);
  }
  if (s.gaps.size() != base[chunks] || s.gap_counts.size() != base[chunks]) {
    throw std::runtime_error("gaparray: metadata size mismatch");
  }
  std::vector<Sym> out(s.n_symbols);
  if (s.n_symbols == 0) {
    if (stats) *stats = {};
    return out;
  }
  const std::vector<std::size_t> ovf_begin = overflow_index(s);
  const DecodeTable table(cb);

  u64 total_subseq = 0;
  u64 fallbacks = 0;

  simt::launch(
      static_cast<int>(chunks), 256, tally, [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        if (cancel) cancel->check();
        const std::size_t nc = s.chunk_size(c);
        if (nc == 0) return;
        Sym* dst = out.data() + c * s.chunk_symbols;
        auto& t = blk.tally();
        SegmentPlan<Sym> plan;

        // --- Fallback: overflow-bearing chunks decode through the chunk
        // walk; the side stream splices into the main one, so
        // per-subsequence metadata does not apply (entries are
        // all-sentinel).
        if (ovf_begin[c] != ovf_begin[c + 1]) {
          plan_chunk(s, ovf_begin, c, dst, plan);
          decode_segments(table, plan, cancel);
          simt::atomic_add(fallbacks, u64{1});
          t.global_read(words_for_bits(s.chunk_bits[c]), sizeof(word_t),
                        simt::Pattern::kStrided);
          t.global_write(nc, sizeof(Sym), simt::Pattern::kStrided);
          return;
        }

        // --- Validate + exclusive scan: one cheap metadata pass gives
        // every subsequence its decode start AND output offset, so there
        // is no tentative walk and no synchronization loop at all.
        const u64 B = s.chunk_bits[c];
        const std::size_t n_sub = s.gap_subsequences(c);
        const u8* g = s.gaps.data() + base[c];
        const u16* cnt = s.gap_counts.data() + base[c];
        if (n_sub == 0 || g[0] != 0) {
          throw std::runtime_error("gaparray: chunk must start on a codeword");
        }
        std::vector<u64> start(n_sub);
        std::vector<std::size_t> offset(n_sub);
        std::size_t total = 0;
        for (std::size_t i = 0; i < n_sub; ++i) {
          offset[i] = total;
          if (g[i] == EncodedStream::kNoGap) {
            if (cnt[i] != 0) {
              throw std::runtime_error(
                  "gaparray: count on codeword-free subsequence");
            }
            start[i] = B;
            continue;
          }
          start[i] = static_cast<u64>(i) * S + g[i];
          if (g[i] >= max_len || start[i] >= B || cnt[i] == 0) {
            throw std::runtime_error("gaparray: corrupt gap entry");
          }
          total += cnt[i];
        }
        if (total != nc) {
          throw std::runtime_error("gaparray: symbol count mismatch");
        }

        // --- Emit: the single payload walk (one thread per subsequence
        // on hardware; no inter-thread traffic). Each populated
        // subsequence must decode up to exactly the next populated one's
        // start (or the chunk's end): the chain check that catches forged
        // gaps/counts whose sums still balance.
        const std::span<const word_t> words = s.chunk_words_to_end(c);
        for (std::size_t i = 0; i < n_sub; ++i) {
          if (cnt[i] == 0) continue;
          if (!plan.segments.empty()) {
            plan.segments.back().expect_end = start[i];
          }
          plan.add(words, B, start[i], dst + offset[i], cnt[i], false, B);
        }
        decode_segments(table, plan, cancel);
        t.global_read(n_sub * 3, 1, simt::Pattern::kCoalesced);  // gap+count
        t.global_read((B + 7) / 8, 1, simt::Pattern::kCoalesced);
        t.global_write(nc, sizeof(Sym), simt::Pattern::kCoalesced);
        // One bit-serial walk over the payload plus the metadata scan —
        // versus the self-sync decoder's tentative + correction + emit
        // walks (≳3·B·32 ops on the same chunk).
        t.ops(B * 32 + nc * 2 + n_sub);

        simt::atomic_add(total_subseq, static_cast<u64>(n_sub));
      });

  if (stats) {
    stats->subsequences = total_subseq;
    stats->fallback_chunks = fallbacks;
  }
  return out;
}

template std::vector<u8> decode_gaparray<u8>(const EncodedStream&,
                                             const Codebook&, simt::MemTally*,
                                             GapArrayStats*,
                                             const CancelToken*);
template std::vector<u16> decode_gaparray<u16>(const EncodedStream&,
                                               const Codebook&,
                                               simt::MemTally*, GapArrayStats*,
                                               const CancelToken*);

}  // namespace parhuff
