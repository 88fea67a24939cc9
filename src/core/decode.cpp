#include "core/decode.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace parhuff {

template <typename Sym>
void decode_symbols(BitReader& br, const Codebook& cb, std::size_t count,
                    Sym* out, const CancelToken* cancel) {
  const unsigned max_len = cb.max_len;
  for (std::size_t k = 0; k < count; ++k) {
    // Cooperative poll, every 64 Ki symbols and at entry (k == 0) — the
    // same stride as histogram_serial (core/cancel.hpp).
    if (cancel && (k & 0xFFFFu) == 0) cancel->check();
    u64 v = 0;
    unsigned l = 0;
    for (;;) {
      if (br.exhausted() || l >= max_len + 1) {
        throw std::runtime_error("decode: corrupt stream");
      }
      v = (v << 1) | br.bit();
      ++l;
      if (l <= max_len && cb.count[l] != 0 && v >= cb.first[l] &&
          v - cb.first[l] < cb.count[l]) {
        const u32 sym =
            cb.sorted_syms[cb.entry[l] + static_cast<u32>(v - cb.first[l])];
        out[k] = static_cast<Sym>(sym);
        break;
      }
    }
  }
}

std::vector<std::size_t> overflow_index(const EncodedStream& s) {
  const std::size_t chunks = s.chunks();
  const std::size_t n = s.overflow.size();
  std::vector<std::size_t> index(chunks + 1);
  std::size_t e = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    index[c] = e;
    for (; e < n && s.overflow[e].chunk == c; ++e) {
      if (e > index[c] && s.overflow[e].group <= s.overflow[e - 1].group) {
        break;
      }
    }
  }
  index[chunks] = e;
  if (e != n) throw std::runtime_error("decode: overflow entries out of order");
  return index;
}

template <typename Sym>
void plan_chunk(const EncodedStream& s, std::span<const std::size_t> index,
                std::size_t c, Sym* dst, SegmentPlan<Sym>& plan) {
  const std::size_t nc = s.chunk_size(c);
  const std::span<const word_t> words = s.chunk_words_to_end(c);
  const std::size_t e0 = index[c];
  const std::size_t e1 = index[c + 1];
  if (e0 == e1) {
    plan.add(words, s.chunk_bits[c], 0, dst, nc, /*poll=*/true);
    return;
  }
  // Main stream: one cursor whose output skips the overflow groups.
  DecodeSegment main{words, s.chunk_bits[c], 0, plan.pieces.size(), 0,
                     DecodeSegment::kAnyEnd, /*poll=*/true};
  const std::size_t group_syms = s.group_symbols(c);
  std::size_t i = 0;
  for (std::size_t e = e0; e < e1; ++e) {
    if (!s.overflow_entry_fits(s.overflow[e])) {
      throw std::runtime_error("decode: overflow entry is not a whole group");
    }
    // Entries ascend by group (overflow_index), so begin >= i.
    const std::size_t begin = s.overflow[e].group * group_syms;
    if (begin > i) plan.pieces.push_back({dst + i, begin - i});
    i = begin + s.overflow[e].n_symbols;
  }
  if (i < nc) plan.pieces.push_back({dst + i, nc - i});
  main.end_piece = plan.pieces.size();
  plan.segments.push_back(main);
  // Side stream: each overflow group decodes from its own offset.
  const std::span<const word_t> side(s.overflow_payload);
  for (std::size_t e = e0; e < e1; ++e) {
    const OverflowEntry& entry = s.overflow[e];
    plan.add(side, static_cast<u64>(side.size()) * kWordBits,
             entry.bit_offset, dst + entry.group * group_syms,
             entry.n_symbols);
  }
}

namespace {

/// Chunks one plan covers: enough segments to keep the lanes busy, small
/// enough that a plan stays in cache and threads share the work evenly.
constexpr std::size_t kPlanChunks = 64;

/// Decode chunks [c0, c1), chunk c's symbols landing at dst(c).
template <typename Sym, typename Dst>
void decode_chunks(const EncodedStream& s, const Codebook& cb,
                   std::size_t c0, std::size_t c1, Dst&& dst, int threads,
                   const CancelToken* cancel) {
  const std::vector<std::size_t> index = overflow_index(s);
  const DecodeTable table(cb);
  const std::size_t plans = (c1 - c0 + kPlanChunks - 1) / kPlanChunks;
  parallel_for(
      plans,
      [&](std::size_t p) {
        SegmentPlan<Sym> plan;
        const std::size_t lo = c0 + p * kPlanChunks;
        const std::size_t hi = std::min(lo + kPlanChunks, c1);
        for (std::size_t c = lo; c < hi; ++c) {
          plan_chunk(s, index, c, dst(c), plan);
        }
        decode_segments(table, plan, cancel);
      },
      threads);
}

}  // namespace

template <typename Sym>
std::vector<Sym> decode_stream(const EncodedStream& s, const Codebook& cb,
                               int threads, const CancelToken* cancel) {
  std::vector<Sym> out(s.n_symbols);
  if (s.n_symbols == 0) return out;
  decode_chunks<Sym>(
      s, cb, 0, s.chunks(),
      [&](std::size_t c) { return out.data() + c * s.chunk_symbols; },
      threads, cancel);
  return out;
}

template <typename Sym>
std::vector<Sym> decode_range(const EncodedStream& s, const Codebook& cb,
                              std::size_t first, std::size_t count,
                              int threads, const CancelToken* cancel) {
  if (first + count < first || first + count > s.n_symbols) {
    throw std::out_of_range("decode_range: range exceeds stream");
  }
  std::vector<Sym> out(count);
  if (count == 0) return out;
  const std::size_t last = first + count;
  const std::size_t c0 = first / s.chunk_symbols;
  const std::size_t c1 = (last - 1) / s.chunk_symbols;
  // Chunks wholly inside the range decode in place; a partial chunk at
  // either end decodes into scratch and contributes its slice. (Huffman
  // streams have no sub-chunk entry points.)
  const auto base = [&](std::size_t c) { return c * s.chunk_symbols; };
  const auto partial = [&](std::size_t c) {
    return base(c) < first || base(c) + s.chunk_size(c) > last;
  };
  std::vector<Sym> head(partial(c0) ? s.chunk_size(c0) : 0);
  std::vector<Sym> tail(c1 != c0 && partial(c1) ? s.chunk_size(c1) : 0);
  decode_chunks<Sym>(
      s, cb, c0, c1 + 1,
      [&](std::size_t c) {
        if (c == c0 && !head.empty()) return head.data();
        if (c == c1 && !tail.empty()) return tail.data();
        return out.data() + (base(c) - first);
      },
      threads, cancel);
  const auto copy_slice = [&](const std::vector<Sym>& scratch,
                              std::size_t c) {
    const std::size_t lo = std::max(first, base(c));
    const std::size_t hi = std::min(last, base(c) + scratch.size());
    std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lo - base(c)),
              scratch.begin() + static_cast<std::ptrdiff_t>(hi - base(c)),
              out.begin() + static_cast<std::ptrdiff_t>(lo - first));
  };
  if (!head.empty()) copy_slice(head, c0);
  if (!tail.empty()) copy_slice(tail, c1);
  return out;
}

template void decode_symbols<u8>(BitReader&, const Codebook&, std::size_t,
                                 u8*, const CancelToken*);
template void decode_symbols<u16>(BitReader&, const Codebook&, std::size_t,
                                  u16*, const CancelToken*);
template void plan_chunk<u8>(const EncodedStream&,
                             std::span<const std::size_t>, std::size_t, u8*,
                             SegmentPlan<u8>&);
template void plan_chunk<u16>(const EncodedStream&,
                              std::span<const std::size_t>, std::size_t, u16*,
                              SegmentPlan<u16>&);
template std::vector<u8> decode_stream<u8>(const EncodedStream&,
                                           const Codebook&, int,
                                           const CancelToken*);
template std::vector<u16> decode_stream<u16>(const EncodedStream&,
                                             const Codebook&, int,
                                             const CancelToken*);
template std::vector<u8> decode_range<u8>(const EncodedStream&,
                                          const Codebook&, std::size_t,
                                          std::size_t, int,
                                          const CancelToken*);
template std::vector<u16> decode_range<u16>(const EncodedStream&,
                                            const Codebook&, std::size_t,
                                            std::size_t, int,
                                            const CancelToken*);

}  // namespace parhuff
