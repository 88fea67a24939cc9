#pragma once
// Chunked encoded-stream representation shared by all encoders.
//
// The input is split into chunks of 2^M symbols (coarse-grained chunking,
// §III-A: chunks map to thread blocks and make decoding parallel). Each
// chunk's bitstream is stored word-aligned at chunk_word_offset[c]; the
// per-chunk bit lengths are the "blockwise code len" array whose prefix sum
// places chunks ("coalescing copy" stage).
//
// The REDUCE-merge encoder adds an overflow section: groups of 2^r symbols
// whose merged codeword exceeded the cell width ("breaking points", §IV-C)
// are re-encoded into a side bitstream and indexed sparsely.
//
// Optionally a stream carries gap-array decode metadata (Rivera et al.,
// "Optimizing Huffman Decoding for Error-Bounded Lossy Compression on
// GPUs"): each chunk's bitstream is cut into fixed S-bit subsequences and
// the encoder records, per subsequence, the bit distance from the
// subsequence boundary to the first codeword boundary at/after it (the
// "gap") plus the number of codewords starting inside it. With both, every
// subsequence's decode start AND output offset are known up front, so a
// fully parallel per-chunk decode needs no synchronization passes at all
// (core/decode_gaparray.hpp). The metadata is an optional, versioned
// container field — streams without it decode exactly as before.

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/bitstream.hpp"
#include "util/types.hpp"

namespace parhuff {

struct OverflowEntry {
  u32 chunk = 0;      ///< chunk index
  u32 group = 0;      ///< reduce-group index within the chunk
  u64 bit_offset = 0; ///< start bit within overflow_payload
  u32 bit_len = 0;
  u32 n_symbols = 0;  ///< symbols in the group (2^r, partial at the tail)
};

struct EncodedStream {
  u32 chunk_symbols = 0;   ///< N = 2^M symbols per chunk (last may be short)
  std::size_t n_symbols = 0;

  std::vector<word_t> payload;
  std::vector<u64> chunk_bits;         ///< main-stream bits per chunk
  std::vector<u64> chunk_word_offset;  ///< payload word index per chunk

  /// Reduce factor r used by the reduce/shuffle encoder (0 for the
  /// baseline encoders — no grouping, no overflow possible).
  u32 reduce_factor = 0;
  /// Per-chunk reduce factors from the adaptive encoder (the paper's §VII
  /// future-work extension). Empty → uniform reduce_factor everywhere.
  std::vector<u8> chunk_reduce;
  std::vector<word_t> overflow_payload;
  u64 overflow_bits = 0;
  /// Strictly ascending by (chunk, group); each entry covers one whole
  /// group (overflow_entry_fits).
  std::vector<OverflowEntry> overflow;

  /// Sentinel gap value: no codeword starts inside this subsequence (only
  /// possible in a short tail subsequence, or throughout overflow-bearing
  /// chunks, which the gap-array decoder skips).
  static constexpr u8 kNoGap = 0xFF;

  /// Gap-array metadata (annotate_gaps). 0 → absent. When set, `gaps` and
  /// `gap_counts` hold one entry per S-bit subsequence, concatenated in
  /// chunk order: gaps[i] is the bit distance from the subsequence boundary
  /// to the first codeword starting at/after it (kNoGap sentinel when
  /// none), gap_counts[i] the number of codewords starting inside it.
  u32 gap_subseq_bits = 0;
  std::vector<u8> gaps;
  std::vector<u16> gap_counts;

  [[nodiscard]] bool has_gaps() const { return gap_subseq_bits != 0; }

  /// RLE/sparsification side channel (cuSZ+-style, src/lossy/fused.hpp):
  /// long runs of one dominant symbol (the lossy quantizer's
  /// perfect-prediction code) are extracted *before* Huffman, so the
  /// encoded stream holds only the residual symbols. `rle_orig_symbols` is
  /// the pre-extraction symbol count (0 → no RLE, the stream is the whole
  /// payload); `rle_run_pos[k]` is the original-stream index where a run
  /// of `rle_run_len[k]` copies of `rle_symbol` was removed. Runs are
  /// ascending and non-overlapping, and sum(rle_run_len) + n_symbols ==
  /// rle_orig_symbols — enforced when the metadata is deserialized
  /// (format.cpp) and again by rle_expand (core/rle.hpp). Carried as the
  /// checksummed optional container field "RLE1" under the same evolution
  /// rules as the gap metadata above.
  u32 rle_symbol = 0;
  u64 rle_orig_symbols = 0;
  std::vector<u64> rle_run_pos;
  std::vector<u32> rle_run_len;

  [[nodiscard]] bool has_rle() const { return rle_orig_symbols != 0; }

  /// Subsequences of chunk `c` under the stream's gap granularity.
  [[nodiscard]] std::size_t gap_subsequences(std::size_t c) const {
    if (gap_subseq_bits == 0 || chunk_bits[c] == 0) return 0;
    return static_cast<std::size_t>(
        (chunk_bits[c] + gap_subseq_bits - 1) / gap_subseq_bits);
  }

  [[nodiscard]] std::size_t chunks() const { return chunk_bits.size(); }

  [[nodiscard]] u64 total_payload_bits() const {
    u64 t = 0;
    for (u64 b : chunk_bits) t += b;
    return t + overflow_bits;
  }

  /// Compressed size in bytes as stored (word-aligned chunks + overflow +
  /// per-chunk metadata).
  [[nodiscard]] std::size_t stored_bytes() const {
    return payload.size() * sizeof(word_t) +
           overflow_payload.size() * sizeof(word_t) +
           chunk_bits.size() * sizeof(u64) +
           overflow.size() * sizeof(OverflowEntry) + gaps.size() * sizeof(u8) +
           gap_counts.size() * sizeof(u16) + rle_run_pos.size() * sizeof(u64) +
           rle_run_len.size() * sizeof(u32);
  }

  /// Fraction of symbols living in breaking groups.
  [[nodiscard]] double breaking_fraction() const {
    if (n_symbols == 0) return 0.0;
    u64 broken = 0;
    for (const auto& e : overflow) broken += e.n_symbols;
    return static_cast<double>(broken) / static_cast<double>(n_symbols);
  }

  /// Reduce-group size (symbols) in chunk `c`; 0 when no grouping is used.
  [[nodiscard]] std::size_t group_symbols(std::size_t c) const {
    const u32 r =
        c < chunk_reduce.size() ? chunk_reduce[c] : reduce_factor;
    return r > 0 ? (std::size_t{1} << r) : 0;
  }

  /// Number of symbols in chunk `c`.
  [[nodiscard]] std::size_t chunk_size(std::size_t c) const {
    const std::size_t begin = c * chunk_symbols;
    const std::size_t end = begin + chunk_symbols;
    return (end <= n_symbols ? end : n_symbols) - begin;
  }

  /// Payload cells of chunk `c`'s main stream (chunk_bits[c] bits). Throws
  /// std::out_of_range when the chunk's claimed extent does not fit inside
  /// payload — a deserialized stream is untrusted until every chunk passes
  /// this (and words_for_bits() alone cannot be trusted: near-2^64 bit
  /// counts wrap it to 0 words, which is why the check is against the bit
  /// count).
  [[nodiscard]] std::span<const word_t> chunk_words(std::size_t c) const {
    if (c >= chunk_bits.size() || c >= chunk_word_offset.size()) {
      throw std::out_of_range("EncodedStream: chunk index out of range");
    }
    const std::size_t w0 = static_cast<std::size_t>(chunk_word_offset[c]);
    const u64 bits = chunk_bits[c];
    if (w0 > payload.size() ||
        bits > static_cast<u64>(payload.size() - w0) * kWordBits) {
      throw std::out_of_range(
          "EncodedStream: chunk extent exceeds payload");
    }
    return {payload.data() + w0, words_for_bits(bits)};
  }

  /// Payload cells from chunk `c`'s first cell to the end of the payload
  /// (same checks as chunk_words). A decoder reading chunk_bits[c] bits
  /// from here may load whole windows past the chunk's last cell.
  [[nodiscard]] std::span<const word_t> chunk_words_to_end(
      std::size_t c) const {
    const word_t* first = chunk_words(c).data();
    return {first, payload.data() + payload.size()};
  }

  /// Bit reader over chunk `c`'s main stream (same checks as chunk_words).
  [[nodiscard]] BitReader chunk_reader(std::size_t c) const {
    return BitReader(chunk_words(c), chunk_bits[c]);
  }

  /// True when `e` names one whole reduce group of its chunk: the chunk
  /// groups symbols (reduce factor 1..31), the group starts inside the
  /// chunk, and n_symbols is exactly that group's size — 2^r, or the short
  /// remainder at the chunk's tail. Checked when a container is parsed and
  /// again by the decoders' chunk walk: a forged count would otherwise
  /// steer symbols past the chunk's output.
  [[nodiscard]] bool overflow_entry_fits(const OverflowEntry& e) const {
    if (e.chunk >= chunks()) return false;
    const u32 r = e.chunk < chunk_reduce.size() ? chunk_reduce[e.chunk]
                                                : reduce_factor;
    if (r == 0 || r > 31) return false;
    const u64 group = u64{1} << r;
    const u64 begin = static_cast<u64>(e.group) * group;
    const u64 nc = chunk_size(e.chunk);
    return begin < nc && e.n_symbols == std::min(group, nc - begin);
  }
};

/// Lay out per-chunk word offsets from chunk bit lengths (exclusive prefix
/// sum of word counts) and return the total words.
[[nodiscard]] std::size_t layout_chunks(EncodedStream& s);

}  // namespace parhuff
