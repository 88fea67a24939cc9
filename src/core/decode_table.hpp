#pragma once
// Table-driven canonical decoding: the host decode core every decoder
// calls (docs/decode.md).
//
// The treeless First/Entry decoder consumes one bit per step; a k-bit
// lookup table turns that into one probe per codeword for all codes of
// length <= k. The paper's §IV-B2 canonization exists precisely to make
// the decoder state small enough to cache, and this table is that cache:
// 2^k packed u32 entries (k = 11 → 8 KiB, L1-resident).
//
// A table alone buys little on a modern core: each step is a dependent
// chain (position → word load → lookup → position), so one cursor is
// latency-bound. The core therefore decodes up to kDecodeLanes independent
// *segments* per thread in lockstep — a segment is a chunk's main stream,
// an overflow group, or a gap-array subsequence — so the chains of four
// cursors overlap.
//
// Fast path: while the two payload cells holding a cursor lie inside its
// backing span and the k-bit window lies inside the segment's bits, a step
// is one load of those two cells and one lookup, with no per-symbol bounds
// check (a step budget is computed once per batch of steps). Slow path:
// escapes (codes longer than k, or prefixes no code owns) and segment
// tails go to decode_symbols, the bit-serial reference, which also detects
// corruption — so output and exception types match the bit-serial decoder
// on every input.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/bitstream.hpp"
#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "util/types.hpp"

namespace parhuff {

/// Table width used by every production decode path, chosen by
/// measurement on the six paper datasets (EXPERIMENTS.md): at 10 bits the
/// enwik streams escape often enough to decode ~25% slower, 12 was within
/// noise of 11, and 11 keeps the table at 8 KiB.
inline constexpr unsigned kDecodeTableBits = 11;

/// Independent segments one thread decodes in lockstep.
inline constexpr unsigned kDecodeLanes = 4;

class DecodeTable {
 public:
  /// Builds a 2^k-entry table for `cb`; k is clamped to max(max_len, 1).
  /// Throws std::invalid_argument for k > 20. `cb` must outlive the table.
  explicit DecodeTable(const Codebook& cb, unsigned k = kDecodeTableBits);

  [[nodiscard]] unsigned bits() const { return k_; }
  [[nodiscard]] std::size_t entries() const { return table_.size(); }
  [[nodiscard]] const Codebook& codebook() const { return cb_; }

  /// Packed entry for a k-bit window: symbol << 8 | code length, or 0
  /// (length 0) when the window needs the slow path.
  [[nodiscard]] const u32* data() const { return table_.data(); }

 private:
  const Codebook& cb_;
  unsigned k_;
  std::vector<u32> table_;
};

/// One run of a bit cursor. Decoding starts at bit `start` of `words`
/// (readable up to `total_bits`) and fills the plan's output pieces
/// [first_piece, end_piece) in order.
struct DecodeSegment {
  static constexpr u64 kAnyEnd = std::numeric_limits<u64>::max();

  std::span<const word_t> words;
  u64 total_bits = 0;
  u64 start = 0;
  std::size_t first_piece = 0;
  std::size_t end_piece = 0;
  /// When set, the cursor must stop exactly here (gap-array chain check);
  /// std::runtime_error otherwise.
  u64 expect_end = kAnyEnd;
  /// Poll the cancel token before the segment starts (set on the first
  /// segment of every chunk).
  bool poll = false;
};

/// A contiguous output destination of `count` symbols.
template <typename Sym>
struct OutputPiece {
  Sym* out;
  std::size_t count;
};

/// The decode work of some chunks: segments plus the output pieces they
/// fill. Built by the chunk → segment walk (plan_chunk, core/decode.hpp) or
/// directly by a decoder that knows its segment starts (gap-array,
/// self-sync emit).
template <typename Sym>
struct SegmentPlan {
  std::vector<DecodeSegment> segments;
  std::vector<OutputPiece<Sym>> pieces;

  /// Append a single-piece segment.
  void add(std::span<const word_t> words, u64 total_bits, u64 start,
           Sym* out, std::size_t count, bool poll = false,
           u64 expect_end = DecodeSegment::kAnyEnd) {
    segments.push_back(DecodeSegment{words, total_bits, start, pieces.size(),
                                     pieces.size() + 1, expect_end, poll});
    pieces.push_back(OutputPiece<Sym>{out, count});
  }
};

/// Decode every segment of `plan`, kDecodeLanes at a time in lockstep.
/// Throws std::runtime_error on a corrupt segment and OperationCancelled /
/// DeadlineExpired from a fired `cancel`, polled at every segment marked
/// `poll` and once per 64 Ki decoded symbols. Segments are independent, so
/// on a throw the output is unspecified.
template <typename Sym>
void decode_segments(const DecodeTable& table, const SegmentPlan<Sym>& plan,
                     const CancelToken* cancel = nullptr);

extern template void decode_segments<u8>(const DecodeTable&,
                                         const SegmentPlan<u8>&,
                                         const CancelToken*);
extern template void decode_segments<u16>(const DecodeTable&,
                                          const SegmentPlan<u16>&,
                                          const CancelToken*);

}  // namespace parhuff
