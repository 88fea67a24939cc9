#pragma once
// Table-driven canonical decoding: the host decode core every decoder
// calls (docs/decode.md).
//
// The treeless First/Entry decoder consumes one bit per step. The paper's
// §IV-B2 canonization exists precisely to make the decoder state small
// enough to cache, and the k-bit lookup table here is that cache: 2^k
// packed u64 entries (k = 11: 16 KiB, L1-resident), one table per output
// symbol width. An entry holds every whole codeword of its window, up to
// six u8 or three u16 symbols, so one lookup emits them all. The
// canonical order makes the build a range fill: each codeword owns one
// contiguous block of windows, and the blocks of codewords of one length
// are copies of each other that differ in one symbol field.
//
// A table alone buys little on a modern core: each step is a dependent
// chain (position → word load → lookup → position), so one cursor is
// latency-bound. The core therefore decodes up to kDecodeLanes independent
// *segments* per thread in lockstep — a segment is a chunk's main stream,
// an overflow group, or a gap-array subsequence — so the chains of four
// cursors overlap.
//
// Fast path: while the two payload cells holding a cursor lie inside its
// backing span, the k-bit window lies inside the segment's bits, and at
// least 8 bytes of the output piece remain, a step is one load of those two
// cells, one lookup and one 8-byte store of the entry's symbols, with no
// per-symbol bounds check (each lane's window and slack are checked once
// per lookup). Piece and segment tails decode one symbol per lookup.
// Slow path: escapes (the window's first codeword is longer than k, or a
// prefix no code owns) and codewords that would run past the segment's
// bits go to decode_symbols, the bit-serial reference, which also detects
// corruption — so output and exception types match the bit-serial decoder
// on every input.

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/bitstream.hpp"
#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "util/types.hpp"

namespace parhuff {

/// Table width used by every production decode path, whatever the
/// codebook's max_len, chosen by measurement on the six paper datasets
/// (EXPERIMENTS.md): at 10 bits the six decode ~25% slower; 12 decodes
/// ~12% faster alone but doubles the table (32 KiB) and its build.
inline constexpr unsigned kDecodeTableBits = 11;

/// Independent segments one thread decodes in lockstep.
inline constexpr unsigned kDecodeLanes = 4;

/// A multi-symbol lookup table for one output symbol width. Entry w
/// describes the k-bit window w: every whole codeword it holds, up to
/// kMaxSymbols of them, decoded greedily from the window's first bit.
template <typename Sym>
class DecodeTable {
 public:
  /// Symbols one entry holds: 6 x u8 or 3 x u16 in its top 48 bits.
  static constexpr unsigned kMaxSymbols = 48 / (8 * sizeof(Sym));

  /// Builds a 2^k-entry table for `cb`. Throws std::invalid_argument for
  /// k == 0 or k > 20. `cb` must outlive the table.
  explicit DecodeTable(const Codebook& cb, unsigned k = kDecodeTableBits);

  [[nodiscard]] unsigned bits() const { return k_; }
  [[nodiscard]] std::size_t entries() const { return std::size_t{1} << k_; }
  [[nodiscard]] const Codebook& codebook() const { return cb_; }

  /// Packed u64 entry per k-bit window: bits 0-4 hold the bits its whole
  /// codewords consume (0: escape, the first codeword is not whole), bits
  /// 5-9 the first codeword's length, bits 10-13 the codeword count, and
  /// bits 16-63 the symbols, first symbol lowest.
  [[nodiscard]] const u64* data() const { return table_.get(); }

 private:
  const Codebook& cb_;
  unsigned k_;
  std::unique_ptr<u64[]> table_;  ///< not zeroed: the build writes all
};

extern template class DecodeTable<u8>;
extern template class DecodeTable<u16>;

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
void decode_segments(const DecodeTable<Sym>& table,
                     const SegmentPlan<Sym>& plan,
                     const CancelToken* cancel = nullptr);

extern template void decode_segments<u8>(const DecodeTable<u8>&,
                                         const SegmentPlan<u8>&,
                                         const CancelToken*);
extern template void decode_segments<u16>(const DecodeTable<u16>&,
                                          const SegmentPlan<u16>&,
                                          const CancelToken*);

}  // namespace parhuff
