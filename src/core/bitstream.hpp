#pragma once
// MSB-first bit stream primitives over 32-bit words.
//
// Conventions (used consistently by every encoder/decoder in parhuff):
//  * A codeword of length L is a right-aligned numeric value (its low L bits
//    hold the code; bit L-1 is emitted first).
//  * The stream packs bits into u32 cells from the most-significant bit
//    down, so concatenation of codewords is shift-and-or — the operation the
//    paper's REDUCE-merge performs in registers and SHUFFLE-merge performs
//    across cells.

#include <cassert>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/types.hpp"

namespace parhuff {

/// Payload cell type. The paper's kernels move uint32_t cells; breaking
/// statistics (Table II/V) are defined against this width.
using word_t = u32;
inline constexpr unsigned kWordBits = 32;

/// Number of word cells needed for `bits` bits.
[[nodiscard]] constexpr std::size_t words_for_bits(u64 bits) {
  return static_cast<std::size_t>((bits + kWordBits - 1) / kWordBits);
}

/// Append-only MSB-first bit writer.
class BitWriter {
 public:
  BitWriter() = default;
  explicit BitWriter(std::vector<word_t>& sink) : out_(&sink) {}

  /// Append the low `len` bits of `value` (MSB of those first). len <= 58.
  void put(u64 value, unsigned len) {
    assert(len <= kMaxCodeLen);
    if (len == 0) return;
    value &= (len >= 64 ? ~u64{0} : ((u64{1} << len) - 1));
    unsigned remaining = len;
    while (remaining > 0) {
      const unsigned room = kWordBits - fill_;
      const unsigned take = remaining < room ? remaining : room;
      const u64 chunk = value >> (remaining - take);  // top `take` bits
      cur_ |= static_cast<word_t>(chunk << (room - take));
      fill_ += take;
      remaining -= take;
      if (fill_ == kWordBits) flush_word();
    }
    bits_ += len;
  }

  /// Total bits written so far.
  [[nodiscard]] u64 bits() const { return bits_; }

  /// Flush the trailing partial word (zero-padded) and return the buffer.
  /// The writer is left empty.
  std::vector<word_t> finish() {
    if (fill_ > 0) flush_word();
    std::vector<word_t> r;
    if (out_ == nullptr) {
      r = std::move(own_);
      own_.clear();
    }
    // (with an external sink the caller keeps the buffer; r stays empty)
    bits_ = 0;
    return r;
  }

  /// Flush the trailing partial word into the external sink.
  void finish_into_sink() {
    if (fill_ > 0) flush_word();
  }

 private:
  void flush_word() {
    sink().push_back(cur_);
    cur_ = 0;
    fill_ = 0;
  }
  std::vector<word_t>& sink() { return out_ ? *out_ : own_; }

  std::vector<word_t>* out_ = nullptr;
  std::vector<word_t> own_;
  word_t cur_ = 0;
  unsigned fill_ = 0;
  u64 bits_ = 0;
};

/// MSB-first writer into caller-sized cells through a 64-bit accumulator:
/// each put shifts the value in and stores a cell whenever 32 bits are
/// pending. The encoders size the destination first (chunk bit counts, or
/// the reduce/shuffle bound of one cell per group), so there is no growth
/// check and no per-bit loop.
class CellWriter {
 public:
  explicit CellWriter(word_t* out) : out_(out) {}

  /// Append `value`, which must fit in its low `len` bits
  /// (1 <= len <= 32). The current cell is stored on every call, complete
  /// or not, and the cursor moves only when it is complete: no branch.
  /// That store stays inside the writer's extent because a put of at least
  /// one bit leaves the current cell holding output.
  void put32(u64 value, unsigned len) {
    assert(len >= 1 && len <= kWordBits &&
           (len == kWordBits || value >> len == 0));
    acc_ = (acc_ << len) | value;
    fill_ += len;
    const unsigned full = fill_ >= kWordBits ? 1 : 0;
    fill_ -= full * kWordBits;
    *out_ = static_cast<word_t>(acc_ >> fill_);
    out_ += full;
  }

  /// Append `value`, which must fit in its low `len` bits (1 <= len <= 64).
  void put(u64 value, unsigned len) {
    if (len > kWordBits) {
      put32(value >> kWordBits, len - kWordBits);
      put32(value & 0xFFFFFFFFu, kWordBits);
    } else {
      put32(value, len);
    }
  }

  /// Store the trailing partial cell, zero-padded; returns one past the
  /// last cell written.
  word_t* finish() {
    if (fill_ > 0) {
      *out_++ = static_cast<word_t>(acc_ << (kWordBits - fill_));
      fill_ = 0;
    }
    return out_;
  }

 private:
  word_t* out_;
  u64 acc_ = 0;
  unsigned fill_ = 0;  // pending bits in the low end of acc_, < 32
};

/// MSB-first bit reader over a word span.
///
/// Bounds are enforced, not asserted: decoders run over attacker-supplied
/// containers, and NDEBUG builds (the default CMAKE_BUILD_TYPE is Release)
/// compile asserts away. The constructor rejects a bit count the span
/// cannot back — which also closes the words_for_bits() wrap route, where
/// a near-2^64 bit count maps to 0 cells — and every advancing accessor
/// throws instead of reading out of bounds.
class BitReader {
 public:
  BitReader(std::span<const word_t> words, u64 total_bits)
      : words_(words), total_bits_(total_bits) {
    if (total_bits > static_cast<u64>(words.size()) * kWordBits) {
      throw std::out_of_range(
          "BitReader: bit count exceeds the backing span");
    }
  }

  /// Next single bit (0/1). Throws std::out_of_range past the end.
  [[nodiscard]] unsigned bit() {
    if (pos_ >= total_bits_) {
      throw std::out_of_range("BitReader: read past end of stream");
    }
    const std::size_t w = static_cast<std::size_t>(pos_ / kWordBits);
    const unsigned off = static_cast<unsigned>(pos_ % kWordBits);
    ++pos_;
    return (words_[w] >> (kWordBits - 1 - off)) & 1u;
  }

  /// Next `len` bits as a right-aligned value (len <= 58).
  [[nodiscard]] u64 take(unsigned len) {
    u64 v = 0;
    for (unsigned i = 0; i < len; ++i) v = (v << 1) | bit();
    return v;
  }

  /// Next `len` bits without advancing (len <= 57). Bits beyond the end of
  /// the stream read as zero, so table-driven decoders can peek a full
  /// window near the tail. Word-granular: at most three cell reads.
  [[nodiscard]] u64 peek(unsigned len) const {
    u64 v = 0;
    unsigned got = 0;
    u64 p = pos_;
    while (got < len && p < total_bits_) {
      const std::size_t w = static_cast<std::size_t>(p / kWordBits);
      const unsigned off = static_cast<unsigned>(p % kWordBits);
      unsigned take = kWordBits - off;
      if (take > len - got) take = len - got;
      if (static_cast<u64>(take) > total_bits_ - p) {
        take = static_cast<unsigned>(total_bits_ - p);
      }
      // Top `take` bits of the cell after skipping `off` bits.
      const u64 chunk =
          (static_cast<u64>(words_[w]) << (kWordBits + off)) >> (64 - take);
      v = (v << take) | chunk;
      got += take;
      p += take;
    }
    if (got < len) v <<= (len - got);  // zero padding past the end
    return v;
  }

  /// Advance by `n` bits. Throws std::out_of_range when n > remaining()
  /// (the subtraction form avoids the pos_ + n overflow a forged length
  /// field could provoke).
  void skip(u64 n) {
    if (n > total_bits_ - pos_) {
      throw std::out_of_range("BitReader: skip past end of stream");
    }
    pos_ += n;
  }

  [[nodiscard]] u64 position() const { return pos_; }
  [[nodiscard]] u64 total_bits() const { return total_bits_; }
  [[nodiscard]] u64 remaining() const { return total_bits_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= total_bits_; }

  void seek(u64 bit_pos) {
    if (bit_pos > total_bits_) {
      throw std::out_of_range("BitReader: seek past end of stream");
    }
    pos_ = bit_pos;
  }

 private:
  std::span<const word_t> words_;
  u64 total_bits_;
  u64 pos_ = 0;
};

/// Append `src_bits` bits from `src` cells onto a destination cell buffer
/// whose current length is `dst_bits`. This is the two-step batch move of
/// Fig. 2: for each source cell, the first `32 - dst_bits%32` bits fill the
/// residual of the last partial destination cell, and the remainder lands
/// left-shifted in the next cell. `dst` must have capacity for
/// words_for_bits(dst_bits + src_bits) cells, and cells at/after the write
/// frontier must be zero.
inline void append_bits(word_t* dst, u64 dst_bits, const word_t* src,
                        u64 src_bits) {
  if (src_bits == 0) return;
  const unsigned off = static_cast<unsigned>(dst_bits % kWordBits);
  std::size_t d = static_cast<std::size_t>(dst_bits / kWordBits);
  const std::size_t src_words = words_for_bits(src_bits);
  if (off == 0) {
    for (std::size_t s = 0; s < src_words; ++s) dst[d + s] = src[s];
    return;
  }
  const std::size_t end_word = words_for_bits(dst_bits + src_bits);
  for (std::size_t s = 0; s < src_words; ++s) {
    const word_t v = src[s];
    dst[d + s] |= v >> off;
    // The spill into the following cell is skipped when it would land wholly
    // beyond the final bit count — src's zero padding guarantees it is zero.
    if (d + s + 1 < end_word) {
      dst[d + s + 1] = static_cast<word_t>(static_cast<u64>(v)
                                           << (kWordBits - off));
    }
  }
}

}  // namespace parhuff
