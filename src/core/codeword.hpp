#pragma once
// Codeword value type and the merged cell whose append is the MERGE
// operation of §IV-C.

#include "util/types.hpp"

namespace parhuff {

/// A Huffman codeword: right-aligned numeric value + bit length.
/// len == 0 means "symbol absent from the codebook".
struct Codeword {
  u64 bits = 0;
  u8 len = 0;

  friend bool operator==(const Codeword&, const Codeword&) = default;
};

/// A merged run of codewords held in a fixed-width cell, as used by the
/// REDUCE-merge kernel. `Width` is the cell width in bits (32 in the
/// paper's configuration); a run whose length exceeds the width is
/// *breaking*.
template <unsigned Width>
struct MergedCell {
  static_assert(Width <= 64);
  u64 bits = 0;
  u16 len = 0;       ///< total bits; valid only when !breaking
  bool breaking = false;

  /// MERGE((a,l)_2k, (a,l)_2k+1) = (a_2k ⊕ a_2k+1, l_2k + l_2k+1): append
  /// the right cell's bits after this one's. Non-commutative; marks
  /// breaking on overflow or if either side is already breaking.
  void append(const MergedCell& right) {
    if (breaking || right.breaking ||
        static_cast<unsigned>(len) + right.len > Width) {
      breaking = true;
      return;
    }
    bits = (right.len == 64) ? right.bits : (bits << right.len) | right.bits;
    len = static_cast<u16>(len + right.len);
  }
};

}  // namespace parhuff
