#include "core/decode_table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/decode.hpp"

namespace parhuff {

namespace {

// Entry fields (DecodeTable::data()).
constexpr unsigned kLenShift = 5;
constexpr unsigned kCountShift = 10;
constexpr unsigned kSymShift = 16;
constexpr u64 kFieldMask = 0x1F;

constexpr unsigned entry_bits(u64 e) {
  return static_cast<unsigned>(e & kFieldMask);
}
constexpr unsigned entry_first_len(u64 e) {
  return static_cast<unsigned>((e >> kLenShift) & kFieldMask);
}
constexpr unsigned entry_count(u64 e) {
  return static_cast<unsigned>((e >> kCountShift) & 0xF);
}

/// The codewords of one length L <= k: canonical values first .. first +
/// count - 1, symbols sym[0 .. count) as the decoder stores them.
struct LengthLevel {
  unsigned len;
  u64 first;
  std::size_t count;
  const u64* sym;
};

/// Range-fill builder. Windows [base, base + 2^r) share their first k - r
/// bits, which decode to the whole codewords already packed in `e`. In
/// canonical order the codewords that fit in the remaining r bits own
/// ascending, disjoint blocks of that range; the gaps between blocks
/// (prefixes of longer codes, or unowned) keep `e`. Each block's entries
/// are `e` plus that codeword plus the entries of the bits after it, so
/// only the first block of a length recurses: its siblings differ from it
/// only in one symbol field, and are copies of it with that field moved.
/// Every entry is written once.
template <typename Sym>
class Builder {
  static constexpr unsigned kSymBits = 8 * sizeof(Sym);

 public:
  Builder(const Codebook& cb, unsigned k, u64* tab) : tab_(tab) {
    // sorted_syms is in canonical order: length L's symbols start at
    // entry[L].
    const unsigned top = std::min(k, cb.max_len);
    const std::size_t fit = top == 0 ? 0 : cb.entry[top + 1];
    for (std::size_t i = 0; i < fit; ++i) {
      syms_.push_back(static_cast<Sym>(cb.sorted_syms[i]));
    }
    for (unsigned len = 1; len <= top; ++len) {
      if (cb.count[len] == 0) continue;
      levels_.push_back(LengthLevel{len, cb.first[len], cb.count[len],
                                    syms_.data() + cb.entry[len]});
    }
    fill(0, k, 0);
  }

 private:
  void fill(std::size_t base, unsigned r, u64 e) {
    std::size_t at = base;
    const unsigned n = entry_count(e);
    if (n < DecodeTable<Sym>::kMaxSymbols) {
      const unsigned shift = kSymShift + n * kSymBits;
      for (const LengthLevel& lv : levels_) {
        if (lv.len > r) break;
        const unsigned rest = r - lv.len;
        const std::size_t block = std::size_t{1} << rest;
        const std::size_t lo =
            base + static_cast<std::size_t>(lv.first << rest);
        std::fill(tab_ + at, tab_ + lo, e);
        u64 child =
            e + lv.len + (u64{1} << kCountShift) + (lv.sym[0] << shift);
        if (n == 0) child |= u64{lv.len} << kLenShift;
        fill(lo, rest, child);
        for (std::size_t j = 1; j < lv.count; ++j) {
          const u64 delta = (lv.sym[j] - lv.sym[0]) << shift;
          std::transform(tab_ + lo, tab_ + lo + block, tab_ + lo + j * block,
                         [delta](u64 x) { return x + delta; });
        }
        at = lo + lv.count * block;
      }
    }
    std::fill(tab_ + at, tab_ + base + (std::size_t{1} << r), e);
  }

  u64* tab_;
  std::vector<u64> syms_;
  std::vector<LengthLevel> levels_;
};

}  // namespace

template <typename Sym>
DecodeTable<Sym>::DecodeTable(const Codebook& cb, unsigned k)
    : cb_(cb), k_(k) {
  if (k_ == 0 || k_ > 20) {
    throw std::invalid_argument("DecodeTable: k must be in [1, 20]");
  }
  table_ = std::make_unique_for_overwrite<u64[]>(entries());
  Builder<Sym>(cb, k_, table_.get());
}

namespace {

/// Decoded symbols between cancel polls (docs/decode.md).
constexpr std::size_t kPollSymbols = std::size_t{1} << 16;

/// A cursor over its current segment, plus the output piece it fills.
template <typename Sym>
struct Lane {
  const DecodeSegment* seg = nullptr;  ///< nullptr: idle
  u64 pos = 0;
  u64 fast_end = 0;  ///< fast steps may start at any pos < fast_end
  Sym* out = nullptr;
  std::size_t left = 0;   ///< symbols left in the current piece
  std::size_t piece = 0;  ///< next piece of the segment
};

template <typename Sym>
class LaneDecoder {
  static constexpr unsigned kMaxSymbols = DecodeTable<Sym>::kMaxSymbols;
  /// Symbols one 8-byte store writes; a fast step needs that many left in
  /// its piece, so no store reaches past the piece.
  static constexpr std::size_t kStoreSymbols = 8 / sizeof(Sym);
  /// Lockstep steps per batch: at most kPollSymbols symbols over all lanes.
  static constexpr std::size_t kPollSteps =
      kPollSymbols / (kDecodeLanes * kMaxSymbols);

 public:
  LaneDecoder(const DecodeTable<Sym>& table, const SegmentPlan<Sym>& plan,
              const CancelToken* cancel)
      : cb_(table.codebook()),
        tab_(table.data()),
        k_(table.bits()),
        plan_(plan),
        cancel_(cancel) {}

  void run() {
    Lane<Sym> lanes[kDecodeLanes];
    for (;;) {
      Lane<Sym>* ready[kDecodeLanes];
      unsigned n = 0;
      for (Lane<Sym>& l : lanes) {
        if (service(l)) ready[n++] = &l;
      }
      // Fewer ready lanes than kDecodeLanes only once the plan is drained.
      switch (n) {
        case 0: return;
        case 1: step<1>(ready); break;
        case 2: step<2>(ready); break;
        case 3: step<3>(ready); break;
        default: step<kDecodeLanes>(ready); break;
      }
    }
  }

 private:
  /// Bring `l` to a state where a fast step is possible: advance pieces,
  /// finish segments, decode tails and load new segments. Returns false
  /// once the lane is idle and the plan is drained.
  bool service(Lane<Sym>& l) {
    for (;;) {
      if (l.seg == nullptr) {
        if (next_ == plan_.segments.size()) return false;
        start(l, plan_.segments[next_++]);
      } else if (l.left == 0) {
        if (l.piece < l.seg->end_piece) {
          const OutputPiece<Sym>& p = plan_.pieces[l.piece++];
          l.out = p.out;
          l.left = p.count;
        } else {
          finish(l);
        }
      } else if (l.pos < l.fast_end && l.left >= kStoreSymbols) {
        return true;
      } else {
        tail(l);
      }
    }
  }

  void start(Lane<Sym>& l, const DecodeSegment& seg) {
    if (seg.poll && cancel_) cancel_->check();
    if (seg.total_bits > static_cast<u64>(seg.words.size()) * kWordBits) {
      throw std::out_of_range("decode: segment exceeds its backing span");
    }
    l.seg = &seg;
    l.pos = seg.start;
    l.piece = seg.first_piece;
    l.left = 0;
    // The two-word window at pos needs word pos/32 + 1 inside the span;
    // the k-bit window needs pos + k <= total_bits.
    const u64 span_bits = static_cast<u64>(seg.words.size()) * kWordBits;
    const u64 by_span = span_bits >= 2 * kWordBits ? span_bits - kWordBits : 0;
    const u64 by_bits = seg.total_bits >= k_ ? seg.total_bits - k_ + 1 : 0;
    l.fast_end = std::min(by_span, by_bits);
  }

  void finish(Lane<Sym>& l) {
    if (l.seg->expect_end != DecodeSegment::kAnyEnd &&
        l.pos != l.seg->expect_end) {
      throw std::runtime_error(
          "decode: segment does not chain to its successor");
    }
    l.seg = nullptr;
  }

  /// Bit-serial fallback for the next symbol of the lane's piece.
  void slow(Lane<Sym>& l) {
    BitReader br(l.seg->words, l.seg->total_bits);
    br.seek(l.pos);
    decode_symbols(br, cb_, 1, l.out);
    l.pos = br.position();
    ++l.out;
    --l.left;
  }

  /// The rest of the lane's piece, one symbol per lookup from the entry's
  /// first-codeword fields: a piece tail shorter than one store, or a
  /// segment tail whose window crosses total_bits or the span. Escapes, and
  /// codewords that would run past total_bits, go bit-serial.
  void tail(Lane<Sym>& l) {
    const DecodeSegment& seg = *l.seg;
    const std::size_t nwords = seg.words.size();
    since_poll_ += l.left;
    while (l.left > 0) {
      if (l.pos < seg.total_bits) {
        const std::size_t w = static_cast<std::size_t>(l.pos / kWordBits);
        const u64 cells = u64{seg.words[w]} << kWordBits |
                          (w + 1 < nwords ? seg.words[w + 1] : 0);
        const u64 e = tab_[(cells << (l.pos % kWordBits)) >> (64 - k_)];
        const unsigned len = entry_first_len(e);
        if (len != 0 && l.pos + len <= seg.total_bits) {
          *l.out++ = static_cast<Sym>(e >> kSymShift);
          l.pos += len;
          --l.left;
          continue;
        }
      }
      slow(l);
    }
  }

  /// Write every symbol of entry `e` at `out` with one 8-byte store.
  static void store(Sym* out, u64 e) {
    const u64 syms = e >> kSymShift;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &syms, sizeof(syms));
    } else {
      for (unsigned j = 0; j < kMaxSymbols; ++j) {
        out[j] = static_cast<Sym>(syms >> (j * 8 * sizeof(Sym)));
      }
    }
  }

  /// One batch of lockstep steps over N ready lanes. A step stores every
  /// whole codeword of the lane's k-bit window. After each step every lane
  /// is checked against its fast window and its store slack; the batch
  /// ends when a lane leaves either, or when a lane's window escapes.
  template <unsigned N>
  void step(Lane<Sym>* const* ready) {
    u64 pos[N];
    u64 end[N];
    Sym* out[N];
    Sym* last[N];  ///< the last output position a store may start at
    const word_t* words[N];
    for (unsigned i = 0; i < N; ++i) {
      const Lane<Sym>& l = *ready[i];
      pos[i] = l.pos;
      end[i] = l.fast_end;
      out[i] = l.out;
      last[i] = l.out + (l.left - kStoreSymbols);
      words[i] = l.seg->words.data();
    }
    const u64* tab = tab_;
    const unsigned shift = 64 - k_;
    u64 e[N];
    bool escaped = false;
    for (std::size_t s = 0; s < kPollSteps; ++s) {
      unsigned escapes = 0;
      for (unsigned i = 0; i < N; ++i) {
        // The two cells holding pos, as one 64-bit load.
        u64 cells;
        std::memcpy(&cells, words[i] + pos[i] / kWordBits, sizeof(cells));
        if constexpr (std::endian::native == std::endian::little) {
          cells = std::rotl(cells, kWordBits);
        }
        const u64 window = cells << (pos[i] % kWordBits);
        e[i] = tab[window >> shift];
        escapes |= entry_bits(e[i]) == 0;
      }
      if (escapes) {
        escaped = true;
        break;
      }
      unsigned leaving = 0;
      for (unsigned i = 0; i < N; ++i) {
        store(out[i], e[i]);
        out[i] += entry_count(e[i]);
        pos[i] += entry_bits(e[i]);
        leaving |= (pos[i] >= end[i]) | (out[i] > last[i]);
      }
      if (leaving) break;
    }
    for (unsigned i = 0; i < N; ++i) {
      Lane<Sym>& l = *ready[i];
      const auto emitted = static_cast<std::size_t>(out[i] - l.out);
      since_poll_ += emitted;
      l.pos = pos[i];
      l.out = out[i];
      l.left -= emitted;
      // Every lane is still inside its fast window here; an escaping one
      // decodes its next symbol bit-serially.
      if (escaped && entry_bits(e[i]) == 0) {
        slow(l);
        ++since_poll_;
      }
    }
    if (cancel_ && since_poll_ >= kPollSymbols) {
      since_poll_ -= kPollSymbols;
      cancel_->check();
    }
  }

  const Codebook& cb_;
  const u64* tab_;
  unsigned k_;
  const SegmentPlan<Sym>& plan_;
  const CancelToken* cancel_;
  std::size_t next_ = 0;
  std::size_t since_poll_ = 0;
};

}  // namespace

template <typename Sym>
void decode_segments(const DecodeTable<Sym>& table,
                     const SegmentPlan<Sym>& plan,
                     const CancelToken* cancel) {
  LaneDecoder<Sym>(table, plan, cancel).run();
}

template class DecodeTable<u8>;
template class DecodeTable<u16>;
template void decode_segments<u8>(const DecodeTable<u8>&,
                                  const SegmentPlan<u8>&, const CancelToken*);
template void decode_segments<u16>(const DecodeTable<u16>&,
                                   const SegmentPlan<u16>&,
                                   const CancelToken*);

}  // namespace parhuff
