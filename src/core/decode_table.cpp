#include "core/decode_table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/decode.hpp"

namespace parhuff {

DecodeTable::DecodeTable(const Codebook& cb, unsigned k) : cb_(cb) {
  k_ = std::min<unsigned>(k, std::max<unsigned>(cb.max_len, 1));
  if (k_ == 0) k_ = 1;
  if (k_ > 20) throw std::invalid_argument("DecodeTable: k too large");
  table_.assign(std::size_t{1} << k_, 0);

  // Every codeword of length <= k owns the 2^(k-len) table slots that
  // share its prefix; longer codewords, and prefixes no code owns, leave
  // their slots at 0 (escape). Symbols that do not fit the packed 24-bit
  // field escape too.
  for (u32 sym = 0; sym < cb.nbins && sym < (u32{1} << 24); ++sym) {
    const Codeword cw = cb.cw[sym];
    if (cw.len == 0 || cw.len > k_) continue;
    const std::size_t base =
        static_cast<std::size_t>(cw.bits << (k_ - cw.len));
    const std::size_t span = std::size_t{1} << (k_ - cw.len);
    std::fill_n(table_.begin() + static_cast<std::ptrdiff_t>(base), span,
                (sym << 8) | cw.len);
  }
}

namespace {

/// Lockstep steps between cancel polls: 4 lanes x 16 Ki = 64 Ki symbols.
constexpr std::size_t kPollSteps = std::size_t{1} << 14;
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
 public:
  LaneDecoder(const DecodeTable& table, const SegmentPlan<Sym>& plan,
              const CancelToken* cancel)
      : cb_(table.codebook()),
        tab_(table.data()),
        k_(table.bits()),
        recip_k_((u64{1} << 32) / k_),
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
  /// finish segments, decode tails bit-serially and load new segments.
  /// Returns false once the lane is idle and the plan is drained.
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
      } else if (l.pos < l.fast_end) {
        return true;
      } else {
        slow(l, l.left);  // segment tail
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

  /// Bit-serial fallback for the next `count` symbols of the lane's piece.
  void slow(Lane<Sym>& l, std::size_t count) {
    BitReader br(l.seg->words, l.seg->total_bits);
    br.seek(l.pos);
    decode_symbols(br, cb_, count, l.out);
    l.pos = br.position();
    l.out += count;
    l.left -= count;
  }

  /// One batch of lockstep steps over N ready lanes. The budget keeps every
  /// step of every lane inside its fast window, so the loop body carries no
  /// bounds check: each step consumes at most k bits.
  template <unsigned N>
  void step(Lane<Sym>* const* ready) {
    std::size_t budget = kPollSteps;
    u64 pos[N];
    Sym* out[N];
    const word_t* words[N];
    for (unsigned i = 0; i < N; ++i) {
      const Lane<Sym>& l = *ready[i];
      // Steps that stay below fast_end at k bits each: floor(room / k) + 1,
      // under-estimated by a reciprocal multiply (room is capped, so the
      // product fits in 64 bits).
      const u64 room = std::min<u64>(l.fast_end - 1 - l.pos, kPollSteps * k_);
      const auto steps = static_cast<std::size_t>((room * recip_k_) >> 32) + 1;
      budget = std::min({budget, l.left, steps});
      pos[i] = l.pos;
      out[i] = l.out;
      words[i] = l.seg->words.data();
    }
    const u32* tab = tab_;
    const unsigned shift = 64 - k_;
    u32 e[N];
    std::size_t s = 0;
    for (; s < budget; ++s) {
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
        escapes |= (e[i] & 0xFFu) == 0;
      }
      if (escapes) break;
      for (unsigned i = 0; i < N; ++i) {
        out[i][s] = static_cast<Sym>(e[i] >> 8);
        pos[i] += e[i] & 0xFFu;
      }
    }
    for (unsigned i = 0; i < N; ++i) {
      Lane<Sym>& l = *ready[i];
      l.pos = pos[i];
      l.out = out[i] + s;
      l.left -= s;
    }
    if (s < budget) {
      // Step s hit an escape in some lane: the others take their table
      // step, the escaping lanes decode one symbol bit-serially.
      for (unsigned i = 0; i < N; ++i) {
        Lane<Sym>& l = *ready[i];
        if ((e[i] & 0xFFu) == 0) {
          slow(l, 1);
        } else {
          *l.out++ = static_cast<Sym>(e[i] >> 8);
          l.pos += e[i] & 0xFFu;
          --l.left;
        }
      }
      ++s;
    }
    since_poll_ += s * N;
    if (cancel_ && since_poll_ >= kPollSymbols) {
      since_poll_ = 0;
      cancel_->check();
    }
  }

  const Codebook& cb_;
  const u32* tab_;
  unsigned k_;
  u64 recip_k_;  ///< floor(2^32 / k)
  const SegmentPlan<Sym>& plan_;
  const CancelToken* cancel_;
  std::size_t next_ = 0;
  std::size_t since_poll_ = 0;
};

}  // namespace

template <typename Sym>
void decode_segments(const DecodeTable& table, const SegmentPlan<Sym>& plan,
                     const CancelToken* cancel) {
  LaneDecoder<Sym>(table, plan, cancel).run();
}

template void decode_segments<u8>(const DecodeTable&, const SegmentPlan<u8>&,
                                  const CancelToken*);
template void decode_segments<u16>(const DecodeTable&,
                                   const SegmentPlan<u16>&,
                                   const CancelToken*);

}  // namespace parhuff
