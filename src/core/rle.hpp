#pragma once
// Pre-Huffman run-length extraction for the fused lossy path (cuSZ+-style
// sparsification, src/lossy/fused.hpp). On smooth fields the Lorenzo
// quantizer emits the perfect-prediction code for the overwhelming
// majority of elements; Huffman already prices that code at 1 bit, so the
// remaining win is to pull *long runs* of it out of the stream entirely —
// 12 bytes of (pos, len) metadata instead of min_run+ bits — and Huffman
// only the residual. The extracted runs ride the container's checksummed
// "RLE1" optional field (core/format.hpp).
//
// RleAccumulator is the streaming half: the fused quantize loop push()es
// each row of codes as it is produced and the accumulator maintains the
// residual stream, the run table and the residual histogram in one pass —
// the full code buffer is never materialized. RleReader is the decode-side
// twin: the reconstruct walk pull()s each row back out of the residual and
// the run table. validate_rle() is the one definition of the run-table
// invariants, called by the container parser and by RleReader.

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/encoded.hpp"
#include "util/types.hpp"

namespace parhuff {

class RleAccumulator {
 public:
  /// `run_symbol` is the code whose runs are extracted; `min_run` the
  /// threshold below which a run stays inline (0 disables extraction —
  /// every code lands in the residual). `freq` (histogram over the
  /// residual stream, sized nbins) holds the residual's counts after
  /// finish().
  RleAccumulator(u16 run_symbol, u32 min_run, std::vector<u64>& freq)
      : run_symbol_(run_symbol),
        min_run_(min_run),
        freq_(freq),
        lanes_(kLanes * freq.size(), 0) {}

  /// Append a block of codes (one row of the fused pass). The block's
  /// leading run symbols extend the open run and its trailing ones open
  /// the next. Between them the block starts and ends with an inline code,
  /// so when it is at most min_run + 1 codes long no run fits inside and
  /// it goes to the residual whole, without a branch per code.
  void push(std::span<const u16> codes) {
    const u16* p = codes.data();
    const u16* const end = p + codes.size();
    if (min_run_ == 0) {
      append_inline(p, end);
      return;
    }
    const u16* s = p;
    while (p < end && *p == run_symbol_) ++p;
    extend_run(p - s);
    if (p == end) return;
    flush_pending(n_ - pending_);
    const u16* t = end;
    while (t[-1] == run_symbol_) --t;  // stops at p at the latest
    if (static_cast<u64>(t - p) <= u64{min_run_} + 1) {
      append_inline(p, t);
    } else {
      while (p < t) {
        s = p;
        while (p < t && *p != run_symbol_) ++p;
        append_inline(s, p);
        s = p;
        while (p < t && *p == run_symbol_) ++p;
        extend_run(p - s);
        flush_pending(n_ - pending_);
      }
    }
    extend_run(end - t);
  }

  /// Flush the trailing run and total the residual histogram. Guarantees
  /// a non-empty residual: a stream that was one giant run keeps its final
  /// symbol inline, so the Huffman stage always has at least one symbol
  /// (and the run-table invariant n_runs < orig_symbols holds).
  void finish() {
    if (pending_ > 0 && residual_.empty() && pending_ >= min_run_) {
      --pending_;
      flush_pending(n_ - 1 - pending_);
      residual_.push_back(run_symbol_);
      ++freq_[run_symbol_];
    } else {
      flush_pending(n_ - pending_);
    }
    const std::size_t w = freq_.size();
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (std::size_t sym = 0; sym < w; ++sym) {
        freq_[sym] += lanes_[lane * w + sym];
      }
    }
  }

  [[nodiscard]] std::vector<u16> take_residual() { return std::move(residual_); }
  [[nodiscard]] std::size_t runs() const { return run_pos_.size(); }
  [[nodiscard]] u64 run_symbols() const { return removed_; }

  /// Attach the finished run table to `s` (no-op when no run was
  /// extracted, keeping the container on the RLE-less layout).
  void annotate(EncodedStream& s) {
    if (run_pos_.empty()) return;
    s.rle_symbol = run_symbol_;
    s.rle_orig_symbols = n_;
    s.rle_run_pos = std::move(run_pos_);
    s.rle_run_len = std::move(run_len_);
  }

 private:
  void flush_pending(u64 start) {
    if (pending_ == 0) return;
    if (pending_ >= min_run_) {
      // A run can exceed the u32 length field; split it (adjacent runs are
      // legal — validation only requires non-overlap).
      u64 left = pending_;
      while (left > 0) {
        const u64 take = left > 0xFFFFFFFFull ? 0xFFFFFFFFull : left;
        run_pos_.push_back(start);
        run_len_.push_back(static_cast<u32>(take));
        start += take;
        left -= take;
      }
      removed_ += pending_;
    } else {
      residual_.insert(residual_.end(), static_cast<std::size_t>(pending_),
                       run_symbol_);
      freq_[run_symbol_] += pending_;
    }
    pending_ = 0;
  }

  void extend_run(std::ptrdiff_t len) {
    pending_ += static_cast<u64>(len);
    n_ += static_cast<u64>(len);
  }

  /// Codes [a, b) go to the residual. The histogram counts into kLanes
  /// interleaved copies, so equal neighbouring codes do not wait on each
  /// other's increment; a u32 lane holds any field's count (the fused
  /// path caps a field below 2^32 codes).
  void append_inline(const u16* a, const u16* b) {
    residual_.insert(residual_.end(), a, b);
    n_ += static_cast<u64>(b - a);
    const std::size_t w = freq_.size();
    u32* const lane = lanes_.data();
    for (; b - a >= static_cast<std::ptrdiff_t>(kLanes); a += kLanes) {
      ++lane[a[0]];
      ++lane[w + a[1]];
      ++lane[2 * w + a[2]];
      ++lane[3 * w + a[3]];
    }
    for (; a < b; ++a) ++lane[*a];
  }

  static constexpr std::size_t kLanes = 4;

  u16 run_symbol_;
  u32 min_run_;
  std::vector<u64>& freq_;
  std::vector<u32> lanes_;  ///< kLanes residual histograms, summed by finish()
  std::vector<u16> residual_;
  std::vector<u64> run_pos_;
  std::vector<u32> run_len_;
  u64 n_ = 0;        ///< codes pushed so far (original-stream length)
  u64 pending_ = 0;  ///< current open run of run_symbol_
  u64 removed_ = 0;  ///< symbols extracted into runs
};

/// Throws std::runtime_error unless `s`'s run table (has_rle()) holds the
/// invariants EncodedStream lists against `residual_symbols` codes.
void validate_rle(const EncodedStream& s, u64 residual_symbols);

/// The decode-side twin of RleAccumulator::push: pull()s the codes back out
/// of `residual` and `s`'s run table (both must outlive it). The run symbol
/// is checked below `nbins` once, each residual code as it is copied.
template <typename Sym>
class RleReader {
 public:
  /// Validates the run table and requires the original sequence to hold
  /// exactly `total` codes.
  RleReader(std::span<const Sym> residual, const EncodedStream& s, u32 nbins,
            u64 total)
      : in_(residual.data()),
        s_(s),
        nbins_(nbins),
        runs_(s.has_rle() ? s.rle_run_pos.size() : 0),
        orig_(s.has_rle() ? s.rle_orig_symbols : residual.size()) {
    if (s.has_rle()) {
      validate_rle(s, residual.size());
      if (s.rle_symbol >= nbins) {
        throw std::runtime_error("rle: run symbol out of range");
      }
    }
    if (orig_ != total) throw std::runtime_error("rle: code count mismatch");
  }

  /// The next out.size() codes; std::out_of_range past the end.
  void pull(std::span<u16> out) {
    if (out.size() > orig_ - at_) {
      throw std::out_of_range("rle: pull past the end of the codes");
    }
    for (std::size_t i = 0, n = 0; i < out.size(); i += n, at_ += n) {
      if (run_left_ == 0 && k_ < runs_ && at_ == s_.rle_run_pos[k_]) {
        run_left_ = s_.rle_run_len[k_++];
      }
      const u64 want = out.size() - i;
      if (run_left_ > 0) {
        n = std::min(run_left_, want);
        std::fill_n(out.data() + i, n, static_cast<u16>(s_.rle_symbol));
        run_left_ -= n;
        continue;
      }
      n = std::min((k_ < runs_ ? s_.rle_run_pos[k_] : orig_) - at_, want);
      Sym hi = 0;  // one maximum keeps the copy a straight loop
      for (std::size_t j = 0; j < n; ++j) {
        out[i + j] = in_[j];
        hi = std::max(hi, in_[j]);
      }
      if (hi >= nbins_) throw std::runtime_error("rle: code out of range");
      in_ += n;
    }
  }

 private:
  const Sym* in_;  ///< next residual code
  const EncodedStream& s_;
  u32 nbins_;
  std::size_t runs_;
  u64 orig_;           ///< length of the original sequence
  u64 at_ = 0;         ///< codes pulled so far
  u64 run_left_ = 0;   ///< codes left in the open run
  std::size_t k_ = 0;  ///< next run to open
};

}  // namespace parhuff
