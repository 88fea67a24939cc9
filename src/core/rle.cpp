#include "core/rle.hpp"

#include <stdexcept>

namespace parhuff {

void validate_rle(const EncodedStream& s, u64 residual_symbols) {
  const u64 orig = s.rle_orig_symbols;
  if (orig == 0) {
    throw std::runtime_error("parhuff container: rle with zero originals");
  }
  if (s.rle_run_pos.size() != s.rle_run_len.size()) {
    throw std::runtime_error("parhuff container: rle run table size mismatch");
  }
  // Every run removes >= 1 symbol and the residual stream is never empty
  // (the accumulator guarantees it), so the run count is below orig.
  if (s.rle_run_pos.size() >= orig) {
    throw std::runtime_error("parhuff container: rle run count range");
  }
  u64 removed = 0;
  u64 next_free = 0;  // first original index not covered by earlier runs
  for (std::size_t k = 0; k < s.rle_run_pos.size(); ++k) {
    const u64 pos = s.rle_run_pos[k];
    const u64 len = s.rle_run_len[k];
    if (len == 0) {
      throw std::runtime_error("parhuff container: rle zero-length run");
    }
    // Subtraction forms: pos + len could wrap for forged values near 2^64.
    if (pos < next_free || pos > orig || len > orig - pos) {
      throw std::runtime_error("parhuff container: rle run out of range");
    }
    next_free = pos + len;
    removed += len;
  }
  if (residual_symbols != orig - removed) {
    throw std::runtime_error("parhuff container: rle symbol-count mismatch");
  }
}

}  // namespace parhuff
