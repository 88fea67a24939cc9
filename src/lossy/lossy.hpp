#pragma once
// Error-bounded lossy floating-point compression — the cuSZ-style system
// the paper's Huffman encoder was built for (§I: SZ/cuSZ pipelines are
// "prediction + error-bounded quantization + Huffman", and the encoder
// evaluated here is the cuSZ stage-4 replacement).
//
// Pipeline: dual quantization (each value rounded to integer quanta of
// 2·eb, then 3-D Lorenzo prediction over the quanta; 2^k bins, code 0 =
// outlier) → parhuff Huffman encoding of the code stream → a
// self-contained "PHL3" container holding dims/eb/anchor/outliers/
// codebook/payload. The compressor is the fused one-pass form in
// lossy/fused.hpp; this header holds what a reader needs. Decompression
// inverts each stage; |out - in| <= eb holds elementwise (outliers are
// exact).

#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "data/quant.hpp"
#include "util/types.hpp"

namespace parhuff::lossy {

struct Field {
  data::Dims dims;
  double error_bound = 0;
  std::vector<float> values;
};

/// Inverse of compress_field_fused (lossy/fused.hpp): reads one PHL3
/// container, or one PHL2 container of the float-walk compressor that
/// preceded it. Throws std::runtime_error on malformed input (any other
/// magic fails with "bad magic"). `cancel` is polled inside the decode and
/// reconstruct walks.
[[nodiscard]] Field decompress_field(std::span<const u8> bytes,
                                     const CancelToken* cancel = nullptr);

}  // namespace parhuff::lossy
