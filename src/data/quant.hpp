#pragma once
// Mini-SZ: the error-bounded lossy-compression front end that produces the
// paper's Nyx-Quant workload (quantization codes of SZ on Nyx's
// baryon_density field).
//
// This is a real, round-trippable implementation of SZ's classic pipeline
// piece: a 3-D Lorenzo predictor over *reconstructed* values and a linear
// error-bounded quantizer with 2^k bins centered on "perfect prediction".
// Codes that fall outside the bin range become outliers stored verbatim.
// The decompressed field is guaranteed within ±eb of the input (tested).
//
// The synthetic input field is a multi-scale cosmology-like density: smooth
// large-scale modes plus lognormal small-scale structure, tuned so the code
// histogram matches the paper's Nyx-Quant profile (≈1.03 average bits over
// 1024 bins).

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace parhuff::data {

struct Dims {
  std::size_t nx = 0, ny = 0, nz = 0;
  [[nodiscard]] std::size_t total() const { return nx * ny * nz; }
};

/// Synthetic baryon-density-like field.
[[nodiscard]] std::vector<float> generate_cosmo_field(Dims dims, u64 seed);

struct Quantized {
  Dims dims;
  double error_bound = 0;
  u32 nbins = 0;
  std::vector<u16> codes;  ///< quantization codes; 0 = outlier marker
  std::vector<std::pair<u32, float>> outliers;  ///< (flat index, raw value)
};

/// SZ-style quantization: |reconstruct(quantize(f)) - f| <= eb elementwise.
[[nodiscard]] Quantized lorenzo_quantize(const std::vector<float>& field,
                                         Dims dims, double error_bound,
                                         u32 nbins = 1024);

/// Inverse transform.
[[nodiscard]] std::vector<float> lorenzo_reconstruct(const Quantized& q);

/// 3-D Lorenzo prediction for cell (x, y, z) at flat index `idx` of a
/// row-major grid with strides 1 / `sy` / `sz`, from the already
/// reconstructed neighbours in `recon` (cells outside the grid count as
/// zero). Every quantizer and reconstructor calls this one, so encoder
/// and decoder predict bit-identically.
[[nodiscard]] inline double lorenzo_predict(const float* recon,
                                            std::size_t idx, std::size_t x,
                                            std::size_t y, std::size_t z,
                                            std::size_t sy, std::size_t sz) {
  double pred = 0.0;
  const bool hx = x > 0, hy = y > 0, hz = z > 0;
  if (hx) pred += recon[idx - 1];
  if (hy) pred += recon[idx - sy];
  if (hz) pred += recon[idx - sz];
  if (hx && hy) pred -= recon[idx - 1 - sy];
  if (hx && hz) pred -= recon[idx - 1 - sz];
  if (hy && hz) pred -= recon[idx - sy - sz];
  if (hx && hy && hz) pred += recon[idx - 1 - sy - sz];
  return pred;
}

/// Convenience for the benches: `n` Nyx-Quant-like codes over 1024 bins.
[[nodiscard]] std::vector<u16> generate_nyx_quant(std::size_t n, u64 seed);

}  // namespace parhuff::data
