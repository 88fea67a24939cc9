#include "data/quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace parhuff::data {

std::vector<float> generate_cosmo_field(Dims dims, u64 seed) {
  Xoshiro256 rng(seed ^ 0x6e7978u);
  const std::size_t n = dims.total();
  std::vector<float> field(n, 0.0f);

  // Large-scale structure: a few random plane-wave modes per axis.
  struct Mode {
    double kx, ky, kz, phase, amp;
  };
  Mode modes[10];
  for (auto& m : modes) {
    m = {(rng.uniform() * 3.0 + 0.5) * 6.2831853 / static_cast<double>(dims.nx),
         (rng.uniform() * 3.0 + 0.5) * 6.2831853 / static_cast<double>(dims.ny),
         (rng.uniform() * 3.0 + 0.5) * 6.2831853 / static_cast<double>(dims.nz),
         rng.uniform() * 6.2831853, 0.4 + rng.uniform() * 0.8};
  }
  std::size_t idx = 0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++idx) {
        double v = 0.0;
        for (const auto& m : modes) {
          v += m.amp * std::cos(m.kx * static_cast<double>(x) +
                                m.ky * static_cast<double>(y) +
                                m.kz * static_cast<double>(z) + m.phase);
        }
        // Lognormal-ish densities: exponentiate to create rare dense
        // filaments (the hard-to-predict regions that populate the
        // non-center quantization bins).
        field[idx] = static_cast<float>(std::exp(0.75 * v));
      }
    }
  }
  // Small-scale perturbations: sparse sharp clumps.
  const std::size_t clumps = std::max<std::size_t>(1, n / 4096);
  for (std::size_t c = 0; c < clumps; ++c) {
    const std::size_t center = rng.below(n);
    const double amp = 2.0 + rng.uniform() * 12.0;
    for (std::size_t o = 0; o < 8 && center + o < n; ++o) {
      field[center + o] += static_cast<float>(amp / (1.0 + o));
    }
  }
  return field;
}

Quantized lorenzo_quantize(const std::vector<float>& field, Dims dims,
                           double error_bound, u32 nbins) {
  if (field.size() != dims.total()) {
    throw std::invalid_argument("field size does not match dims");
  }
  if (nbins < 4 || error_bound <= 0) {
    throw std::invalid_argument("bad quantizer parameters");
  }
  Quantized q;
  q.dims = dims;
  q.error_bound = error_bound;
  q.nbins = nbins;
  q.codes.resize(field.size());

  // Reconstructed field so prediction uses what the decompressor will see.
  std::vector<float> recon(field.size(), 0.0f);
  const i64 center = nbins / 2;
  const double bin_width = 2.0 * error_bound;
  const std::size_t sy = dims.nx, sz = dims.nx * dims.ny;

  std::size_t idx = 0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++idx) {
        // 3-D Lorenzo predictor over already-reconstructed neighbours.
        const double pred =
            lorenzo_predict(recon.data(), idx, x, y, z, sy, sz);

        const double err = static_cast<double>(field[idx]) - pred;
        i64 code = center + static_cast<i64>(std::llround(err / bin_width));
        const float r = static_cast<float>(
            pred + static_cast<double>(code - center) * bin_width);
        // Rounding the reconstruction to float can push it past the bound
        // by an ulp; such a value is an outlier like any other.
        if (std::abs(static_cast<double>(r) - field[idx]) > error_bound) {
          code = 0;
        }
        if (code <= 0 || code >= static_cast<i64>(nbins)) {
          // Outlier: store verbatim (code 0 is the marker).
          q.codes[idx] = 0;
          q.outliers.emplace_back(static_cast<u32>(idx), field[idx]);
          recon[idx] = field[idx];
        } else {
          q.codes[idx] = static_cast<u16>(code);
          recon[idx] = r;
        }
      }
    }
  }
  return q;
}

std::vector<float> lorenzo_reconstruct(const Quantized& q) {
  std::vector<float> recon(q.codes.size(), 0.0f);
  const i64 center = q.nbins / 2;
  const double bin_width = 2.0 * q.error_bound;
  const std::size_t sy = q.dims.nx, sz = q.dims.nx * q.dims.ny;

  std::size_t next_outlier = 0;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < q.dims.nz; ++z) {
    for (std::size_t y = 0; y < q.dims.ny; ++y) {
      for (std::size_t x = 0; x < q.dims.nx; ++x, ++idx) {
        if (q.codes[idx] == 0) {
          if (next_outlier >= q.outliers.size() ||
              q.outliers[next_outlier].first != idx) {
            throw std::runtime_error("reconstruct: outlier list corrupt");
          }
          recon[idx] = q.outliers[next_outlier++].second;
          continue;
        }
        const double pred =
            lorenzo_predict(recon.data(), idx, x, y, z, sy, sz);
        recon[idx] = static_cast<float>(
            pred +
            static_cast<double>(static_cast<i64>(q.codes[idx]) - center) *
                bin_width);
      }
    }
  }
  return recon;
}

std::vector<u16> generate_nyx_quant(std::size_t n, u64 seed) {
  // Grid sized to cover n, quantized with a relative-style bound chosen so
  // the code histogram lands at ≈1.03 average bits (the paper's Nyx-Quant).
  std::size_t side = 1;
  while (side * side * side < n) ++side;
  side = std::max<std::size_t>(side, 8);
  const Dims dims{side, side, side};
  const std::vector<float> field = generate_cosmo_field(dims, seed);
  float fmin = field[0], fmax = field[0];
  for (float v : field) {
    fmin = std::min(fmin, v);
    fmax = std::max(fmax, v);
  }
  // Calibrated so the code histogram's average Huffman bitwidth lands at
  // the paper's Nyx-Quant operating point (≈1.03 bits over 1024 bins).
  const double eb = static_cast<double>(fmax - fmin) * 0.25;
  Quantized q = lorenzo_quantize(field, dims, eb, 1024);
  q.codes.resize(n);
  return std::move(q.codes);
}

}  // namespace parhuff::data
