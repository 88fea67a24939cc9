#include "lossy/fused.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/bytesio.hpp"
#include "core/format.hpp"
#include "core/rle.hpp"
#include "data/quant.hpp"
#include "obs/metrics.hpp"
#include "util/fault_inject.hpp"
#include "util/timer.hpp"

namespace parhuff::lossy {

namespace {
constexpr char kMagicFused[4] = {'P', 'H', 'L', '2'};
/// Cancel poll granularity inside the fused quantize pass and the
/// reconstruct walk (matches the decode-side contract of >= one poll per
/// 64 Ki symbols).
constexpr std::size_t kPollStride = 64 * 1024;
/// Outlier indices are u32, so a field holds at most 2^32 - 1 elements.
constexpr std::size_t kMaxElements = 0xFFFFFFFFull;

/// Resolve the absolute error bound over the *finite* values only — a
/// field polluted with NaN/Inf must not poison the relative-range mode
/// (the non-finite elements become exact outliers regardless).
double resolve_bound(std::span<const float> field, const FusedConfig& cfg) {
  // A NaN or infinite bound would be written into a header that
  // decompress_field rejects as implausible.
  if (cfg.abs_error_bound > 0) {
    if (!std::isfinite(cfg.abs_error_bound)) {
      throw std::invalid_argument("lossy: error bound is not finite");
    }
    return cfg.abs_error_bound;
  }
  if (!(cfg.rel_error_bound > 0)) {
    throw std::invalid_argument("lossy: no positive error bound");
  }
  bool any = false;
  float fmin = 0, fmax = 0;
  for (const float v : field) {
    if (!std::isfinite(v)) continue;
    if (!any) {
      fmin = fmax = v;
      any = true;
    } else {
      fmin = std::min(fmin, v);
      fmax = std::max(fmax, v);
    }
  }
  double eb = any ? static_cast<double>(fmax - fmin) * cfg.rel_error_bound : 0;
  if (!std::isfinite(eb)) {
    throw std::invalid_argument("lossy: error bound is not finite");
  }
  if (eb <= 0) eb = 1e-30;  // constant field: any positive bound works
  return eb;
}

template <typename Sym>
std::vector<u8> encode_residual(const std::vector<u16>& residual,
                                std::span<const u64> freq,
                                RleAccumulator& acc, const PipelineConfig& pc,
                                FusedReport& rep, const CodebookSource* books,
                                const CancelToken* cancel) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  std::shared_ptr<const Codebook> book;
  if (books && books->find) book = books->find(freq, pc);
  if (book) {
    rep.cache_hit = true;
  } else {
    const obs::ScopedStageTimer st(reg, "lossy.codebook");
    auto built =
        std::make_shared<Codebook>(build_codebook(freq, pc, &rep.huffman, cancel));
    book = built;
    if (books && books->store) books->store(freq, pc, book);
  }

  util::FaultInjector::global().maybe_throw("lossy.encode");
  EncodedStream stream;
  {
    const obs::ScopedStageTimer st(reg, "lossy.encode");
    if constexpr (sizeof(Sym) == 1) {
      // Narrow residual codes into the u8 alphabet (nbins <= 256 — every
      // code fits by construction).
      std::vector<u8> narrow(residual.size());
      for (std::size_t i = 0; i < residual.size(); ++i) {
        narrow[i] = static_cast<u8>(residual[i]);
      }
      stream = encode_and_annotate<u8>(narrow, *book, pc, freq, &rep.huffman,
                                       cancel);
    } else {
      stream = encode_and_annotate<u16>(residual, *book, pc, freq,
                                        &rep.huffman, cancel);
    }
  }
  acc.annotate(stream);
  const Compressed<Sym> blob{*book, std::move(stream)};
  return serialize(blob);
}

/// Reconstruction for decompress_field: inverse Lorenzo walk
/// with the fused path's outlier rule — outliers restore the stored value
/// bit-exactly, but *predict* as 0.0f when that value is non-finite
/// (mirroring the compressor, which cannot let a NaN poison every
/// downstream prediction).
std::vector<float> fused_reconstruct(const std::vector<u16>& codes,
                                     const std::vector<std::pair<u32, float>>& outliers,
                                     data::Dims dims, double eb, u32 nbins,
                                     const CancelToken* cancel) {
  std::vector<float> out(codes.size(), 0.0f);
  std::vector<float> recon(codes.size(), 0.0f);  // prediction inputs
  const i64 center = nbins / 2;
  const double bin_width = 2.0 * eb;
  const std::size_t sy = dims.nx, sz = dims.nx * dims.ny;

  std::size_t next_outlier = 0;
  std::size_t idx = 0;
  std::size_t next_poll = kPollStride;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++idx) {
        if (cancel && idx >= next_poll) {
          cancel->check();
          next_poll += kPollStride;
        }
        if (codes[idx] == 0) {
          if (next_outlier >= outliers.size() ||
              outliers[next_outlier].first != idx) {
            throw std::runtime_error(
                "lossy container: outlier list does not match code stream");
          }
          const float v = outliers[next_outlier++].second;
          out[idx] = v;
          recon[idx] = std::isfinite(v) ? v : 0.0f;
          continue;
        }
        const double pred =
            data::lorenzo_predict(recon.data(), idx, x, y, z, sy, sz);
        const float v = static_cast<float>(
            pred +
            static_cast<double>(static_cast<i64>(codes[idx]) - center) *
                bin_width);
        out[idx] = v;
        recon[idx] = v;
      }
    }
  }
  if (next_outlier != outliers.size()) {
    throw std::runtime_error("lossy container: unreferenced outliers");
  }
  return out;
}

}  // namespace

std::vector<u8> compress_field_fused(std::span<const float> field,
                                     data::Dims dims, const FusedConfig& cfg,
                                     FusedReport* report,
                                     const CodebookSource* books,
                                     const CancelToken* cancel) {
  if (data::checked_total(dims, field.size()) != field.size()) {
    throw std::invalid_argument("lossy: field size does not match dims");
  }
  if (field.size() > kMaxElements) {
    throw std::invalid_argument(
        "lossy: field exceeds the u32 outlier index space");
  }
  if (cfg.nbins < 4 || cfg.nbins > 65536) {
    throw std::invalid_argument("lossy: nbins out of range");
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  FusedReport local;
  FusedReport& rep = report ? *report : local;
  rep = FusedReport{};
  rep.raw_bytes = field.size() * sizeof(float);

  const double eb = resolve_bound(field, cfg);
  rep.error_bound = eb;

  // The fused pass: Lorenzo predict → quantize → histogram + RLE, one
  // sweep, no full code buffer.
  util::FaultInjector::global().maybe_throw("lossy.quantize");
  Timer t;
  const u32 nbins = cfg.nbins;
  const i64 center = nbins / 2;
  const double bin_width = 2.0 * eb;
  const std::size_t sy = dims.nx, sz = dims.nx * dims.ny;

  std::vector<u64> freq(nbins, 0);
  RleAccumulator acc(static_cast<u16>(center), cfg.rle_min_run, freq);
  std::vector<std::pair<u32, float>> outliers;
  std::vector<float> recon(field.size(), 0.0f);

  std::size_t idx = 0;
  std::size_t next_poll = kPollStride;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++idx) {
        if (cancel && idx >= next_poll) {
          cancel->check();
          next_poll += kPollStride;
        }
        const double pred =
            data::lorenzo_predict(recon.data(), idx, x, y, z, sy, sz);

        const float v = field[idx];
        i64 code = 0;
        float r = 0.0f;
        if (std::isfinite(v)) {
          const double err = static_cast<double>(v) - pred;
          // Magnitude pre-check before llround: a quantum count past the
          // bin range is an outlier anyway, and err/bin_width can exceed
          // the i64 range for denormal bounds (llround UB).
          if (std::abs(err) < bin_width * static_cast<double>(nbins)) {
            code = center + static_cast<i64>(std::llround(err / bin_width));
            if (code <= 0 || code >= static_cast<i64>(nbins)) code = 0;
            r = static_cast<float>(
                pred + static_cast<double>(code - center) * bin_width);
            // Rounding the reconstruction to float can push it past the
            // bound by an ulp; such a value is an outlier like any other.
            if (std::abs(static_cast<double>(r) - v) > eb) code = 0;
          }
        }
        if (code == 0) {
          outliers.emplace_back(static_cast<u32>(idx), v);
          recon[idx] = std::isfinite(v) ? v : 0.0f;
          acc.push(0);
        } else {
          recon[idx] = r;
          acc.push(static_cast<u16>(code));
        }
      }
    }
  }
  acc.finish();
  rep.quantize_seconds = t.seconds();
  reg.stage_add("lossy.quantize_fused", rep.quantize_seconds);

  rep.outliers = outliers.size();
  rep.outlier_bytes = outliers.size() * (sizeof(u32) + sizeof(float));
  rep.rle_runs = acc.runs();
  rep.rle_run_symbols = acc.run_symbols();
  reg.counter_add("lossy.outliers", outliers.size());
  reg.counter_add("lossy.rle_runs", acc.runs());
  reg.counter_add("lossy.rle_run_symbols", acc.run_symbols());

  PipelineConfig pc = cfg.pipeline;
  pc.nbins = nbins;
  const std::vector<u16> residual = acc.take_residual();
  rep.residual_symbols = residual.size();

  std::vector<u8> huff_bytes =
      nbins <= 256
          ? encode_residual<u8>(residual, freq, acc, pc, rep, books, cancel)
          : encode_residual<u16>(residual, freq, acc, pc, rep, books, cancel);

  ByteWriter w;
  w.put_array(std::span<const char>(kMagicFused, 4));
  w.put<u64>(static_cast<u64>(dims.nx));
  w.put<u64>(static_cast<u64>(dims.ny));
  w.put<u64>(static_cast<u64>(dims.nz));
  w.put<double>(eb);
  w.put<u32>(nbins);
  w.put<u8>(nbins <= 256 ? 1 : 2);
  w.put<u64>(static_cast<u64>(outliers.size()));
  for (const auto& [oi, value] : outliers) {
    w.put<u32>(oi);
    w.put<float>(value);
  }
  w.put<u64>(static_cast<u64>(huff_bytes.size()));
  w.put_bytes(huff_bytes);
  auto bytes = w.take();
  rep.compressed_bytes = bytes.size();
  return bytes;
}

Field decompress_field(std::span<const u8> bytes, const CancelToken* cancel) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  ByteReader r(bytes);
  const auto magic = r.get_array<char>(4);
  if (std::memcmp(magic.data(), kMagicFused, 4) != 0) {
    throw std::runtime_error("lossy container: bad magic");
  }
  data::Dims dims;
  dims.nx = static_cast<std::size_t>(r.get<u64>());
  dims.ny = static_cast<std::size_t>(r.get<u64>());
  dims.nz = static_cast<std::size_t>(r.get<u64>());
  const double eb = r.get<double>();
  const u32 nbins = r.get<u32>();
  const u8 sym_bytes = r.get<u8>();
  // Stepwise: wrapped dims would pass a check on dims.total() while the
  // reconstruct walk loops over the real nx*ny*nz.
  const auto checked = data::checked_total(dims, kMaxElements);
  if (!checked || !std::isfinite(eb) || eb <= 0 || nbins < 4 ||
      nbins > 65536) {
    throw std::runtime_error("lossy container: implausible header");
  }
  const std::size_t total = *checked;
  if (sym_bytes != (nbins <= 256 ? 1 : 2)) {
    throw std::runtime_error("lossy container: symbol width mismatch");
  }
  const u64 n_outliers = r.get<u64>();
  if (n_outliers > total) {
    throw std::runtime_error("lossy container: outlier count range");
  }
  std::vector<std::pair<u32, float>> outliers;
  outliers.reserve(static_cast<std::size_t>(n_outliers));
  u64 prev = 0;
  for (u64 i = 0; i < n_outliers; ++i) {
    const u32 oi = r.get<u32>();
    const float value = r.get<float>();
    if (oi >= total || (i > 0 && oi <= prev)) {
      throw std::runtime_error("lossy container: outlier index order");
    }
    prev = oi;
    outliers.emplace_back(oi, value);
  }
  const u64 huff_len = r.get<u64>();
  const auto huff_bytes = r.get_view(static_cast<std::size_t>(huff_len));
  if (!r.done()) {
    throw std::runtime_error("lossy container: trailing bytes");
  }

  std::vector<u16> codes;
  {
    const obs::ScopedStageTimer st(reg, "lossy.decode");
    std::vector<u16> residual;
    const EncodedStream* stream = nullptr;
    Compressed<u8> blob8;
    Compressed<u16> blob16;
    if (sym_bytes == 1) {
      blob8 = deserialize<u8>(huff_bytes);
      const std::vector<u8> narrow = decode_auto<u8>(blob8.stream, blob8.codebook,
                                                     0, cancel);
      residual.assign(narrow.begin(), narrow.end());
      stream = &blob8.stream;
    } else {
      blob16 = deserialize<u16>(huff_bytes);
      residual = decode_auto<u16>(blob16.stream, blob16.codebook, 0, cancel);
      stream = &blob16.stream;
    }
    if (stream->has_rle()) {
      // The run symbol must be a real quantizer code: in range and not the
      // outlier marker (a forged marker run would desynchronize the
      // outlier side channel).
      if (stream->rle_symbol == 0 || stream->rle_symbol >= nbins) {
        throw std::runtime_error("lossy container: rle run symbol range");
      }
    }
    codes = rle_expand(residual, *stream);
  }
  if (codes.size() != total) {
    throw std::runtime_error("lossy container: code count mismatch");
  }
  for (const u16 c : codes) {
    if (c >= nbins) {
      throw std::runtime_error("lossy container: code out of range");
    }
  }

  Field out;
  out.dims = dims;
  out.error_bound = eb;
  {
    const obs::ScopedStageTimer st(reg, "lossy.reconstruct");
    out.values = fused_reconstruct(codes, outliers, dims, eb, nbins, cancel);
  }
  return out;
}

}  // namespace parhuff::lossy
