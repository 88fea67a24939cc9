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
/// The dual-quantization container this compressor writes.
constexpr char kMagicDual[4] = {'P', 'H', 'L', '3'};
/// The float-walk container the compressor wrote before; read-only.
constexpr char kMagicFloatWalk[4] = {'P', 'H', 'L', '2'};
/// Cancel poll granularity inside the fused quantize pass and the
/// reconstruct walk (matches the decode-side contract of >= one poll per
/// 64 Ki symbols).
constexpr std::size_t kPollStride = 64 * 1024;
/// Outlier indices are u32, so a field holds at most 2^32 - 1 elements.
constexpr std::size_t kMaxElements = 0xFFFFFFFFull;
/// Quanta stay below 2^52 in magnitude: every one is an exact double, and
/// the seven-term Lorenzo sum stays far inside i64.
constexpr i64 kQuantaLimit = i64{1} << 52;

/// Dual quantization's first stage (cuSZ+, PAPERS.md #5): a value's quanta
/// are its distance from the anchor in units of 2·eb, rounded. The
/// compressor and the PHL3 reader derive an outlier's quanta from its
/// stored float through this one function, so both sides predict its
/// neighbours from the same integer.
struct Prequantizer {
  Prequantizer(float anchor_value, double eb)
      : anchor(anchor_value), width(2.0 * eb), inv_width(1.0 / width) {}

  /// round((v - anchor) / 2eb) when it is finite and below kQuantaLimit,
  /// else 0 (the value is an outlier either way).
  [[nodiscard]] i64 quanta(float v, bool& in_range) const {
    const double q =
        std::rint((static_cast<double>(v) - anchor) * inv_width);
    in_range = std::abs(q) < static_cast<double>(kQuantaLimit);
    return in_range ? static_cast<i64>(q) : 0;
  }
  [[nodiscard]] i64 quanta(float v) const {
    bool in_range = false;
    return quanta(v, in_range);
  }
  /// The value quanta `q` stand for, rounded to float.
  [[nodiscard]] float value(i64 q) const {
    return static_cast<float>(anchor + static_cast<double>(q) * width);
  }

  double anchor;
  double width;
  double inv_width;
};

/// The integer Lorenzo stencil's working set: rows of quanta in a ring of
/// ny + 2 rows (2 when nz == 1), the rows of planes z and z - 1 the
/// stencil still reads. Each row carries a leading zero and a missing
/// neighbour row (y == 0 or z == 0) reads a zero row, so the stencil has
/// no boundary test per element: a zero neighbour is the omitted term of
/// the boundary predictor.
class QuantaRing {
 public:
  /// Row y of plane z (c) and its stencil neighbours: row y - 1 (cu), row
  /// y of plane z - 1 (p) and row y - 1 of plane z - 1 (pu). Element x
  /// sits at index x; index -1 is the zero pad.
  struct Row {
    i64* c;
    const i64* cu;
    const i64* p;
    const i64* pu;

    /// Lorenzo prediction of element x from its seven neighbours, with
    /// c[x - 1] passed in as `left` (the caller holds it in a register).
    [[nodiscard]] i64 predict(std::size_t x, i64 left) const {
      return left + cu[x] + p[x] - cu[x - 1] - p[x - 1] - pu[x] + pu[x - 1];
    }
  };

  explicit QuantaRing(data::Dims dims)
      : stride_(dims.nx + 1),
        ny_(dims.ny),
        rows_(dims.nz > 1 ? dims.ny + 2 : 2),
        zero_(stride_, 0),
        ring_(rows_ * stride_, 0) {}

  [[nodiscard]] Row row(std::size_t y, std::size_t z) {
    const std::size_t r = z * ny_ + y;
    const auto at = [&](std::size_t k) {
      return ring_.data() + (k % rows_) * stride_ + 1;
    };
    const i64* zero = zero_.data() + 1;
    return Row{at(r), y > 0 ? at(r - 1) : zero, z > 0 ? at(r - ny_) : zero,
               y > 0 && z > 0 ? at(r - ny_ - 1) : zero};
  }

 private:
  std::size_t stride_, ny_, rows_;
  std::vector<i64> zero_;
  std::vector<i64> ring_;
};

/// The fused quantize pass: prequantize each row against the anchor,
/// integer Lorenzo over the quanta, then the row's codes into `acc`
/// (histogram + RLE). No element waits on its neighbour's rebuilt float,
/// and no full code buffer exists. Out of line and cache-line aligned, so
/// that edits elsewhere in the file do not move this loop's code.
[[gnu::noinline, gnu::aligned(64)]] void quantize_rows(
    std::span<const float> field, data::Dims dims, const Prequantizer& pq,
    double eb, u32 nbins, RleAccumulator& acc,
    std::vector<std::pair<u32, float>>& outliers, const CancelToken* cancel) {
  const i64 center = nbins / 2;
  const std::size_t nx = dims.nx;
  QuantaRing ring(dims);
  std::vector<u16> codes(nx);

  std::size_t idx = 0;
  std::size_t next_poll = kPollStride;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y, idx += nx) {
      if (cancel && idx >= next_poll) {
        cancel->check();
        next_poll += kPollStride;
      }
      const QuantaRing::Row row = ring.row(y, z);
      const float* v = field.data() + idx;
      // A value is an outlier when its quanta leave the range, when its
      // float rebuild misses it by more than eb (an ulp of rounding can do
      // it) or when its delta from the integer Lorenzo prediction falls
      // outside the bins. The prediction reads only quanta, so no element
      // waits on another's rebuild.
      i64 left = 0;
      for (std::size_t x = 0; x < nx; ++x) {
        bool in_range = false;
        const i64 q = pq.quanta(v[x], in_range);
        row.c[x] = q;
        const double err = std::abs(static_cast<double>(pq.value(q)) -
                                    static_cast<double>(v[x]));
        const u64 code = static_cast<u64>(center + q - row.predict(x, left));
        left = q;
        if (in_range & (err <= eb) & (code - 1 < nbins - 1)) {
          codes[x] = static_cast<u16>(code);
        } else {
          codes[x] = 0;
          outliers.emplace_back(static_cast<u32>(idx + x), v[x]);
        }
      }
      acc.push(codes);
    }
  }
}

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

/// Huffman-codes the residual at width Sym and appends its container
/// (PHF4 with the RLE1 field) to `w`.
template <typename Sym>
void encode_residual(ByteWriter& w, const std::vector<u16>& residual,
                     std::span<const u64> freq, RleAccumulator& acc,
                     const PipelineConfig& pc, FusedReport& rep,
                     const CodebookSource* books, const CancelToken* cancel) {
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
      // nbins <= 256: every residual code fits the u8 alphabet.
      const std::vector<u8> narrow(residual.begin(), residual.end());
      stream = encode_and_annotate<u8>(narrow, *book, pc, freq, &rep.huffman,
                                       cancel);
    } else {
      stream = encode_and_annotate<u16>(residual, *book, pc, freq,
                                        &rep.huffman, cancel);
    }
  }
  acc.annotate(stream);
  write_container<Sym>(w, *book, stream);
}

/// What decompress_field reads from a PHL2/PHL3 header, once checked.
struct FieldHeader {
  bool dual;  ///< PHL3: integer recurrence over quanta; PHL2: float walk
  data::Dims dims;
  std::size_t total;
  double eb;
  u32 nbins;
  float anchor;
};

using Outliers = std::vector<std::pair<u32, float>>;

/// The row walk both readers share: each row's codes are pulled into one
/// nx-sized buffer in pieces that end at every multiple of kPollStride
/// elements, where cancel is polled. `stencil(y, z, x0, x1, k, o, take)`
/// rebuilds elements [x0, x1) of row (y, z); `take(i)` gives a code 0 at
/// flat index i the next stored outlier, whose index must be i.
template <typename Sym, typename Stencil>
std::vector<float> walk_rows(RleReader<Sym>& codes, const Outliers& outliers,
                             const FieldHeader& h, const CancelToken* cancel,
                             Stencil&& stencil) {
  std::size_t next_outlier = 0;
  const auto take = [&](std::size_t i) {
    if (next_outlier >= outliers.size() || outliers[next_outlier].first != i) {
      throw std::runtime_error(
          "lossy container: outlier list does not match code stream");
    }
    return outliers[next_outlier++].second;
  };
  std::vector<float> out(h.total);
  const std::size_t nx = h.dims.nx;
  std::vector<u16> k(nx);
  std::size_t idx = 0;
  std::size_t next_poll = kPollStride;
  for (std::size_t z = 0; z < h.dims.nz; ++z) {
    for (std::size_t y = 0; y < h.dims.ny; ++y, idx += nx) {
      for (std::size_t x0 = 0; x0 < nx;) {
        if (idx + x0 == next_poll) {
          if (cancel) cancel->check();
          next_poll += kPollStride;
        }
        const std::size_t x1 = std::min(nx, next_poll - idx);
        codes.pull(std::span<u16>(k.data() + x0, x1 - x0));
        stencil(y, z, x0, x1, k.data(), out.data() + idx, take);
        x0 = x1;
      }
    }
  }
  if (next_outlier != outliers.size()) {
    throw std::runtime_error("lossy container: unreferenced outliers");
  }
  return out;
}

/// The read-side twin of encode_residual: deserialize and Huffman-decode
/// the residual at its stored width (`lossy.decode`), then rebuild the
/// field in one row walk that splices the runs back in
/// (`lossy.reconstruct`).
template <typename Sym>
std::vector<float> decode_residual(std::span<const u8> container,
                                   const FieldHeader& h,
                                   const Outliers& outliers,
                                   const CancelToken* cancel) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  Compressed<Sym> blob;
  std::vector<Sym> residual;
  {
    const obs::ScopedStageTimer st(reg, "lossy.decode");
    blob = deserialize<Sym>(container);
    // The writer codes the residual over an alphabet of at least nbins
    // symbols; a header nbins past it is forged.
    if (blob.codebook.nbins < h.nbins) {
      throw std::runtime_error(
          "lossy container: implausible header (nbins exceeds the "
          "codebook)");
    }
    residual = decode_auto<Sym>(blob.stream, blob.codebook, 0, cancel);
  }
  const obs::ScopedStageTimer st(reg, "lossy.reconstruct");
  // A run of the outlier marker would desynchronize the outlier channel.
  if (blob.stream.has_rle() && blob.stream.rle_symbol == 0) {
    throw std::runtime_error("lossy container: rle run symbol range");
  }
  RleReader<Sym> codes(residual, blob.stream, h.nbins, h.total);
  const i64 center = h.nbins / 2;
  const std::size_t sy = h.dims.nx, sz = h.dims.nx * h.dims.ny;

  if (h.dual) {
    // PHL3: the integer recurrence q = Lorenzo(q) + delta over the quanta
    // ring, each value rebuilt from its q. An outlier restores its stored
    // value bit-exactly and takes q = quanta(value), the compressor's
    // rule. Forged codes or outliers can drive q anywhere, so every q is
    // checked against kQuantaLimit before it feeds a prediction.
    QuantaRing ring(h.dims);
    const Prequantizer pq(h.anchor, h.eb);
    const auto stencil = [&](std::size_t y, std::size_t z, std::size_t x0,
                             std::size_t x1, const u16* k, float* o,
                             auto& take) {
      const QuantaRing::Row row = ring.row(y, z);
      i64 left = x0 > 0 ? row.c[x0 - 1] : 0;
      for (std::size_t x = x0; x < x1; ++x) {
        if (k[x] == 0) {
          o[x] = take(z * sz + y * sy + x);
          left = row.c[x] = pq.quanta(o[x]);
          continue;
        }
        const i64 q =
            row.predict(x, left) + (static_cast<i64>(k[x]) - center);
        if (q <= -kQuantaLimit || q >= kQuantaLimit) {
          throw std::runtime_error("lossy container: quanta out of range");
        }
        left = row.c[x] = q;
        o[x] = pq.value(q);
      }
    };
    return walk_rows(codes, outliers, h, cancel, stencil);
  }
  // PHL2: the float Lorenzo walk over the rebuilt values. Outliers restore
  // the stored value bit-exactly but *predict* as 0.0f when that value is
  // non-finite (mirroring the compressor, which cannot let a NaN poison
  // every downstream prediction).
  std::vector<float> recon(h.total, 0.0f);  // prediction inputs
  const double bin_width = 2.0 * h.eb;
  const auto stencil = [&](std::size_t y, std::size_t z, std::size_t x0,
                           std::size_t x1, const u16* k, float* o,
                           auto& take) {
    for (std::size_t x = x0, idx = z * sz + y * sy + x0; x < x1; ++x, ++idx) {
      if (k[x] == 0) {
        o[x] = take(idx);
        recon[idx] = std::isfinite(o[x]) ? o[x] : 0.0f;
        continue;
      }
      const double pred =
          data::lorenzo_predict(recon.data(), idx, x, y, z, sy, sz);
      o[x] = static_cast<float>(
          pred + static_cast<double>(static_cast<i64>(k[x]) - center) *
                     bin_width);
      recon[idx] = o[x];
    }
  };
  return walk_rows(codes, outliers, h, cancel, stencil);
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

  // The fused pass, dual quantization against the first finite value.
  util::FaultInjector::global().maybe_throw("lossy.quantize");
  Timer t;
  const u32 nbins = cfg.nbins;
  const auto first_finite =
      std::find_if(field.begin(), field.end(),
                   [](float v) { return std::isfinite(v); });
  const float anchor = first_finite == field.end() ? 0.0f : *first_finite;
  const Prequantizer pq(anchor, eb);

  std::vector<u64> freq(nbins, 0);
  RleAccumulator acc(static_cast<u16>(nbins / 2), cfg.rle_min_run, freq);
  std::vector<std::pair<u32, float>> outliers;
  quantize_rows(field, dims, pq, eb, nbins, acc, outliers, cancel);
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

  ByteWriter w;
  w.put_array(std::span<const char>(kMagicDual, 4));
  w.put<u64>(static_cast<u64>(dims.nx));
  w.put<u64>(static_cast<u64>(dims.ny));
  w.put<u64>(static_cast<u64>(dims.nz));
  w.put<double>(eb);
  w.put<u32>(nbins);
  w.put<u8>(nbins <= 256 ? 1 : 2);
  w.put<float>(anchor);
  w.put<u64>(static_cast<u64>(outliers.size()));
  for (const auto& [oi, value] : outliers) {
    w.put<u32>(oi);
    w.put<float>(value);
  }
  const std::size_t len_at = w.size();
  w.put<u64>(0);  // residual container length, patched below
  nbins <= 256
      ? encode_residual<u8>(w, residual, freq, acc, pc, rep, books, cancel)
      : encode_residual<u16>(w, residual, freq, acc, pc, rep, books, cancel);
  w.patch<u64>(len_at, static_cast<u64>(w.size() - len_at - sizeof(u64)));
  auto bytes = w.take();
  rep.compressed_bytes = bytes.size();
  return bytes;
}

Field decompress_field(std::span<const u8> bytes, const CancelToken* cancel) {
  ByteReader r(bytes);
  const auto magic = r.get_array<char>(4);
  FieldHeader h{};
  h.dual = std::memcmp(magic.data(), kMagicDual, 4) == 0;
  if (!h.dual && std::memcmp(magic.data(), kMagicFloatWalk, 4) != 0) {
    throw std::runtime_error("lossy container: bad magic");
  }
  h.dims.nx = static_cast<std::size_t>(r.get<u64>());
  h.dims.ny = static_cast<std::size_t>(r.get<u64>());
  h.dims.nz = static_cast<std::size_t>(r.get<u64>());
  h.eb = r.get<double>();
  h.nbins = r.get<u32>();
  const u8 sym_bytes = r.get<u8>();
  h.anchor = h.dual ? r.get<float>() : 0.0f;
  // Stepwise: wrapped dims would pass a check on dims.total() while the
  // reconstruct walk loops over the real nx*ny*nz.
  const auto checked = data::checked_total(h.dims, kMaxElements);
  if (!checked || !std::isfinite(h.eb) || h.eb <= 0 || h.nbins < 4 ||
      h.nbins > 65536 || !std::isfinite(h.anchor)) {
    throw std::runtime_error("lossy container: implausible header");
  }
  h.total = *checked;
  if (sym_bytes != (h.nbins <= 256 ? 1 : 2)) {
    throw std::runtime_error("lossy container: symbol width mismatch");
  }
  const u64 n_outliers = r.get<u64>();
  if (n_outliers > h.total) {
    throw std::runtime_error("lossy container: outlier count range");
  }
  Outliers outliers;
  outliers.reserve(static_cast<std::size_t>(n_outliers));
  u64 prev = 0;
  for (u64 i = 0; i < n_outliers; ++i) {
    const u32 oi = r.get<u32>();
    const float value = r.get<float>();
    if (oi >= h.total || (i > 0 && oi <= prev)) {
      throw std::runtime_error("lossy container: outlier index order");
    }
    prev = oi;
    outliers.emplace_back(oi, value);
  }
  const auto container = r.get_view(static_cast<std::size_t>(r.get<u64>()));
  if (!r.done()) {
    throw std::runtime_error("lossy container: trailing bytes");
  }

  Field out;
  out.dims = h.dims;
  out.error_bound = h.eb;
  out.values = sym_bytes == 1
                   ? decode_residual<u8>(container, h, outliers, cancel)
                   : decode_residual<u16>(container, h, outliers, cancel);
  return out;
}

}  // namespace parhuff::lossy
