// lossy_fields: fused error-bounded lossy compression through a warm
// in-process service (CompressionService::submit_lossy), then
// lossy::decompress_field, closed loop with one caller, over smooth,
// cosmology-like and plateau float fields at fixed error bounds. The fused
// predict/quantize/RLE pass does most of the work; the service's codebook
// cache is keyed on the residual histogram.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "data/quant.hpp"
#include "lossy/fused.hpp"
#include "lossy/lossy.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

using parhuff::data::Dims;

constexpr Dims kDims{128, 128, 64};  // 4 MiB of f32 per field

struct FieldCase {
  const char* name;
  std::vector<float> values;
  parhuff::lossy::FusedConfig cfg;
  double eb = 0;  ///< absolute bound the output is checked against
};

/// Error bounds wide enough that Lorenzo prediction lands most elements in
/// the center bin — the run-dominated regime the fused path targets.
std::vector<FieldCase> make_fields(u64 seed) {
  const double phase = static_cast<double>(seed % 1000) * 0.001;
  std::vector<float> smooth(kDims.total());
  std::size_t i = 0;
  for (std::size_t z = 0; z < kDims.nz; ++z) {
    for (std::size_t y = 0; y < kDims.ny; ++y) {
      for (std::size_t x = 0; x < kDims.nx; ++x, ++i) {
        smooth[i] = static_cast<float>(
            8.0 * std::sin(x * 0.02 + phase) * std::cos(y * 0.017) +
            0.5 * std::sin(z * 0.05 + 2 * phase));
      }
    }
  }
  std::vector<float> plateau(kDims.total(), 4.5f);
  for (std::size_t j = 0; j < plateau.size() / 8; ++j) {
    plateau[j] = static_cast<float>(
        std::sin(static_cast<double>(j) * 0.03 + phase) * 3.0);
  }
  std::vector<FieldCase> out;
  const auto add = [&](const char* name, std::vector<float> v, double rel,
                       double abs) {
    FieldCase c;
    c.name = name;
    c.cfg.rel_error_bound = rel;
    c.cfg.abs_error_bound = abs;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    c.eb = abs > 0 ? abs : rel * (static_cast<double>(*hi) - *lo);
    c.values = std::move(v);
    out.push_back(std::move(c));
  };
  add("smooth", std::move(smooth), 1e-2, 0);
  // The density field is heavy-tailed, so its range (and a bound relative
  // to it) swings by 4x between seeds; an absolute bound keeps the
  // workload's ratio comparable across seeds.
  add("cosmo", parhuff::data::generate_cosmo_field(kDims, seed), 0, 1.0);
  add("plateau", std::move(plateau), 0, 0.05);
  return out;
}

struct Trip {
  double compress_s = 0, decompress_s = 0;
  std::size_t container = 0;
  bool ok = false, cache_hit = false;
  std::size_t over_bound = 0;
  parhuff::lossy::FusedReport rep;
};

Trip round_trip(parhuff::svc::CompressionService<u16>& svc,
                const FieldCase& f, Tracer& t, u64 req) {
  std::vector<float> copy = f.values;  // the request owns its field
  Trip r;
  const Scoped root(t, "lossy.request", req);
  const double t0 = now_s();
  parhuff::svc::LossyResult res;
  {
    const Scoped s(t, "svc.submit_lossy", req);
    res = svc.submit_lossy(std::move(copy), kDims, f.cfg).result.get();
  }
  const double t1 = now_s();
  parhuff::lossy::Field back;
  {
    const Scoped s(t, "lossy.decompress", req);
    back = parhuff::lossy::decompress_field(res.container);
  }
  r.compress_s = t1 - t0;
  r.decompress_s = now_s() - t1;
  r.container = res.container.size();
  r.cache_hit = res.cache_hit;
  r.rep = res.report;
  r.ok = lossy_within(f.values, back.values, f.eb);
  r.over_bound = over_bound(f.values, back.values, f.eb);
  return r;
}

E2E closed_loop(parhuff::svc::CompressionService<u16>& svc,
                const std::vector<FieldCase>& fs, double seconds, Tracer& t,
                u64& req, u64& hits, u64& over) {
  E2E e;
  const double start = now_s();
  while (now_s() - start < seconds) {
    for (std::size_t i = 0; i < fs.size(); ++i) {
      const FieldCase& f = fs[i];
      const Trip r = round_trip(svc, f, t, ++req);
      ++e.attempted;
      if (!r.ok) ++e.failed;
      if (r.cache_hit) ++hits;
      const double raw = static_cast<double>(f.values.size() * sizeof(float));
      e.compress_in_bytes += raw;
      e.container_bytes += static_cast<double>(r.container);
      e.add_request(i, raw, r.compress_s, r.decompress_s);
      over += r.over_bound;
      e.model_bytes += static_cast<double>(r.rep.residual_symbols * sizeof(u16));
      e.model_ms += v100_ms(r.rep.huffman);
    }
  }
  return e;
}

parhuff::svc::ServiceConfig service_config() {
  parhuff::svc::ServiceConfig sc;
  sc.workers = kWorkersPerShard;
  return sc;
}

bool field_ok(std::span<const u8> container, const FieldCase& f) {
  try {
    const auto back = parhuff::lossy::decompress_field(container);
    return lossy_within(f.values, back.values, f.eb);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

Outcome run_lossy_fields(const Options& o, Tracer& t) {
  Outcome out;
  std::vector<double> setups;
  std::vector<FieldCase> fs;
  std::unique_ptr<parhuff::svc::CompressionService<u16>> svc;
  u64 req = 0, hits = 0, over = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    fs.clear();
    const double t0 = now_s();
    fs = make_fields(o.seed);
    svc = std::make_unique<parhuff::svc::CompressionService<u16>>(
        service_config());
    for (const FieldCase& f : fs) (void)round_trip(*svc, f, t, 0);  // warm
    setups.push_back(now_s() - t0);
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "workload lossy_fields: closed loop, 1 caller, fields "
                "smooth(rel 1e-2) cosmo(abs 1.0) plateau(abs 0.05) at "
                "%zux%zux%zu f32, %d service workers",
                kDims.nx, kDims.ny, kDims.nz, kWorkersPerShard);
  out.note(buf);

  if (!o.trace) {
    const E2E e = closed_loop(*svc, fs, o.seconds, t, req, hits, over);
    finish_e2e(e, median(setups), out);
    std::snprintf(buf, sizeof buf,
                  "lossy cache hits: %llu of %llu requests; %llu values "
                  "exceeded the exact bound by less than the float slack",
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(e.attempted),
                  static_cast<unsigned long long>(over));
    out.note(buf);
    return out;
  }

  const E2E plain = closed_loop(*svc, fs, o.seconds / 4, t, req, hits, over);
  t.set_enabled(true);
  const E2E traced =
      closed_loop(*svc, fs, o.seconds / 4, t, req, hits, over);
  out.attempted += plain.attempted + traced.attempted;
  out.failed += plain.failed + traced.failed;

  // Layer breakdown: each field through the direct fused call, then the
  // same field through submit_lossy, both warm and on the same input.
  const std::size_t first = t.spans().size();
  std::vector<double> direct_ms, svc_ms;
  double quantize = 0, huffman = 0, symbols = 0, rle = 0, outliers = 0;
  u64 svc_hits = 0, svc_reqs = 0;
  int passes = 0;
  const double start = now_s();
  while (passes == 0 || now_s() - start < o.seconds / 2) {
    for (const FieldCase& f : fs) {
      parhuff::lossy::FusedReport rep;
      const double t0 = now_s();
      std::vector<u8> c;
      {
        const Scoped s(t, "lossy.fused", ++req);
        c = parhuff::lossy::compress_field_fused(f.values, kDims, f.cfg, &rep);
      }
      direct_ms.push_back((now_s() - t0) * 1e3);
      quantize += rep.quantize_seconds;
      huffman += rep.huffman.total_seconds();
      symbols += static_cast<double>(f.values.size());
      rle += static_cast<double>(rep.rle_run_symbols);
      outliers += static_cast<double>(rep.outliers);
      ++out.attempted;
      if (!field_ok(c, f)) ++out.failed;

      const Trip r = round_trip(*svc, f, t, ++req);
      svc_ms.push_back(r.compress_s * 1e3);
      ++svc_reqs;
      if (r.cache_hit) ++svc_hits;
      ++out.attempted;
      if (!r.ok) ++out.failed;
    }
    ++passes;
  }
  t.set_enabled(false);
  std::vector<SpanRec> spans = t.spans();
  spans.erase(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(first));
  const auto self = self_seconds_by_name(spans);
  const auto per_pass = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / passes;
  };
  auto& v = out.values;
  v["lossy.fused.s"] = per_pass("lossy.fused");
  v["lossy.quantize.s"] = quantize / passes;
  v["lossy.huffman.s"] = huffman / passes;
  v["lossy.decompress.s"] = per_pass("lossy.decompress");
  v["lossy.rle_symbol_frac"] = rle / symbols;
  v["lossy.outlier_frac"] = outliers / symbols;
  v["lossy.cache_hit_ratio"] =
      static_cast<double>(svc_hits) / static_cast<double>(svc_reqs);
  v["lossy.svc.added_ms"] = mean(svc_ms) - mean(direct_ms);
  v["trace.overhead_frac"] =
      mean(traced.pass_s) / mean(plain.pass_s) - 1.0;
  std::snprintf(buf, sizeof buf,
                "traced: %d passes; lossy.*.s are per pass over %zu fields, "
                "lossy.svc.added_ms is per request",
                passes, fs.size());
  out.note(buf);
  return out;
}

}  // namespace perfbench
