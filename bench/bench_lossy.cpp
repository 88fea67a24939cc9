// Lossy-path bench: fused single-pass compression (predict + quantize +
// histogram + RLE extraction, lossy/fused.hpp) vs a glued two-pass
// baseline built from the library stages (data::lorenzo_quantize
// materializes the full code buffer, then compress<u16> re-scans it).
//
// Three field families, each at an error bound wide enough that Lorenzo
// prediction lands most elements in the center bin (the regime SZ/cuSZ
// target — §I, PAPERS.md #5):
//   smooth   — separable trig field, rel 1e-2;
//   cosmo    — multi-scale baryon-density-like field, rel 1e-2;
//   plateau  — constant bulk with a structured prefix (instrument
//              baseline / halo-free void), abs bound.
//
// For each family both paths run back-to-back on the same input; the
// fused path should win BOTH ratio (runs leave the Huffman stream, and
// the RLE1 side channel prices a run at 12 bytes instead of len bits)
// and throughput (one pass over the field instead of two, and the
// encoder only touches the residual stream). bench_lossy asserts nothing
// itself — BENCH_lossy.json carries per-case records plus a
// `fused_wins_*` summary that CI's bench smoke validates.
//
// The final case drives svc::CompressionService::submit_lossy with a
// repeated config to measure the codebook-cache hit path and snapshot the
// lossy.* counters (requests == completed + failed is re-checked in CI).

#include <algorithm>
#include <cmath>
#include <vector>

#include "common.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "data/quant.hpp"
#include "lossy/fused.hpp"
#include "svc/service.hpp"

namespace {

using namespace parhuff;

std::vector<float> smooth_field(data::Dims dims) {
  std::vector<float> f(dims.total());
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++i) {
        f[i] = static_cast<float>(8.0 * std::sin(x * 0.02) *
                                      std::cos(y * 0.017) +
                                  0.5 * std::sin(z * 0.05));
      }
    }
  }
  return f;
}

std::vector<float> plateau_field(data::Dims dims) {
  std::vector<float> f(dims.total(), 4.5f);
  for (std::size_t i = 0; i < f.size() / 8; ++i) {
    f[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.03) * 3.0);
  }
  return f;
}

struct PathRun {
  double seconds = 0;
  double ratio = 0;
  std::size_t bytes = 0;
  std::size_t rle_runs = 0;
  u64 rle_run_symbols = 0;
  std::size_t residual_symbols = 0;
  std::size_t outliers = 0;
};

/// The glued baseline: resolve the bound, quantize the whole field into a
/// code buffer, then run the Huffman pipeline over it. Its size is what a
/// self-contained container of that output would take: a 48-byte header
/// (magic, dims, bound, nbins, outlier count), 8 bytes per outlier, an
/// 8-byte length, then the serialized PHF container.
PathRun run_glued(const std::vector<float>& field, data::Dims dims,
                  const lossy::FusedConfig& fc, int reps) {
  PipelineConfig pc;
  pc.nbins = fc.nbins;
  pc.encoder = fc.pipeline.encoder;
  pc.magnitude = fc.pipeline.magnitude;
  PathRun r;
  r.seconds = 1e30;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    double eb = fc.abs_error_bound;
    if (eb <= 0) {
      const auto [lo, hi] = std::minmax_element(field.begin(), field.end());
      eb = static_cast<double>(*hi - *lo) * fc.rel_error_bound;
      if (eb <= 0) eb = 1e-30;
    }
    const data::Quantized q = data::lorenzo_quantize(field, dims, eb, fc.nbins);
    const std::vector<u8> huff = serialize(compress<u16>(q.codes, pc));
    const double s = t.seconds();
    if (s < r.seconds) r.seconds = s;
    r.bytes = 48 + q.outliers.size() * 8 + 8 + huff.size();
    r.ratio = static_cast<double>(field.size() * sizeof(float)) /
              static_cast<double>(r.bytes);
    r.residual_symbols = dims.total();
    r.outliers = q.outliers.size();
  }
  return r;
}

PathRun run_fused(const std::vector<float>& field, data::Dims dims,
                  const lossy::FusedConfig& cfg, int reps) {
  PathRun r;
  r.seconds = 1e30;
  for (int i = 0; i < reps; ++i) {
    lossy::FusedReport rep;
    Timer t;
    const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);
    const double s = t.seconds();
    if (s < r.seconds) r.seconds = s;
    r.ratio = rep.ratio();
    r.bytes = bytes.size();
    r.rle_runs = rep.rle_runs;
    r.rle_run_symbols = rep.rle_run_symbols;
    r.residual_symbols = rep.residual_symbols;
    r.outliers = rep.outliers;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parhuff;
  bench::Driver run("lossy", argc, argv);
  bench::banner(
      "LOSSY PATH: fused one-pass predict/quantize/RLE/encode vs the glued "
      "two-pass quantize-then-Huffman pipeline");

  // ~8 MiB of floats per field at the default bench scale; constant within
  // a run so glued/fused see identical inputs.
  const data::Dims dims{128, 128, 128};
  const std::size_t raw_bytes = dims.total() * sizeof(float);
  const int reps = 3;

  lossy::FusedConfig base;
  base.nbins = 1024;
  base.rle_min_run = 256;
  base.pipeline.encoder = EncoderKind::kAdaptiveSimt;
  base.pipeline.magnitude = 10;

  struct FieldCase {
    const char* name;
    std::vector<float> field;
    double rel_eb;
    double abs_eb;
  };
  FieldCase cases[] = {
      {"smooth", smooth_field(dims), 1e-2, 0.0},
      {"cosmo", data::generate_cosmo_field(dims, 42), 5e-2, 0.0},
      {"plateau", plateau_field(dims), 0.0, 0.05},
  };

  run.config()
      .set("dims", std::to_string(dims.nx) + "x" + std::to_string(dims.ny) +
                       "x" + std::to_string(dims.nz))
      .set("raw_bytes", static_cast<u64>(raw_bytes))
      .set("nbins", static_cast<u64>(base.nbins))
      .set("rle_min_run", static_cast<u64>(base.rle_min_run))
      .set("reps", static_cast<u64>(reps));

  TextTable table("glued vs fused compress, best of 3 reps per case");
  table.header({"field", "path", "ratio", "GB/s", "bytes", "rle runs",
                "run syms", "residual", "outliers"});

  // Aggregate verdicts over the whole suite: summed compressed bytes and
  // summed wall time, so one noisy case can't flip the CI gate.
  std::size_t glued_bytes = 0, fused_bytes = 0;
  double glued_seconds = 0, fused_seconds = 0;
  for (FieldCase& c : cases) {
    lossy::FusedConfig cfg = base;
    cfg.rel_error_bound = c.rel_eb;
    cfg.abs_error_bound = c.abs_eb;

    const PathRun glued = run_glued(c.field, dims, cfg, reps);
    const PathRun fused = run_fused(c.field, dims, cfg, reps);
    glued_bytes += glued.bytes;
    fused_bytes += fused.bytes;
    glued_seconds += glued.seconds;
    fused_seconds += fused.seconds;

    const auto emit = [&](const char* path, const PathRun& r) {
      table.row({c.name, path, fmt(r.ratio, 1), fmt(gbps(raw_bytes, r.seconds), 2),
                 std::to_string(r.bytes), std::to_string(r.rle_runs),
                 std::to_string(r.rle_run_symbols),
                 std::to_string(r.residual_symbols),
                 std::to_string(r.outliers)});
      obs::Json rec = obs::Json::object();
      rec.set("case", std::string(c.name) + "_" + path)
          .set("field", c.name)
          .set("path", path)
          .set("seconds", r.seconds)
          .set("throughput_gbps", gbps(raw_bytes, r.seconds))
          .set("ratio", r.ratio)
          .set("compressed_bytes", static_cast<u64>(r.bytes))
          .set("rle_runs", static_cast<u64>(r.rle_runs))
          .set("rle_run_symbols", r.rle_run_symbols)
          .set("residual_symbols", static_cast<u64>(r.residual_symbols))
          .set("outliers", static_cast<u64>(r.outliers));
      run.record(std::move(rec));
    };
    emit("glued", glued);
    emit("fused", fused);
  }
  table.print();

  // Service-layer fused traffic: the same config re-submitted hits the
  // residual-histogram codebook cache after the first build. Counters
  // must balance (lossy.requests == lossy.completed + lossy.failed).
  {
    obs::MetricsRegistry::global().clear();
    const data::Dims sdims{64, 64, 64};
    const auto base_field = smooth_field(sdims);
    lossy::FusedConfig cfg = base;
    cfg.rel_error_bound = 1e-2;
    const std::size_t requests = 24;

    svc::ServiceConfig sc;
    sc.workers = 2;
    double seconds = 0;
    u64 cache_hits = 0;
    {
      svc::CompressionService<u16> service(sc);
      std::vector<svc::LossySubmission> subs;
      subs.reserve(requests);
      Timer t;
      for (std::size_t i = 0; i < requests; ++i) {
        auto field = base_field;  // per-request copy, same distribution
        subs.push_back(service.submit_lossy(std::move(field), sdims, cfg));
      }
      for (auto& s : subs) {
        if (s.result.get().cache_hit) ++cache_hits;
      }
      seconds = t.seconds();
    }
    const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const u64 req = reg.counter("lossy.requests");
    const u64 done = reg.counter("lossy.completed");
    const u64 fail = reg.counter("lossy.failed");
    const double rps = static_cast<double>(requests) / seconds;
    std::printf(
        "\nfused_svc: %zu submit_lossy requests, %.0f req/s, %llu codebook "
        "cache hits, counters %llu = %llu + %llu\n",
        requests, rps, static_cast<unsigned long long>(cache_hits),
        static_cast<unsigned long long>(req),
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(fail));
    obs::Json rec = obs::Json::object();
    rec.set("case", "fused_svc")
        .set("requests", static_cast<u64>(requests))
        .set("seconds", seconds)
        .set("requests_per_second", rps)
        .set("cache_hits", cache_hits)
        .set("lossy_requests", req)
        .set("lossy_completed", done)
        .set("lossy_failed", fail);
    run.record(std::move(rec));
  }

  const bool wins_ratio = fused_bytes < glued_bytes;
  const bool wins_throughput = fused_seconds < glued_seconds;
  run.config()
      .set("glued_total_bytes", static_cast<u64>(glued_bytes))
      .set("fused_total_bytes", static_cast<u64>(fused_bytes))
      .set("glued_total_seconds", glued_seconds)
      .set("fused_total_seconds", fused_seconds)
      .set("fused_wins_ratio", wins_ratio)
      .set("fused_wins_throughput", wins_throughput);
  std::printf(
      "\nexpected shape: fused wins ratio (runs leave the Huffman stream "
      "for the\n12-byte-per-run RLE1 field) and throughput (one pass, "
      "residual-only encode).\naggregate across fields: ratio %s "
      "(%zu vs %zu bytes), throughput %s (%.3fs vs %.3fs)\n",
      wins_ratio ? "WIN" : "LOSS", fused_bytes, glued_bytes,
      wins_throughput ? "WIN" : "LOSS", fused_seconds, glued_seconds);
  return run.finish();
}
