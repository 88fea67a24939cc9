// bulk_paper: the paper's own workload. One caller, closed loop, runs
// compress() and then the container round trip (serialize, deserialize,
// decode_auto) over the six paper-dataset generators at fixed sizes, with
// the paper's default pipeline (SIMT histogram, parallel codebook,
// reduce/shuffle encoder). The core/simt kernels do nearly all the work;
// svc, rpc and router do none.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/format.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "data/datasets.hpp"

namespace perfbench {
namespace {

using parhuff::PipelineConfig;
using parhuff::PipelineReport;

constexpr std::size_t kDatasetBytes = std::size_t{4} << 20;

struct Dataset {
  std::string name;
  std::vector<u8> b8;
  std::vector<u16> s16;
  PipelineConfig cfg;  // the paper's defaults at this dataset's alphabet
  [[nodiscard]] std::size_t bytes() const {
    return b8.size() + s16.size() * sizeof(u16);
  }
};

std::vector<Dataset> make_datasets(u64 seed) {
  std::vector<Dataset> out;
  u64 salt = 0;
  for (const auto& info : parhuff::data::paper_datasets()) {
    auto g = parhuff::data::generate(info.name, kDatasetBytes,
                                     seed * 1000003 + ++salt);
    Dataset d;
    d.name = info.name;
    d.b8 = std::move(g.bytes8);
    d.s16 = std::move(g.syms16);
    d.cfg.nbins = info.nbins;
    out.push_back(std::move(d));
  }
  return out;
}

struct Trip {
  double compress_s = 0, decompress_s = 0;
  std::size_t container = 0;
  bool ok = false;
  PipelineReport rep;
};

/// compress(), then serialize → deserialize → decode_auto, verified.
template <typename Sym>
Trip round_trip(std::span<const Sym> data, const PipelineConfig& cfg,
                Tracer& t, u64 req) {
  Trip r;
  const Scoped root(t, "bulk.request", req);
  const double t0 = now_s();
  parhuff::Compressed<Sym> blob;
  {
    const Scoped s(t, "core.compress", req);
    blob = parhuff::compress<Sym>(data, cfg, &r.rep);
  }
  const double t1 = now_s();
  std::vector<u8> bytes;
  {
    const Scoped s(t, "core.serialize", req);
    bytes = parhuff::serialize(blob);
  }
  parhuff::Compressed<Sym> back;
  {
    const Scoped s(t, "core.deserialize", req);
    back = parhuff::deserialize<Sym>(bytes);
  }
  std::vector<Sym> out;
  {
    const Scoped s(t, "core.decode", req);
    out = parhuff::decode_auto<Sym>(back.stream, back.codebook);
  }
  const double t2 = now_s();
  r.compress_s = t1 - t0;
  r.decompress_s = t2 - t1;
  r.container = bytes.size();
  // The round trip already decodes the serialized container, so its
  // output is compared with the input and the container is not decoded a
  // second time.
  r.ok = out.size() == data.size() &&
         std::equal(out.begin(), out.end(), data.begin());
  return r;
}

Trip round_trip(const Dataset& d, Tracer& t, u64 req) {
  return d.b8.empty()
             ? round_trip<u16>(d.s16, d.cfg, t, req)
             : round_trip<u8>(d.b8, d.cfg, t, req);
}

/// Whole passes over every dataset until `seconds` have elapsed.
E2E closed_loop(const std::vector<Dataset>& ds, double seconds, Tracer& t,
                u64& req) {
  E2E e;
  const double start = now_s();
  while (now_s() - start < seconds) {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const Dataset& d = ds[i];
      const Trip r = round_trip(d, t, ++req);
      ++e.attempted;
      if (!r.ok) ++e.failed;
      const double bytes = static_cast<double>(d.bytes());
      e.compress_in_bytes += bytes;
      e.container_bytes += static_cast<double>(r.container);
      e.add_request(i, bytes, r.compress_s, r.decompress_s);
      e.model_bytes += static_cast<double>(d.bytes());
      e.model_ms += v100_ms(r.rep);
    }
  }
  return e;
}

struct StageTotals {
  parhuff::simt::MemTally hist, codebook, encode;
  double symbols = 0, bits = 0, breaking = 0;
};

/// One staged pass: the stage entry points compress() composes, each in
/// its own span, then the container round trip.
template <typename Sym>
bool staged(std::span<const Sym> data, const PipelineConfig& cfg, Tracer& t,
            u64 req, StageTotals& st) {
  const Scoped root(t, "bulk.request", req);
  parhuff::simt::MemTally hist_tally;
  std::vector<u64> freq;
  {
    const Scoped s(t, "core.histogram", req);
    freq = parhuff::histogram_simt<Sym>(data, cfg.nbins, &hist_tally);
  }
  PipelineReport rep;
  parhuff::Compressed<Sym> blob;
  {
    const Scoped s(t, "core.codebook", req);
    blob.codebook = parhuff::build_codebook(freq, cfg, &rep);
  }
  {
    const Scoped s(t, "core.encode", req);
    blob.stream = parhuff::encode_with_codebook<Sym>(data, blob.codebook, cfg,
                                                     freq, &rep);
  }
  std::vector<u8> bytes;
  {
    const Scoped s(t, "core.serialize", req);
    bytes = parhuff::serialize(blob);
  }
  parhuff::Compressed<Sym> back;
  {
    const Scoped s(t, "core.deserialize", req);
    back = parhuff::deserialize<Sym>(bytes);
  }
  std::vector<Sym> out;
  {
    const Scoped s(t, "core.decode", req);
    out = parhuff::decode_auto<Sym>(back.stream, back.codebook);
  }
  st.hist += hist_tally;
  st.codebook += rep.codebook_tally;
  st.encode += rep.encode_tally;
  st.symbols += static_cast<double>(data.size());
  st.bits += rep.avg_bits * static_cast<double>(data.size());
  st.breaking += static_cast<double>(rep.rs.breaking_symbols);
  return out.size() == data.size() &&
         std::equal(out.begin(), out.end(), data.begin());
}

}  // namespace

Outcome run_bulk_paper(const Options& o, Tracer& t) {
  Outcome out;
  std::vector<double> setups;
  std::vector<Dataset> ds;
  u64 req = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ds.clear();
    const double t0 = now_s();
    ds = make_datasets(o.seed);
    // Warm-up: one round trip per symbol width at full size, so lazily
    // started executors and first-touch allocations are paid here.
    for (const Dataset& d : ds) {
      if (d.name == "ENWIK8" || d.name == "NYX-QUANT") (void)round_trip(d, t, 0);
    }
    setups.push_back(now_s() - t0);
  }
  out.note("workload bulk_paper: closed loop, 1 caller, six paper datasets "
           "at " + std::to_string(kDatasetBytes >> 20) +
           " MiB each, paper default pipeline (simt histogram, parallel "
           "codebook, reduce/shuffle encoder)");

  if (!o.trace) {
    const E2E e = closed_loop(ds, o.seconds, t, req);
    finish_e2e(e, median(setups), out);
    return out;
  }

  // Traced run: untraced and traced halves of the end-to-end loop give
  // the tracing overhead; the staged breakdown gives the layer numbers.
  const E2E plain = closed_loop(ds, o.seconds / 4, t, req);
  t.set_enabled(true);
  const E2E traced = closed_loop(ds, o.seconds / 4, t, req);
  const std::size_t first_staged = t.spans().size();
  StageTotals st;
  int passes = 0;
  const double start = now_s();
  while (passes == 0 || now_s() - start < o.seconds / 2) {
    StageTotals pass;
    for (const Dataset& d : ds) {
      ++out.attempted;
      const bool good = d.b8.empty()
                            ? staged<u16>(d.s16, d.cfg, t, ++req, pass)
                            : staged<u8>(d.b8, d.cfg, t, ++req, pass);
      if (!good) ++out.failed;
    }
    st = pass;  // tallies repeat exactly; keep one pass
    ++passes;
  }
  t.set_enabled(false);
  out.attempted += plain.attempted + traced.attempted;
  out.failed += plain.failed + traced.failed;

  std::vector<SpanRec> spans = t.spans();
  spans.erase(spans.begin(),
              spans.begin() + static_cast<std::ptrdiff_t>(first_staged));
  const auto self = self_seconds_by_name(spans);
  const auto per_pass = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / passes;
  };
  auto& v = out.values;
  for (const char* n : {"core.histogram", "core.codebook", "core.encode",
                        "core.serialize", "core.deserialize", "core.decode"}) {
    v[std::string(n) + ".s"] = per_pass(n);
  }
  v["core.avg_bits"] = st.bits / st.symbols;
  v["core.encode.breaking_frac"] = st.breaking / st.symbols;
  v["simt.hist.sectors"] = static_cast<double>(st.hist.global_read_sectors +
                                               st.hist.global_write_sectors);
  v["simt.codebook.syncs"] = static_cast<double>(st.codebook.grid_syncs);
  v["simt.encode.sectors"] = static_cast<double>(
      st.encode.global_read_sectors + st.encode.global_write_sectors);
  v["simt.encode.launches"] = static_cast<double>(st.encode.kernel_launches);
  v["perf.v100.hist_ms"] = v100_ms(st.hist);
  v["perf.v100.codebook_ms"] = v100_ms(st.codebook);
  v["perf.v100.encode_ms"] = v100_ms(st.encode);
  v["trace.overhead_frac"] =
      mean(traced.pass_s) / mean(plain.pass_s) - 1.0;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "traced: %d staged passes over %zu datasets; per-pass stage "
                "times are span self times divided by passes",
                passes, ds.size());
  out.note(buf);
  return out;
}

}  // namespace perfbench
