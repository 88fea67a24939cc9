// Service-layer throughput/latency bench: heavy small-request traffic
// through the CompressionService vs naive per-request compress() calls.
//
// The workload models an ingest daemon compressing many small buffers that
// share one distribution (4096-symbol slices of one nyx-quant field, the
// shape §I motivates). Per request, the naive path pays histogram +
// codebook build + encode; the service amortizes the build via batching
// and skips it entirely on codebook-cache hits, so the measured
// requests/sec gap is exactly the amortized stage.
//
// Two load generators:
//   closed-loop — submit every request back-to-back, drain, measure wall
//     time (throughput; sweeps workers x batching x cache);
//   open-loop   — submit on a fixed interarrival clock (arrival rate
//     independent of completion rate, how a real ingest front-end behaves)
//     and report p50/p95/p99 end-to-end latency from the
//     svc.request_seconds histogram.
//
// A batching sweep then crosses request size (1/4/16/64 KiB) x batching
// on/off x workers {1, 4} with the cache on, and one more case gives every
// request its own distribution — where the batch's shared book, built
// from the union of its members' histograms, costs ratio.
//
// BENCH_service.json records one object per case, including
// speedup_vs_naive for the service cases; the headline config value is
// the batched+cached service at workers = 1, so it compares one service
// worker with one naive thread. The global-registry snapshot in the
// document reflects the final case only: each case clears the registry so
// its latency histogram is not polluted by the previous case.

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "../tests/proptest.hpp"
#include "common.hpp"
#include "core/entropy.hpp"
#include "data/quant.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace parhuff;

PipelineConfig host_config() {
  PipelineConfig cfg;
  cfg.nbins = 1024;
  cfg.histogram = HistogramKind::kSerial;
  cfg.codebook = CodebookKind::kSerialTree;
  cfg.encoder = EncoderKind::kSerial;
  return cfg;
}

struct Workload {
  std::vector<u16> base;
  std::size_t request_symbols = 4096;
  std::size_t requests = 192;

  [[nodiscard]] std::span<const u16> slice(std::size_t i) const {
    const std::size_t off =
        (i * request_symbols) % (base.size() - request_symbols);
    return {base.data() + off, request_symbols};
  }
  [[nodiscard]] std::size_t total_bytes() const {
    return requests * request_symbols * sizeof(u16);
  }
};

double run_naive(const Workload& w, const PipelineConfig& cfg) {
  Timer t;
  for (std::size_t i = 0; i < w.requests; ++i) {
    const auto c = compress<u16>(w.slice(i), cfg);
    if (c.stream.n_symbols == 0) std::abort();  // keep the work live
  }
  return t.seconds();
}

struct ServiceRun {
  double seconds = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  u64 cache_hits = 0, cache_misses = 0;
  u64 batches = 0;
  u64 completed = 0;
  double ratio = 0;  ///< svc.input_bytes / svc.output_bytes
};

/// Read the case's outcome from the (per-case cleared) global registry.
ServiceRun read_run(double seconds) {
  ServiceRun r;
  r.seconds = seconds;
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::HistoStat lat = reg.histo("svc.request_seconds");
  r.p50_ms = lat.quantile(0.50) * 1e3;
  r.p95_ms = lat.quantile(0.95) * 1e3;
  r.p99_ms = lat.quantile(0.99) * 1e3;
  r.cache_hits = reg.counter("svc.cache_hits");
  r.cache_misses = reg.counter("svc.cache_misses");
  r.batches = reg.counter("svc.batches");
  r.completed = reg.counter("svc.requests_completed");
  const u64 out = reg.counter("svc.output_bytes");
  r.ratio = out == 0 ? 0.0
                     : static_cast<double>(reg.counter("svc.input_bytes")) /
                           static_cast<double>(out);
  return r;
}

/// Closed loop over `requests` inputs: submit back-to-back, then wait.
template <typename Request>
ServiceRun run_closed_loop(std::size_t requests, const Request& request,
                           const PipelineConfig& cfg,
                           const svc::ServiceConfig& sc) {
  obs::MetricsRegistry::global().clear();  // per-case histogram
  svc::CompressionService<u16> service(sc);
  std::vector<std::future<svc::CompressResult<u16>>> futs;
  futs.reserve(requests);
  Timer t;
  for (std::size_t i = 0; i < requests; ++i) {
    futs.push_back(service.submit(request(i), cfg));
  }
  for (auto& f : futs) (void)f.get();
  return read_run(t.seconds());
}

ServiceRun run_closed_loop(const Workload& w, const PipelineConfig& cfg,
                           const svc::ServiceConfig& sc) {
  return run_closed_loop(
      w.requests, [&](std::size_t i) { return w.slice(i); }, cfg, sc);
}

/// Request `i` of the distinct-distribution case: symbols concentrated on
/// four neighbours of a per-request center (~1.4 bits/symbol on its own
/// book), the centers spread so no two requests share a histogram.
std::vector<u16> distinct_request(std::size_t i, std::size_t symbols,
                                  std::size_t nbins) {
  const u16 center = static_cast<u16>(1 + (i * 37) % (nbins - 3));
  Xoshiro256 rng(0xd157ull + i);
  std::vector<u16> v(symbols);
  for (u16& s : v) {
    const u64 u = rng.below(16);
    s = u < 12 ? center : u < 14 ? center + 1 : u < 15 ? center - 1 : center + 2;
  }
  return v;
}

ServiceRun run_open_loop(const Workload& w, const PipelineConfig& cfg,
                         const svc::ServiceConfig& sc, double interarrival_s) {
  obs::MetricsRegistry::global().clear();
  svc::CompressionService<u16> service(sc);
  std::vector<std::future<svc::CompressResult<u16>>> futs;
  futs.reserve(w.requests);
  const auto start = std::chrono::steady_clock::now();
  const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(interarrival_s));
  Timer t;
  for (std::size_t i = 0; i < w.requests; ++i) {
    std::this_thread::sleep_until(start + dt * i);
    futs.push_back(service.submit(w.slice(i), cfg));
  }
  for (auto& f : futs) (void)f.get();
  return read_run(t.seconds());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parhuff;
  bench::Driver run("service", argc, argv);
  bench::banner(
      "SERVICE LAYER: batched + cached small-request traffic vs naive "
      "per-request pipeline calls");

  Workload w;
  w.base = data::generate_nyx_quant(1u << 20, 42);
  const PipelineConfig cfg = host_config();
  run.config()
      .set("requests", static_cast<u64>(w.requests))
      .set("request_symbols", static_cast<u64>(w.request_symbols))
      .set("nbins", static_cast<u64>(cfg.nbins));

  // Warm-up (page in the dataset, JIT the allocator pools).
  (void)run_naive(w, cfg);
  const double naive_s = run_naive(w, cfg);
  const double naive_rps = static_cast<double>(w.requests) / naive_s;
  {
    obs::Json rec = obs::Json::object();
    rec.set("case", "naive_per_request")
        .set("seconds", naive_s)
        .set("requests_per_second", naive_rps)
        .set("throughput_gbps", gbps(w.total_bytes(), naive_s));
    run.record(std::move(rec));
  }

  TextTable table("closed-loop: 192 x 4096-symbol requests (u16, nyx-quant)");
  table.header({"case", "workers", "batch", "cache", "req/s", "speedup",
                "p50 ms", "p95 ms", "p99 ms", "hits", "batches"});
  table.row({"naive per-request", "-", "-", "-", fmt(naive_rps, 0), "1.00",
             "-", "-", "-", "-", "-"});

  struct Case {
    const char* name;
    int workers;
    bool batch;
    bool cache;
  };
  const Case cases[] = {
      {"service", 1, true, true},   {"service", 2, true, true},
      {"service", 4, true, true},   {"no-batch", 4, false, true},
      {"no-cache", 4, true, false}, {"no-batch,no-cache", 4, false, false},
  };
  double headline_speedup = 0;  // batched + cached, one worker
  for (const Case& c : cases) {
    svc::ServiceConfig sc;
    sc.workers = c.workers;
    sc.batch_window_seconds = c.batch ? 200e-6 : 0.0;
    sc.enable_cache = c.cache;
    const ServiceRun r = run_closed_loop(w, cfg, sc);
    const double rps = static_cast<double>(w.requests) / r.seconds;
    const double speedup = naive_s / r.seconds;
    if (c.batch && c.cache && c.workers == 1) headline_speedup = speedup;
    table.row({c.name, std::to_string(c.workers), c.batch ? "on" : "off",
               c.cache ? "on" : "off", fmt(rps, 0), fmt(speedup, 2),
               fmt(r.p50_ms, 3), fmt(r.p95_ms, 3), fmt(r.p99_ms, 3),
               std::to_string(r.cache_hits), std::to_string(r.batches)});
    obs::Json rec = obs::Json::object();
    rec.set("case", std::string("closed_loop_") + c.name)
        .set("workers", static_cast<u64>(c.workers))
        .set("batching", c.batch)
        .set("cache", c.cache)
        .set("seconds", r.seconds)
        .set("requests_per_second", rps)
        .set("speedup_vs_naive", speedup)
        .set("p50_ms", r.p50_ms)
        .set("p95_ms", r.p95_ms)
        .set("p99_ms", r.p99_ms)
        .set("cache_hits", r.cache_hits)
        .set("cache_misses", r.cache_misses)
        .set("batches", r.batches);
    run.record(std::move(rec));
  }
  // Fault-tolerance machinery overhead on the no-fault path: same closed
  // loop through the options-taking submit with a generous (never-tripped)
  // deadline and a cancellation handle per request. The deadline checks,
  // handle-state CAS and disarmed injection hooks should be noise.
  {
    obs::MetricsRegistry::global().clear();
    svc::ServiceConfig sc;
    sc.workers = 4;
    sc.batch_window_seconds = 200e-6;
    double seconds = 0;
    {
      svc::CompressionService<u16> service(sc);
      std::vector<svc::Submission<u16>> subs;
      subs.reserve(w.requests);
      Timer t;
      for (std::size_t i = 0; i < w.requests; ++i) {
        svc::SubmitOptions opts;
        opts.deadline = svc::Deadline::in(10.0);
        subs.push_back(service.submit(w.slice(i), cfg, opts));
      }
      for (auto& s : subs) (void)s.result.get();
      seconds = t.seconds();
    }
    const double rps = static_cast<double>(w.requests) / seconds;
    const double speedup = naive_s / seconds;
    table.row({"with-deadlines", "4", "on", "on", fmt(rps, 0),
               fmt(speedup, 2), "-", "-", "-", "-", "-"});
    obs::Json rec = obs::Json::object();
    rec.set("case", "closed_loop_with_deadlines")
        .set("workers", u64{4})
        .set("batching", true)
        .set("cache", true)
        .set("seconds", seconds)
        .set("requests_per_second", rps)
        .set("speedup_vs_naive", speedup)
        .set("deadline_exceeded",
             obs::MetricsRegistry::global().counter("svc.deadline_exceeded"))
        .set("retries", obs::MetricsRegistry::global().counter("svc.retries"));
    run.record(std::move(rec));
  }
  table.print();

  // Open loop: arrivals every 100 us (~10k req/s offered) — latency under
  // a fixed offered load rather than at saturation.
  TextTable open("open-loop: fixed 100 us interarrival (offered ~10k req/s)");
  open.header({"case", "workers", "p50 ms", "p95 ms", "p99 ms", "hits"});
  for (const int workers : {1, 4}) {
    svc::ServiceConfig sc;
    sc.workers = workers;
    sc.batch_window_seconds = 200e-6;
    const ServiceRun r = run_open_loop(w, cfg, sc, 100e-6);
    open.row({"service", std::to_string(workers), fmt(r.p50_ms, 3),
              fmt(r.p95_ms, 3), fmt(r.p99_ms, 3),
              std::to_string(r.cache_hits)});
    obs::Json rec = obs::Json::object();
    rec.set("case", "open_loop_service")
        .set("workers", static_cast<u64>(workers))
        .set("interarrival_us", 100.0)
        .set("p50_ms", r.p50_ms)
        .set("p95_ms", r.p95_ms)
        .set("p99_ms", r.p99_ms)
        .set("cache_hits", r.cache_hits)
        .set("batches", r.batches);
    run.record(std::move(rec));
  }
  open.print();

  // Drifting distribution: the adaptive codebook lifecycle
  // (svc/codebook_manager.hpp) against the proptest harness's gradual
  // drift family, whose batches stay inside one cache fingerprint — the
  // covers() guard never fires, so without the manager the service
  // silently pays the stale book's ratio loss forever. One request per
  // batch, sequenced with quiesce() so every triggered hot-swap lands
  // before the next batch (the ratio-over-time samples are deterministic
  // in content, only timings vary). Recorded per batch: achieved
  // bits/symbol of the book the request actually encoded with, alongside
  // the batch's entropy floor; plus the full svc.adaptive.* lifecycle
  // totals, which CI checks for exact balance.
  {
    TextTable drift_tbl(
        "drifting open-loop: gradual drift within one fingerprint");
    drift_tbl.header({"case", "adaptive", "end bits/sym", "entropy",
                      "rebuilds", "applied", "hits"});
    proptest::DriftSpec spec;
    spec.batches = 40;
    const proptest::DriftSource src(spec,
                                    proptest::case_seed(0xbe4c4000ull, 0));
    PipelineConfig dcfg;
    dcfg.nbins = 64;
    dcfg.histogram = HistogramKind::kSerial;
    dcfg.codebook = CodebookKind::kSerialTree;
    dcfg.encoder = EncoderKind::kSerial;
    for (const bool adaptive : {false, true}) {
      obs::MetricsRegistry::global().clear();
      svc::ServiceConfig sc;
      sc.workers = 2;
      sc.batch_window_seconds = 0;  // one request per batch: no coalescing
      sc.adaptive.enabled = adaptive;
      sc.adaptive.window_decay = 0.5;
      sc.adaptive.min_window_symbols = 1024;
      sc.adaptive.divergence_high_bits = 0.05;
      sc.adaptive.divergence_low_bits = 0.02;
      svc::CompressionService<u16> service(sc);

      obs::Json samples = obs::Json::array();
      double end_bits = 0, end_entropy = 0;
      for (std::size_t t = 0; t < spec.batches; ++t) {
        const std::vector<u16> batch = src.batch<u16>(t);
        const std::vector<u64> hist = src.histogram(t);
        const auto res =
            service.submit(std::span<const u16>(batch), dcfg).get();
        end_bits = res.codebook->average_bits(hist);
        end_entropy = shannon_entropy(hist);
        samples.push(obs::Json::object()
                         .set("batch", static_cast<u64>(t))
                         .set("bits_per_symbol", end_bits)
                         .set("entropy_bits", end_entropy)
                         .set("cache_hit", res.cache_hit));
        if (service.adaptive()) service.adaptive()->quiesce();
      }
      service.drain();

      obs::Json rec = obs::Json::object();
      rec.set("case", "drifting_open_loop")
          .set("adaptive", adaptive)
          .set("batches", static_cast<u64>(spec.batches))
          .set("batch_symbols", static_cast<u64>(src.batch_symbols()))
          .set("end_bits_per_symbol", end_bits)
          .set("end_entropy_bits", end_entropy)
          .set("ratio_over_time", std::move(samples));
      u64 started = 0, applied = 0;
      if (service.adaptive()) {
        const auto c = service.adaptive()->counters();
        started = c.rebuilds_started;
        applied = c.rebuilds_applied;
        rec.set("rebuilds_started", c.rebuilds_started)
            .set("rebuilds_applied", c.rebuilds_applied)
            .set("rebuilds_superseded", c.rebuilds_superseded)
            .set("rebuilds_cancelled", c.rebuilds_cancelled)
            .set("rebuilds_failed", c.rebuilds_failed)
            .set("budget_deferred", c.budget_deferred)
            .set("observations", c.observations);
      }
      const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
      rec.set("cache_hits", reg.counter("svc.cache_hits"));
      drift_tbl.row({"drifting", adaptive ? "on" : "off", fmt(end_bits, 3),
                     fmt(end_entropy, 3), std::to_string(started),
                     std::to_string(applied),
                     std::to_string(reg.counter("svc.cache_hits"))});
      run.record(std::move(rec));
    }
    drift_tbl.print();
  }
  // Batching sweep: does coalescing earn its keep at each request size?
  // Closed loop, cache on, same nyx-quant slices at 1/4/16/64 KiB per
  // request, batching on/off at 1 and 4 workers; each cell compresses
  // 8 MiB (at least 192 requests). CI checks the case set is complete and
  // every case completed all its requests.
  {
    TextTable sweep("batching sweep: closed loop, cache on (u16 nyx-quant)");
    sweep.header({"KiB", "workers", "batch", "req/s", "seconds", "hits",
                  "batches", "ratio"});
    for (const std::size_t kib : {1, 4, 16, 64}) {
      Workload ws;
      ws.base = w.base;
      ws.request_symbols = kib * 1024 / sizeof(u16);
      ws.requests = std::max<std::size_t>(w.requests, 8192 / kib);
      for (const int workers : {1, 4}) {
        for (const bool batch : {true, false}) {
          svc::ServiceConfig sc;
          sc.workers = workers;
          sc.batch_window_seconds = batch ? 200e-6 : 0.0;
          const ServiceRun r = run_closed_loop(ws, cfg, sc);
          const double rps = static_cast<double>(ws.requests) / r.seconds;
          sweep.row({std::to_string(kib), std::to_string(workers),
                     batch ? "on" : "off", fmt(rps, 0), fmt(r.seconds, 4),
                     std::to_string(r.cache_hits), std::to_string(r.batches),
                     fmt(r.ratio, 2)});
          obs::Json rec = obs::Json::object();
          rec.set("case", "batching_sweep")
              .set("request_kib", static_cast<u64>(kib))
              .set("workers", static_cast<u64>(workers))
              .set("batching", batch)
              .set("cache", true)
              .set("requests", static_cast<u64>(ws.requests))
              .set("completed", r.completed)
              .set("seconds", r.seconds)
              .set("requests_per_second", rps)
              .set("cache_hits", r.cache_hits)
              .set("batches", r.batches)
              .set("ratio", r.ratio);
          run.record(std::move(rec));
        }
      }
    }
    sweep.print();
  }

  // Every request its own distribution: a batch encodes all members with
  // one book built from the union of their histograms, so coalescing costs
  // ratio here — the price of the shared build, made visible.
  {
    const std::size_t symbols = 4096;
    const std::size_t requests = w.requests;
    std::vector<std::vector<u16>> inputs;
    for (std::size_t i = 0; i < requests; ++i) {
      inputs.push_back(distinct_request(i, symbols, cfg.nbins));
    }
    const auto request = [&](std::size_t i) {
      return std::span<const u16>(inputs[i]);
    };
    ServiceRun by_mode[2];
    for (const bool batch : {true, false}) {
      svc::ServiceConfig sc;
      sc.workers = 1;
      sc.batch_window_seconds = batch ? 200e-6 : 0.0;
      by_mode[batch ? 0 : 1] = run_closed_loop(requests, request, cfg, sc);
    }
    const ServiceRun& on = by_mode[0];
    const ServiceRun& off = by_mode[1];
    obs::Json rec = obs::Json::object();
    rec.set("case", "closed_loop_distinct_distributions")
        .set("workers", u64{1})
        .set("cache", true)
        .set("requests", static_cast<u64>(requests))
        .set("request_symbols", static_cast<u64>(symbols))
        .set("completed_batched", on.completed)
        .set("completed_solo", off.completed)
        .set("ratio_batched", on.ratio)
        .set("ratio_solo", off.ratio)
        .set("requests_per_second_batched",
             static_cast<double>(requests) / on.seconds)
        .set("requests_per_second_solo",
             static_cast<double>(requests) / off.seconds)
        .set("batches_batched", on.batches);
    run.record(std::move(rec));
    std::printf(
        "\ndistinct distributions (%zu x %zu symbols, 1 worker): ratio "
        "%.2f batched vs %.2f solo, %.0f vs %.0f req/s\n",
        requests, symbols, on.ratio, off.ratio,
        static_cast<double>(requests) / on.seconds,
        static_cast<double>(requests) / off.seconds);
  }

  run.config()
      .set("speedup_vs_naive", headline_speedup)
      .set("speedup_vs_naive_workers", u64{1});

  std::printf(
      "\nexpected shape: batched+cached service beats naive per-request\n"
      "calls (one worker vs one naive thread here: %.2fx) because the\n"
      "codebook build — the dominant fixed cost at 4096-symbol requests —\n"
      "is paid once per batch on a miss and not at all on a cache hit. The\n"
      "no-batch,no-cache case isolates raw service overhead (queue +\n"
      "futures + copy), which multi-worker parallelism must recover.\n",
      headline_speedup);
  return run.finish();
}
