#pragma once
// Shared plumbing for the table/figure reproduction benches.
//
// Every bench prints (a) the paper's reference numbers and (b) this
// reproduction's numbers — host-measured where the paper measured CPUs,
// modeled through perf/ where the paper measured GPUs (the simulator's
// transaction tallies are device-independent, so one functional run prices
// both the RTX 5000 and the V100).
//
// Dataset sizes default to paper_size/24 (clamped to [2 MB, 48 MB]) so a
// full bench run finishes in minutes on a small host; set
// PARHUFF_BENCH_SCALE=1 to run at the paper's sizes.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/pipeline.hpp"
#include "data/datasets.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "perf/cpu_model.hpp"
#include "perf/gpu_model.hpp"
#include "simt/spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace parhuff::bench {

/// Scale factor applied to paper dataset sizes (PARHUFF_BENCH_SCALE, default
/// 1/24).
inline double size_scale() {
  if (const char* s = std::getenv("PARHUFF_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0 / 24.0;
}

inline std::size_t scaled_bytes(std::size_t paper_bytes) {
  const double v = static_cast<double>(paper_bytes) * size_scale();
  const double clamped =
      v < 2e6 ? 2e6 : (v > 48e6 && size_scale() < 1.0 ? 48e6 : v);
  return static_cast<std::size_t>(clamped);
}

inline const simt::DeviceSpec& v100() {
  static const simt::DeviceSpec d = simt::DeviceSpec::v100();
  return d;
}
inline const simt::DeviceSpec& rtx5000() {
  static const simt::DeviceSpec d = simt::DeviceSpec::rtx5000();
  return d;
}

inline void banner(const char* what) {
  std::printf(
      "\n================================================================\n"
      "%s\n"
      "GPU columns are MODELED from simulator transaction tallies (see\n"
      "DESIGN.md); CPU columns are measured on this host and scaled via\n"
      "perf::CpuSpec where the paper used a 2x28-core Xeon 8280.\n"
      "Dataset scale: %.4f of paper sizes (PARHUFF_BENCH_SCALE to change).\n"
      "================================================================\n\n",
      what, size_scale());
}

/// Machine-readable output for a bench driver (docs/observability.md).
///
/// Construct one first thing in main(), feed it one `record()` per
/// measured case, and `return run.finish();`. Alongside the human-readable
/// tables every bench then writes `BENCH_<name>.json` — a
/// `parhuff-metrics-v1` document with the per-case records plus a snapshot
/// of the global MetricsRegistry (per-stage timers, tallies, SIMT launch
/// counters accumulated during the run).
///
/// Flags (every bench accepts them):
///   --json-out PATH   write the metrics document to PATH
///                     (default BENCH_<name>.json in the cwd)
///   --no-json         skip the metrics document
///   --trace-out PATH  record trace spans and write Chrome trace_event
///                     JSON to PATH (Perfetto / chrome://tracing)
/// PARHUFF_TRACE=1 (or =path) enables tracing without the flag.
class Driver {
 public:
  Driver(std::string name, int argc, const char* const* argv)
      : name_(std::move(name)), doc_("bench_" + name_) {
    // A flag error should read as a usage message, not std::terminate.
    try {
      const CliArgs args(argc, argv);
      json_path_ = args.get_string("json-out", "BENCH_" + name_ + ".json");
      emit_json_ = !args.get_bool("no-json", false);
      trace_path_ = args.get_string("trace-out", "");
      for (const auto& flag :
           args.unknown({"json-out", "no-json", "trace-out"})) {
        std::fprintf(stderr, "warning: unknown flag --%s (known: --json-out, "
                             "--no-json, --trace-out)\n",
                     flag.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "error: %s\nusage: bench_%s [--json-out PATH] [--no-json] "
                   "[--trace-out PATH]\n",
                   e.what(), name_.c_str());
      std::exit(2);
    }
    if (!trace_path_.empty()) obs::TraceRecorder::global().enable();
    // Per-run numbers: drop whatever generator warm-up already published.
    obs::MetricsRegistry::global().clear();
    doc_.config().set("bench", name_).set("size_scale", size_scale());
  }

  /// The document's `config` object — add bench-specific parameters.
  obs::Json& config() { return doc_.config(); }

  /// False under --no-json: finish() will not write the document.
  [[nodiscard]] bool emits_json() const { return emit_json_; }

  /// Append one per-case result object to `records`.
  void record(obs::Json rec) { doc_.add_record(std::move(rec)); }

  /// Write the metrics document (and the trace, when enabled). Returns the
  /// process exit code so main() can `return run.finish();`.
  int finish() {
    if (emit_json_) {
      doc_.write(json_path_);
      std::printf("\nmetrics: wrote %s (%zu records, schema %s)\n",
                  json_path_.c_str(), doc_.record_count(),
                  obs::kMetricsSchema);
    }
    if (!trace_path_.empty()) {
      obs::TraceRecorder::global().write(trace_path_);
      std::printf("trace: wrote %s (%zu events) — open in "
                  "https://ui.perfetto.dev\n",
                  trace_path_.c_str(),
                  obs::TraceRecorder::global().event_count());
    }
    return 0;
  }

 private:
  std::string name_;
  obs::MetricsDocument doc_;
  std::string json_path_;
  std::string trace_path_;
  bool emit_json_ = true;
};

}  // namespace parhuff::bench
