// parhuff benchmark binary: runs one named workload for a fixed time and
// prints, as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced run
// (--trace 1). perfbench/run.py builds this binary and calls it; see
// perfbench/README.md for the workloads and what each metric means.

#include <malloc.h>
#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"compress_gbps", "GB/s"},
    {"decompress_gbps", "GB/s"}, {"ratio", "x"},
    {"model_v100_gbps", "GB/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.histogram.s", "s"},
    {"core.codebook.s", "s"},
    {"core.encode.s", "s"},
    {"core.serialize.s", "s"},
    {"core.deserialize.s", "s"},
    {"core.decode.s", "s"},
    {"core.avg_bits", "bits"},
    {"core.encode.breaking_frac", "fraction"},
    {"simt.hist.sectors", "count"},
    {"simt.codebook.syncs", "count"},
    {"simt.encode.sectors", "count"},
    {"simt.encode.launches", "count"},
    {"perf.v100.hist_ms", "ms"},
    {"perf.v100.codebook_ms", "ms"},
    {"perf.v100.encode_ms", "ms"},
    {"rpc.stream.added_s", "s"},
    {"rpc.stream.buffer_high_water_mb", "MB"},
    {"router.stream.added_s", "s"},
    {"lossy.fused.s", "s"},
    {"lossy.quantize.s", "s"},
    {"lossy.huffman.s", "s"},
    {"lossy.decompress.s", "s"},
    {"lossy.rle_symbol_frac", "fraction"},
    {"lossy.outlier_frac", "fraction"},
    {"lossy.cache_hit_ratio", "fraction"},
    {"lossy.svc.added_ms", "ms"},
    {"stream.inproc.s", "s"},
    {"trace.overhead_frac", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: parhuff_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] | --selftest\n",
               why);
  std::exit(2);
}

template <std::size_t N>
bool emit(const MetricDef (&defs)[N], const Outcome& out) {
  for (const auto& [name, value] : out.values) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    if (!known) {
      std::fprintf(stderr, "internal error: unlisted metric %s\n",
                   name.c_str());
      return false;
    }
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = out.values.find(d.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "internal error: metric %s is not finite\n",
                   d.name);
      return false;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", d.name, v, d.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool selftest_only = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }

  // libgomp reads its environment once at load time, and threads the
  // library starts inherit it, so the workload's OpenMP settings are put
  // in place by re-executing. Idle OpenMP threads sleep instead of
  // spinning: the served stacks run one team per calling thread, and
  // spinning teams starve each other on a small host.
  const std::string threads = std::to_string(kOmpThreads);
  const char* have_threads = std::getenv("OMP_NUM_THREADS");
  const char* have_policy = std::getenv("OMP_WAIT_POLICY");
  if (have_threads == nullptr || threads != have_threads ||
      have_policy == nullptr || std::string(have_policy) != "passive") {
    ::setenv("OMP_NUM_THREADS", threads.c_str(), 1);
    ::setenv("OMP_WAIT_POLICY", "passive", 1);
    ::execv("/proc/self/exe", argv);
    std::perror("execv");
    return 1;
  }
  // glibc raises its mmap threshold to the size of each large block freed,
  // after which multi-MB buffers are carved from per-thread arenas that
  // keep them once freed; how much they keep depends on thread timing,
  // and peak RSS swung by a quarter between runs. A fixed threshold maps
  // buffers of kMmapThreshold and more afresh and unmaps them on free, so
  // peak RSS tracks live memory.
  ::mallopt(M_MMAP_THRESHOLD, static_cast<int>(kMmapThreshold));
  const int selftest_failures = run_selftests();
  std::printf("selftest: %s (span self-time arithmetic, corrupted lossless "
              "and streamed containers, out-of-bound lossy value)\n",
              selftest_failures == 0 ? "ok" : "FAILED");
  if (selftest_only) return selftest_failures == 0 ? 0 : 1;
  if (selftest_failures != 0) return 1;
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");

  Outcome (*run)(const Options&, Tracer&) = nullptr;
  if (o.workload == "bulk_paper") run = run_bulk_paper;
  if (o.workload == "lossy_fields") run = run_lossy_fields;
  if (o.workload == "stream_large") run = run_stream_large;
  if (run == nullptr) usage(("unknown workload " + o.workload).c_str());

  std::printf("env: workload %s, seed %llu, seconds %.3f, trace %d, nproc "
              "%ld, omp threads %d (wait policy passive), service workers per "
              "shard %d, malloc mmap threshold %zu KiB, build %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
              omp_get_max_threads(), kWorkersPerShard, kMmapThreshold >> 10,
              PERFBENCH_BUILD_TYPE);

  Tracer tracer;
  Outcome out;
  try {
    out = run(o, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s failed: %s\n",
                 o.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  if (o.trace) {
    const std::string path = o.work_dir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed) + ".json";
    tracer.write_chrome(path);
    std::printf("trace: wrote %zu spans to %s\n", tracer.spans().size(),
                path.c_str());
  }
  std::fflush(stdout);
  const bool ok = o.trace ? emit(kPerLayer, out) : emit(kEndToEnd, out);
  std::fflush(stdout);
  return ok ? 0 : 1;
}
