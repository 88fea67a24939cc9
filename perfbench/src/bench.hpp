#pragma once
// Shared pieces of the parhuff benchmark: options, the result every
// workload fills in, latency/throughput accounting, output verification,
// and the span recorder used by traced runs.
//
// The benchmark drives parhuff only through its public entry points and
// times every layer from outside, so nothing here reaches into src/.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "simt/mem_model.hpp"

namespace perfbench {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u64 = std::uint64_t;

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  ///< sockets and the Chrome trace go here
};

/// Service workers per service instance (the RpcServer shard runs a u8
/// and a u16 service).
inline constexpr int kWorkersPerShard = 1;
/// OpenMP team size. One thread per team: the simulated kernels sync at
/// barriers, and on a shared host a multi-thread team waits for its most
/// delayed vCPU, which made per-run times swing 2x.
inline constexpr int kOmpThreads = 1;
/// Allocations of this size and more are mapped and unmapped one by one
/// (glibc M_MMAP_THRESHOLD, fixed instead of adaptive).
inline constexpr std::size_t kMmapThreshold = std::size_t{1} << 20;
/// Times a workload's set-up is repeated; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// What one run produces: the end-to-end accounting (trace 0) or the
/// per-layer values (trace 1), plus free-form lines for the log.
struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;
  void note(const std::string& line) { notes.push_back(line); }
};

/// End-to-end accounting of one measured window. Every workload is a
/// closed loop with one caller that makes whole passes over its payloads;
/// a request is one payload's compress + decompress round trip.
struct E2E {
  u64 attempted = 0;
  u64 failed = 0;  ///< errored, refused or wrong output
  double compress_in_bytes = 0, container_bytes = 0;
  /// Timed seconds of every request, kept per payload (its place in the
  /// pass). A shared host slows the whole machine down by up to ~40% for
  /// stretches of seconds at a time, and never speeds a request up, so
  /// the reported GB/s take each payload's fastest request: the bytes of
  /// one pass over the sum of those minima.
  struct Payload {
    double bytes = 0;
    std::vector<double> compress_s, decompress_s;
  };
  std::vector<Payload> payloads;
  std::vector<double> pass_s;  ///< timed compress + decompress of a pass
  /// Records one request; `index` 0 starts a new pass.
  void add_request(std::size_t index, double bytes, double compress_s,
                   double decompress_s) {
    if (payloads.size() <= index) payloads.resize(index + 1);
    Payload& p = payloads[index];
    p.bytes = bytes;
    p.compress_s.push_back(compress_s);
    p.decompress_s.push_back(decompress_s);
    if (index == 0) pass_s.push_back(0);
    pass_s.back() += compress_s + decompress_s;
  }
  double model_bytes = 0, model_ms = 0;  ///< V100-modeled Huffman stages
};

/// Writes the end-to-end metric values of `e` into `out`.
void finish_e2e(const E2E& e, double setup_s, Outcome& out);

/// Median of `v`; 0 for an empty set.
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Modeled V100 milliseconds of one kernel tally, and of a report's
/// histogram + codebook + encode tallies.
double v100_ms(const parhuff::simt::MemTally& t);
double v100_ms(const parhuff::PipelineReport& r);
/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Decodes a lossless container (PHF single-frame, or PHS2 streamed) and
/// compares it byte for byte with `expected`. Never throws: a malformed
/// container is a mismatch.
template <typename Sym>
bool lossless_matches(std::span<const u8> container,
                      std::span<const Sym> expected);
bool bytes_match(std::span<const u8> container, std::span<const u8> raw,
                 int sym_width);
/// Relative slack on a lossy bound for float32 rounding of the output —
/// the same slack the repository's own lossy tests allow.
inline constexpr double kLossySlack = 1e-4;
/// |out - in| <= eb * (1 + kLossySlack) elementwise, and equal lengths.
bool lossy_within(std::span<const float> in, std::span<const float> out,
                  double eb);
/// Elements with |out - in| > eb exactly (reported, so that rounding past
/// the bound stays visible even where the slack accepts it).
std::size_t over_bound(std::span<const float> in, std::span<const float> out,
                       double eb);

// --- Span recorder -----------------------------------------------------------

struct SpanRec {
  u64 id = 0;
  u64 parent = 0;   ///< 0 = root
  u64 request = 0;  ///< shared by every span of one request
  std::string name;
  double start_s = 0;
  double end_s = 0;
  u64 tid = 0;
};

/// Keeps spans in memory; written out as Chrome trace JSON at the end. When
/// disabled, begin()/end() record nothing, so one code path serves the
/// traced and the untraced halves of a traced run.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a span whose parent is this thread's innermost open span.
  u64 begin(const char* name, u64 request);
  void end(u64 id);
  [[nodiscard]] std::vector<SpanRec> spans() const;
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
  u64 next_id_ = 1;
};

/// RAII span on the calling thread.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, u64 request)
      : t_(t), id_(t.begin(name, request)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  u64 id_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Same order as `spans`.
std::vector<double> self_seconds(const std::vector<SpanRec>& spans);
/// Self times summed per span name.
std::map<std::string, double> self_seconds_by_name(
    const std::vector<SpanRec>& spans);

// --- Workloads -----------------------------------------------------------------

Outcome run_bulk_paper(const Options& o, Tracer& t);
Outcome run_lossy_fields(const Options& o, Tracer& t);
Outcome run_stream_large(const Options& o, Tracer& t);

/// Self-tests of the benchmark's own gates; returns the number of failures.
int run_selftests();

}  // namespace perfbench
