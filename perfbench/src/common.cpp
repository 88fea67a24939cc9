#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "perf/gpu_model.hpp"

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double v100_ms(const parhuff::simt::MemTally& t) {
  static const auto spec = parhuff::simt::DeviceSpec::v100();
  return parhuff::perf::modeled_ms(t, spec);
}

double v100_ms(const parhuff::PipelineReport& r) {
  return v100_ms(r.hist_tally) + v100_ms(r.codebook_tally) +
         v100_ms(r.encode_tally);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB → MB
}

namespace {
/// One pass's bytes over the sum of each payload's fastest request.
double best_gbps(const E2E& e, bool compress) {
  double bytes = 0, seconds = 0;
  for (const E2E::Payload& p : e.payloads) {
    const auto& s = compress ? p.compress_s : p.decompress_s;
    bytes += p.bytes;
    seconds += *std::min_element(s.begin(), s.end());
  }
  return bytes / seconds / 1e9;
}
}  // namespace

void finish_e2e(const E2E& e, double setup_s, Outcome& out) {
  auto& v = out.values;
  v["setup_s"] = setup_s;
  v["compress_gbps"] = best_gbps(e, true);
  v["decompress_gbps"] = best_gbps(e, false);
  v["ratio"] = e.compress_in_bytes / e.container_bytes;
  v["model_v100_gbps"] = e.model_bytes / (e.model_ms / 1e3) / 1e9;
  v["peak_rss_mb"] = peak_rss_mb();
  out.attempted += e.attempted;
  out.failed += e.failed;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "window: %zu passes, %llu requests, %.3f s timed; error_rate "
                "%.6f (failed %llu)",
                e.pass_s.size(), static_cast<unsigned long long>(e.attempted),
                std::accumulate(e.pass_s.begin(), e.pass_s.end(), 0.0),
                e.attempted ? static_cast<double>(e.failed) /
                                  static_cast<double>(e.attempted)
                            : 0.0,
                static_cast<unsigned long long>(e.failed));
  out.note(buf);
  for (std::size_t i = 0; i < e.payloads.size(); ++i) {
    const E2E::Payload& p = e.payloads[i];
    for (const bool c : {true, false}) {
      const auto& s = c ? p.compress_s : p.decompress_s;
      const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
      std::snprintf(buf, sizeof buf,
                    "payload %zu %s ms over %zu requests: min %.2f median "
                    "%.2f max %.2f",
                    i, c ? "compress" : "decompress", s.size(), *lo * 1e3,
                    median(s) * 1e3, *hi * 1e3);
      out.note(buf);
    }
  }
}

template <typename Sym>
bool lossless_matches(std::span<const u8> container,
                      std::span<const Sym> expected) {
  try {
    std::vector<Sym> got;
    if (container.size() >= 4 &&
        std::memcmp(container.data(), parhuff::kStreamHeaderMagic, 4) == 0) {
      const std::size_t hl =
          parhuff::StreamingDecompressor<Sym>::header_length(container);
      const parhuff::StreamingDecompressor<Sym> sd(container.first(hl));
      for (const auto frame :
           parhuff::StreamingDecompressor<Sym>::split_frames(
               container.subspan(hl))) {
        const std::vector<Sym> part = sd.decode_segment(frame);
        got.insert(got.end(), part.begin(), part.end());
      }
    } else {
      const auto blob = parhuff::deserialize<Sym>(container);
      got = parhuff::decode_auto<Sym>(blob.stream, blob.codebook);
    }
    return got.size() == expected.size() &&
           std::equal(got.begin(), got.end(), expected.begin());
  } catch (const std::exception&) {
    return false;
  }
}

template bool lossless_matches<u8>(std::span<const u8>, std::span<const u8>);
template bool lossless_matches<u16>(std::span<const u8>,
                                    std::span<const u16>);

bool bytes_match(std::span<const u8> container, std::span<const u8> raw,
                 int sym_width) {
  if (sym_width == 1) return lossless_matches<u8>(container, raw);
  if (raw.size() % 2 != 0) return false;
  std::vector<u16> syms(raw.size() / 2);
  if (!syms.empty()) std::memcpy(syms.data(), raw.data(), raw.size());
  return lossless_matches<u16>(container, syms);
}

bool lossy_within(std::span<const float> in, std::span<const float> out,
                  double eb) {
  if (in.size() != out.size()) return false;
  const double limit = eb * (1 + kLossySlack);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!(std::fabs(static_cast<double>(out[i]) - in[i]) <= limit)) {
      return false;
    }
  }
  return true;
}

std::size_t over_bound(std::span<const float> in, std::span<const float> out,
                       double eb) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(in.size(), out.size()); ++i) {
    if (!(std::fabs(static_cast<double>(out[i]) - in[i]) <= eb)) ++n;
  }
  return n;
}

// --- Tracer ------------------------------------------------------------------

namespace {
thread_local std::vector<u64> open_spans;

u64 thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}
}  // namespace

u64 Tracer::begin(const char* name, u64 request) {
  if (!enabled_) return 0;
  SpanRec s;
  s.parent = open_spans.empty() ? 0 : open_spans.back();
  s.request = request;
  s.name = name;
  s.start_s = now_s();
  s.tid = thread_tag();
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.id = next_id_++;
    spans_.push_back(s);
  }
  open_spans.push_back(s.id);
  return s.id;
}

void Tracer::end(u64 id) {
  if (id == 0) return;
  const double t = now_s();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  // Spans close in LIFO order per thread, so the match is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_s = t;
      return;
    }
  }
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<SpanRec> all = spans();
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<unsigned long long>(s.tid), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6);
    f << (i ? "," : "") << "\n{\"name\":\"" << s.name << "\"," << buf
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}}";
  }
  f << "\n]}\n";
}

std::vector<double> self_seconds(const std::vector<SpanRec>& spans) {
  std::map<u64, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRec& s : spans) {
    const auto p = index.find(s.parent);
    if (s.parent == 0 || p == index.end()) continue;
    const SpanRec& par = spans[p->second];
    const double lo = std::max(s.start_s, par.start_s);
    const double hi = std::min(s.end_s, par.end_s);
    if (hi > lo) kids[p->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<SpanRec>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
