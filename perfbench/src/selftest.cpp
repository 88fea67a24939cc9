// Self-tests of the benchmark's own gates, run at the start of every
// invocation: a gate that cannot fail would let a broken program report
// correct results.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"

namespace perfbench {
namespace {

int check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "selftest failed: %s\n", what);
  return ok ? 0 : 1;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Hand-built tree (times in seconds):
///   root [0, 100]
///   ├── a [10, 40]          ─── a1 [15, 20]
///   ├── b [30, 60]          (overlaps a: the union counts once)
///   └── c [90, 120]         (runs past root: clipped to [90, 100])
int span_arithmetic() {
  const auto mk = [](u64 id, u64 parent, const char* name, double s,
                     double e) {
    SpanRec r;
    r.id = id;
    r.parent = parent;
    r.request = 7;
    r.name = name;
    r.start_s = s;
    r.end_s = e;
    return r;
  };
  const std::vector<SpanRec> spans = {
      mk(1, 0, "root", 0, 100), mk(2, 1, "a", 10, 40), mk(3, 2, "a1", 15, 20),
      mk(4, 1, "b", 30, 60),    mk(5, 1, "c", 90, 120), mk(6, 1, "b", 70, 75),
  };
  const std::vector<double> self = self_seconds(spans);
  int bad = 0;
  // root: 100 - |[10,60] ∪ [70,75] ∪ [90,100]| = 100 - 65
  bad += check(near(self[0], 35), "root self time");
  bad += check(near(self[1], 25), "child self time minus grandchild");
  bad += check(near(self[2], 5), "leaf self time");
  bad += check(near(self[3], 30), "overlapping sibling self time");
  bad += check(near(self[4], 30), "child past its parent keeps its own time");
  const auto by_name = self_seconds_by_name(spans);
  bad += check(near(by_name.at("b"), 35), "self times sum per name");
  return bad;
}

std::vector<u8> sample_bytes() {
  std::vector<u8> v(64 * 1024);
  u64 x = 0x9e3779b97f4a7c15ull;
  for (u8& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<u8>("etaoin shrdlu"[x % 13]);
  }
  return v;
}

int corrupted_containers() {
  const std::vector<u8> data = sample_bytes();
  int bad = 0;

  const std::vector<u8> good =
      parhuff::serialize(parhuff::compress<u8>(data, parhuff::PipelineConfig{}));
  bad += check(lossless_matches<u8>(good, data), "intact container passes");
  std::vector<u8> flipped = good;
  flipped[flipped.size() / 2] ^= 0x5a;
  bad += check(!lossless_matches<u8>(flipped, data),
               "corrupted container is caught");
  std::vector<u8> other = data;
  other[123] ^= 1;
  bad += check(!lossless_matches<u8>(good, other),
               "a container of different data is caught");

  parhuff::StreamingCompressor<u8> sc{parhuff::PipelineConfig{}};
  sc.observe(data);
  sc.freeze();
  std::vector<u8> streamed = sc.header();
  for (std::size_t off = 0; off < data.size(); off += 16 * 1024) {
    const auto f = sc.encode_segment(std::span<const u8>(data).subspan(
        off, 16 * 1024));
    streamed.insert(streamed.end(), f.begin(), f.end());
  }
  bad += check(lossless_matches<u8>(streamed, data),
               "intact streamed container passes");
  streamed[streamed.size() - 40] ^= 0x5a;
  bad += check(!lossless_matches<u8>(streamed, data),
               "corrupted streamed container is caught");
  return bad;
}

int lossy_bound() {
  const std::vector<float> in = {0.f, 1.f, 2.f, 3.f};
  std::vector<float> out = {0.05f, 0.95f, 2.f, 3.f};
  int bad = check(lossy_within(in, out, 0.1), "values within the bound pass");
  out[2] = 2.2f;
  bad += check(!lossy_within(in, out, 0.1), "a value past the bound fails");
  out[2] = std::nanf("");
  bad += check(!lossy_within(in, out, 0.1), "a NaN output fails");
  return bad;
}

}  // namespace

int run_selftests() {
  return span_arithmetic() + corrupted_containers() + lossy_bound();
}

}  // namespace perfbench
