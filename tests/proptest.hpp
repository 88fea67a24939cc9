#pragma once
// Property-based testing harness for the lossy stack (and byte-stream
// round trips generally). Deliberately tiny — a seeded generator, a
// library of adversarial float-field families, and a runner with
// halving-shrink — because the properties under test are simple
// ("|x - x'| <= eb elementwise", "decode(encode(x)) == x") and the value
// is in the *inputs*: hundreds of seeded cases across field families that
// each break a different assumption (denormals underflow bin widths,
// turbulence defeats the Lorenzo stencil, constants starve the histogram,
// NaN/Inf must never reach llround).
//
// Every case is reproducible from (family, case index): the runner derives
// the case seed as fnv1a-style mix of a fixed harness seed, so a CI
// failure names the exact field that broke and `--gtest_filter` +
// the logged seed replays it locally. On failure the runner shrinks by
// halving the largest dimension while the property still fails, then
// reports the minimal failing shape.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/quant.hpp"
#include "util/rng.hpp"

namespace parhuff::proptest {

/// Fixed harness seed: changing it reshuffles every generated case, so it
/// only moves deliberately.
inline constexpr std::uint64_t kHarnessSeed = 0x9e3779b97f4a7c15ull;

/// Derive the deterministic seed of one case from its family and index.
[[nodiscard]] inline std::uint64_t case_seed(std::uint64_t family_tag,
                                             std::uint64_t index) {
  std::uint64_t h = kHarnessSeed;
  h ^= family_tag;
  h *= 0x100000001b3ull;
  h ^= index;
  h *= 0x100000001b3ull;
  h ^= h >> 29;
  return h;
}

/// Uniform double in [lo, hi).
[[nodiscard]] inline double uniform(Xoshiro256& rng, double lo, double hi) {
  const double u =
      static_cast<double>(rng.next() >> 11) * (1.0 / 9007199254740992.0);
  return lo + u * (hi - lo);
}

// ---------------------------------------------------------------------------
// Float-field families. Each produces dims.total() samples from a seed;
// together they cover the quantizer's failure modes.

enum class FieldKind {
  kSmooth,        ///< separable trig field: Lorenzo's best case
  kTurbulent,     ///< smooth base + heavy noise: prediction mostly misses
  kConstant,      ///< one value everywhere: RLE's best case, histogram's worst
  kDenormal,      ///< values straddling FLT_MIN: bin widths can underflow
  kSpiky,         ///< smooth with injected outlier spikes and non-finites
};

[[nodiscard]] inline const char* field_kind_name(FieldKind k) {
  switch (k) {
    case FieldKind::kSmooth: return "smooth";
    case FieldKind::kTurbulent: return "turbulent";
    case FieldKind::kConstant: return "constant";
    case FieldKind::kDenormal: return "denormal";
    case FieldKind::kSpiky: return "spiky";
  }
  return "?";
}

[[nodiscard]] inline std::vector<float> make_field(FieldKind kind,
                                                   data::Dims dims,
                                                   std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> f(dims.total());
  const double fx = uniform(rng, 0.02, 0.3);
  const double fy = uniform(rng, 0.02, 0.3);
  const double fz = uniform(rng, 0.02, 0.3);
  const double amp = uniform(rng, 0.5, 50.0);
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++i) {
        const double base = amp * (std::sin(static_cast<double>(x) * fx) *
                                       std::cos(static_cast<double>(y) * fy) +
                                   std::sin(static_cast<double>(z) * fz));
        switch (kind) {
          case FieldKind::kSmooth:
            f[i] = static_cast<float>(base);
            break;
          case FieldKind::kTurbulent:
            f[i] = static_cast<float>(base +
                                      amp * uniform(rng, -0.9, 0.9));
            break;
          case FieldKind::kConstant:
            f[i] = static_cast<float>(amp);
            break;
          case FieldKind::kDenormal: {
            // Straddle the subnormal range: magnitudes around and below
            // FLT_MIN, signs mixed, exact zeros and -0.0 sprinkled in.
            const double mag = std::ldexp(uniform(rng, 0.5, 2.0),
                                          -120 - static_cast<int>(
                                                     rng.below(30)));
            const double s = rng.below(2) == 0 ? mag : -mag;
            const std::uint64_t pick = rng.below(16);
            f[i] = pick == 0 ? 0.0f : pick == 1 ? -0.0f
                                     : static_cast<float>(s);
            break;
          }
          case FieldKind::kSpiky: {
            f[i] = static_cast<float>(base);
            const std::uint64_t pick = rng.below(257);
            if (pick == 0) f[i] = static_cast<float>(amp * 1e8);
            if (pick == 1) f[i] = std::numeric_limits<float>::quiet_NaN();
            if (pick == 2) f[i] = std::numeric_limits<float>::infinity();
            if (pick == 3) f[i] = -std::numeric_limits<float>::infinity();
            if (pick == 4) f[i] = -0.0f;
            break;
          }
        }
      }
    }
  }
  return f;
}

/// Random small dims mixing 1-D, 2-D and 3-D shapes. Bounded so a full
/// suite of hundreds of cases stays fast.
[[nodiscard]] inline data::Dims make_dims(Xoshiro256& rng) {
  const std::uint64_t shape = rng.below(3);
  if (shape == 0) {  // 1-D series
    return data::Dims{2 + rng.below(2000), 1, 1};
  }
  if (shape == 1) {  // 2-D slice
    return data::Dims{2 + rng.below(48), 2 + rng.below(48), 1};
  }
  return data::Dims{2 + rng.below(18), 2 + rng.below(18), 2 + rng.below(18)};
}

/// Random byte buffer (for lossless byte-stream round-trip properties).
[[nodiscard]] inline std::vector<std::uint8_t> make_bytes(Xoshiro256& rng,
                                                          std::size_t max_len) {
  std::vector<std::uint8_t> b(rng.below(max_len + 1));
  // Mix of uniform noise and runs, so both histogram shapes appear.
  std::size_t i = 0;
  while (i < b.size()) {
    if (rng.below(4) == 0) {
      const std::uint8_t v = static_cast<std::uint8_t>(rng.below(256));
      const std::size_t run = std::min<std::size_t>(
          b.size() - i, 1 + rng.below(64));
      std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(i), run, v);
      i += run;
    } else {
      b[i++] = static_cast<std::uint8_t>(rng.below(256));
    }
  }
  return b;
}

/// `n` symbols over a `nbins`-symbol alphabet; the distribution shape
/// (uniform, skewed toward small symbols, or runs of one symbol) is drawn
/// from `rng`.
[[nodiscard]] inline std::vector<std::uint16_t> random_symbols(
    Xoshiro256& rng, std::size_t n, std::size_t nbins) {
  const std::uint64_t shape = rng.below(3);
  std::vector<std::uint16_t> v(n);
  if (shape == 0) {
    for (auto& s : v) s = static_cast<std::uint16_t>(rng.below(nbins));
  } else if (shape == 1) {
    for (auto& s : v) {
      // Squared draw skews toward small symbols.
      const std::uint64_t a = rng.below(nbins);
      const std::uint64_t b = rng.below(nbins);
      s = static_cast<std::uint16_t>(a * b / nbins);
    }
  } else {
    std::size_t i = 0;
    while (i < n) {
      const auto sym = static_cast<std::uint16_t>(rng.below(nbins));
      const std::size_t run = 1 + rng.geometric(0.02);
      for (std::size_t k = 0; k < run && i < n; ++k) v[i++] = sym;
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Seeded u16 stream families over a 1024-bin alphabet, covering the
// adaptive encoder's regimes: locally-varying density (its reason to
// exist), stationary data (where it must match fixed-r), degenerate shapes.

enum class StreamKind {
  kBimodal,   ///< calm stretches + dense bursts: fixed-r's worst case
  kNyx,       ///< stationary quantization codes: every chunk picks one r
  kUniform,   ///< high-entropy noise
  kSubChunk,  ///< shorter than one 1024-symbol chunk
  kSingle,    ///< one symbol
};

[[nodiscard]] inline const char* stream_kind_name(StreamKind k) {
  switch (k) {
    case StreamKind::kBimodal: return "bimodal";
    case StreamKind::kNyx: return "nyx";
    case StreamKind::kUniform: return "uniform";
    case StreamKind::kSubChunk: return "subchunk";
    case StreamKind::kSingle: return "single";
  }
  return "?";
}

/// Long stretches of near-constant symbols (1-2 bit codes) interleaved
/// with dense high-entropy bursts — the worst case for a single global
/// reduce factor.
[[nodiscard]] inline std::vector<std::uint16_t> bimodal_stream(
    std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint16_t> v;
  v.reserve(n);
  while (v.size() < n) {
    const std::size_t calm = 2000 + rng.below(4000);
    for (std::size_t i = 0; i < calm && v.size() < n; ++i) {
      v.push_back(static_cast<std::uint16_t>(rng.below(3)));
    }
    const std::size_t burst = 500 + rng.below(2000);
    for (std::size_t i = 0; i < burst && v.size() < n; ++i) {
      v.push_back(static_cast<std::uint16_t>(3 + rng.below(1021)));
    }
  }
  return v;
}

/// Up to `n` symbols of family `kind` (kSubChunk caps at 1023, kSingle
/// at 1).
[[nodiscard]] inline std::vector<std::uint16_t> make_stream(
    StreamKind kind, std::size_t n, std::uint64_t seed) {
  switch (kind) {
    case StreamKind::kBimodal: return bimodal_stream(n, seed);
    case StreamKind::kNyx: return data::generate_nyx_quant(n, seed);
    case StreamKind::kUniform: {
      Xoshiro256 rng(seed);
      std::vector<std::uint16_t> v(n);
      for (auto& s : v) s = static_cast<std::uint16_t>(rng.below(1024));
      return v;
    }
    case StreamKind::kSubChunk:
      return bimodal_stream(std::min<std::size_t>(n, 1023), seed);
    case StreamKind::kSingle:
      if (n == 0) return {};
      return {static_cast<std::uint16_t>(seed % 1024)};
  }
  return {};
}

// ---------------------------------------------------------------------------
// Drifting-source families (the adaptive codebook lifecycle's harness,
// tests/test_adaptive_drift.cpp). A DriftSource emits a deterministic
// sequence of batches whose symbol distribution moves over time along one
// of three schedules:
//
//   kGradual   — linear interpolation between two histograms over the run
//   kAbrupt    — regime switch: histogram A for the first half, B after
//   kPeriodic  — sinusoidal mixture of A and B with a fixed period
//
// The construction is band-aware with respect to the codebook cache's
// fingerprint (svc/fingerprint.hpp): every batch totals exactly
// 2^log2_batch_symbols symbols (a ballast bin absorbs rounding), so a
// bin's fingerprint band is a pure function of its count, and drifting
// bins oscillate between complementary multipliers inside one power-of-2
// band. With the default swing the whole run therefore keeps ONE
// fingerprint — the drift is invisible to the cache (a pure soft miss),
// which is exactly the blind spot the adaptive manager exists to cover.
// Raising swing above ~1.0 pushes bins across band boundaries and mixes
// hard misses in. Histograms are fully deterministic given (spec, seed);
// the only sampled randomness is symbol order within a batch.

enum class DriftKind {
  kGradual,   ///< endpoints interpolated linearly across the run
  kAbrupt,    ///< regime switch at the half-way batch
  kPeriodic,  ///< sinusoidal mixture with spec.period
};

[[nodiscard]] inline const char* drift_kind_name(DriftKind k) {
  switch (k) {
    case DriftKind::kGradual: return "gradual";
    case DriftKind::kAbrupt: return "abrupt";
    case DriftKind::kPeriodic: return "periodic";
  }
  return "?";
}

struct DriftSpec {
  DriftKind kind = DriftKind::kGradual;
  std::size_t nbins = 64;  ///< alphabet size; >= 8
  std::size_t batches = 60;
  /// Every batch holds exactly 2^this symbols (the ballast bin absorbs
  /// per-bin rounding, keeping fingerprint bands a function of counts).
  std::size_t log2_batch_symbols = 13;
  /// Per-bin multiplier travel: a drifting bin's count swings between
  /// scale*(1.5 - swing/2) and scale*(1.5 + swing/2). Up to ~0.76 the
  /// range [1.12, 1.88]*2^m stays inside one fingerprint band; larger
  /// swings cross band boundaries and produce cache hard misses too.
  double swing = 0.76;
  std::size_t period = 12;  ///< kPeriodic only
};

class DriftSource {
 public:
  DriftSource(DriftSpec spec, std::uint64_t seed)
      : spec_(spec), seed_(seed), fixed_(spec.nbins, 0) {
    const std::size_t total = std::size_t{1} << spec_.log2_batch_symbols;
    // Role assignment: a seeded permutation spreads ballast / fixed /
    // paired roles across bin indices so cases differ structurally.
    Xoshiro256 rng(seed);
    std::vector<std::size_t> order(spec_.nbins);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    ballast_bin_ = order[0];

    // Pair scales: powers of two (2^m * jitter with jitter in [0.95,
    // 1.04], so the swung range stays inside the (2^m, 2^{m+1}) band),
    // geometric down the pair list, floored so rounding noise stays well
    // under the band margin. Pairs consume at most ~60% of the batch;
    // the rest is ballast + fixed bins.
    const std::size_t max_pairs = (spec_.nbins - 2) / 2;
    const double budget = 0.60 * static_cast<double>(total);
    double committed = 0;
    std::size_t next = 1;  // order[] cursor
    for (std::size_t k = 0; k < max_pairs; ++k) {
      // Geometric levels: 2^(q-6), halving every 6 pairs, floored at 32
      // (below that, llround noise nears the band margin).
      const long shift = static_cast<long>(spec_.log2_batch_symbols) - 6 -
                         static_cast<long>(k / 6);
      double scale =
          shift >= 5 ? static_cast<double>(std::uint64_t{1} << shift) : 32.0;
      scale *= uniform(rng, 0.95, 1.04);
      if (committed + 3.0 * scale > budget) break;
      committed += 3.0 * scale;
      Pair p;
      p.a = order[next++];
      p.b = order[next++];
      p.scale = scale;
      p.flip = rng.below(2) == 1;
      pairs_.push_back(p);
    }
    // Remaining bins hold small constant counts: present every batch
    // (support never changes) but never drifting.
    while (next < order.size()) fixed_[order[next++]] = 48;
  }

  [[nodiscard]] const DriftSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t batch_symbols() const {
    return std::size_t{1} << spec_.log2_batch_symbols;
  }

  /// Mixture coordinate of batch `t` in [0, 1] per the family schedule.
  [[nodiscard]] double lambda(std::size_t t) const {
    switch (spec_.kind) {
      case DriftKind::kGradual:
        return spec_.batches <= 1 ? 1.0
                                  : static_cast<double>(t) /
                                        static_cast<double>(spec_.batches - 1);
      case DriftKind::kAbrupt:
        return t < spec_.batches / 2 ? 0.0 : 1.0;
      case DriftKind::kPeriodic: {
        const double phase = 2.0 * 3.14159265358979323846 *
                             static_cast<double>(t) /
                             static_cast<double>(std::max<std::size_t>(
                                 spec_.period, 2));
        return 0.5 - 0.5 * std::cos(phase);
      }
    }
    return 0.0;
  }

  /// Batch `t`'s exact histogram: deterministic, sums to exactly
  /// 2^log2_batch_symbols.
  [[nodiscard]] std::vector<std::uint64_t> histogram(std::size_t t) const {
    const double u = lambda(t);
    std::vector<std::uint64_t> h = fixed_;
    std::uint64_t used = 0;
    for (const std::uint64_t c : h) used += c;
    for (const Pair& p : pairs_) {
      const double x = p.flip ? 1.0 - u : u;
      const double m0 = 1.5 + (x - 0.5) * spec_.swing;
      const double m1 = 3.0 - m0;
      h[p.a] = static_cast<std::uint64_t>(std::llround(p.scale * m0));
      h[p.b] = static_cast<std::uint64_t>(std::llround(p.scale * m1));
      used += h[p.a] + h[p.b];
    }
    const std::uint64_t total = std::uint64_t{1} << spec_.log2_batch_symbols;
    h[ballast_bin_] = total > used ? total - used : 1;  // absorbs rounding
    return h;
  }

  /// Batch `t` materialized as symbols (the histogram's counts in a
  /// seeded shuffle — the histogram drives everything; order is noise).
  template <typename Sym>
  [[nodiscard]] std::vector<Sym> batch(std::size_t t) const {
    const std::vector<std::uint64_t> h = histogram(t);
    std::vector<Sym> out;
    out.reserve(batch_symbols());
    for (std::size_t s = 0; s < h.size(); ++s) {
      out.insert(out.end(), static_cast<std::size_t>(h[s]),
                 static_cast<Sym>(s));
    }
    Xoshiro256 rng(case_seed(seed_, 0x7a5a5a5aull + t));
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[rng.below(i)]);
    }
    return out;
  }

 private:
  struct Pair {
    std::size_t a = 0, b = 0;
    double scale = 0;
    bool flip = false;  ///< which member rises as lambda rises
  };

  DriftSpec spec_;
  std::uint64_t seed_;
  std::vector<Pair> pairs_;
  std::vector<std::uint64_t> fixed_;  ///< constant counts; 0 = drifting
  std::size_t ballast_bin_ = 0;
};

struct DriftCaseId {
  DriftKind kind;
  std::uint64_t index;
  std::uint64_t seed;
  DriftSpec spec;
};

using DriftProperty = std::function<std::optional<std::string>(
    const DriftSource&, const DriftCaseId&)>;

/// Run `cases` seeded cases of one drift family against `prop`. On
/// failure, shrinks by halving the batch count while the property still
/// fails, then reports the minimal replayable case (family, case index,
/// seed, batches).
[[nodiscard]] inline std::optional<std::string> find_drift_failure(
    DriftKind kind, std::size_t cases, const DriftProperty& prop,
    DriftSpec base = {}) {
  base.kind = kind;
  for (std::uint64_t idx = 0; idx < cases; ++idx) {
    const std::uint64_t seed =
        case_seed(0xd21f7000ull + static_cast<std::uint64_t>(kind), idx);
    DriftSpec spec = base;
    DriftCaseId id{kind, idx, seed, spec};
    auto run = [&](const DriftSpec& s) {
      id.spec = s;
      return prop(DriftSource(s, seed), id);
    };
    std::optional<std::string> failure = run(spec);
    if (!failure) continue;

    // Shrink: halve the batch count while the failure reproduces.
    while (spec.batches >= 8) {
      DriftSpec smaller = spec;
      smaller.batches /= 2;
      const std::optional<std::string> again = run(smaller);
      if (!again) break;
      spec = smaller;
      failure = again;
    }
    std::ostringstream out;
    out << "drift property failed: family=" << drift_kind_name(kind)
        << " case=" << idx << " seed=0x" << std::hex << seed << std::dec
        << " batches=" << spec.batches << " nbins=" << spec.nbins
        << " swing=" << spec.swing << ": " << *failure;
    return out.str();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Runner. A property receives the field and its shape and returns
// std::nullopt on success or a failure message. The runner shrinks a
// failing case by repeatedly halving its largest dimension while the
// property keeps failing, then reports the smallest failing shape — small
// enough to eyeball, still seeded for exact replay.

struct CaseId {
  FieldKind kind;
  std::uint64_t index;
  std::uint64_t seed;
  data::Dims dims;
};

using FieldProperty = std::function<std::optional<std::string>(
    const std::vector<float>&, data::Dims, const CaseId&)>;

/// Run `cases` seeded cases of one family against `prop`. Returns
/// std::nullopt when every case passes, else a report naming the (shrunk)
/// minimal failing case. Use check_fields() for the asserting wrapper.
[[nodiscard]] inline std::optional<std::string> find_field_failure(
    FieldKind kind, std::size_t cases, const FieldProperty& prop) {
  for (std::uint64_t idx = 0; idx < cases; ++idx) {
    const std::uint64_t seed =
        case_seed(static_cast<std::uint64_t>(kind) + 1, idx);
    Xoshiro256 rng(seed);
    data::Dims dims = make_dims(rng);
    CaseId id{kind, idx, seed, dims};
    auto run = [&](data::Dims d) {
      id.dims = d;
      return prop(make_field(kind, d, seed), d, id);
    };
    std::optional<std::string> failure = run(dims);
    if (!failure) continue;

    // Shrink: halve the largest dimension while the failure reproduces.
    for (;;) {
      data::Dims smaller = dims;
      std::size_t* largest = &smaller.nx;
      if (smaller.ny > *largest) largest = &smaller.ny;
      if (smaller.nz > *largest) largest = &smaller.nz;
      if (*largest < 4) break;
      *largest /= 2;
      const std::optional<std::string> again = run(smaller);
      if (!again) break;
      dims = smaller;
      failure = again;
    }
    std::ostringstream out;
    out << "property failed: family=" << field_kind_name(kind)
        << " case=" << idx << " seed=0x" << std::hex << seed << std::dec
        << " dims={" << dims.nx << "," << dims.ny << "," << dims.nz
        << "}: " << *failure;
    return out.str();
  }
  return std::nullopt;
}

/// Largest elementwise |a - b|; infinity on shape mismatch or when one
/// side is non-finite while the other is not (non-finites must round-trip
/// bit-for-bit as outliers, which the caller checks separately).
[[nodiscard]] inline double max_abs_error(const std::vector<float>& a,
                                          const std::vector<float>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i]) || !std::isfinite(b[i])) {
      // Bit-identical non-finites (NaN payload aside) are fine; anything
      // else is a reconstruction failure.
      const bool same_class =
          (std::isnan(a[i]) && std::isnan(b[i])) || (a[i] == b[i]);
      if (!same_class) return std::numeric_limits<double>::infinity();
      continue;
    }
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) -
                                     static_cast<double>(b[i])));
  }
  return worst;
}

}  // namespace parhuff::proptest
