#include "core/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "simt/atomics.hpp"
#include "simt/block.hpp"
#include "util/parallel.hpp"

namespace parhuff {

namespace {

/// The one count loop. Symbols go to kCopies interleaved u32 copies of the
/// histogram (symbol i to copy i mod kCopies), so equal neighbours do not
/// wait on each other's increment. A copy takes at most one increment per
/// symbol, so the copies are flushed to the u64 totals before 2^32 − 1
/// symbols have been added since the last flush, and none can wrap.
template <typename Sym>
class Counter {
 public:
  explicit Counter(std::size_t nbins)
      : totals_(nbins, 0), copies_(kCopies * nbins, 0) {}

  void add(std::span<const Sym> data) {
    while (!data.empty()) {
      if (pending_ == kMaxPending) flush();
      const std::size_t take =
          std::min<std::size_t>(data.size(), kMaxPending - pending_);
      count(data.first(take));
      pending_ += take;
      data = data.subspan(take);
    }
  }

  /// The counts of every symbol added.
  [[nodiscard]] std::vector<u64> take() {
    flush();
    return std::move(totals_);
  }

 private:
  void count(std::span<const Sym> data) {
    const std::size_t w = totals_.size();
    u32* const c = copies_.data();
    const Sym* p = data.data();
    const Sym* const end = p + data.size();
    for (; end - p >= static_cast<std::ptrdiff_t>(kCopies); p += kCopies) {
      assert(static_cast<std::size_t>(p[0]) < w &&
             static_cast<std::size_t>(p[1]) < w &&
             static_cast<std::size_t>(p[2]) < w &&
             static_cast<std::size_t>(p[3]) < w);
      ++c[p[0]];
      ++c[w + p[1]];
      ++c[2 * w + p[2]];
      ++c[3 * w + p[3]];
    }
    for (; p < end; ++p) {
      assert(static_cast<std::size_t>(*p) < w);
      ++c[*p];
    }
  }

  void flush() {
    const std::size_t w = totals_.size();
    for (std::size_t copy = 0; copy < kCopies; ++copy) {
      for (std::size_t b = 0; b < w; ++b) {
        totals_[b] += copies_[copy * w + b];
      }
    }
    std::fill(copies_.begin(), copies_.end(), 0);
    pending_ = 0;
  }

  static constexpr std::size_t kCopies = 4;
  static constexpr u64 kMaxPending = 0xFFFFFFFFull;

  std::vector<u64> totals_;
  std::vector<u32> copies_;
  u64 pending_ = 0;
};

/// Replicated sub-histograms one block's shared budget holds, capped at 8
/// (diminishing returns past that on real hardware); 0 when not even one
/// copy fits.
std::size_t replicas_for(std::size_t nbins, const SimtHistogramConfig& cfg) {
  const std::size_t replica_bytes = nbins * sizeof(u32);
  return replica_bytes == 0
             ? 1
             : std::min<std::size_t>(8,
                                     cfg.shared_budget_bytes / replica_bytes);
}

/// Bins one multipass round counts in shared memory.
std::size_t bins_per_pass(const SimtHistogramConfig& cfg) {
  return std::max<std::size_t>(1, cfg.shared_budget_bytes / sizeof(u32));
}

/// Charge one block of the kernel that reads `count` symbols of `sym_bytes`
/// each. Every charge is a function of the shape only, so the kernel and
/// the host count share this one definition.
void charge_block(simt::MemTally& t, const SimtHistogramConfig& cfg,
                  std::size_t nbins, std::size_t sym_bytes,
                  std::size_t count) {
  const std::size_t replicas = replicas_for(nbins, cfg);
  const double flush_conflict = static_cast<double>(cfg.grid_dim) / 8.0;
  if (replicas >= 1) {
    // Phase 1: coalesced reads, shared atomics into replica (tid % R).
    // Conflict depth: expected collisions grow as active threads per
    // replica divided by populated bins (uniformly approximated).
    t.global_read(count, sym_bytes, simt::Pattern::kCoalesced);
    const double conflict =
        1.0 + static_cast<double>(cfg.block_dim) /
                  (static_cast<double>(replicas) *
                   std::max<double>(1.0, static_cast<double>(nbins)));
    t.shared_atomic(count, conflict);
    t.block_syncs += 1;
    // Phase 2: replica reduction + global flush.
    t.shared_access(nbins * replicas, sizeof(u32));
    t.global_atomic(std::min<u64>(nbins, count), flush_conflict);
  } else if (cfg.allow_multipass) {
    // One round per bin range: re-read the partition, conflict-light
    // shared atomics, flush the range.
    const std::size_t per_pass = bins_per_pass(cfg);
    const std::size_t passes = (nbins + per_pass - 1) / per_pass;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      const std::size_t lo = pass * per_pass;
      const std::size_t hi = std::min(lo + per_pass, nbins);
      t.global_read(count, sym_bytes, simt::Pattern::kCoalesced);
      t.shared_atomic(count / passes + 1, 1.1);
      t.block_syncs += 1;
      t.global_atomic(std::min<u64>(hi - lo, count), flush_conflict);
      t.block_syncs += 1;
    }
  } else {
    // Direct global atomics (heavily contended — visible in the tally).
    t.global_read(count, sym_bytes, simt::Pattern::kCoalesced);
    t.global_atomic(count, 4.0);
  }
}

}  // namespace

template <typename Sym>
std::vector<u64> histogram_serial(std::span<const Sym> data,
                                  std::size_t nbins,
                                  const CancelToken* cancel) {
  Counter<Sym> counter(nbins);
  constexpr std::size_t kPollStride = std::size_t{64} * 1024;
  for (std::size_t base = 0; base < data.size(); base += kPollStride) {
    if (cancel) cancel->check();
    counter.add(
        data.subspan(base, std::min(kPollStride, data.size() - base)));
  }
  return counter.take();
}

template <typename Sym>
std::vector<u64> histogram_openmp(std::span<const Sym> data,
                                  std::size_t nbins, int threads,
                                  const CancelToken* cancel) {
  const int p = threads > 0 ? threads : max_threads();
  if (p <= 1 || data.size() < 1u << 16) {
    return histogram_serial(data, nbins, cancel);
  }

  // One private histogram per thread over a contiguous chunk, then a
  // bin-parallel reduction (each thread sums a bin range across privates).
  std::vector<std::vector<u64>> priv(static_cast<std::size_t>(p));
  parallel_chunks(
      data.size(), static_cast<std::size_t>(p),
      [&](std::size_t t, std::size_t begin, std::size_t end) {
        if (cancel) cancel->check();
        Counter<Sym> counter(nbins);
        counter.add(data.subspan(begin, end - begin));
        priv[t] = counter.take();
      },
      p);
  std::vector<u64> hist(nbins, 0);
  parallel_for(
      nbins,
      [&](std::size_t b) {
        u64 sum = 0;
        for (const auto& h : priv) {
          if (!h.empty()) sum += h[b];
        }
        hist[b] = sum;
      },
      p);
  return hist;
}

template <typename Sym>
std::vector<u64> histogram_simt(std::span<const Sym> data, std::size_t nbins,
                                simt::MemTally* tally,
                                const SimtHistogramConfig& cfg,
                                const CancelToken* cancel) {
  std::vector<u64> hist(nbins, 0);
  if (data.empty()) return hist;

  const int grid = cfg.grid_dim;
  const std::size_t per_block = (data.size() + grid - 1) / grid;

  // The kernel's block partitions, one counter per host thread.
  std::vector<std::optional<Counter<Sym>>> counters(
      static_cast<std::size_t>(max_threads()));
  parallel_for(static_cast<std::size_t>(grid), [&](std::size_t b) {
    const std::size_t begin = b * per_block;
    if (begin >= data.size()) return;
    // Cooperative poll, once per block partition (core/cancel.hpp).
    if (cancel) cancel->check();
    auto& counter = counters[thread_index()];
    if (!counter) counter.emplace(nbins);
    counter->add(
        data.subspan(begin, std::min(per_block, data.size() - begin)));
  });
  for (auto& counter : counters) {
    if (!counter) continue;
    const std::vector<u64> part = counter->take();
    for (std::size_t b = 0; b < nbins; ++b) hist[b] += part[b];
  }

  if (tally) {
    tally->kernel_launches += 1;
    for (std::size_t begin = 0; begin < data.size(); begin += per_block) {
      charge_block(*tally, cfg, nbins, sizeof(Sym),
                   std::min(per_block, data.size() - begin));
    }
  }
  return hist;
}

template <typename Sym>
std::vector<u64> histogram_simt_kernel(std::span<const Sym> data,
                                       std::size_t nbins,
                                       simt::MemTally* tally,
                                       const SimtHistogramConfig& cfg,
                                       const CancelToken* cancel) {
  std::vector<u64> hist(nbins, 0);
  if (data.empty()) return hist;

  const std::size_t replicas = replicas_for(nbins, cfg);
  const int grid = cfg.grid_dim;
  const int block = cfg.block_dim;
  const std::size_t per_block = (data.size() + grid - 1) / grid;

  // Every phase ends at a block barrier; charge_block charges the block's
  // phases, barriers included, from its partition size.
  simt::launch(grid, block, tally, [&](simt::BlockCtx& blk) {
    const std::size_t begin =
        static_cast<std::size_t>(blk.block_id()) * per_block;
    const std::size_t end = std::min(begin + per_block, data.size());
    if (begin >= end) return;
    // Cooperative poll, once per block partition (core/cancel.hpp).
    if (cancel) cancel->check();

    if (replicas >= 1) {
      auto shared = blk.shared_array<u32>(nbins * replicas);
      std::fill(shared.begin(), shared.end(), 0);

      // Phase 1: strided reads (coalesced on hardware: consecutive threads
      // read consecutive elements), shared atomic updates into replica
      // (tid % replicas).
      blk.threads([&](int tid) {
        const std::size_t repl =
            static_cast<std::size_t>(tid) % replicas * nbins;
        for (std::size_t i = begin + static_cast<std::size_t>(tid); i < end;
             i += static_cast<std::size_t>(blk.block_dim())) {
          const auto bin = static_cast<std::size_t>(data[i]);
          assert(bin < nbins);
          // Within the simulator a block is executed by one host thread, so
          // a plain increment implements the shared atomic.
          ++shared[repl + bin];
        }
      });

      // Phase 2: replica reduction + global flush (bin-parallel across the
      // block's threads, global atomics to combine blocks).
      blk.threads([&](int tid) {
        for (std::size_t b = static_cast<std::size_t>(tid); b < nbins;
             b += static_cast<std::size_t>(blk.block_dim())) {
          u64 sum = 0;
          for (std::size_t r = 0; r < replicas; ++r) {
            sum += shared[r * nbins + b];
          }
          if (sum > 0) simt::atomic_add(hist[b], sum);
        }
      });
    } else if (cfg.allow_multipass) {
      // Multi-pass: each pass owns a bin range sized to the shared budget,
      // re-reading the block's input partition and counting only in-range
      // symbols. n_passes x coalesced reads, conflict-light shared atomics.
      const std::size_t per_pass = bins_per_pass(cfg);
      auto shared = blk.shared_array<u32>(per_pass);
      const std::size_t passes = (nbins + per_pass - 1) / per_pass;
      for (std::size_t pass = 0; pass < passes; ++pass) {
        if (cancel) cancel->check();
        const std::size_t lo = pass * per_pass;
        const std::size_t hi = std::min(lo + per_pass, nbins);
        std::fill(shared.begin(),
                  shared.begin() + static_cast<std::ptrdiff_t>(hi - lo), 0);
        blk.threads([&](int tid) {
          for (std::size_t i = begin + static_cast<std::size_t>(tid);
               i < end; i += static_cast<std::size_t>(blk.block_dim())) {
            const auto bin = static_cast<std::size_t>(data[i]);
            if (bin >= lo && bin < hi) ++shared[bin - lo];
          }
        });
        blk.threads([&](int tid) {
          for (std::size_t b = lo + static_cast<std::size_t>(tid); b < hi;
               b += static_cast<std::size_t>(blk.block_dim())) {
            if (shared[b - lo] > 0) {
              simt::atomic_add(hist[b], static_cast<u64>(shared[b - lo]));
            }
          }
        });
      }
    } else {
      // Degenerate path: direct global atomics.
      blk.threads([&](int tid) {
        for (std::size_t i = begin + static_cast<std::size_t>(tid); i < end;
             i += static_cast<std::size_t>(blk.block_dim())) {
          simt::atomic_add(hist[static_cast<std::size_t>(data[i])], u64{1});
        }
      });
    }
    charge_block(blk.tally(), cfg, nbins, sizeof(Sym), end - begin);
  });
  return hist;
}

template std::vector<u64> histogram_serial<u8>(std::span<const u8>,
                                               std::size_t,
                                               const CancelToken*);
template std::vector<u64> histogram_serial<u16>(std::span<const u16>,
                                                std::size_t,
                                                const CancelToken*);
template std::vector<u64> histogram_openmp<u8>(std::span<const u8>,
                                               std::size_t, int,
                                               const CancelToken*);
template std::vector<u64> histogram_openmp<u16>(std::span<const u16>,
                                                std::size_t, int,
                                                const CancelToken*);
template std::vector<u64> histogram_simt<u8>(std::span<const u8>, std::size_t,
                                             simt::MemTally*,
                                             const SimtHistogramConfig&,
                                             const CancelToken*);
template std::vector<u64> histogram_simt<u16>(std::span<const u16>,
                                              std::size_t, simt::MemTally*,
                                              const SimtHistogramConfig&,
                                              const CancelToken*);
template std::vector<u64> histogram_simt_kernel<u8>(
    std::span<const u8>, std::size_t, simt::MemTally*,
    const SimtHistogramConfig&, const CancelToken*);
template std::vector<u64> histogram_simt_kernel<u16>(
    std::span<const u16>, std::size_t, simt::MemTally*,
    const SimtHistogramConfig&, const CancelToken*);

}  // namespace parhuff
