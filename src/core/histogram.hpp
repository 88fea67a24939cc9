#pragma once
// Histogramming (stage 1 of the pipeline, §IV-A).
//
// Four entry points. The three host counts share one count loop (symbols
// go to interleaved u32 copies of the histogram, flushed to u64 before any
// copy can wrap):
//  * histogram_serial — reference.
//  * histogram_openmp — coarse-grained: per-thread private histograms over
//    contiguous chunks, tree-reduced. This is the multithreaded CPU
//    histogram of Table VI.
//  * histogram_simt_kernel — the model: the Gómez-Luna et al. GPU algorithm
//    the paper uses, simulated thread by thread. Each thread block keeps R
//    replicated sub-histograms in shared memory (R chosen from the
//    shared-memory budget) to spread atomic conflicts; threads stride the
//    block's input partition, update replica (tid mod R) with shared
//    atomics, and finally the replicas are reduced and flushed to the
//    global histogram with global atomics. The paper's footnote 3 notes
//    8192 symbols as the practical shared-memory limit — above that the
//    kernel re-reads its partition once per bin range (multipass) or
//    degrades to direct global atomics, which the tally makes visible.
//    The tests and the kernel benches run it.
//  * histogram_simt — the product, which compress() and the service run:
//    a host count over the kernel's own block partitions that returns the
//    kernel's counts and charges the kernel's MemTally. Every charge is a
//    function of the shape (n, nbins, SimtHistogramConfig), never of the
//    symbols, and both forms charge each block through one definition, so
//    the tallies agree field by field. It runs no simulation, so it does
//    not bump the simt.kernel_launches / simt.block_syncs counters.
//
// All four take an optional CancelToken polled cooperatively (see
// core/cancel.hpp): serial every 64Ki symbols; openmp once per thread
// chunk; histogram_simt once per kernel block partition, inside the
// OpenMP region, and never per multipass round (it counts every bin in
// one pass); histogram_simt_kernel once per block partition and once per
// multipass round.

#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "simt/mem_model.hpp"
#include "util/types.hpp"

namespace parhuff {

template <typename Sym>
[[nodiscard]] std::vector<u64> histogram_serial(
    std::span<const Sym> data, std::size_t nbins,
    const CancelToken* cancel = nullptr);

template <typename Sym>
[[nodiscard]] std::vector<u64> histogram_openmp(
    std::span<const Sym> data, std::size_t nbins, int threads = 0,
    const CancelToken* cancel = nullptr);

struct SimtHistogramConfig {
  int grid_dim = 160;     ///< 2 blocks per SM on the V100
  int block_dim = 256;
  std::size_t shared_budget_bytes = 48 * 1024;  ///< shared memory per block
  /// Alphabets too large for one shared-memory copy (the paper's footnote-3
  /// 8192-symbol limit) are histogrammed in bin-range passes: pass p counts
  /// only bins [p·P, (p+1)·P) in shared memory and re-reads the input.
  /// Trades extra coalesced reads for conflict-free shared atomics; set
  /// false to fall back to direct global atomics instead.
  bool allow_multipass = true;
};

template <typename Sym>
[[nodiscard]] std::vector<u64> histogram_simt(
    std::span<const Sym> data, std::size_t nbins,
    simt::MemTally* tally = nullptr,
    const SimtHistogramConfig& cfg = SimtHistogramConfig{},
    const CancelToken* cancel = nullptr);

template <typename Sym>
[[nodiscard]] std::vector<u64> histogram_simt_kernel(
    std::span<const Sym> data, std::size_t nbins,
    simt::MemTally* tally = nullptr,
    const SimtHistogramConfig& cfg = SimtHistogramConfig{},
    const CancelToken* cancel = nullptr);

extern template std::vector<u64> histogram_serial<u8>(std::span<const u8>,
                                                      std::size_t,
                                                      const CancelToken*);
extern template std::vector<u64> histogram_serial<u16>(std::span<const u16>,
                                                       std::size_t,
                                                       const CancelToken*);
extern template std::vector<u64> histogram_openmp<u8>(std::span<const u8>,
                                                      std::size_t, int,
                                                      const CancelToken*);
extern template std::vector<u64> histogram_openmp<u16>(std::span<const u16>,
                                                       std::size_t, int,
                                                       const CancelToken*);
extern template std::vector<u64> histogram_simt<u8>(std::span<const u8>,
                                                    std::size_t,
                                                    simt::MemTally*,
                                                    const SimtHistogramConfig&,
                                                    const CancelToken*);
extern template std::vector<u64> histogram_simt<u16>(std::span<const u16>,
                                                     std::size_t,
                                                     simt::MemTally*,
                                                     const SimtHistogramConfig&,
                                                     const CancelToken*);
extern template std::vector<u64> histogram_simt_kernel<u8>(
    std::span<const u8>, std::size_t, simt::MemTally*,
    const SimtHistogramConfig&, const CancelToken*);
extern template std::vector<u64> histogram_simt_kernel<u16>(
    std::span<const u16>, std::size_t, simt::MemTally*,
    const SimtHistogramConfig&, const CancelToken*);

}  // namespace parhuff
