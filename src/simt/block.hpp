#pragma once
// Functional SIMT execution: grids of thread blocks with shared memory and
// barrier semantics, executed block-parallel on the host.
//
// Execution model
// ---------------
// A kernel is a callable `void(BlockCtx&)`. Blocks are independent (as in
// CUDA) and are scheduled across an OpenMP thread pool. *Within* a block,
// per-thread code is expressed as barrier-delimited regions:
//
//   launch(grid_dim, block_dim, tally, [&](BlockCtx& blk) {
//     auto hist = blk.shared_array<unsigned>(nbins);       // __shared__
//     blk.threads([&](int tid) { ... phase 1 ... });       // region
//     blk.sync();                                          // __syncthreads()
//     blk.threads([&](int tid) { ... phase 2 ... });
//   });
//
// Each `threads()` region runs every thread of the block to completion
// before the next region starts, which is exactly the visibility guarantee
// `__syncthreads()` provides for code that only communicates across
// barriers — the discipline all kernels in this codebase follow (and that
// correct CUDA kernels must follow anyway). `sync()` exists to make the
// barrier explicit at call sites and to tally its modeled cost.
//
// Warp-level execution (shuffles, ballots) is provided by warp.hpp on top of
// `BlockCtx::warps()`.
//
// Shared memory
// -------------
// Each host thread leases one 96 KiB arena and reuses it for every block it
// runs; a block's `shared_array` allocations are carved from that arena and
// released when the block retires. As on hardware, shared memory starts
// *uninitialised*: a block sees whatever the previous block on that host
// thread left behind, so every kernel must write what it reads. Leases
// stack: a `launch` started from inside a block on the same host thread
// gets the next arena down, never its parent's live buffer. Allocations
// past the 96 KiB budget throw `std::length_error` (in every build type).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/mem_model.hpp"
#include "util/parallel.hpp"

namespace parhuff::simt {

/// Volta/Turing expose up to 96 KiB of shared memory per block.
inline constexpr std::size_t kSharedMemBytes = 96 * 1024;

/// A block's shared memory: a bump allocator over a borrowed buffer.
/// Allocations live until the block retires, mirroring the shared-memory
/// lifecycle binding described in §III-A of the paper. Contents are not
/// initialised.
class SharedMem {
 public:
  explicit SharedMem(std::span<std::byte> storage) : storage_(storage) {}

  /// `n` elements of `T`, aligned; throws std::length_error when the
  /// request does not fit the remaining capacity.
  template <typename T>
  std::span<T> alloc(std::size_t n) {
    const std::size_t aligned = (used_ + alignof(T) - 1) & ~(alignof(T) - 1);
    if (aligned > storage_.size() ||
        n > (storage_.size() - aligned) / sizeof(T)) {
      throw std::length_error(
          "simulated shared memory exhausted (96 KiB/block)");
    }
    used_ = aligned + n * sizeof(T);
    return {reinterpret_cast<T*>(storage_.data() + aligned), n};
  }

  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return storage_.size(); }

 private:
  std::span<std::byte> storage_;
  std::size_t used_ = 0;
};

namespace detail {

/// The calling host thread's arenas, one per nesting depth. Arenas are
/// allocated on first use at a depth and kept for the thread's lifetime.
struct ArenaStack {
  std::vector<std::unique_ptr<std::byte[]>> arenas;
  std::size_t depth = 0;

  void grow() {
    arenas.push_back(
        std::make_unique_for_overwrite<std::byte[]>(kSharedMemBytes));
  }
};

inline ArenaStack& thread_arenas() {
  thread_local ArenaStack stack;
  return stack;
}

/// RAII lease of the calling thread's next free arena.
class ArenaLease {
 public:
  ArenaLease() : stack_(thread_arenas()) {
    if (stack_.depth == stack_.arenas.size()) stack_.grow();
    storage_ = {stack_.arenas[stack_.depth++].get(), kSharedMemBytes};
  }
  ~ArenaLease() { --stack_.depth; }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  [[nodiscard]] std::span<std::byte> storage() const { return storage_; }

 private:
  ArenaStack& stack_;
  std::span<std::byte> storage_;
};

}  // namespace detail

/// Fill every shared-memory arena the calling host thread holds with
/// `value`, creating its first arena if it has none yet. A test hook: run
/// it on every pool thread to show a kernel's output does not depend on
/// what shared memory held before the block started.
inline void fill_thread_arenas(std::byte value) {
  auto& stack = detail::thread_arenas();
  if (stack.arenas.empty()) stack.grow();
  for (auto& arena : stack.arenas) {
    std::fill_n(arena.get(), kSharedMemBytes, value);
  }
}

class BlockCtx {
 public:
  BlockCtx(int block_id, int block_dim, int grid_dim, MemTally* tally)
      : block_id_(block_id),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        shmem_(lease_.storage()),
        tally_(tally) {}

  [[nodiscard]] int block_id() const { return block_id_; }
  [[nodiscard]] int block_dim() const { return block_dim_; }
  [[nodiscard]] int grid_dim() const { return grid_dim_; }
  /// Global thread id of this block's thread `tid`.
  [[nodiscard]] std::size_t global_id(int tid) const {
    return static_cast<std::size_t>(block_id_) * block_dim_ + tid;
  }
  /// Total threads in the grid.
  [[nodiscard]] std::size_t grid_size() const {
    return static_cast<std::size_t>(grid_dim_) * block_dim_;
  }

  template <typename T>
  std::span<T> shared_array(std::size_t n) {
    tally().shared_access(0, 0);  // allocation itself is free
    return shmem_.alloc<T>(n);
  }

  /// Run `fn(tid)` for every thread of the block. Regions are implicitly
  /// barrier-delimited (see file comment).
  template <typename Fn>
  void threads(Fn&& fn) {
    for (int t = 0; t < block_dim_; ++t) fn(t);
  }

  /// Explicit __syncthreads() — functional no-op between regions, but
  /// tallied for the performance model.
  void sync() { tally().block_syncs += 1; }

  [[nodiscard]] MemTally& tally() {
    return tally_ ? *tally_ : scratch_tally_;
  }

 private:
  int block_id_;
  int block_dim_;
  int grid_dim_;
  detail::ArenaLease lease_;
  SharedMem shmem_;
  MemTally* tally_;
  MemTally scratch_tally_;  // used when the caller doesn't collect metrics
};

/// Launch `grid_dim` blocks of `block_dim` simulated threads. Blocks execute
/// concurrently on host threads; each block runs its regions serially.
/// `tally` (optional) accumulates transaction counts from all blocks.
template <typename Kernel>
void launch(int grid_dim, int block_dim, MemTally* tally, Kernel&& kernel) {
  assert(block_dim >= 1 && block_dim <= 1024);
  obs::TraceSpan span("simt.launch", "simt");
  std::vector<MemTally> per_block(tally ? static_cast<std::size_t>(grid_dim)
                                        : 0);
  parhuff::parallel_for(static_cast<std::size_t>(grid_dim), [&](std::size_t b) {
    BlockCtx ctx(static_cast<int>(b), block_dim, grid_dim,
                 tally ? &per_block[b] : nullptr);
    kernel(ctx);
  });
  obs::MetricsRegistry::global().counter_add("simt.kernel_launches");
  if (tally) {
    tally->kernel_launches += 1;
    u64 block_syncs = 0;
    for (const auto& t : per_block) {
      *tally += t;
      block_syncs += t.block_syncs;
    }
    obs::MetricsRegistry::global().counter_add("simt.block_syncs",
                                               block_syncs);
  }
}

}  // namespace parhuff::simt
