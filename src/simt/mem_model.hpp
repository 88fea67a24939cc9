#pragma once
// Memory-transaction accounting for simulated kernels.
//
// Kernels running on the SIMT simulator annotate each global-memory access
// stream with the pattern it would exhibit on real hardware (the pattern is
// a static property of the code: a warp reading in[base+lane] is coalesced;
// a warp where each lane walks its own chunk is strided; a codebook lookup
// is effectively random). The byte counts are measured exactly at runtime;
// only the bytes→sector expansion uses the declared pattern. This is the
// standard analytic-GPU-model compromise: functional execution is exact,
// transaction expansion is derived from the access shape.

#include <cstdint>

#include "util/types.hpp"

namespace parhuff::simt {

/// DRAM transaction granularity on Volta/Turing.
inline constexpr u64 kSectorBytes = 32;

enum class Pattern {
  kCoalesced,  ///< consecutive lanes touch consecutive addresses
  kStrided,    ///< constant inter-lane stride larger than the element
  kRandom,     ///< data-dependent addresses (e.g. codebook lookups)
  kBroadcast,  ///< all lanes read the same address (one sector per warp)
};

/// Counter block. One per kernel launch; merged into the pipeline report.
struct MemTally {
  // Global memory, useful payload bytes.
  u64 global_read_bytes = 0;
  u64 global_write_bytes = 0;
  // Global memory, 32-byte sectors actually transferred after coalescing.
  u64 global_read_sectors = 0;
  u64 global_write_sectors = 0;
  // Shared memory payload bytes.
  u64 shared_bytes = 0;
  // Atomics: count and total serialized conflict depth.
  u64 global_atomics = 0;
  u64 global_atomic_conflicts = 0;
  u64 shared_atomics = 0;
  u64 shared_atomic_conflicts = 0;
  // Control.
  u64 kernel_launches = 0;
  u64 grid_syncs = 0;
  u64 block_syncs = 0;
  u64 divergent_branches = 0;
  // Scalar work executed by threads (approximate instruction count).
  u64 scalar_ops = 0;
  // Work executed by a *single* thread with full dependent latency
  // (sequential sections; drives the serial-on-GPU baselines).
  u64 serial_dependent_ops = 0;

  void reset() { *this = MemTally{}; }

  friend bool operator==(const MemTally&, const MemTally&) = default;

  MemTally& operator+=(const MemTally& o) {
    global_read_bytes += o.global_read_bytes;
    global_write_bytes += o.global_write_bytes;
    global_read_sectors += o.global_read_sectors;
    global_write_sectors += o.global_write_sectors;
    shared_bytes += o.shared_bytes;
    global_atomics += o.global_atomics;
    global_atomic_conflicts += o.global_atomic_conflicts;
    shared_atomics += o.shared_atomics;
    shared_atomic_conflicts += o.shared_atomic_conflicts;
    kernel_launches += o.kernel_launches;
    grid_syncs += o.grid_syncs;
    block_syncs += o.block_syncs;
    divergent_branches += o.divergent_branches;
    scalar_ops += o.scalar_ops;
    serial_dependent_ops += o.serial_dependent_ops;
    return *this;
  }

  /// Record `n` accesses of `elem_bytes` each from one warp-shaped group of
  /// `group` lanes, expanding to sectors per the pattern.
  void global_read(u64 n, u64 elem_bytes, Pattern p, int group = 32) {
    global_read_bytes += n * elem_bytes;
    global_read_sectors += sectors(n, elem_bytes, p, group);
  }
  void global_write(u64 n, u64 elem_bytes, Pattern p, int group = 32) {
    global_write_bytes += n * elem_bytes;
    global_write_sectors += sectors(n, elem_bytes, p, group);
  }
  void shared_access(u64 n, u64 elem_bytes) { shared_bytes += n * elem_bytes; }
  /// `conflict_depth` = expected number of same-address/same-bank collisions
  /// each atomic serializes behind (1 = conflict-free).
  void global_atomic(u64 n, double conflict_depth = 1.0) {
    global_atomics += n;
    global_atomic_conflicts += static_cast<u64>(
        static_cast<double>(n) * (conflict_depth < 1.0 ? 1.0 : conflict_depth));
  }
  void shared_atomic(u64 n, double conflict_depth = 1.0) {
    shared_atomics += n;
    shared_atomic_conflicts += static_cast<u64>(
        static_cast<double>(n) * (conflict_depth < 1.0 ? 1.0 : conflict_depth));
  }
  void ops(u64 n) { scalar_ops += n; }
  void serial_ops(u64 n) { serial_dependent_ops += n; }

  [[nodiscard]] static u64 sectors(u64 n, u64 elem_bytes, Pattern p,
                                   int group) {
    if (n == 0) return 0;
    switch (p) {
      case Pattern::kCoalesced: {
        // group consecutive elements share ceil(group*elem/32) sectors; a
        // partial trailing group still rounds up per warp.
        const u64 per_group =
            (static_cast<u64>(group) * elem_bytes + kSectorBytes - 1) /
            kSectorBytes;
        const u64 groups = (n + static_cast<u64>(group) - 1) /
                           static_cast<u64>(group);
        return groups * per_group;
      }
      case Pattern::kStrided:
      case Pattern::kRandom:
        // every access lands in its own sector
        return n * ((elem_bytes + kSectorBytes - 1) / kSectorBytes);
      case Pattern::kBroadcast: {
        const u64 groups = (n + static_cast<u64>(group) - 1) /
                           static_cast<u64>(group);
        return groups * ((elem_bytes + kSectorBytes - 1) / kSectorBytes);
      }
    }
    return n;
  }
};

}  // namespace parhuff::simt
