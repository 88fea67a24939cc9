// SIMT simulator substrate: block/shared-memory/barrier semantics, warp
// primitives, atomics, cooperative grid, and the sector-expansion math of
// the memory model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "simt/atomics.hpp"
#include "simt/block.hpp"
#include "simt/coop.hpp"
#include "simt/mem_model.hpp"
#include "simt/spec.hpp"
#include "simt/warp.hpp"

namespace parhuff::simt {
namespace {

TEST(Block, EveryThreadRunsExactlyOnce) {
  constexpr int kGrid = 8, kBlock = 64;
  std::vector<int> hits(kGrid * kBlock, 0);
  launch(kGrid, kBlock, nullptr, [&](BlockCtx& blk) {
    blk.threads([&](int tid) { hits[blk.global_id(tid)] += 1; });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Block, SharedMemoryVisibleAcrossRegions) {
  launch(4, 32, nullptr, [&](BlockCtx& blk) {
    auto sh = blk.shared_array<int>(32);
    blk.threads([&](int tid) { sh[tid] = tid * 3; });
    blk.sync();
    blk.threads([&](int tid) { EXPECT_EQ(sh[tid], tid * 3); });
  });
}

TEST(Block, SharedMemoryIsPerBlock) {
  std::vector<int> block_sums(16, 0);
  launch(16, 128, nullptr, [&](BlockCtx& blk) {
    auto sh = blk.shared_array<int>(1);
    sh[0] = 0;
    blk.threads([&](int) { sh[0] += 1; });
    block_sums[blk.block_id()] = sh[0];
  });
  for (int s : block_sums) EXPECT_EQ(s, 128);
}

TEST(Block, GridReductionViaGlobalAtomics) {
  u64 total = 0;
  constexpr int kGrid = 32, kBlock = 256;
  launch(kGrid, kBlock, nullptr, [&](BlockCtx& blk) {
    auto sh = blk.shared_array<u64>(1);
    sh[0] = 0;
    blk.threads(
        [&](int tid) { sh[0] += static_cast<u64>(blk.global_id(tid)); });
    blk.sync();
    atomic_add(total, sh[0]);
  });
  const u64 n = kGrid * kBlock;
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(Atomics, MinMaxCas) {
  u32 mn = 1000, mx = 0;
  u64 counter = 0;
  launch(16, 64, nullptr, [&](BlockCtx& blk) {
    blk.threads([&](int tid) {
      const u32 v = static_cast<u32>(blk.global_id(tid));
      atomic_min(mn, v);
      atomic_max(mx, v);
      atomic_add(counter, u64{1});
    });
  });
  EXPECT_EQ(mn, 0u);
  EXPECT_EQ(mx, 16u * 64 - 1);
  EXPECT_EQ(counter, 16u * 64);
  u32 slot = 5;
  EXPECT_EQ(atomic_cas(slot, 5u, 9u), 5u);  // returns old value
  EXPECT_EQ(slot, 9u);
  EXPECT_EQ(atomic_cas(slot, 5u, 1u), 9u);  // no swap on mismatch
  EXPECT_EQ(slot, 9u);
}

TEST(Warp, LaneIterationAndBallot) {
  launch(1, 70, nullptr, [&](BlockCtx& blk) {
    int warps = 0;
    int lanes = 0;
    for_each_warp(blk, [&](WarpCtx& w) {
      ++warps;
      lanes += w.active_lanes();
      const std::uint32_t even = w.ballot([](int l) { return l % 2 == 0; });
      // Even lanes of the active set.
      std::uint32_t expect = 0;
      for (int l = 0; l < w.active_lanes(); l += 2) expect |= 1u << l;
      EXPECT_EQ(even, expect);
    });
    EXPECT_EQ(warps, 3);       // 70 threads = 32 + 32 + 6
    EXPECT_EQ(lanes, 70);
  });
}

TEST(Warp, ReduceAndScan) {
  launch(1, 32, nullptr, [&](BlockCtx& blk) {
    for_each_warp(blk, [&](WarpCtx& w) {
      std::array<int, kWarpSize> v{};
      w.lanes([&](int l) { v[l] = l + 1; });
      EXPECT_EQ(w.reduce_add(v), 32 * 33 / 2);
      w.lanes([&](int l) { v[l] = 1; (void)l; });
      w.scan_inclusive(v);
      for (int l = 0; l < 32; ++l) EXPECT_EQ(v[l], l + 1);
    });
  });
}

TEST(Warp, DivergenceCounted) {
  MemTally tally;
  launch(1, 64, &tally, [&](BlockCtx& blk) {
    for_each_warp(blk, [&](WarpCtx& w) {
      (void)w.ballot([](int l) { return l < 7; });   // divergent
      (void)w.ballot([](int) { return true; });      // convergent
    });
  });
  EXPECT_EQ(tally.divergent_branches, 2u);  // one per warp
}

TEST(Coop, RegionsAreBarrierOrdered) {
  MemTally tally;
  CooperativeGrid grid(1024, &tally);
  std::vector<int> v(10000, 0);
  grid.par(v.size(), [&](std::size_t i) { v[i] = static_cast<int>(i); });
  u64 sum = 0;
  grid.seq([&] {
    for (int x : v) sum += static_cast<u64>(x);
  });
  EXPECT_EQ(sum, u64{9999} * 10000 / 2);
  EXPECT_EQ(tally.kernel_launches, 1u);
  EXPECT_EQ(tally.grid_syncs, 2u);
}

TEST(MemModel, CoalescedSectorMath) {
  MemTally t;
  // 64 coalesced 4-byte reads = 2 full warps x 128B = 8 sectors.
  t.global_read(64, 4, Pattern::kCoalesced);
  EXPECT_EQ(t.global_read_bytes, 256u);
  EXPECT_EQ(t.global_read_sectors, 8u);
}

TEST(MemModel, StridedPaysFullSectorPerAccess) {
  MemTally t;
  t.global_read(64, 4, Pattern::kStrided);
  EXPECT_EQ(t.global_read_sectors, 64u);
}

TEST(MemModel, BroadcastPaysOncePerWarp) {
  MemTally t;
  t.global_read(64, 8, Pattern::kBroadcast);
  EXPECT_EQ(t.global_read_sectors, 2u);
}

TEST(MemModel, PartialWarpRoundsUp) {
  MemTally t;
  t.global_read(33, 4, Pattern::kCoalesced);  // 1 full warp + 1 lane
  EXPECT_EQ(t.global_read_sectors, 4u + 4u);
}

TEST(MemModel, Accumulation) {
  MemTally a, b;
  a.global_write(10, 4, Pattern::kCoalesced);
  b.global_write(10, 4, Pattern::kCoalesced);
  b.kernel_launches = 3;
  a += b;
  EXPECT_EQ(a.global_write_bytes, 80u);
  EXPECT_EQ(a.kernel_launches, 3u);
}

TEST(Spec, DeviceFactories) {
  const DeviceSpec v = DeviceSpec::v100();
  const DeviceSpec tu = DeviceSpec::rtx5000();
  EXPECT_GT(v.mem_bandwidth_gbps, tu.mem_bandwidth_gbps);
  EXPECT_GT(v.mem_bytes_per_sec(), 0.0);
  EXPECT_GT(v.bulk_ops_per_sec(), tu.bulk_ops_per_sec());
}

TEST(SharedMem, AlignedAllocation) {
  alignas(8) std::byte storage[1024];
  SharedMem sh(storage);
  auto a = sh.alloc<u8>(3);
  auto b = sh.alloc<u64>(2);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % alignof(u64), 0u);
}

TEST(SharedMem, AllocPastCapacityThrows) {
  alignas(8) std::byte storage[1024];
  SharedMem sh(storage);
  EXPECT_THROW((void)sh.alloc<u8>(1025), std::length_error);
  EXPECT_THROW((void)sh.alloc<u64>(std::size_t{1} << 61), std::length_error);
  (void)sh.alloc<u8>(1);
  EXPECT_THROW((void)sh.alloc<u64>(128), std::length_error);  // 8 + 1024
  EXPECT_EQ(sh.alloc<u64>(127).size(), 127u);  // exactly fills the rest
  EXPECT_EQ(sh.used(), sh.capacity());
  EXPECT_THROW((void)sh.alloc<u8>(1), std::length_error);
}

TEST(SharedMem, BlockBudgetIsEnforcedInEveryBuild) {
  EXPECT_THROW(launch(4, 32, nullptr,
                      [](BlockCtx& blk) {
                        (void)blk.shared_array<u8>(kSharedMemBytes + 1);
                      }),
               std::length_error);
  // Two allocations that each fit but together do not.
  EXPECT_THROW(launch(1, 32, nullptr,
                      [](BlockCtx& blk) {
                        (void)blk.shared_array<u8>(kSharedMemBytes / 2 + 1);
                        (void)blk.shared_array<u8>(kSharedMemBytes / 2);
                      }),
               std::length_error);
  // The failed blocks returned their leases: the whole budget is free.
  launch(4, 32, nullptr, [](BlockCtx& blk) {
    EXPECT_EQ(blk.shared_array<u8>(kSharedMemBytes).size(), kSharedMemBytes);
  });
}

TEST(Block, NestedLaunchGetsDisjointSharedMemory) {
  launch(4, 32, nullptr, [](BlockCtx& outer) {
    auto parent = outer.shared_array<u32>(kSharedMemBytes / sizeof(u32));
    std::fill(parent.begin(), parent.end(), 7u);
    const auto* p_lo = reinterpret_cast<const std::byte*>(parent.data());
    const auto* p_hi = p_lo + parent.size_bytes();
    launch(3, 32, nullptr, [&](BlockCtx& inner) {
      auto child = inner.shared_array<u32>(kSharedMemBytes / sizeof(u32));
      const auto* c_lo = reinterpret_cast<const std::byte*>(child.data());
      const auto* c_hi = c_lo + child.size_bytes();
      EXPECT_TRUE(c_hi <= p_lo || p_hi <= c_lo);
      std::fill(child.begin(), child.end(), 9u);
    });
    // The nested blocks never wrote into the parent's live buffer.
    EXPECT_EQ(std::count(parent.begin(), parent.end(), 7u),
              static_cast<std::ptrdiff_t>(parent.size()));
  });
}

}  // namespace
}  // namespace parhuff::simt
