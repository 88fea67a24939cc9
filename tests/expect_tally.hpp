#pragma once
// Field-by-field MemTally comparison, so a failure names the counter that
// differs.

#include <gtest/gtest.h>

#include "simt/mem_model.hpp"

namespace parhuff {

inline void expect_tally(const char* what, const simt::MemTally& got,
                         const simt::MemTally& want) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.global_read_bytes, want.global_read_bytes);
  EXPECT_EQ(got.global_write_bytes, want.global_write_bytes);
  EXPECT_EQ(got.global_read_sectors, want.global_read_sectors);
  EXPECT_EQ(got.global_write_sectors, want.global_write_sectors);
  EXPECT_EQ(got.shared_bytes, want.shared_bytes);
  EXPECT_EQ(got.global_atomics, want.global_atomics);
  EXPECT_EQ(got.global_atomic_conflicts, want.global_atomic_conflicts);
  EXPECT_EQ(got.shared_atomics, want.shared_atomics);
  EXPECT_EQ(got.shared_atomic_conflicts, want.shared_atomic_conflicts);
  EXPECT_EQ(got.kernel_launches, want.kernel_launches);
  EXPECT_EQ(got.grid_syncs, want.grid_syncs);
  EXPECT_EQ(got.block_syncs, want.block_syncs);
  EXPECT_EQ(got.divergent_branches, want.divergent_branches);
  EXPECT_EQ(got.scalar_ops, want.scalar_ops);
  EXPECT_EQ(got.serial_dependent_ops, want.serial_dependent_ops);
}

}  // namespace parhuff
