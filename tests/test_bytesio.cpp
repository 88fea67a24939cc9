// Bounds-checked byte IO underpinning every container format.
#include <gtest/gtest.h>

#include <vector>

#include "core/bytesio.hpp"

namespace parhuff {
namespace {

TEST(ByteIo, ScalarRoundTrip) {
  ByteWriter w;
  w.put<u8>(0xAB);
  w.put<u32>(0xDEADBEEF);
  w.put<u64>(u64{1} << 60);
  w.put<double>(3.5);
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 8);

  ByteReader r(bytes);
  EXPECT_EQ(r.get<u8>(), 0xAB);
  EXPECT_EQ(r.get<u32>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<u64>(), u64{1} << 60);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.5);
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, ArrayRoundTrip) {
  ByteWriter w;
  const std::vector<u32> v = {1, 2, 3, 1000000};
  w.put_array(std::span<const u32>(v));
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_array<u32>(4), v);
}

TEST(ByteIo, EmptyArrayRoundTrip) {
  // Zero-length sections are legal (a container with no outliers, say):
  // they write nothing and read back empty without handing memcpy the
  // null data() of an empty vector or span.
  ByteWriter w;
  w.put_array(std::span<const u32>());
  EXPECT_TRUE(w.take().empty());
  ByteReader empty(std::span<const u8>{});
  EXPECT_TRUE(empty.get_array<u32>(0).empty());
  EXPECT_TRUE(empty.get_array<double>(0).empty());
  EXPECT_TRUE(empty.done());

  const std::vector<u8> v = {7, 8};
  w.put_array(std::span<const u8>(v));
  w.put_array(std::span<const u8>());
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 2u);
  ByteReader r(bytes);
  EXPECT_EQ(r.get_array<u8>(2), v);
  EXPECT_TRUE(r.get_array<u8>(0).empty());  // at the end of the buffer
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, TruncationThrows) {
  ByteWriter w;
  w.put<u32>(7);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get<u64>(), std::runtime_error);
  // Cursor must not have advanced past a failed read's start.
  EXPECT_EQ(r.get<u32>(), 7u);
}

TEST(ByteIo, OverflowSafeNeedCheck) {
  // A huge requested length must not wrap the bounds arithmetic.
  const std::vector<u8> bytes = {1, 2, 3};
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get_array<u8>(static_cast<std::size_t>(-1)),
               std::runtime_error);
  // n * sizeof(T) wraps to 0 here: the check must not multiply.
  EXPECT_THROW((void)r.get_array<u32>(std::size_t{1} << 62),
               std::runtime_error);
  EXPECT_THROW((void)r.get_view(static_cast<std::size_t>(-8)),
               std::runtime_error);
}

TEST(ByteIo, ViewsShareStorage) {
  ByteWriter w;
  w.put<u32>(0x01020304);
  w.put<u32>(0x05060708);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto v = r.get_view(4);
  EXPECT_EQ(v.data(), bytes.data());
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(ByteIo, PositionTracking) {
  ByteWriter w;
  for (int i = 0; i < 10; ++i) w.put<u16>(static_cast<u16>(i));
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.position(), 0u);
  (void)r.get<u16>();
  (void)r.get<u16>();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 16u);
  EXPECT_FALSE(r.done());
}

}  // namespace
}  // namespace parhuff
