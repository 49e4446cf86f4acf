#include "wasm/memory.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rr::wasm {
namespace {

TEST(LinearMemoryTest, InitialPages) {
  LinearMemory mem({.min_pages = 2});
  EXPECT_EQ(mem.pages(), 2u);
  EXPECT_EQ(mem.byte_size(), 2u * kWasmPageSize);
}

TEST(LinearMemoryTest, GrowReturnsOldSize) {
  LinearMemory mem({.min_pages = 1});
  EXPECT_EQ(mem.Grow(3), 1);
  EXPECT_EQ(mem.pages(), 4u);
}

TEST(LinearMemoryTest, GrowRespectsMax) {
  LinearMemory mem({.min_pages = 1, .has_max = true, .max_pages = 2});
  EXPECT_EQ(mem.Grow(1), 1);
  EXPECT_EQ(mem.Grow(1), -1);
  EXPECT_EQ(mem.pages(), 2u);
}

TEST(LinearMemoryTest, DefaultMaxApplied) {
  LinearMemory mem({.min_pages = 1});
  EXPECT_TRUE(mem.limits().has_max);
  EXPECT_EQ(mem.limits().max_pages, kDefaultMaxPages);
}

TEST(LinearMemoryTest, TypedLoadStore) {
  LinearMemory mem({.min_pages = 1});
  ASSERT_TRUE(mem.Store<uint32_t>(16, 0xdeadbeef).ok());
  auto loaded = mem.Load<uint32_t>(16);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 0xdeadbeefu);
}

TEST(LinearMemoryTest, OutOfBoundsLoadTraps) {
  LinearMemory mem({.min_pages = 1});
  EXPECT_FALSE(mem.Load<uint64_t>(kWasmPageSize - 4).ok());
  EXPECT_FALSE(mem.Store<uint8_t>(kWasmPageSize, 1).ok());
}

TEST(LinearMemoryTest, OffsetOverflowCaught) {
  LinearMemory mem({.min_pages = 1});
  EXPECT_FALSE(mem.InBounds(UINT64_MAX - 2, 8));
}

TEST(LinearMemoryTest, HostBulkReadWrite) {
  LinearMemory mem({.min_pages = 1});
  const Bytes data = ToBytes("roadrunner");
  ASSERT_TRUE(mem.Write(100, data).ok());
  Bytes out(data.size());
  ASSERT_TRUE(mem.Read(100, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(mem.host_bytes_written(), data.size());
  EXPECT_EQ(mem.host_bytes_read(), data.size());
}

TEST(LinearMemoryTest, HostReadOutOfBoundsRejected) {
  LinearMemory mem({.min_pages = 1});
  Bytes out(16);
  EXPECT_FALSE(mem.Read(kWasmPageSize - 8, out).ok());
}

TEST(LinearMemoryTest, SliceIsZeroCopyView) {
  LinearMemory mem({.min_pages = 1});
  ASSERT_TRUE(mem.Write(0, AsBytes("abc")).ok());
  auto slice = mem.Slice(0, 3);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(AsStringView(*slice), "abc");

  auto mut = mem.MutableSlice(0, 3);
  ASSERT_TRUE(mut.ok());
  (*mut)[0] = 'x';
  auto again = mem.Slice(0, 3);
  EXPECT_EQ(AsStringView(*again), "xbc");  // same backing bytes
}

TEST(LinearMemoryTest, CopyAndFill) {
  LinearMemory mem({.min_pages = 1});
  ASSERT_TRUE(mem.Write(0, AsBytes("abcdef")).ok());
  ASSERT_TRUE(mem.Copy(10, 0, 6).ok());
  auto copied = mem.Slice(10, 6);
  EXPECT_EQ(AsStringView(*copied), "abcdef");

  // Overlapping copy must behave like memmove.
  ASSERT_TRUE(mem.Copy(1, 0, 5).ok());
  auto overlapped = mem.Slice(0, 6);
  EXPECT_EQ(AsStringView(*overlapped), "aabcde");

  ASSERT_TRUE(mem.Fill(20, 0x7a, 4).ok());
  auto filled = mem.Slice(20, 4);
  EXPECT_EQ(AsStringView(*filled), "zzzz");

  EXPECT_FALSE(mem.Copy(kWasmPageSize - 2, 0, 6).ok());
  EXPECT_FALSE(mem.Fill(kWasmPageSize - 2, 0, 6).ok());
}

bool AllZero(ByteSpan bytes) {
  return std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; });
}

TEST(LinearMemoryTest, GrownPagesReadZero) {
  LinearMemory mem({.min_pages = 1});
  ASSERT_TRUE(mem.Fill(0, 0xff, kWasmPageSize).ok());
  ASSERT_EQ(mem.Grow(2), 1);
  auto grown = mem.Slice(kWasmPageSize, 2 * kWasmPageSize);
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(AllZero(*grown));
}

TEST(LinearMemoryTest, ContentsSurviveGrowthPastMmapThreshold) {
  // 1 to 64 pages (4 MiB) crosses the C allocator's mmap threshold, so Grow
  // runs both the in-heap and the remapping realloc paths.
  LinearMemory mem({.min_pages = 1});
  auto stamp = [](uint32_t page) { return static_cast<uint8_t>(page * 37 + 1); };
  for (uint32_t page = 0; page < 64; ++page) {
    if (page > 0) ASSERT_EQ(mem.Grow(1), static_cast<int32_t>(page));
    ASSERT_TRUE(mem.Fill(uint64_t{page} * kWasmPageSize, stamp(page), kWasmPageSize).ok());
  }
  for (uint32_t page = 0; page < 64; ++page) {
    auto bytes = mem.Slice(uint64_t{page} * kWasmPageSize, kWasmPageSize);
    ASSERT_TRUE(bytes.ok());
    EXPECT_TRUE(std::all_of(bytes->begin(), bytes->end(),
                            [&](uint8_t b) { return b == stamp(page); }))
        << "page " << page;
  }
}

TEST(LinearMemoryTest, RefusedGrowLeavesMemoryUnchanged) {
  LinearMemory mem({.min_pages = 1, .has_max = true, .max_pages = 2});
  ASSERT_TRUE(mem.Write(10, AsBytes("kept")).ok());
  EXPECT_EQ(mem.Grow(2), -1);
  EXPECT_EQ(mem.pages(), 1u);
  auto kept = mem.Slice(10, 4);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(AsStringView(*kept), "kept");
}

TEST(LinearMemoryTest, ZeroPageMemoryGrowsToZeroedPage) {
  LinearMemory mem({.min_pages = 0});
  EXPECT_EQ(mem.byte_size(), 0u);
  EXPECT_TRUE(mem.Slice(0, 0).ok());
  EXPECT_FALSE(mem.Load<uint8_t>(0).ok());
  ASSERT_EQ(mem.Grow(1), 0);
  auto page = mem.Slice(0, kWasmPageSize);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(AllZero(*page));
}

}  // namespace
}  // namespace rr::wasm
