#include "accel/host_memory.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace saffire {
namespace {

TEST(HostMemoryTest, Int8RoundTrip) {
  HostMemory mem(1024);
  mem.WriteInt8(0, -7);
  mem.WriteInt8(1023, 42);
  EXPECT_EQ(mem.ReadInt8(0), -7);
  EXPECT_EQ(mem.ReadInt8(1023), 42);
}

TEST(HostMemoryTest, Int32RoundTripLittleEndian) {
  HostMemory mem(1024);
  mem.WriteInt32(4, -123456789);
  EXPECT_EQ(mem.ReadInt32(4), -123456789);
  // Little-endian byte order.
  mem.WriteInt32(8, 0x01020304);
  EXPECT_EQ(mem.ReadInt8(8), 0x04);
  EXPECT_EQ(mem.ReadInt8(11), 0x01);
}

TEST(HostMemoryTest, BoundsChecked) {
  HostMemory mem(64);
  EXPECT_THROW(mem.ReadInt8(64), std::invalid_argument);
  EXPECT_THROW(mem.ReadInt8(-1), std::invalid_argument);
  EXPECT_THROW(mem.WriteInt32(61, 0), std::invalid_argument);
  EXPECT_THROW(mem.ReadInt32(64), std::invalid_argument);
}

TEST(HostMemoryTest, AlignmentEnforcedForInt32) {
  HostMemory mem(64);
  EXPECT_THROW(mem.ReadInt32(2), std::invalid_argument);
  EXPECT_THROW(mem.WriteInt32(6, 1), std::invalid_argument);
}

TEST(HostMemoryTest, MatrixRoundTrip) {
  HostMemory mem(4096);
  const auto m8 = Int8Tensor::FromRows({{1, -2, 3}, {4, 5, -6}});
  EXPECT_EQ(mem.WriteMatrix(0, m8), 6);
  EXPECT_EQ(mem.ReadInt8Matrix(0, 2, 3), m8);

  const auto m32 = Int32Tensor::FromRows({{100000, -2}, {3, 4}});
  EXPECT_EQ(mem.WriteMatrix(64, m32), 16);
  EXPECT_EQ(mem.ReadInt32Matrix(64, 2, 2), m32);
}

TEST(HostMemoryTest, AllocatorAlignsAndExhausts) {
  HostMemory mem(256);
  const auto a = mem.Allocate(10, 64);
  const auto b = mem.Allocate(10, 64);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 64);
  EXPECT_THROW(mem.Allocate(1000), std::invalid_argument);
  mem.FreeAll();
  EXPECT_EQ(mem.Allocate(10, 64), 0);
}

TEST(HostMemoryTest, AllocatorRejectsBadArgs) {
  HostMemory mem(256);
  EXPECT_THROW(mem.Allocate(0), std::invalid_argument);
  EXPECT_THROW(mem.Allocate(8, 3), std::invalid_argument);
}

TEST(HostMemoryTest, RejectsBadSizes) {
  EXPECT_THROW(HostMemory(0), std::invalid_argument);
  EXPECT_THROW(HostMemory(-5), std::invalid_argument);
}

// The image is lazily backed: capacity is size(), but nothing is backed
// until written, and every unwritten byte reads as 0.
TEST(HostMemoryLazyTest, FreshMemoryReadsZeroEverywhere) {
  HostMemory mem(1024);
  EXPECT_EQ(mem.size(), 1024);
  EXPECT_EQ(mem.backed_bytes(), 0);
  EXPECT_EQ(mem.ReadInt8(0), 0);
  EXPECT_EQ(mem.ReadInt8(1023), 0);
  EXPECT_EQ(mem.ReadInt32(0), 0);
  EXPECT_EQ(mem.ReadInt32(1020), 0);
  EXPECT_EQ(mem.ReadInt8Matrix(0, 2, 4), Int8Tensor({2, 4}));
  EXPECT_EQ(mem.ReadInt8Matrix(1016, 2, 4), Int8Tensor({2, 4}));
  EXPECT_EQ(mem.ReadInt32Matrix(0, 2, 2), Int32Tensor({2, 2}));
  EXPECT_EQ(mem.ReadInt32Matrix(1008, 2, 2), Int32Tensor({2, 2}));
  EXPECT_EQ(mem.backed_bytes(), 0);  // reads never grow the store
}

TEST(HostMemoryLazyTest, Int32ReadStraddlingTheWrittenFrontier) {
  HostMemory mem(1024);
  mem.WriteInt8(0, 0x11);
  mem.WriteInt8(1, -1);  // 0xFF
  EXPECT_EQ(mem.backed_bytes(), 2);
  // Bytes 0-1 are backed, 2-3 are not: the word is exactly the two written
  // bytes, little-endian, with zero high bytes.
  EXPECT_EQ(mem.ReadInt32(0), 0x0000FF11);
  EXPECT_EQ(mem.ReadInt32Matrix(0, 1, 2),
            Int32Tensor::FromRows({{0x0000FF11, 0}}));
  EXPECT_EQ(mem.ReadInt8Matrix(0, 1, 4),
            Int8Tensor::FromRows({{0x11, -1, 0, 0}}));
}

TEST(HostMemoryLazyTest, StoreGrowsOnlyToTheHighestByteWritten) {
  HostMemory mem(1 << 20);
  mem.WriteMatrix(64, Int8Tensor::FromRows({{1, 2, 3}}));
  EXPECT_EQ(mem.backed_bytes(), 67);
  mem.WriteInt32(128, 7);
  EXPECT_EQ(mem.backed_bytes(), 132);
  mem.WriteInt8(8, 9);  // below the frontier: no growth
  EXPECT_EQ(mem.backed_bytes(), 132);
  mem.WriteMatrix(256, Int32Tensor::FromRows({{-1, 2}}));
  EXPECT_EQ(mem.backed_bytes(), 264);
  // The gaps between written ranges are zero-filled.
  EXPECT_EQ(mem.ReadInt8(67), 0);
  EXPECT_EQ(mem.ReadInt32(132), 0);
  EXPECT_EQ(mem.ReadInt32Matrix(256, 1, 2), Int32Tensor::FromRows({{-1, 2}}));
}

TEST(HostMemoryLazyTest, BoundsAndAlignmentStillCheckedAtCapacity) {
  HostMemory mem(256);
  EXPECT_THROW(mem.ReadInt8(256), std::invalid_argument);
  EXPECT_THROW(mem.WriteInt8(256, 1), std::invalid_argument);
  EXPECT_THROW(mem.ReadInt32(256), std::invalid_argument);
  EXPECT_THROW(mem.WriteInt32(254, 1), std::invalid_argument);
  EXPECT_THROW(mem.ReadInt8Matrix(250, 2, 4), std::invalid_argument);
  EXPECT_THROW(mem.ReadInt32Matrix(248, 1, 4), std::invalid_argument);
  EXPECT_THROW(mem.WriteMatrix(250, Int8Tensor({2, 4})),
               std::invalid_argument);
  EXPECT_THROW(mem.WriteMatrix(248, Int32Tensor({1, 4})),
               std::invalid_argument);
  EXPECT_THROW(mem.ReadInt32Matrix(2, 1, 1), std::invalid_argument);
  EXPECT_THROW(mem.WriteMatrix(6, Int32Tensor({1, 1})),
               std::invalid_argument);
  EXPECT_EQ(mem.backed_bytes(), 0);  // rejected writes back nothing
  // The last in-range byte and word are still addressable.
  mem.WriteInt8(255, 5);
  EXPECT_EQ(mem.ReadInt8(255), 5);
  mem.WriteInt32(252, -3);
  EXPECT_EQ(mem.ReadInt32(252), -3);
  EXPECT_EQ(mem.backed_bytes(), 256);
}

TEST(HostMemoryLazyTest, FourGibCapacityBacksOnlyWhatIsWritten) {
  HostMemory mem(std::int64_t{1} << 32);
  EXPECT_EQ(mem.size(), std::int64_t{1} << 32);
  const auto m8 = Int8Tensor::FromRows({{1, -2}, {3, -4}});
  const std::int64_t addr = mem.Allocate(m8.size());
  mem.WriteMatrix(addr, m8);
  EXPECT_EQ(mem.ReadInt8Matrix(addr, 2, 2), m8);
  EXPECT_EQ(mem.ReadInt8((std::int64_t{1} << 32) - 1), 0);
  EXPECT_LT(mem.backed_bytes(), 1 << 20);
}

}  // namespace
}  // namespace saffire
