#include "accel/host_memory.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace saffire {

namespace {

std::uint32_t DecodeLe32(const std::uint8_t* bytes) {
  return std::uint32_t{bytes[0]} | std::uint32_t{bytes[1]} << 8 |
         std::uint32_t{bytes[2]} << 16 | std::uint32_t{bytes[3]} << 24;
}

void EncodeLe32(std::int32_t value, std::uint8_t* bytes) {
  auto v = static_cast<std::uint32_t>(value);
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v & 0xFF);
    v >>= 8;
  }
}

}  // namespace

HostMemory::HostMemory(std::int64_t size_bytes) : size_(size_bytes) {
  SAFFIRE_CHECK_MSG(size_bytes > 0 && size_bytes <= (std::int64_t{1} << 32),
                    "size_bytes=" << size_bytes);
}

void HostMemory::CheckRange(std::int64_t addr, std::int64_t bytes) const {
  SAFFIRE_CHECK_MSG(addr >= 0 && bytes >= 0 && addr + bytes <= size(),
                    "access [" << addr << ", " << addr + bytes
                               << ") out of DRAM size " << size());
}

void HostMemory::CheckAligned(std::int64_t addr, const char* access) const {
  SAFFIRE_CHECK_MSG(addr % 4 == 0,
                    "unaligned int32 " << access << " at " << addr);
}

std::uint8_t* HostMemory::Back(std::int64_t addr, std::int64_t bytes) {
  const auto end = static_cast<std::size_t>(addr + bytes);
  if (end > bytes_.size()) bytes_.resize(end, 0);
  return bytes_.data() + addr;
}

void HostMemory::Load(std::int64_t addr, std::int64_t bytes,
                      std::uint8_t* out) const {
  const std::int64_t backed =
      std::clamp<std::int64_t>(backed_bytes() - addr, 0, bytes);
  if (backed > 0) {
    std::memcpy(out, bytes_.data() + addr, static_cast<std::size_t>(backed));
  }
  std::memset(out + backed, 0, static_cast<std::size_t>(bytes - backed));
}

std::int8_t HostMemory::ReadInt8(std::int64_t addr) const {
  CheckRange(addr, 1);
  if (addr >= backed_bytes()) return 0;
  return static_cast<std::int8_t>(bytes_[static_cast<std::size_t>(addr)]);
}

void HostMemory::WriteInt8(std::int64_t addr, std::int8_t value) {
  CheckRange(addr, 1);
  *Back(addr, 1) = static_cast<std::uint8_t>(value);
}

std::int32_t HostMemory::ReadInt32(std::int64_t addr) const {
  CheckRange(addr, 4);
  CheckAligned(addr, "read");
  std::uint8_t bytes[4];
  Load(addr, 4, bytes);
  return static_cast<std::int32_t>(DecodeLe32(bytes));
}

void HostMemory::WriteInt32(std::int64_t addr, std::int32_t value) {
  CheckRange(addr, 4);
  CheckAligned(addr, "write");
  EncodeLe32(value, Back(addr, 4));
}

std::int64_t HostMemory::WriteMatrix(std::int64_t addr,
                                     const Int8Tensor& matrix) {
  SAFFIRE_CHECK(matrix.rank() == 2);
  CheckRange(addr, matrix.size());
  std::memcpy(Back(addr, matrix.size()), matrix.data().data(),
              static_cast<std::size_t>(matrix.size()));
  return matrix.size();
}

std::int64_t HostMemory::WriteMatrix(std::int64_t addr,
                                     const Int32Tensor& matrix) {
  SAFFIRE_CHECK(matrix.rank() == 2);
  CheckRange(addr, matrix.size() * 4);
  CheckAligned(addr, "write");
  std::uint8_t* out = Back(addr, matrix.size() * 4);
  for (std::int64_t i = 0; i < matrix.size(); ++i) {
    EncodeLe32(matrix.flat(i), out + i * 4);
  }
  return matrix.size() * 4;
}

Int8Tensor HostMemory::ReadInt8Matrix(std::int64_t addr, std::int64_t rows,
                                      std::int64_t cols) const {
  Int8Tensor out({rows, cols});
  CheckRange(addr, out.size());
  Load(addr, out.size(), reinterpret_cast<std::uint8_t*>(out.data().data()));
  return out;
}

Int32Tensor HostMemory::ReadInt32Matrix(std::int64_t addr, std::int64_t rows,
                                        std::int64_t cols) const {
  Int32Tensor out({rows, cols});
  CheckRange(addr, out.size() * 4);
  CheckAligned(addr, "read");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(out.size() * 4));
  Load(addr, out.size() * 4, bytes.data());
  for (std::int64_t i = 0; i < out.size(); ++i) {
    out.flat(i) = static_cast<std::int32_t>(DecodeLe32(bytes.data() + i * 4));
  }
  return out;
}

std::int64_t HostMemory::Allocate(std::int64_t bytes, std::int64_t alignment) {
  SAFFIRE_CHECK_MSG(bytes > 0, "bytes=" << bytes);
  SAFFIRE_CHECK_MSG(alignment > 0 && (alignment & (alignment - 1)) == 0,
                    "alignment=" << alignment);
  const std::int64_t aligned = (next_free_ + alignment - 1) & ~(alignment - 1);
  SAFFIRE_CHECK_MSG(aligned + bytes <= size(),
                    "DRAM exhausted: need " << bytes << " at " << aligned
                                            << ", size " << size());
  next_free_ = aligned + bytes;
  return aligned;
}

}  // namespace saffire
