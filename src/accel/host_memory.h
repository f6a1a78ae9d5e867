// Byte-addressed host DRAM model shared by the "CPU" (driver, im2col) and
// the accelerator's DMA (MVIN/MVOUT). Faults in memory are outside the
// paper's fault model (assumed ECC-protected), so accesses are functional.
//
// The image is lazily backed. size() is the modelled capacity: every bounds
// check and Allocate() see it. The backing store only grows, zero-filled,
// up to the highest byte written so far, and bytes never written read as 0.
// A 64 MiB image that stages a few KB of operands therefore costs a few KB
// to construct and to hold.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace saffire {

class HostMemory {
 public:
  explicit HostMemory(std::int64_t size_bytes);

  std::int64_t size() const { return size_; }
  // Bytes the backing store currently holds (one past the highest byte
  // written). Observability only: it never changes what reads return.
  std::int64_t backed_bytes() const {
    return static_cast<std::int64_t>(bytes_.size());
  }

  std::int8_t ReadInt8(std::int64_t addr) const;
  void WriteInt8(std::int64_t addr, std::int8_t value);
  std::int32_t ReadInt32(std::int64_t addr) const;  // little-endian, aligned
  void WriteInt32(std::int64_t addr, std::int32_t value);

  // Matrix helpers: row-major, contiguous. Return the byte size written.
  std::int64_t WriteMatrix(std::int64_t addr, const Int8Tensor& matrix);
  std::int64_t WriteMatrix(std::int64_t addr, const Int32Tensor& matrix);
  Int8Tensor ReadInt8Matrix(std::int64_t addr, std::int64_t rows,
                            std::int64_t cols) const;
  Int32Tensor ReadInt32Matrix(std::int64_t addr, std::int64_t rows,
                              std::int64_t cols) const;

  // Simple bump allocator for drivers staging operands; `alignment` must be
  // a power of two. Throws when DRAM is exhausted.
  std::int64_t Allocate(std::int64_t bytes, std::int64_t alignment = 64);
  // Releases everything allocated so far (the driver frees per-operation).
  void FreeAll() { next_free_ = 0; }

 private:
  void CheckRange(std::int64_t addr, std::int64_t bytes) const;
  void CheckAligned(std::int64_t addr, const char* access) const;
  // Grows the backing store to cover [addr, addr + bytes) and returns a
  // pointer to `addr`. The range must already be checked.
  std::uint8_t* Back(std::int64_t addr, std::int64_t bytes);
  // Copies [addr, addr + bytes) to `out`, zero past the backed end. The
  // range must already be checked.
  void Load(std::int64_t addr, std::int64_t bytes, std::uint8_t* out) const;

  std::int64_t size_;
  std::vector<std::uint8_t> bytes_;
  std::int64_t next_free_ = 0;
};

}  // namespace saffire
