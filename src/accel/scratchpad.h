// On-chip memories of the accelerator: the INT8 scratchpad feeding the
// array and the INT32 accumulator SRAM collecting results.
//
// Both are row-organized with `cols` elements per row (cols == array
// columns), matching Gemmini. Per the paper's fault model, memory elements
// are assumed ECC-protected, so these models are functional (no fault
// hooks); all injected faults live in the MAC datapath.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "accel/isa.h"
#include "common/check.h"
#include "tensor/tensor.h"

namespace saffire {

class Scratchpad {
 public:
  Scratchpad(std::int32_t rows, std::int32_t cols);

  std::int32_t rows() const { return rows_; }
  std::int32_t cols() const { return cols_; }

  std::int8_t Read(std::int32_t row, std::int32_t col) const;
  void Write(std::int32_t row, std::int32_t col, std::int8_t value);

  // Reads a `rows × cols` region starting at `row0`, column 0. Columns past
  // `cols` in each scratchpad row are ignored.
  Int8Tensor ReadBlock(std::int32_t row0, std::int32_t rows,
                       std::int32_t cols) const;
  // Writes a block at `row0`, column 0.
  void WriteBlock(std::int32_t row0, const Int8Tensor& block);

  void Clear();

 private:
  void CheckAccess(std::int32_t row, std::int32_t col) const;

  std::int32_t rows_;
  std::int32_t cols_;
  std::vector<std::int8_t> data_;
};

class AccumulatorMem {
 public:
  AccumulatorMem(std::int32_t rows, std::int32_t cols);

  std::int32_t rows() const { return rows_; }
  std::int32_t cols() const { return cols_; }

  std::int32_t Read(std::int32_t row, std::int32_t col) const;

  // Writes a block at `row0`; accumulate=true adds element-wise into the
  // existing contents (the accumulate-on-write the K-tiled GEMM relies on).
  void WriteBlock(std::int32_t row0, const Int32Tensor& block,
                  bool accumulate);

  Int32Tensor ReadBlock(std::int32_t row0, std::int32_t rows,
                        std::int32_t cols) const;

  // Requantizing read used by MVOUT8: activation, rounding arithmetic right
  // shift, saturate to INT8.
  Int8Tensor ReadBlockQuantized(std::int32_t row0, std::int32_t rows,
                                std::int32_t cols, Activation activation,
                                std::int32_t shift) const;

  void Clear();

 private:
  void CheckAccess(std::int32_t row, std::int32_t col) const;

  std::int32_t rows_;
  std::int32_t cols_;
  std::vector<std::int32_t> data_;
};

// Throws std::invalid_argument unless `shift` is a valid requantization
// shift, 0 ≤ shift < 32.
inline void CheckRequantShift(std::int32_t shift) {
  SAFFIRE_CHECK_MSG(shift >= 0 && shift < 32, "shift=" << shift);
}

// The MVOUT8 scalar path, shared by the accumulator's requantizing read and
// the host epilogues that must match it: activation → rounding shift (round
// half away from zero) → saturation to [−128, 127]. Inline, so a loop that
// calls CheckRequantShift once before requantizing with one shift pays
// neither a call nor a range check per element: the compiler proves the
// inlined check redundant.
inline std::int8_t Requantize(std::int32_t value, Activation activation,
                              std::int32_t shift) {
  CheckRequantShift(shift);
  std::int64_t v = value;
  if (activation == Activation::kRelu && v < 0) v = 0;
  if (shift > 0) {
    // Round half away from zero, like Gemmini's rounding shift.
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    v = (v >= 0) ? ((v + half) >> shift) : (-((-v + half) >> shift));
  }
  v = std::clamp<std::int64_t>(v, -128, 127);
  return static_cast<std::int8_t>(v);
}

}  // namespace saffire
