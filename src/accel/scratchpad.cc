#include "accel/scratchpad.h"

#include <algorithm>

#include "common/check.h"

namespace saffire {

Scratchpad::Scratchpad(std::int32_t rows, std::int32_t cols)
    : rows_(rows), cols_(cols) {
  SAFFIRE_CHECK_MSG(rows > 0 && rows <= (1 << 20), "rows=" << rows);
  SAFFIRE_CHECK_MSG(cols > 0 && cols <= 1024, "cols=" << cols);
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
               0);
}

void Scratchpad::CheckAccess(std::int32_t row, std::int32_t col) const {
  SAFFIRE_CHECK_MSG(row >= 0 && row < rows_ && col >= 0 && col < cols_,
                    "scratchpad access (" << row << ", " << col << ") out of "
                                          << rows_ << "x" << cols_);
}

std::int8_t Scratchpad::Read(std::int32_t row, std::int32_t col) const {
  CheckAccess(row, col);
  return data_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(col)];
}

void Scratchpad::Write(std::int32_t row, std::int32_t col, std::int8_t value) {
  CheckAccess(row, col);
  data_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
        static_cast<std::size_t>(col)] = value;
}

Int8Tensor Scratchpad::ReadBlock(std::int32_t row0, std::int32_t rows,
                                 std::int32_t cols) const {
  SAFFIRE_CHECK_MSG(rows > 0 && cols > 0 && cols <= cols_,
                    "block " << rows << "x" << cols);
  SAFFIRE_CHECK_MSG(row0 >= 0 && row0 + rows <= rows_,
                    "rows [" << row0 << ", " << row0 + rows << ") out of "
                             << rows_);
  Int8Tensor out({rows, cols});
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      out(r, c) = Read(row0 + r, c);
    }
  }
  return out;
}

void Scratchpad::WriteBlock(std::int32_t row0, const Int8Tensor& block) {
  SAFFIRE_CHECK(block.rank() == 2);
  const auto rows = static_cast<std::int32_t>(block.dim(0));
  const auto cols = static_cast<std::int32_t>(block.dim(1));
  SAFFIRE_CHECK_MSG(cols <= cols_, "block cols " << cols);
  SAFFIRE_CHECK_MSG(row0 >= 0 && row0 + rows <= rows_,
                    "rows [" << row0 << ", " << row0 + rows << ") out of "
                             << rows_);
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      Write(row0 + r, c, block(r, c));
    }
  }
}

void Scratchpad::Clear() { std::fill(data_.begin(), data_.end(), 0); }

AccumulatorMem::AccumulatorMem(std::int32_t rows, std::int32_t cols)
    : rows_(rows), cols_(cols) {
  SAFFIRE_CHECK_MSG(rows > 0 && rows <= (1 << 20), "rows=" << rows);
  SAFFIRE_CHECK_MSG(cols > 0 && cols <= 1024, "cols=" << cols);
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
               0);
}

void AccumulatorMem::CheckAccess(std::int32_t row, std::int32_t col) const {
  SAFFIRE_CHECK_MSG(row >= 0 && row < rows_ && col >= 0 && col < cols_,
                    "accumulator access (" << row << ", " << col
                                           << ") out of " << rows_ << "x"
                                           << cols_);
}

std::int32_t AccumulatorMem::Read(std::int32_t row, std::int32_t col) const {
  CheckAccess(row, col);
  return data_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(col)];
}

void AccumulatorMem::WriteBlock(std::int32_t row0, const Int32Tensor& block,
                                bool accumulate) {
  SAFFIRE_CHECK(block.rank() == 2);
  const auto rows = static_cast<std::int32_t>(block.dim(0));
  const auto cols = static_cast<std::int32_t>(block.dim(1));
  SAFFIRE_CHECK_MSG(cols <= cols_, "block cols " << cols);
  SAFFIRE_CHECK_MSG(row0 >= 0 && row0 + rows <= rows_,
                    "rows [" << row0 << ", " << row0 + rows << ") out of "
                             << rows_);
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      auto& cell =
          data_[static_cast<std::size_t>(row0 + r) *
                    static_cast<std::size_t>(cols_) +
                static_cast<std::size_t>(c)];
      // Hardware-accurate 32-bit wrap-around: faulty partial sums can sit
      // near INT32_MIN (e.g. an SA1 on bit 31), so add in unsigned space.
      cell = accumulate
                 ? static_cast<std::int32_t>(
                       static_cast<std::uint32_t>(cell) +
                       static_cast<std::uint32_t>(block(r, c)))
                 : block(r, c);
    }
  }
}

Int32Tensor AccumulatorMem::ReadBlock(std::int32_t row0, std::int32_t rows,
                                      std::int32_t cols) const {
  SAFFIRE_CHECK_MSG(rows > 0 && cols > 0 && cols <= cols_,
                    "block " << rows << "x" << cols);
  SAFFIRE_CHECK_MSG(row0 >= 0 && row0 + rows <= rows_,
                    "rows [" << row0 << ", " << row0 + rows << ") out of "
                             << rows_);
  Int32Tensor out({rows, cols});
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      out(r, c) = Read(row0 + r, c);
    }
  }
  return out;
}

Int8Tensor AccumulatorMem::ReadBlockQuantized(std::int32_t row0,
                                              std::int32_t rows,
                                              std::int32_t cols,
                                              Activation activation,
                                              std::int32_t shift) const {
  const auto raw = ReadBlock(row0, rows, cols);
  Int8Tensor out({rows, cols});
  for (std::int64_t i = 0; i < raw.size(); ++i) {
    out.flat(i) = Requantize(raw.flat(i), activation, shift);
  }
  return out;
}

void AccumulatorMem::Clear() { std::fill(data_.begin(), data_.end(), 0); }

}  // namespace saffire
