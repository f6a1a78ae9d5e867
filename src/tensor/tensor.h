// Dense row-major tensor used throughout saffire.
//
// The simulator's architectural data types are INT8 operands with INT32
// accumulation (matching the paper's 16×16 INT8 Gemmini configuration), so
// the two aliases `Int8Tensor` and `Int32Tensor` carry almost all data. The
// DNN layers additionally use `FloatTensor` for pre-quantization weights.
//
// Shapes follow the paper's conventions: matrices are (rows, cols); image
// tensors are NCHW; convolution kernels are (K, C, R, S) — K output
// channels, C input channels, R×S spatial extent (Sec. II-B).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace saffire {

template <typename T>
class Tensor {
 public:
  // Constructs a zero-filled tensor. Every dimension must be positive;
  // rank-0 tensors are not supported (use a rank-1 tensor of size 1).
  explicit Tensor(std::vector<std::int64_t> shape)
      : shape_(std::move(shape)) {
    SAFFIRE_CHECK(!shape_.empty());
    std::int64_t total = 1;
    for (const std::int64_t dim : shape_) {
      SAFFIRE_CHECK_MSG(dim > 0, "dimension must be positive, got " << dim);
      SAFFIRE_CHECK_MSG(total <= (std::int64_t{1} << 40) / dim,
                        "tensor too large");
      total *= dim;
    }
    data_.assign(static_cast<std::size_t>(total), T{});
  }

  // Constructs a tensor filled with `value`.
  static Tensor Full(std::vector<std::int64_t> shape, T value) {
    Tensor t(std::move(shape));
    std::fill(t.data_.begin(), t.data_.end(), value);
    return t;
  }

  // Constructs a rank-2 tensor from nested initializer data (row-major).
  static Tensor FromRows(const std::vector<std::vector<T>>& rows) {
    SAFFIRE_CHECK(!rows.empty());
    const auto cols = static_cast<std::int64_t>(rows.front().size());
    SAFFIRE_CHECK(cols > 0);
    Tensor t({static_cast<std::int64_t>(rows.size()), cols});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      SAFFIRE_CHECK_MSG(static_cast<std::int64_t>(rows[r].size()) == cols,
                        "ragged rows");
      for (std::size_t c = 0; c < rows[r].size(); ++c) {
        t.data_[r * static_cast<std::size_t>(cols) + c] = rows[r][c];
      }
    }
    return t;
  }

  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }

  std::int64_t dim(std::int64_t axis) const {
    SAFFIRE_CHECK_MSG(axis >= 0 && axis < rank(), "axis=" << axis);
    return shape_[static_cast<std::size_t>(axis)];
  }

  const std::vector<std::int64_t>& shape() const { return shape_; }

  std::int64_t size() const {
    return static_cast<std::int64_t>(data_.size());
  }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

  // Flat element access (row-major order).
  T& flat(std::int64_t index) {
    SAFFIRE_CHECK_MSG(index >= 0 && index < size(), "index=" << index);
    return data_[static_cast<std::size_t>(index)];
  }
  const T& flat(std::int64_t index) const {
    SAFFIRE_CHECK_MSG(index >= 0 && index < size(), "index=" << index);
    return data_[static_cast<std::size_t>(index)];
  }

  // Rank-2 access: (row, col).
  T& operator()(std::int64_t r, std::int64_t c) {
    return data_[Offset2(r, c)];
  }
  const T& operator()(std::int64_t r, std::int64_t c) const {
    return data_[Offset2(r, c)];
  }

  // Rank-4 access: NCHW images or KCRS kernels.
  T& operator()(std::int64_t a, std::int64_t b, std::int64_t c,
                std::int64_t d) {
    return data_[Offset4(a, b, c, d)];
  }
  const T& operator()(std::int64_t a, std::int64_t b, std::int64_t c,
                      std::int64_t d) const {
    return data_[Offset4(a, b, c, d)];
  }

  // Returns a tensor with the same flat data under a new shape; the element
  // count must match. This is the paper's "reshaping" primitive (Sec. II-B).
  Tensor Reshape(std::vector<std::int64_t> new_shape) const {
    Tensor out(std::move(new_shape));
    SAFFIRE_CHECK_MSG(out.size() == size(), "reshape changes element count");
    out.data_ = data_;
    return out;
  }

  // Element type conversion with value-preserving static_cast semantics.
  template <typename U>
  Tensor<U> Cast() const {
    Tensor<U> out(shape_);
    for (std::int64_t i = 0; i < size(); ++i) {
      out.flat(i) = static_cast<U>(data_[static_cast<std::size_t>(i)]);
    }
    return out;
  }

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

  std::string ShapeString() const {
    std::string out = "(";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(shape_[i]);
    }
    out += ")";
    return out;
  }

 private:
  std::size_t Offset2(std::int64_t r, std::int64_t c) const {
    SAFFIRE_CHECK_MSG(rank() == 2, "rank-2 access on " << ShapeString());
    SAFFIRE_CHECK_MSG(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1],
                      "(" << r << ", " << c << ") out of " << ShapeString());
    return static_cast<std::size_t>(r * shape_[1] + c);
  }

  std::size_t Offset4(std::int64_t a, std::int64_t b, std::int64_t c,
                      std::int64_t d) const {
    SAFFIRE_CHECK_MSG(rank() == 4, "rank-4 access on " << ShapeString());
    SAFFIRE_CHECK_MSG(a >= 0 && a < shape_[0] && b >= 0 && b < shape_[1] &&
                          c >= 0 && c < shape_[2] && d >= 0 && d < shape_[3],
                      "(" << a << ", " << b << ", " << c << ", " << d
                          << ") out of " << ShapeString());
    return static_cast<std::size_t>(((a * shape_[1] + b) * shape_[2] + c) *
                                        shape_[3] +
                                    d);
  }

  std::vector<std::int64_t> shape_;
  std::vector<T> data_;
};

using Int8Tensor = Tensor<std::int8_t>;
using Int32Tensor = Tensor<std::int32_t>;
using FloatTensor = Tensor<float>;

}  // namespace saffire
