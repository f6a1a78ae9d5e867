// Corruption maps: the spatial difference between golden and faulty
// outputs, from which fault patterns are classified (Sec. III-B).
#pragma once

#include <cstdint>
#include <vector>

#include "fi/cone.h"
#include "tensor/tensor.h"

namespace saffire {

struct MatrixCoord {
  std::int64_t row = 0;
  std::int64_t col = 0;
  auto operator<=>(const MatrixCoord&) const = default;
};

// The set of corrupted output-matrix elements plus magnitude statistics.
struct CorruptionMap {
  std::int64_t rows = 0;  // output matrix dimensions
  std::int64_t cols = 0;
  std::vector<MatrixCoord> corrupted;  // sorted row-major
  std::int64_t max_abs_delta = 0;
  std::int64_t min_abs_delta = 0;  // over corrupted elements; 0 if none

  bool empty() const { return corrupted.empty(); }
  std::int64_t count() const {
    return static_cast<std::int64_t>(corrupted.size());
  }

  // Distinct corrupted columns / rows in increasing order.
  std::vector<std::int64_t> DistinctCols() const;
  std::vector<std::int64_t> DistinctRows() const;

  // True if every row of `col` is corrupted.
  bool ColumnFullyCorrupted(std::int64_t col) const;
};

// Element-wise diff of two same-shaped rank-2 tensors.
CorruptionMap ExtractCorruption(const Int32Tensor& golden,
                                const Int32Tensor& faulty);

// The same map for a faulty output given over its cone (fi/cone.h), in
// O(cone) rather than O(output): everything outside the cone is golden.
// Equals ExtractCorruption(golden, ExpandCone(faulty, golden)).
CorruptionMap ExtractCorruption(const Int32Tensor& golden,
                                const ConeOutput& faulty);

}  // namespace saffire
