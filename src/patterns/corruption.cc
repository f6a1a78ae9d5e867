#include "patterns/corruption.h"

#include <algorithm>
#include <cstdlib>
#include <span>

#include "common/check.h"

namespace saffire {

std::vector<std::int64_t> CorruptionMap::DistinctCols() const {
  std::vector<std::int64_t> cols_out;
  cols_out.reserve(corrupted.size());
  for (const MatrixCoord& coord : corrupted) cols_out.push_back(coord.col);
  std::sort(cols_out.begin(), cols_out.end());
  cols_out.erase(std::unique(cols_out.begin(), cols_out.end()),
                 cols_out.end());
  return cols_out;
}

std::vector<std::int64_t> CorruptionMap::DistinctRows() const {
  std::vector<std::int64_t> rows_out;
  rows_out.reserve(corrupted.size());
  for (const MatrixCoord& coord : corrupted) rows_out.push_back(coord.row);
  std::sort(rows_out.begin(), rows_out.end());
  rows_out.erase(std::unique(rows_out.begin(), rows_out.end()),
                 rows_out.end());
  return rows_out;
}

bool CorruptionMap::ColumnFullyCorrupted(std::int64_t col) const {
  std::int64_t hits = 0;
  for (const MatrixCoord& coord : corrupted) {
    if (coord.col == col) ++hits;
  }
  return hits == rows;
}

namespace {

// Appends one corrupted element and folds its delta into the statistics.
void NoteCorrupted(CorruptionMap& map, std::int64_t row, std::int64_t col,
                   std::int32_t golden, std::int32_t faulty) {
  map.corrupted.push_back(MatrixCoord{row, col});
  const std::int64_t delta = std::llabs(static_cast<std::int64_t>(faulty) -
                                        static_cast<std::int64_t>(golden));
  map.max_abs_delta = std::max(map.max_abs_delta, delta);
  map.min_abs_delta =
      map.min_abs_delta == 0 ? delta : std::min(map.min_abs_delta, delta);
}

}  // namespace

CorruptionMap ExtractCorruption(const Int32Tensor& golden,
                                const Int32Tensor& faulty) {
  SAFFIRE_CHECK_MSG(golden.rank() == 2 && golden.shape() == faulty.shape(),
                    "golden " << golden.ShapeString() << " vs faulty "
                              << faulty.ShapeString());
  CorruptionMap map;
  map.rows = golden.dim(0);
  map.cols = golden.dim(1);
  // Flat scan over the contiguous storage: the checked (r, c) accessor pays
  // two bounds checks per element, which dominates campaign-scale
  // extraction. Coordinates are reconstructed only on a mismatch, so the
  // common mostly-equal case is a straight linear compare. The flat index
  // is row-major, which keeps `corrupted` in its documented order.
  const std::span<const std::int32_t> golden_data = golden.data();
  const std::span<const std::int32_t> faulty_data = faulty.data();
  for (std::size_t i = 0; i < golden_data.size(); ++i) {
    if (golden_data[i] == faulty_data[i]) continue;
    const auto index = static_cast<std::int64_t>(i);
    NoteCorrupted(map, index / map.cols, index % map.cols, golden_data[i],
                  faulty_data[i]);
  }
  return map;
}

CorruptionMap ExtractCorruption(const Int32Tensor& golden,
                                const ConeOutput& faulty) {
  SAFFIRE_CHECK_MSG(golden.rank() == 2, "golden " << golden.ShapeString());
  CorruptionMap map;
  map.rows = golden.dim(0);
  map.cols = golden.dim(1);
  // Physical rows run along output columns under IS, along rows otherwise.
  const std::int64_t lines = faulty.transposed ? map.rows : map.cols;
  const std::size_t width = faulty.columns.size();
  const auto rows = static_cast<std::size_t>(faulty.rows);
  SAFFIRE_CHECK_MSG(faulty.rows == (faulty.transposed ? map.cols : map.rows) &&
                        faulty.values.size() == width * rows,
                    "cone of " << width << " columns × " << faulty.rows
                               << " rows vs golden " << golden.ShapeString());
  for (std::size_t j = 0; j < width; ++j) {
    SAFFIRE_CHECK_MSG(faulty.columns[j] >= 0 && faulty.columns[j] < lines &&
                          (j == 0 || faulty.columns[j] > faulty.columns[j - 1]),
                      "cone column " << faulty.columns[j] << " at " << j);
  }
  // Both orders below visit the cone row-major in output space, so
  // `corrupted` comes out sorted without a sort.
  const std::int32_t* g = golden.data().data();
  const std::int32_t* f = faulty.values.data();
  const auto stride = static_cast<std::size_t>(map.cols);
  if (faulty.transposed) {
    // Cone column j is output row columns[j], one contiguous run each.
    for (std::size_t j = 0; j < width; ++j) {
      const auto row = static_cast<std::size_t>(faulty.columns[j]);
      const std::int32_t* golden_row = g + row * stride;
      const std::int32_t* faulty_row = f + j * rows;
      for (std::size_t i = 0; i < rows; ++i) {
        if (golden_row[i] == faulty_row[i]) continue;
        NoteCorrupted(map, faulty.columns[j], static_cast<std::int64_t>(i),
                      golden_row[i], faulty_row[i]);
      }
    }
  } else {
    for (std::size_t i = 0; i < rows; ++i) {
      const std::int32_t* golden_row = g + i * stride;
      for (std::size_t j = 0; j < width; ++j) {
        const auto col = static_cast<std::size_t>(faulty.columns[j]);
        const std::int32_t value = f[j * rows + i];
        if (golden_row[col] == value) continue;
        NoteCorrupted(map, static_cast<std::int64_t>(i), faulty.columns[j],
                      golden_row[col], value);
      }
    }
  }
  return map;
}

}  // namespace saffire
