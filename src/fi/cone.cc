#include "fi/cone.h"

#include <algorithm>

#include "common/check.h"

namespace saffire {

ColumnCone FaultCone(std::span<const FaultSpec> faults, Dataflow dataflow,
                     const ArrayConfig& config) {
  SAFFIRE_CHECK_MSG(!faults.empty(), "cone of an empty fault set");
  SAFFIRE_CHECK_MSG(dataflow != Dataflow::kInputStationary,
                    "IS is lowered onto the WS datapath; pass the lowered "
                    "dataflow");
  (void)dataflow;  // WS and OS share the wire topology; same rule.
  ColumnCone cone{config.cols, -1};
  for (const FaultSpec& fault : faults) {
    fault.Validate(config);
    const std::int32_t c = fault.pe.col;
    const std::int32_t hi =
        fault.signal == MacSignal::kActForward ? config.cols - 1 : c;
    cone.lo = std::min(cone.lo, c);
    cone.hi = std::max(cone.hi, hi);
  }
  return cone;
}

ConeOutput MakeConeOutput(ColumnCone cone, const TileGrid& grid,
                          bool transposed) {
  SAFFIRE_CHECK_MSG(cone.lo >= 0 && cone.lo <= cone.hi,
                    "cone [" << cone.lo << ", " << cone.hi << "]");
  ConeOutput out;
  out.transposed = transposed;
  out.rows = grid.m();
  for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
    SAFFIRE_ASSERT_MSG(ni + 1 == grid.n_tiles() ||
                           grid.TileCols(ni) >= cone.hi + 1,
                       "interior n-tile " << ni << " narrower than the cone");
    const std::int64_t hi = std::min<std::int64_t>(cone.hi,
                                                   grid.TileCols(ni) - 1);
    for (std::int64_t c = cone.lo; c <= hi; ++c) {
      out.columns.push_back(grid.ColStart(ni) + c);
    }
  }
  out.values.assign(out.columns.size() * static_cast<std::size_t>(out.rows),
                    0);
  return out;
}

Int32Tensor ExpandCone(const ConeOutput& cone, const Int32Tensor& golden) {
  SAFFIRE_CHECK_MSG(golden.rank() == 2, "golden " << golden.ShapeString());
  const std::int64_t col_dim = cone.transposed ? 0 : 1;
  SAFFIRE_CHECK_MSG(golden.dim(1 - col_dim) == cone.rows &&
                        cone.values.size() ==
                            cone.columns.size() *
                                static_cast<std::size_t>(cone.rows),
                    "cone of " << cone.columns.size() << " columns × "
                               << cone.rows << " rows vs golden "
                               << golden.ShapeString());
  Int32Tensor dense = golden;
  for (std::size_t j = 0; j < cone.columns.size(); ++j) {
    const std::int64_t col = cone.columns[j];
    SAFFIRE_CHECK_MSG(col >= 0 && col < golden.dim(col_dim),
                      "cone column " << col);
    for (std::int64_t i = 0; i < cone.rows; ++i) {
      const std::int32_t value =
          cone.values[j * static_cast<std::size_t>(cone.rows) +
                      static_cast<std::size_t>(i)];
      if (cone.transposed) {
        dense(col, i) = value;
      } else {
        dense(i, col) = value;
      }
    }
  }
  return dense;
}

}  // namespace saffire
