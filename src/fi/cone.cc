#include "fi/cone.h"

#include <algorithm>

#include "common/check.h"
#include "systolic/timing.h"

namespace saffire {

Dataflow LoweredDataflow(Dataflow dataflow) {
  return dataflow == Dataflow::kOutputStationary
             ? Dataflow::kOutputStationary
             : Dataflow::kWeightStationary;
}

std::int64_t TileSteps(const TileGrid& grid, std::int64_t mi, std::int64_t ki,
                       Dataflow dataflow, const ArrayConfig& config) {
  return dataflow == Dataflow::kWeightStationary
             ? WeightStationaryStreamCycles(grid.TileRows(mi), config)
             : OutputStationaryStreamCycles(grid.TileDepth(ki), config);
}

void CheckTraceMatchesSchedule(const GoldenTrace& trace, const TileGrid& grid,
                               Dataflow dataflow, const ArrayConfig& config) {
  SAFFIRE_CHECK_MSG(trace.rows() == config.rows && trace.cols() == config.cols,
                    "trace recorded on " << trace.rows() << "x"
                                         << trace.cols());
  SAFFIRE_CHECK_MSG(
      trace.checkpoints() == grid.total_tiles() + 1,
      "trace has " << trace.checkpoints() << " checkpoints for "
                   << grid.total_tiles()
                   << " tiles — workload/dataflow mismatch");
  std::int64_t step0 = 0;
  std::int64_t tile_index = 0;
  for (std::int64_t mi = 0; mi < grid.m_tiles(); ++mi) {
    for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
      for (std::int64_t ki = 0; ki < grid.k_tiles(); ++ki) {
        SAFFIRE_CHECK_MSG(trace.StepsAtCheckpoint(tile_index) == step0,
                          "tile " << tile_index << " starts at step "
                                  << trace.StepsAtCheckpoint(tile_index)
                                  << ", schedule expected " << step0);
        step0 += TileSteps(grid, mi, ki, dataflow, config);
        ++tile_index;
      }
    }
  }
  SAFFIRE_CHECK_MSG(step0 == trace.steps() &&
                        trace.StepsAtCheckpoint(grid.total_tiles()) == step0,
                    "schedule covers " << step0 << " of " << trace.steps()
                                       << " recorded steps");
}

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
  // Shapes checked once; the copy is walked through raw rows. Under IS a
  // cone column is one contiguous output row.
  Int32Tensor dense = golden;
  const std::int64_t stride = golden.dim(1);
  std::int32_t* const out = dense.data().data();
  const std::int32_t* values = cone.values.data();
  for (const std::int64_t col : cone.columns) {
    SAFFIRE_CHECK_MSG(col >= 0 && col < golden.dim(col_dim),
                      "cone column " << col);
    if (cone.transposed) {
      std::copy_n(values, cone.rows, out + col * stride);
    } else {
      for (std::int64_t i = 0; i < cone.rows; ++i) {
        out[i * stride + col] = values[i];
      }
    }
    values += cone.rows;
  }
  return dense;
}

}  // namespace saffire
