// Static influence cone of a set of faults — which array columns a faulty
// run can differ from the golden run in.
//
// The cone is a *column* range because every inter-PE wire in the array runs
// either south (partial sums / streamed weights, within one column) or east
// (activations, across columns):
//
//   - kWeightOperand / kMulOut / kAdderOut / kSouthForward at PE(r, c)
//     corrupt the MAC result and the value travelling down column c; under
//     WS that reaches the column's south output, under OS the column's
//     accumulators and the forwarded weight chain. Either way the corruption
//     never leaves column c: the only eastbound wire is act_east, which
//     carries act_in unmodified. Cone: [c, c].
//
//   - kActForward at PE(r, c) corrupts the activation entering PE(r, c+1),
//     which propagates east through every subsequent act register and feeds
//     every MAC to the right. Cone: [c, cols − 1].
//
// The rule is identical for WS and OS because both dataflows share the
// physical wire topology (systolic/array.h); only the interpretation of the
// north operand differs. Input-stationary is lowered onto the WS datapath by
// the driver with transposed operands, and fault coordinates are expressed in
// physical array space (tests/patterns/predictor_is_test.cc), so IS callers
// pass the lowered dataflow.
//
// Columns outside the cone provably compute golden values in a faulty run —
// this is what makes differential execution (SystolicArray::BeginDifferential)
// sound, and it is the simulation-side face of the paper's determinism result
// (Sec. IV): a stuck-at at (r, c) yields the same contained corruption
// footprint on every run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fi/fault.h"
#include "systolic/golden_trace.h"
#include "tensor/tensor.h"
#include "tensor/tiling.h"

namespace saffire {

// The physical array dataflow a run executes: the driver lowers IS onto the
// WS datapath with transposed operands (accel/driver.cc).
Dataflow LoweredDataflow(Dataflow dataflow);

// Steps the array streams for reduction tile ki of m-tile mi of `grid`
// under the physical `dataflow`: WS streams the tile's rows past its
// preloaded weights, OS the tile's depth.
std::int64_t TileSteps(const TileGrid& grid, std::int64_t mi, std::int64_t ki,
                       Dataflow dataflow, const ArrayConfig& config);

// Throws unless `trace` was recorded on `config` for the tile schedule of
// `grid` under the physical `dataflow`: one checkpoint per tile plus the
// end, each tile starting on the step the schedule puts it on, and the same
// step total. The lane grid and the closed form check a cached trace with
// it.
void CheckTraceMatchesSchedule(const GoldenTrace& trace, const TileGrid& grid,
                               Dataflow dataflow, const ArrayConfig& config);

// Union of the per-fault cones. `faults` must be non-empty and `dataflow`
// must be a physical array dataflow (WS or OS; LoweredDataflow first).
ColumnCone FaultCone(std::span<const FaultSpec> faults, Dataflow dataflow,
                     const ArrayConfig& config);

// A faulty output restricted to one fault's cone — what the predicted
// engine's two paths (FiRunner::RunFaultyBatch, the lane grid, and
// RunFaultyPredicted, the closed form) return instead of a dense
// tensor. Every output element outside it equals the golden output.
//
// Coordinates are those of the physical GEMM the array executed: an output
// column under WS/OS, an output *row* under IS (which runs the WS datapath
// on the transposed problem). `columns` lists, n-tile by n-tile, the
// physical columns the cone reaches, ColStart(ni) + c for every cone column
// c inside tile ni — so cone column c of n-tile ni sits at index
// ni·cone.width() + (c − cone.lo), since only the last n-tile can be ragged.
// The list is strictly ascending. Each listed column holds one value per
// physical row, contiguously: `values` is columns.size() × `rows`, 4 bytes a
// cell and never larger than the dense output.
struct ConeOutput {
  bool transposed = false;     // IS: physical column j is output row j
  std::int64_t rows = 0;       // physical GEMM rows = values per column
  std::vector<std::int64_t> columns;
  std::vector<std::int32_t> values;  // values[j * rows + i]

  bool operator==(const ConeOutput&) const = default;
};

// The zero-filled cone output of `cone` over a physical tile grid.
ConeOutput MakeConeOutput(ColumnCone cone, const TileGrid& grid,
                          bool transposed);

// The dense faulty output a cone output stands for: `golden` with the cone's
// values written over it. For tests and tools; campaigns diff the cone
// directly (ExtractCorruption in patterns/corruption.h).
Int32Tensor ExpandCone(const ConeOutput& cone, const Int32Tensor& golden);

}  // namespace saffire
