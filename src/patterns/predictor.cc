#include "patterns/predictor.h"

#include <utility>

#include "common/check.h"

namespace saffire {
namespace {

void CheckPredictableSignal(const FaultSpec& fault) {
  // The reach model covers every signal whose corruption stays inside the
  // PE's own MAC contribution: the adder output (the paper's site), the
  // multiplier output, and the weight operand all feed exactly the same
  // output coordinates. The forwarding signals (act/south) spread to
  // downstream PEs and need simulation.
  SAFFIRE_CHECK_MSG(fault.signal == MacSignal::kAdderOut ||
                        fault.signal == MacSignal::kMulOut ||
                        fault.signal == MacSignal::kWeightOperand,
                    "analytical prediction covers adder_out/mul_out/"
                    "weight_operand faults; got "
                        << ToString(fault.signal));
}

// The classify context derived from an already-computed tile plan — the
// same fields MakeClassifyContext fills, without re-planning the tiles.
ClassifyContext ContextFromGrid(const WorkloadSpec& workload,
                                const TileGrid& grid) {
  ClassifyContext context;
  context.op = workload.op;
  context.rows = workload.GemmM();
  context.cols = workload.GemmN();
  context.tile_rows = grid.tile_m();
  context.tile_cols = grid.tile_n();
  context.conv = workload.conv;
  context.lowering = workload.lowering;
  return context;
}

TileGrid PlanValidated(const WorkloadSpec& workload, const AccelConfig& accel,
                       Dataflow dataflow) {
  workload.Validate();
  return Driver::PlanTiles(workload.GemmM(), workload.GemmN(),
                           workload.GemmK(), accel, dataflow);
}

// The output lines (rows or columns) a PE reaches in one tile, as a
// half-open range: line `offset` of the tile, or all of it under
// kWholeTile.
std::pair<std::int64_t, std::int64_t> TileLines(std::int64_t start,
                                                std::int64_t extent,
                                                std::int64_t offset) {
  if (offset == PeTiles::kWholeTile) return {start, start + extent};
  return {start + offset, start + offset + 1};
}

// The prediction itself, against a pre-computed tile plan and classify
// context. Inputs are assumed validated.
PredictedPattern MakePrediction(const WorkloadSpec& workload,
                                Dataflow dataflow, const FaultSpec& fault,
                                const TileGrid& grid,
                                const ClassifyContext& context) {
  // The reach is every (row, col) pair of the reached tiles, row-major.
  const PeTiles tiles = PlacePeOutput(grid, dataflow, fault.pe);
  PredictedPattern prediction;
  for (std::int64_t mi = 0; mi < tiles.m_tiles; ++mi) {
    const auto [row_begin, row_end] =
        TileLines(grid.RowStart(mi), grid.TileRows(mi), tiles.row);
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      for (std::int64_t ni = 0; ni < tiles.n_tiles; ++ni) {
        const auto [col_begin, col_end] =
            TileLines(grid.ColStart(ni), grid.TileCols(ni), tiles.col);
        for (std::int64_t col = col_begin; col < col_end; ++col) {
          prediction.coords.push_back(MatrixCoord{row, col});
        }
      }
    }
  }

  // The predicted class is, by definition, what the classifier says about
  // the predicted reach — keeping predictor and classifier consistent even
  // on degenerate geometries (a corrupted column of a 1-row output is the
  // same set as a corrupted element).
  CorruptionMap reach;
  reach.rows = workload.GemmM();
  reach.cols = workload.GemmN();
  reach.corrupted = prediction.coords;
  prediction.pattern = Classify(reach, context);
  return prediction;
}

}  // namespace

PeTiles PlacePeOutput(const TileGrid& grid, Dataflow dataflow, PeCoord pe) {
  // How many leading tiles of an axis hold `offset`. Every tile but the
  // last is full-sized, so those that do are a prefix.
  const auto holding = [](std::int64_t tiles, std::int64_t offset,
                          auto extent) {
    while (tiles > 0 && offset >= extent(tiles - 1)) --tiles;
    return tiles;
  };
  const auto tile_rows = [&grid](std::int64_t mi) { return grid.TileRows(mi); };
  const auto tile_cols = [&grid](std::int64_t ni) { return grid.TileCols(ni); };

  PeTiles tiles;
  tiles.m_tiles = grid.m_tiles();
  tiles.n_tiles = grid.n_tiles();
  switch (dataflow) {
    case Dataflow::kWeightStationary:
      // The fault sits on the partial-sum chain of array column c, so it
      // reaches column c of every column-tile — all rows (the whole
      // activation stream passes through), invisible to K-tiling (same
      // coordinates every pass).
      tiles.col = pe.col;
      tiles.n_tiles = holding(grid.n_tiles(), pe.col, tile_cols);
      break;
    case Dataflow::kInputStationary:
      // IS runs the WS datapath on the transposed problem, so array column
      // c owns output *row* c of every row-tile — all columns.
      tiles.row = pe.col;
      tiles.m_tiles = holding(grid.m_tiles(), pe.col, tile_rows);
      break;
    case Dataflow::kOutputStationary:
      // The fault owns output element (r, c) of every output tile.
      tiles.row = pe.row;
      tiles.m_tiles = holding(grid.m_tiles(), pe.row, tile_rows);
      tiles.col = pe.col;
      tiles.n_tiles = holding(grid.n_tiles(), pe.col, tile_cols);
      break;
  }
  return tiles;
}

PredictedPattern PredictPattern(const WorkloadSpec& workload,
                                const AccelConfig& accel, Dataflow dataflow,
                                const FaultSpec& fault) {
  fault.Validate(accel.array);
  CheckPredictableSignal(fault);
  const TileGrid grid = PlanValidated(workload, accel, dataflow);
  return MakePrediction(workload, dataflow, fault, grid,
                        ContextFromGrid(workload, grid));
}

PredictionCache::PredictionCache(const WorkloadSpec& workload,
                                 const AccelConfig& accel, Dataflow dataflow)
    : workload_(workload),
      accel_(accel),
      dataflow_(dataflow),
      grid_(PlanValidated(workload_, accel_, dataflow_)),
      context_(ContextFromGrid(workload_, grid_)) {}

const PredictedPattern& PredictionCache::Lookup(const FaultSpec& fault) {
  CheckPredictableSignal(fault);
  // Canonical key: under WS/IS the reach depends only on the array column,
  // so the row is collapsed — a full-array campaign shares one entry per
  // column instead of one per PE.
  PeCoord key = fault.pe;
  if (dataflow_ != Dataflow::kOutputStationary) key.row = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    FaultSpec canonical = fault;
    canonical.pe = key;
    canonical.Validate(accel_.array);
    it = memo_
             .emplace(key, MakePrediction(workload_, dataflow_, canonical,
                                          grid_, context_))
             .first;
  }
  return it->second;
}

}  // namespace saffire
