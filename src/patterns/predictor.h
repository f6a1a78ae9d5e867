// Analytical fault-pattern predictor.
//
// The paper's central observation (Sec. IV, Discussion): "the fault
// patterns are deterministic, i.e., given the hardware configurations, type
// of operation and its properties, and the location of the stuck-at fault,
// we can predict the fault patterns, after taking into account the tiling
// effect and flattening of convolutions into GEMM." This module is that
// prediction, in closed form, for stuck-at faults on the adder output (the
// paper's injection site):
//
//   WS: a fault in PE(r, c) sits on the partial-sum chain of array column
//       c, so it can corrupt exactly the output columns
//       {c + tile_n·t : t < n_tiles, in range} — every row of them (the
//       whole stream passes through the column), replicated across K-tiles
//       invisibly (same coordinates).
//   OS: a fault in PE(r, c) owns output element (r, c) of each output tile:
//       {(r + tile_m·i, c + tile_n·j) : in range}.
//
// The predicted coordinate set is the *reach* of the fault: the observed
// corruption is always a subset (value-level masking can hide elements —
// Challenge 2), and equals it exactly for the paper's all-ones extraction
// workload with a fault that flips at least one produced bit. This is
// precisely the contract an application-level injector (TensorFI / LLTFI)
// needs to re-create the pattern without RTL simulation.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "fi/fault.h"
#include "fi/workload.h"
#include "patterns/classify.h"
#include "tensor/tiling.h"

namespace saffire {

struct PredictedPattern {
  PatternClass pattern = PatternClass::kMasked;
  // Predicted corrupted coordinates in the GEMM-view output, sorted
  // row-major. Empty iff pattern == kMasked (a structurally masked site:
  // the faulty PE never touches sampled output).
  std::vector<MatrixCoord> coords;

  bool operator==(const PredictedPattern&) const = default;
};

// The tiling rule that places a PE's output in the GEMM-view output: the
// one rule the predictor builds its reach from and the campaign's symmetry
// partition keys on. The PE's operand streams cross the first `m_tiles`
// row-tiles and the first `n_tiles` column-tiles (every tile but the last
// is full-sized, so the tiles that hold the PE are a prefix), and a fault
// in it reaches their product: nothing when either count is 0, though the
// streams on the other axis still cross it. Inside each tile it owns tile
// row `row` and tile column `col`, or every line of the tile where that is
// kWholeTile: the partial-sum stream crosses the PE, which is the rows
// under WS and the columns under IS.
struct PeTiles {
  static constexpr std::int64_t kWholeTile = -1;
  std::int64_t m_tiles = 0;
  std::int64_t n_tiles = 0;
  std::int64_t row = kWholeTile;
  std::int64_t col = kWholeTile;
};

PeTiles PlacePeOutput(const TileGrid& grid, Dataflow dataflow, PeCoord pe);

// Predicts the pattern for a stuck-at or transient fault on kAdderOut (the
// paper's site), kMulOut, or kWeightOperand — the three signals whose
// corruption stays within the PE's own MAC contribution and therefore
// share one reach. Throws std::invalid_argument for the forwarding signals
// (kActForward/kSouthForward), whose corruption spreads to downstream PEs
// and requires simulation.
PredictedPattern PredictPattern(const WorkloadSpec& workload,
                                const AccelConfig& accel, Dataflow dataflow,
                                const FaultSpec& fault);

// Per-campaign prediction reuse. A covered fault's reach depends only on
// its PE coordinate — and under WS/IS only on the array *column* — so a
// campaign over hundreds of sites revisits a handful of distinct patterns.
// The cache hoists the validation, the tile plan, and the classify context
// out of the per-record path (PredictPattern re-derives all three per call)
// and memoizes predictions under the canonical coordinate.
//
// Thread-safe: executor workers running chunks of one campaign share the
// cache through PreparedCampaign. Returned references stay valid for the
// cache's lifetime (node-based storage).
class PredictionCache {
 public:
  PredictionCache(const WorkloadSpec& workload, const AccelConfig& accel,
                  Dataflow dataflow);

  // The prediction for `fault` (same contract as PredictPattern), computed
  // on first use of its canonical coordinate.
  const PredictedPattern& Lookup(const FaultSpec& fault);

 private:
  WorkloadSpec workload_;
  AccelConfig accel_;
  Dataflow dataflow_;
  TileGrid grid_;
  ClassifyContext context_;
  std::mutex mutex_;
  std::map<PeCoord, PredictedPattern> memo_;
};

}  // namespace saffire
