#include "patterns/symmetry.h"

#include <map>
#include <tuple>
#include <utility>

#include "accel/driver.h"

namespace saffire {

std::vector<std::size_t> PartitionFaultSites(const std::vector<PeCoord>& sites,
                                             const WorkloadSpec& workload,
                                             const AccelConfig& accel,
                                             Dataflow dataflow) {
  workload.Validate();
  const TileGrid grid = Driver::PlanTiles(workload.GemmM(), workload.GemmN(),
                                          workload.GemmK(), accel, dataflow);
  // Key: the site's array row, the tile counts its operand streams cross
  // on each axis, and under OS whether it is PE(0,0) — the record-identity
  // partition, deliberately finer than the reach-identity one below (the
  // header says why). The counts stay apart even when one is 0 and the
  // reach is empty: an OS PE below the last output row still sees the
  // weight stream of every column-tile its column lies in. Same-COLUMN
  // sites are NOT record-equivalent in general even though the paper's
  // class label matches: e.g. a WS adder_out fault sees the running partial
  // sum, whose value depends on the array row, so whether a given stuck bit
  // ever fires differs row to row.
  std::map<std::tuple<std::int32_t, std::int64_t, std::int64_t, bool>,
           std::size_t>
      rep_by_key;
  std::vector<std::size_t> rep_of;
  rep_of.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const PeTiles tiles = PlacePeOutput(grid, dataflow, sites[i]);
    // An OS accumulator also adds the idle cycles before its operands
    // arrive, and a stuck adder bit fires on the first of them. Operands
    // meet at PE(0,0) on the stream's first cycle, so it alone has none.
    const bool no_idle_lead_in = dataflow == Dataflow::kOutputStationary &&
                                 sites[i] == PeCoord{0, 0};
    const auto key = std::tuple(sites[i].row, tiles.m_tiles, tiles.n_tiles,
                                no_idle_lead_in);
    rep_of.push_back(rep_by_key.try_emplace(key, i).first->second);
  }
  return rep_of;
}

std::vector<SiteEquivalenceClass> PartitionFaultSites(
    const WorkloadSpec& workload, const AccelConfig& accel,
    Dataflow dataflow) {
  workload.Validate();
  accel.Validate();

  // The paper-level partition: identical raw reach, the "fault pattern
  // class remains the same irrespective of the position of the faulty MAC
  // unit" observation made precise. Under WS/IS each column collapses; OS
  // keeps every site distinct because each owns different output coords.
  std::vector<SiteEquivalenceClass> classes;
  std::map<std::vector<MatrixCoord>, std::size_t> index_by_reach;
  const FaultSpec prototype =
      StuckAtAdder(/*pe=*/{0, 0}, /*bit=*/8, StuckPolarity::kStuckAt1);
  for (const PeCoord site : AllPeCoords(accel.array)) {
    FaultSpec fault = prototype;
    fault.pe = site;
    PredictedPattern prediction =
        PredictPattern(workload, accel, dataflow, fault);
    const auto it = index_by_reach.find(prediction.coords);
    if (it == index_by_reach.end()) {
      index_by_reach.emplace(prediction.coords, classes.size());
      SiteEquivalenceClass equivalence;
      equivalence.representative = site;
      equivalence.members = {site};
      equivalence.prediction = std::move(prediction);
      classes.push_back(std::move(equivalence));
    } else {
      classes[it->second].members.push_back(site);
    }
  }
  return classes;
}

double SymmetryReductionFactor(const WorkloadSpec& workload,
                               const AccelConfig& accel, Dataflow dataflow) {
  const auto classes = PartitionFaultSites(workload, accel, dataflow);
  const auto num_pes = static_cast<double>(accel.array.num_pes());
  return (num_pes - static_cast<double>(classes.size())) / num_pes;
}

}  // namespace saffire
