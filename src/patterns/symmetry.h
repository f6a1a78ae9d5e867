// Fault-site symmetry reduction.
//
// The paper observes (Sec. IV, Discussion) that "the fault pattern class
// remains the same irrespective of the position of the faulty MAC unit"
// and proposes using this symmetry "to reduce the number of FI
// experiments". The determinism result makes the reduction precise: two
// fault sites are equivalent for a configuration iff their predicted
// corruption reaches are identical — under WS every site in an array
// column collapses into one class representative (256 → ≤16 experiments on
// the 16×16 array), under IS every site in a column likewise, while OS
// keeps all sites distinct (each owns different output coordinates).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fi/fault.h"
#include "fi/workload.h"
#include "patterns/predictor.h"

namespace saffire {

struct SiteEquivalenceClass {
  PeCoord representative;            // first site (row-major order)
  std::vector<PeCoord> members;      // all equivalent sites, row-major
  PredictedPattern prediction;       // shared predicted reach & class

  bool operator==(const SiteEquivalenceClass&) const = default;
};

// Partitions every PE of the array into equivalence classes of identical
// predicted reach for stuck-at faults on the adder output. Classes are
// ordered by their representative (row-major).
std::vector<SiteEquivalenceClass> PartitionFaultSites(
    const WorkloadSpec& workload, const AccelConfig& accel,
    Dataflow dataflow);

// The record-identity partition of a campaign's sites (in campaign order)
// for permanent faults on a PE-local signal. Entry i is the index in
// `sites` of site i's class representative: the class's first site in
// `sites` order, so entry i <= i, which is what lets a campaign map every
// experiment onto the earliest equivalent one.
//
// Unlike the whole-array overload above, the key is not the raw reach but
// (array row, how many tiles the PE's operand streams cross along each
// axis), taken from PlacePeOutput, which places a PE at one offset in each
// tile it reaches. Two same-row sites with equal tile counts therefore see
// the same operand streams, one translated along the row. With
// column-invariant operands (SymmetryEligibleCampaign) the translated
// experiment produces a record identical in every field, which is what
// lets the campaign layer synthesize a member's record from its
// representative's. One timing effect breaks the translation: an OS
// accumulator adds the idle cycles before its operands arrive, and PE(0,0)
// has none, so under OS it is a class of its own. Same-column sites share
// the paper's pattern CLASS but not the full record (the fault sees
// row-dependent values), so they stay separate.
std::vector<std::size_t> PartitionFaultSites(const std::vector<PeCoord>& sites,
                                             const WorkloadSpec& workload,
                                             const AccelConfig& accel,
                                             Dataflow dataflow);

// Experiments saved by running one representative per class instead of
// every site: (num_pes − num_classes) / num_pes.
double SymmetryReductionFactor(const WorkloadSpec& workload,
                               const AccelConfig& accel, Dataflow dataflow);

}  // namespace saffire
