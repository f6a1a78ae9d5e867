// Executes one workload on the simulated accelerator, fault-free (golden)
// or with faults installed — the per-experiment engine of the paper's FI
// campaigns (Sec. III-B: "fault patterns are extracted by contrasting the
// output of the systolic array with and without FI").
#pragma once

#include <span>
#include <vector>

#include "accel/driver.h"
#include "fi/cone.h"
#include "fi/fault.h"
#include "fi/injector.h"
#include "fi/workload.h"

namespace saffire {

struct RunResult {
  // The GEMM-view output matrix (for convolutions: the lowered GEMM result,
  // before folding) — the space in which fault patterns are classified.
  Int32Tensor output{{1, 1}};
  // Accelerator cycles and PE evaluations consumed by this run — the basis
  // of the FI-cost comparison (the paper's 45 s GEMM vs 130 s conv).
  std::int64_t cycles = 0;
  std::uint64_t pe_steps = 0;
  // PE evaluations avoided by differential execution (0 for golden and
  // full faulty runs). pe_steps + pe_steps_skipped equals the pe_steps of
  // the equivalent full run.
  std::uint64_t pe_steps_skipped = 0;
  // Times the injected fault actually changed a signal value (0 for golden
  // runs; 0 in a faulty run means the fault was electrically masked).
  std::uint64_t fault_activations = 0;
};

// RunResult's counterpart for the grouped runners below: the same counters,
// with the output restricted to the fault's cone.
struct ConeRunResult {
  ConeOutput output;
  std::int64_t cycles = 0;
  std::uint64_t pe_steps = 0;
  std::uint64_t pe_steps_skipped = 0;
  std::uint64_t fault_activations = 0;

  bool operator==(const ConeRunResult&) const = default;
};

// The fault-free run of `operands` on `accel`, planned instead of stepped:
// the output is Driver::PlanProduct, cycles are Driver::PlanSchedule's and
// pe_steps its steps times the PE count; pe_steps_skipped and
// fault_activations stay 0, as in any golden run. Equals
// FiRunner::RunGolden in output, cycles and pe_steps for any operands,
// widths, tiling and weight buffering (tests/fi/plan_golden_test.cc), and
// steps no array: saffire.fi.runs does not move.
RunResult PlanGolden(const MaterializedWorkload& operands, Dataflow dataflow,
                     const AccelConfig& accel);

class FiRunner {
 public:
  explicit FiRunner(const AccelConfig& config) : accel_(config), driver_(accel_) {}

  // Fault-free execution. The WorkloadSpec form is Materialize(workload)
  // plus the operand overload, which takes the physical GEMM operands
  // directly (a network layer's inputs), like RunFaulty's.
  RunResult RunGolden(const WorkloadSpec& workload, Dataflow dataflow);
  RunResult RunGolden(const MaterializedWorkload& operands, Dataflow dataflow);

  // Execution with the given fault(s) installed for the whole run. The
  // injector is installed before the first instruction and removed after
  // the last, so permanent faults span every tile invocation — the source
  // of the paper's multi-tile fault patterns. The WorkloadSpec form is
  // Materialize(workload) plus the operand overload.
  RunResult RunFaulty(const WorkloadSpec& workload, Dataflow dataflow,
                      std::span<const FaultSpec> faults);
  RunResult RunFaulty(const MaterializedWorkload& operands, Dataflow dataflow,
                      std::span<const FaultSpec> faults);

  // Fault-free execution that additionally records the golden trace needed
  // by RunFaultyDifferential and RunFaultyBatch (see
  // systolic/golden_trace.h). Bit-identical to RunGolden in every RunResult
  // field. Only replaying engines need it: the closed form runs on
  // PlanGolden, and GoldenRunCache records a key only when a campaign asks
  // for its trace.
  RunResult RunGoldenRecorded(const WorkloadSpec& workload, Dataflow dataflow,
                              GoldenTrace* trace);

  // Faulty execution restricted to the faults' static influence cone
  // (fi/cone.h); array state outside the cone is replayed from `trace`,
  // which must have been recorded by RunGoldenRecorded on the same
  // workload/dataflow/configuration. Bit-identical to RunFaulty in output,
  // cycles, and fault_activations; pe_steps + pe_steps_skipped equals
  // RunFaulty's pe_steps (tests/fi/differential_test.cc).
  RunResult RunFaultyDifferential(const WorkloadSpec& workload,
                                  Dataflow dataflow,
                                  std::span<const FaultSpec> faults,
                                  const GoldenTrace& trace);

  // Lane-parallel batched faulty execution: simulates one independent
  // single-fault experiment per entry of `faults` by replaying `trace`
  // through a shared control-flow sweep (systolic/lane_grid.h) instead of
  // re-running the accelerator once per fault. `trace` and `golden` must
  // come from RunGoldenRecorded on the same workload/dataflow/configuration.
  //
  // Unlike the per-experiment entry points, transient `at_cycle` values are
  // *relative* strike offsets into the recorded run (the convention
  // PlanFaults samples in), not absolute simulator cycles.
  //
  // A pure replay: accelerator state and counters are untouched. Each
  // result carries the faulty output over its fault's cone only (ConeOutput,
  // fi/cone.h; everything outside it is golden). ExpandCone(result.output,
  // golden.output) is bit-identical to RunFaultyDifferential's output on the
  // same fault, and the counters match it exactly — the pe_steps /
  // pe_steps_skipped split, cycles (= golden), and fault_activations
  // (tests/fi/batch_test.cc).
  std::vector<ConeRunResult> RunFaultyBatch(const WorkloadSpec& workload,
                                            Dataflow dataflow,
                                            std::span<const FaultSpec> faults,
                                            const GoldenTrace& trace,
                                            const RunResult& golden);

  // Closed-form faulty execution: emits the same per-fault results as
  // RunFaultyBatch without stepping the array at all, by propagating each
  // fault's algebraic corruption delta through the tile schedule (the
  // FLARE-style short circuit; see fi/predicted.cc for the derivation).
  // Only provably-exact combinations are accepted: permanent stuck-at
  // faults on the three PE-local signals (kWeightOperand / kMulOut /
  // kAdderOut) — the signals whose effect never crosses a forwarding chain.
  // Everything else must go through RunFaultyBatch (the campaign layer's
  // kPredicted rung routes the residue there automatically).
  //
  // The operand form is trace-free: it needs only the physical GEMM
  // operands, any of them, and `golden`, their fault-free product as the
  // array computes it. A closed-form campaign passes its cached operands
  // and their PlanGolden output, and sets cycles to the plan's; the network
  // cycle rung passes the host product of whatever operands reach a
  // PE-local fault's layer. ExpandCone(result.output, golden) and
  // fault_activations equal RunFaulty's on the same operands, and
  // pe_steps + pe_steps_skipped equals RunFaulty's pe_steps; cycles stay 0.
  // The WorkloadSpec form is Materialize(workload) plus the operand form
  // with golden.cycles, after CheckTraceMatchesSchedule (fi/cone.h), so a
  // cached trace of another workload throws. It equals RunFaultyBatch in
  // every field, the cone output included: a
  // PE-local fault's cone is its own column in every n-tile, and under OS
  // the cells of that column the fault does not own carry golden values
  // (tests/patterns/grouped_engine_property_test.cc).
  std::vector<ConeRunResult> RunFaultyPredicted(
      const WorkloadSpec& workload, Dataflow dataflow,
      std::span<const FaultSpec> faults, const GoldenTrace& trace,
      const RunResult& golden);
  std::vector<ConeRunResult> RunFaultyPredicted(
      const MaterializedWorkload& operands, Dataflow dataflow,
      std::span<const FaultSpec> faults, const Int32Tensor& golden);

  Accelerator& accel() { return accel_; }
  Driver& driver() { return driver_; }

 private:
  RunResult Run(const MaterializedWorkload& operands, Dataflow dataflow,
                FaultInjector* injector);

  Accelerator accel_;
  Driver driver_;
};

}  // namespace saffire
