// Lane-parallel batched runs (FiRunner::RunFaultyBatch) must be
// bit-for-bit identical to differential runs for every lane: same output
// (the lane's cone output expanded over the golden result), cycles, fault
// activations, and the same pe_steps / pe_steps_skipped split. Exercised over every MacSignal and dataflow, tiled workloads,
// transient strikes, heterogeneous batches, and the W=1 degenerate batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fi/runner.h"

namespace saffire {
namespace {

AccelConfig SmallAccel() {
  AccelConfig config;
  config.array.rows = 8;
  config.array.cols = 8;
  config.max_compute_rows = 64;
  config.spad_rows = 128;
  config.acc_rows = 64;
  config.dram_bytes = 1 << 20;
  return config;
}

WorkloadSpec SmallGemm(std::int64_t m, std::int64_t k, std::int64_t n) {
  WorkloadSpec spec;
  spec.name = "gemm-batch-test";
  spec.m = m;
  spec.k = k;
  spec.n = n;
  spec.input_fill = OperandFill::kRandom;
  spec.weight_fill = OperandFill::kRandom;
  return spec;
}

// Runs `faults` as one lane-grid pass and checks every lane against an
// independent differential run of the same fault. Transient at_cycle values
// are interpreted as relative strike offsets by the lane grid, so the
// differential comparator rebases them onto its simulator's clock exactly
// like RunPreparedExperiment does.
void ExpectBatchMatchesDifferential(const AccelConfig& accel,
                                    const WorkloadSpec& workload,
                                    Dataflow dataflow,
                                    const std::vector<FaultSpec>& faults) {
  SCOPED_TRACE(ToString(dataflow));
  GoldenTrace trace;
  FiRunner batch_runner(accel);
  const RunResult golden =
      batch_runner.RunGoldenRecorded(workload, dataflow, &trace);

  const std::vector<ConeRunResult> batch =
      batch_runner.RunFaultyBatch(workload, dataflow, faults, trace, golden);
  ASSERT_EQ(batch.size(), faults.size());

  FiRunner diff_runner(accel);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    SCOPED_TRACE(faults[i].ToString());
    FaultSpec injected = faults[i];
    if (injected.kind == FaultKind::kTransientFlip) {
      injected.at_cycle += diff_runner.accel().cycles();
    }
    const RunResult diff = diff_runner.RunFaultyDifferential(
        workload, dataflow, {&injected, 1}, trace);
    ASSERT_EQ(ExpandCone(batch[i].output, golden.output), diff.output);
    ASSERT_EQ(batch[i].cycles, diff.cycles);
    ASSERT_EQ(batch[i].fault_activations, diff.fault_activations);
    ASSERT_EQ(batch[i].pe_steps, diff.pe_steps);
    ASSERT_EQ(batch[i].pe_steps_skipped, diff.pe_steps_skipped);
  }
}

// Every MacSignal under every dataflow, a batch of several PEs per signal.
TEST(BatchRunTest, AllSignalsAllDataflowsMatchDifferential) {
  const AccelConfig accel = SmallAccel();
  const WorkloadSpec workload = SmallGemm(8, 8, 8);
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    for (const MacSignal signal :
         {MacSignal::kMulOut, MacSignal::kAdderOut, MacSignal::kWeightOperand,
          MacSignal::kActForward, MacSignal::kSouthForward}) {
      SCOPED_TRACE(ToString(signal));
      std::vector<FaultSpec> faults;
      for (const PeCoord pe :
           {PeCoord{0, 0}, PeCoord{3, 4}, PeCoord{5, 1}, PeCoord{7, 7}}) {
        FaultSpec fault;
        fault.pe = pe;
        fault.signal = signal;
        fault.bit = 3;
        fault.polarity = StuckPolarity::kStuckAt1;
        faults.push_back(fault);
      }
      ExpectBatchMatchesDifferential(accel, workload, dataflow, faults);
    }
  }
}

// Multi-tile replay: the trace's per-Reset checkpoints, the per-(mi, ni)
// accumulator mirroring, and partial edge tiles all get exercised.
TEST(BatchRunTest, TiledWorkloadMatchesDifferential) {
  const AccelConfig accel = SmallAccel();
  const WorkloadSpec workload = SmallGemm(20, 10, 12);
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    std::vector<FaultSpec> faults;
    for (const PeCoord pe : {PeCoord{0, 0}, PeCoord{2, 6}, PeCoord{7, 3}}) {
      faults.push_back(StuckAtAdder(pe, 5, StuckPolarity::kStuckAt0));
    }
    ExpectBatchMatchesDifferential(accel, workload, dataflow, faults);
  }
}

// Transient strikes: relative offsets, including lanes whose strike lands
// outside any recorded step (electrically masked).
TEST(BatchRunTest, TransientStrikesMatchDifferential) {
  const AccelConfig accel = SmallAccel();
  const WorkloadSpec workload = SmallGemm(12, 12, 12);
  std::vector<FaultSpec> faults;
  for (const std::int64_t offset : {0, 7, 31, 1000000}) {
    FaultSpec fault;
    fault.kind = FaultKind::kTransientFlip;
    fault.pe = {2, 6};
    fault.signal = MacSignal::kAdderOut;
    fault.bit = 7;
    fault.at_cycle = offset;
    faults.push_back(fault);
  }
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary}) {
    ExpectBatchMatchesDifferential(accel, workload, dataflow, faults);
  }
}

// The differential comparator above runs on a fresh simulator; transient
// rebasing must also hold when the comparator's clock is already advanced.
TEST(BatchRunTest, TransientRebasesOntoAdvancedClock) {
  const AccelConfig accel = SmallAccel();
  const WorkloadSpec workload = SmallGemm(8, 8, 8);
  GoldenTrace trace;
  FiRunner batch_runner(accel);
  const RunResult golden = batch_runner.RunGoldenRecorded(
      workload, Dataflow::kWeightStationary, &trace);

  FaultSpec fault;
  fault.kind = FaultKind::kTransientFlip;
  fault.pe = {4, 4};
  fault.signal = MacSignal::kMulOut;
  fault.bit = 2;
  fault.at_cycle = 9;
  const std::vector<FaultSpec> faults{fault};
  const std::vector<ConeRunResult> batch = batch_runner.RunFaultyBatch(
      workload, Dataflow::kWeightStationary, faults, trace, golden);

  FiRunner diff_runner(accel);
  diff_runner.RunGolden(workload, Dataflow::kWeightStationary);  // advance
  ASSERT_GT(diff_runner.accel().cycles(), 0);
  FaultSpec injected = fault;
  injected.at_cycle += diff_runner.accel().cycles();
  const RunResult diff = diff_runner.RunFaultyDifferential(
      workload, Dataflow::kWeightStationary, {&injected, 1}, trace);
  EXPECT_EQ(ExpandCone(batch.front().output, golden.output), diff.output);
  EXPECT_EQ(batch.front().fault_activations, diff.fault_activations);
}

// One heterogeneous batch: different signals, bits, polarities, and kinds
// packed into the same array pass.
TEST(BatchRunTest, HeterogeneousBatchMatchesDifferential) {
  const AccelConfig accel = SmallAccel();
  const WorkloadSpec workload = SmallGemm(12, 12, 12);
  std::vector<FaultSpec> faults;
  faults.push_back(StuckAtAdder({0, 0}, 0, StuckPolarity::kStuckAt1));
  faults.push_back(StuckAtAdder({7, 7}, 31, StuckPolarity::kStuckAt0));
  {
    FaultSpec fault;
    fault.pe = {3, 2};
    fault.signal = MacSignal::kActForward;
    fault.bit = 6;
    fault.polarity = StuckPolarity::kStuckAt0;
    faults.push_back(fault);
  }
  {
    FaultSpec fault;
    fault.pe = {1, 5};
    fault.signal = MacSignal::kSouthForward;
    fault.bit = 9;
    fault.polarity = StuckPolarity::kStuckAt1;
    faults.push_back(fault);
  }
  {
    FaultSpec fault;
    fault.kind = FaultKind::kTransientFlip;
    fault.pe = {6, 3};
    fault.signal = MacSignal::kWeightOperand;
    fault.bit = 1;
    fault.at_cycle = 14;
    faults.push_back(fault);
  }
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    ExpectBatchMatchesDifferential(accel, workload, dataflow, faults);
  }
}

// W=1: a single-lane batch is just a slower spelling of a differential run.
TEST(BatchRunTest, SingleLaneBatchMatchesDifferential) {
  const AccelConfig accel = SmallAccel();
  const WorkloadSpec workload = SmallGemm(12, 12, 12);
  const std::vector<FaultSpec> faults{
      StuckAtAdder({4, 4}, 8, StuckPolarity::kStuckAt1)};
  ExpectBatchMatchesDifferential(accel, workload,
                                 Dataflow::kWeightStationary, faults);
}

TEST(BatchRunTest, RejectsEmptyBatchAndUnrebasedTransient) {
  const AccelConfig accel = SmallAccel();
  const WorkloadSpec workload = SmallGemm(8, 8, 8);
  GoldenTrace trace;
  FiRunner runner(accel);
  const RunResult golden = runner.RunGoldenRecorded(
      workload, Dataflow::kWeightStationary, &trace);
  EXPECT_THROW(runner.RunFaultyBatch(workload, Dataflow::kWeightStationary,
                                     {}, trace, golden),
               std::invalid_argument);
  FaultSpec fault;
  fault.kind = FaultKind::kTransientFlip;
  fault.pe = {0, 0};
  fault.signal = MacSignal::kAdderOut;
  fault.bit = 0;
  fault.at_cycle = -1;  // "whole run" is a per-experiment convention
  const std::vector<FaultSpec> faults{fault};
  EXPECT_THROW(runner.RunFaultyBatch(workload, Dataflow::kWeightStationary,
                                     faults, trace, golden),
               std::invalid_argument);
}

}  // namespace
}  // namespace saffire
