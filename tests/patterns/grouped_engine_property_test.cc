// Randomized property test for the grouped engines (FiRunner::RunFaultyBatch
// and FiRunner::RunFaultyPredicted) on tile layouts the fixed matrices do not
// reach. Small non-square arrays with max_compute_rows between rows and
// 2·rows make ragged workloads span several m-tiles under WS, and — once
// N > max_compute_rows — under IS, where a cone column is an output row.
//
// For every site of every drawn campaign:
//   - RunPreparedBatch records on kBatch and kPredicted (in randomly sized
//     groups) equal the kDifferential record of the same experiment;
//   - each engine's cone output, expanded over the golden result, equals the
//     differential run's dense output;
//   - the kReference record, the bottom of the demotion ladder run on the
//     same prepared campaign and simulator, equals the differential record
//     in every field but the pe_steps split: reference simulates every PE,
//     so it skips none and its pe_steps is the differential sum.
// A second test drives the closed form's trace-free operand form on what
// no fill recipe makes — raw int8 tensors over the full range, operand
// widths of 4 to 8 bits and accumulator widths up to 64 — against
// FiRunner::RunFaulty on the same operands.
// Every iteration draws from its own seed, which the failure names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "patterns/campaign.h"

namespace saffire {
namespace {

// A small non-square array whose compute-row budget lies between rows and
// 2·rows, so ragged workloads span several m-tiles.
AccelConfig DrawAccel(Rng& rng) {
  AccelConfig accel;
  ArrayConfig& array = accel.array;
  array.rows = static_cast<std::int32_t>(rng.UniformInt(2, 8));
  array.cols = static_cast<std::int32_t>(rng.UniformInt(2, 8));
  accel.max_compute_rows =
      static_cast<std::int32_t>(rng.UniformInt(array.rows, 2 * array.rows));
  accel.acc_rows = accel.max_compute_rows;
  accel.spad_rows = accel.max_compute_rows + std::max(array.rows, array.cols);
  accel.dram_bytes = 1 << 20;
  return accel;
}

const Dataflow kDataflows[] = {Dataflow::kWeightStationary,
                               Dataflow::kOutputStationary,
                               Dataflow::kInputStationary};

CampaignConfig DrawCampaign(Rng& rng) {
  CampaignConfig config;
  config.accel = DrawAccel(rng);
  const ArrayConfig& array = config.accel.array;

  config.workload.name = "grouped-property";
  config.workload.m = rng.UniformInt(1, 40);
  config.workload.k = rng.UniformInt(1, 40);
  config.workload.n = rng.UniformInt(1, 40);
  config.workload.input_fill = OperandFill::kRandom;
  config.workload.weight_fill = OperandFill::kRandom;
  config.workload.data_seed = rng();

  config.dataflow = kDataflows[rng.UniformInt(0, 2)];
  const MacSignal signals[] = {MacSignal::kWeightOperand, MacSignal::kMulOut,
                               MacSignal::kAdderOut, MacSignal::kActForward,
                               MacSignal::kSouthForward};
  config.signal = signals[rng.UniformInt(0, 4)];
  config.bit =
      static_cast<int>(rng.UniformInt(0, SignalWidth(config.signal, array) - 1));
  config.polarity = rng.Bernoulli(0.5) ? StuckPolarity::kStuckAt1
                                       : StuckPolarity::kStuckAt0;
  config.engine = CampaignEngine::kBatch;
  return config;
}

// The records of every site on `engine`, run as consecutive groups of
// `lanes` experiments.
std::vector<ExperimentRecord> GroupedRecords(const PreparedCampaign& prepared,
                                             FiRunner& runner,
                                             CampaignEngine engine,
                                             std::size_t lanes) {
  std::vector<ExperimentRecord> records;
  for (std::size_t begin = 0; begin < prepared.faults.size(); begin += lanes) {
    const std::size_t end = std::min(prepared.faults.size(), begin + lanes);
    const std::vector<ExperimentRecord> group =
        RunPreparedBatch(prepared, runner, begin, end, engine);
    records.insert(records.end(), group.begin(), group.end());
  }
  return records;
}

TEST(GroupedEnginePropertyTest, MatchesDifferentialOnRandomTiledCampaigns) {
  constexpr std::uint64_t kFirstSeed = 20231017;
  constexpr int kIterations = 60;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(iteration);
    Rng rng(seed);
    const CampaignConfig config = DrawCampaign(rng);
    SCOPED_TRACE("iteration seed " + std::to_string(seed) + ": " +
                 config.ToString() + ", max_compute_rows " +
                 std::to_string(config.accel.max_compute_rows));

    const PreparedCampaign prepared = PrepareCampaign(config);
    const std::size_t sites = prepared.faults.size();
    const auto lanes = static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<std::int64_t>(sites)));
    FiRunner runner(config.accel);
    const std::vector<ExperimentRecord> batch_records =
        GroupedRecords(prepared, runner, CampaignEngine::kBatch, lanes);
    const std::vector<ExperimentRecord> predicted_records =
        GroupedRecords(prepared, runner, CampaignEngine::kPredicted, lanes);

    const GoldenTrace& trace = *prepared.trace();
    const RunResult& golden = prepared.golden();
    const std::vector<ConeRunResult> batch_cones = runner.RunFaultyBatch(
        config.workload, config.dataflow, prepared.faults, trace, golden);
    const bool closed_form = PredictedEngineExact(config);
    const std::vector<ConeRunResult> predicted_cones =
        closed_form ? runner.RunFaultyPredicted(config.workload,
                                                config.dataflow,
                                                prepared.faults, trace, golden)
                    : std::vector<ConeRunResult>{};

    ASSERT_EQ(batch_records.size(), sites);
    ASSERT_EQ(predicted_records.size(), sites);
    for (std::size_t i = 0; i < sites; ++i) {
      const FaultSpec& fault = prepared.faults[i];
      SCOPED_TRACE(fault.ToString());
      const ExperimentRecord want = RunPreparedExperimentWithEngine(
          prepared, runner, i, CampaignEngine::kDifferential);
      ASSERT_TRUE(batch_records[i] == want) << "batch record differs";
      ASSERT_TRUE(predicted_records[i] == want) << "predicted record differs";

      const RunResult dense = runner.RunFaultyDifferential(
          config.workload, config.dataflow, {&fault, 1}, trace);
      ASSERT_TRUE(ExpandCone(batch_cones[i].output, golden.output) ==
                  dense.output)
          << "batch cone differs";
      if (closed_form) {
        ASSERT_TRUE(ExpandCone(predicted_cones[i].output, golden.output) ==
                    dense.output)
            << "predicted cone differs";
        ASSERT_TRUE(predicted_cones[i].output == batch_cones[i].output)
            << "predicted and batch cones differ";
      }

      ExperimentRecord reference = RunPreparedExperimentWithEngine(
          prepared, runner, i, CampaignEngine::kReference);
      ASSERT_EQ(reference.pe_steps_skipped, 0u);
      ASSERT_EQ(reference.pe_steps, want.pe_steps + want.pe_steps_skipped)
          << "reference pe_steps differ from the differential sum";
      reference.pe_steps = want.pe_steps;
      reference.pe_steps_skipped = want.pe_steps_skipped;
      ASSERT_TRUE(reference == want) << "reference record differs";
    }
  }
}

// The closed form's operand form on raw operands, operand and accumulator
// widths off INT8/ACC32, and PE-local faults on every dataflow, one per
// draw on the adder output's top bit: expanded over RunGolden(operands) it
// must equal RunFaulty(operands) in output and fault_activations, and its
// pe_steps split must sum to RunFaulty's pe_steps.
TEST(GroupedEnginePropertyTest, ClosedFormOnRawOperandsMatchesTheArray) {
  constexpr std::uint64_t kFirstSeed = 20261019;
  constexpr int kIterations = 300;
  constexpr int kFaultsPerDraw = 6;
  const MacSignal signals[] = {MacSignal::kWeightOperand, MacSignal::kMulOut,
                               MacSignal::kAdderOut};
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(iteration);
    Rng rng(seed);
    AccelConfig accel = DrawAccel(rng);
    ArrayConfig& array = accel.array;
    array.input_bits = static_cast<std::int32_t>(rng.UniformInt(4, 8));
    array.acc_bits =
        static_cast<std::int32_t>(rng.UniformInt(2 * array.input_bits, 64));
    const Dataflow dataflow = kDataflows[rng.UniformInt(0, 2)];
    const std::int64_t m = rng.UniformInt(1, 40);
    const std::int64_t k = rng.UniformInt(1, 40);
    const std::int64_t n = rng.UniformInt(1, 40);
    const auto raw = [&rng](std::int64_t rows, std::int64_t cols) {
      Int8Tensor t({rows, cols});
      for (std::int8_t& value : t.data()) {
        value = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
      }
      return t;
    };
    const MaterializedWorkload operands{raw(m, k), raw(k, n)};
    std::vector<FaultSpec> faults(kFaultsPerDraw);
    for (FaultSpec& fault : faults) {
      fault.pe = {static_cast<std::int32_t>(rng.UniformInt(0, array.rows - 1)),
                  static_cast<std::int32_t>(rng.UniformInt(0, array.cols - 1))};
      fault.signal = signals[rng.UniformInt(0, 2)];
      fault.bit = static_cast<int>(
          rng.UniformInt(0, SignalWidth(fault.signal, array) - 1));
      fault.polarity = rng.Bernoulli(0.5) ? StuckPolarity::kStuckAt1
                                          : StuckPolarity::kStuckAt0;
    }
    // The adder output's top bit, where a forced value wraps the
    // accumulator (near ±2^63 at 64 bits).
    faults.back().signal = MacSignal::kAdderOut;
    faults.back().bit = array.acc_bits - 1;
    SCOPED_TRACE("iteration seed " + std::to_string(seed) + ": " +
                 array.ToString() + " " + ToString(dataflow) + ", GEMM " +
                 std::to_string(m) + "x" + std::to_string(k) + "x" +
                 std::to_string(n) + ", max_compute_rows " +
                 std::to_string(accel.max_compute_rows));

    FiRunner runner(accel);
    const RunResult golden = runner.RunGolden(operands, dataflow);
    const std::vector<ConeRunResult> predicted =
        runner.RunFaultyPredicted(operands, dataflow, faults, golden.output);
    ASSERT_EQ(predicted.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      SCOPED_TRACE(faults[i].ToString());
      const RunResult want =
          runner.RunFaulty(operands, dataflow, {&faults[i], 1});
      ASSERT_TRUE(ExpandCone(predicted[i].output, golden.output) ==
                  want.output)
          << "closed-form output differs from the array's";
      ASSERT_EQ(predicted[i].fault_activations, want.fault_activations);
      ASSERT_EQ(predicted[i].pe_steps + predicted[i].pe_steps_skipped,
                want.pe_steps);
    }
  }
}

}  // namespace
}  // namespace saffire
