// The predicted campaign engine must be indistinguishable from the
// differential engine in every record it emits — byte-identical record
// streams across the full equivalence matrix, with the closed form serving
// exactly the provably-exact (kind, signal) combinations and everything
// else flowing through the lane-grid residue path. Where the closed form
// serves, its ConeRunResults must equal the lane grid's in every field.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "patterns/campaign.h"
#include "service/run.h"
#include "service/sink.h"
#include "patterns/report.h"

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

CampaignConfig BaseConfig() {
  CampaignConfig config;
  config.accel = SmallAccel();
  config.workload.name = "gemm-12";
  config.workload.m = config.workload.k = config.workload.n = 12;
  config.bit = 8;
  return config;
}

CampaignResult RunParallel(const CampaignConfig& config, int threads) {
  RunOptions options;
  options.max_parallelism = threads;
  CollectorSink collector;
  RunSweep(SingleCampaignPlan(config), options, collector);
  std::vector<CampaignResult> results = collector.TakeResults();
  EXPECT_EQ(results.size(), 1u);
  return std::move(results.front());
}

// Renders both engines' record streams through the shared CSV schema and
// compares the bytes — the strictest equivalence the report layer can see.
void ExpectSameCsv(const CampaignResult& want, const CampaignResult& got) {
  std::ostringstream want_csv;
  std::ostringstream got_csv;
  WriteCampaignCsv(want, want_csv);
  WriteCampaignCsv(got, got_csv);
  EXPECT_EQ(want_csv.str(), got_csv.str());
}

void ExpectSameRecords(const CampaignResult& want, const CampaignResult& got) {
  ASSERT_EQ(want.records.size(), got.records.size());
  EXPECT_EQ(want.golden_cycles, got.golden_cycles);
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(want.records[i], got.records[i]) << "record " << i;
  }
  ExpectSameCsv(want, got);
}

// `config` on the predicted engine and on the differential engine: the
// predicted campaign's records, which must equal the differential ones.
CampaignResult ExpectPredictedMatchesDifferential(CampaignConfig config) {
  config.engine = CampaignEngine::kDifferential;
  const CampaignResult differential = RunCampaignSerial(config);
  config.engine = CampaignEngine::kPredicted;
  CampaignResult predicted = RunCampaignSerial(config);
  ExpectSameRecords(differential, predicted);
  return predicted;
}

// The closed form against the lane grid on every fault of the campaign:
// FiRunner::RunFaultyPredicted and FiRunner::RunFaultyBatch must return
// equal ConeRunResults, cone output and every counter.
void ExpectClosedFormMatchesLaneGrid(CampaignConfig config) {
  config.engine = CampaignEngine::kPredicted;
  const PreparedCampaign prepared = PrepareCampaign(config);
  FiRunner runner(config.accel);
  const std::vector<ConeRunResult> closed_form = runner.RunFaultyPredicted(
      config.workload, config.dataflow, prepared.faults, *prepared.trace(),
      prepared.golden());
  const std::vector<ConeRunResult> lane_grid = runner.RunFaultyBatch(
      config.workload, config.dataflow, prepared.faults, *prepared.trace(),
      prepared.golden());
  ASSERT_EQ(closed_form.size(), lane_grid.size());
  for (std::size_t i = 0; i < closed_form.size(); ++i) {
    EXPECT_TRUE(closed_form[i] == lane_grid[i])
        << prepared.faults[i].ToString();
  }
}

TEST(PredictedEngineNameTest, RoundTripsAndExtendsTheTable) {
  EXPECT_EQ(ToString(CampaignEngine::kPredicted), "predicted");
  EXPECT_EQ(ParseCampaignEngine("predicted"), CampaignEngine::kPredicted);
  EXPECT_THROW(ParseCampaignEngine("Predicted"), std::invalid_argument);
}

TEST(PredictedEngineExactTest, CoversPermanentPeLocalSignalsOnly) {
  auto config = BaseConfig();
  for (const MacSignal signal :
       {MacSignal::kWeightOperand, MacSignal::kMulOut, MacSignal::kAdderOut}) {
    config.signal = signal;
    config.kind = FaultKind::kStuckAt;
    EXPECT_TRUE(PredictedEngineExact(config)) << ToString(signal);
    config.kind = FaultKind::kTransientFlip;
    EXPECT_FALSE(PredictedEngineExact(config)) << ToString(signal);
  }
  config.kind = FaultKind::kStuckAt;
  for (const MacSignal signal :
       {MacSignal::kActForward, MacSignal::kSouthForward}) {
    config.signal = signal;
    EXPECT_FALSE(PredictedEngineExact(config)) << ToString(signal);
  }
}

TEST(PredictedCampaignTest, RejectsBadLaneCounts) {
  auto config = BaseConfig();
  config.engine = CampaignEngine::kPredicted;
  config.batch_lanes = 0;
  EXPECT_THROW(RunCampaignSerial(config), std::invalid_argument);
  config.batch_lanes = 4097;
  EXPECT_THROW(RunCampaignSerial(config), std::invalid_argument);
}

// The acceptance matrix: {OS, WS, IS} × {SA0, SA1} × every covered signal ×
// low/high bit, the closed form vs the lane grid and the predicted engine
// vs differential. Full-field equality: the closed form reproduces even the
// pe_steps/pe_steps_skipped split and the activation counter bit-for-bit.
TEST(PredictedCampaignTest, MatrixMatchesBatchExactly) {
  struct SignalBits {
    MacSignal signal;
    int lo_bit;
    int hi_bit;  // width - 1 for the signal on the INT8/ACC32 array
  };
  const SignalBits cases[] = {
      {MacSignal::kWeightOperand, 0, 7},
      {MacSignal::kMulOut, 0, 15},
      {MacSignal::kAdderOut, 0, 31},
  };
  for (const Dataflow dataflow :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
        Dataflow::kInputStationary}) {
    for (const StuckPolarity polarity :
         {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
      for (const SignalBits& c : cases) {
        for (const int bit : {c.lo_bit, c.hi_bit}) {
          auto config = BaseConfig();
          config.dataflow = dataflow;
          config.polarity = polarity;
          config.signal = c.signal;
          config.bit = bit;
          SCOPED_TRACE(config.ToString());
          ASSERT_TRUE(PredictedEngineExact(config));

          ExpectClosedFormMatchesLaneGrid(config);
          const CampaignResult predicted =
              ExpectPredictedMatchesDifferential(config);
          // The closed form never fills a lane.
          EXPECT_EQ(predicted.lanes_filled, 0u);
          EXPECT_EQ(predicted.batches_run, 0u);
        }
      }
    }
  }
}

// Workload shapes that stress the tiling: non-multiple edges (partial me /
// ne / ke tiles) and a k that fits one reduction tile.
TEST(PredictedCampaignTest, RaggedTilesMatchBatch) {
  struct Shape {
    std::int64_t m, k, n;
  };
  for (const Shape shape : {Shape{13, 9, 11}, Shape{5, 8, 17}, Shape{3, 3, 3},
                            Shape{16, 16, 16}}) {
    for (const Dataflow dataflow :
         {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
      auto config = BaseConfig();
      config.workload.name = "gemm-ragged";
      config.workload.m = shape.m;
      config.workload.k = shape.k;
      config.workload.n = shape.n;
      config.dataflow = dataflow;
      config.signal = MacSignal::kMulOut;
      config.bit = 13;
      SCOPED_TRACE(config.ToString());

      ExpectClosedFormMatchesLaneGrid(config);
      ExpectPredictedMatchesDifferential(config);
    }
  }
}

// Transient campaigns are residue: kPredicted must silently route through
// the lane-grid replay — identical records, and this time the lanes DO
// fill: 64 sites in one 256-lane pass.
TEST(PredictedCampaignTest, TransientResidueRunsOnBatch) {
  auto config = BaseConfig();
  config.kind = FaultKind::kTransientFlip;
  ASSERT_FALSE(PredictedEngineExact(config));

  const CampaignResult predicted = ExpectPredictedMatchesDifferential(config);
  EXPECT_EQ(predicted.lanes_filled, predicted.records.size());
  EXPECT_EQ(predicted.batches_run, 1u);
}

// Forwarding-chain signals are residue too (their corruption crosses PE
// boundaries, so no PE-local closed form exists).
TEST(PredictedCampaignTest, ForwardingSignalResidueRunsOnBatch) {
  auto config = BaseConfig();
  config.signal = MacSignal::kActForward;
  config.bit = 3;
  ASSERT_FALSE(PredictedEngineExact(config));

  const CampaignResult predicted = ExpectPredictedMatchesDifferential(config);
  EXPECT_EQ(predicted.lanes_filled, predicted.records.size());
}

// Partial grouping boundaries must not change records (they cannot — the
// closed form is per-experiment — but the canonical group loop still walks
// them, so exercise a lane count that does not divide the site count).
TEST(PredictedCampaignTest, PartialGroupsAndSampledSitesMatch) {
  auto config = BaseConfig();
  config.max_sites = 17;
  config.batch_lanes = 5;
  const CampaignResult predicted = ExpectPredictedMatchesDifferential(config);
  EXPECT_EQ(predicted.lanes_filled, 0u);
  EXPECT_EQ(predicted.batches_run, 0u);
}

// The executor path must agree with the serial ground truth.
TEST(PredictedCampaignTest, ParallelMatchesSerial) {
  auto config = BaseConfig();
  config.engine = CampaignEngine::kPredicted;
  const CampaignResult serial = RunCampaignSerial(config);
  for (const int threads : {1, 4}) {
    const CampaignResult parallel = RunParallel(config, threads);
    ExpectSameRecords(serial, parallel);
    EXPECT_EQ(parallel.lanes_filled, serial.lanes_filled) << threads;
    EXPECT_EQ(parallel.batches_run, serial.batches_run) << threads;
  }
}

}  // namespace
}  // namespace saffire
