// The batch campaign engine must be indistinguishable from the reference
// and differential engines in every record it emits — the engine-equivalence
// matrix — while its occupancy counters (lanes_filled / batches_run) reflect
// the canonical batch_lanes-sized grouping, including partial final batches
// and W=1, on campaigns that do not fold their sites; a folding campaign
// fills one lane per class.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "patterns/campaign.h"
#include "service/run.h"
#include "service/sink.h"
#include "patterns/report.h"
#include "systolic/simd_ops.h"

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

// A campaign that does not fold its sites (random inputs, see
// SymmetryEligibleCampaign), so every site fills a lane of its own.
CampaignConfig UnfoldedConfig() {
  CampaignConfig config = BaseConfig();
  config.workload.input_fill = OperandFill::kRandom;
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

// Folds the per-engine cost split into its engine-invariant sum
// (ExperimentRecord doc: kReference runs every PE, so its pe_steps equals
// the differential/batch engines' pe_steps + pe_steps_skipped).
ExperimentRecord CostNormalized(ExperimentRecord record) {
  record.pe_steps += record.pe_steps_skipped;
  record.pe_steps_skipped = 0;
  return record;
}

void ExpectSameRecords(const CampaignResult& want, const CampaignResult& got,
                       bool normalize_cost = false) {
  ASSERT_EQ(want.records.size(), got.records.size());
  EXPECT_EQ(want.golden_cycles, got.golden_cycles);
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    if (normalize_cost) {
      EXPECT_EQ(CostNormalized(want.records[i]),
                CostNormalized(got.records[i]))
          << "record " << i;
    } else {
      EXPECT_EQ(want.records[i], got.records[i]) << "record " << i;
    }
  }
}

TEST(CampaignEngineNameTest, RoundTripsEveryEngine) {
  for (const CampaignEngine engine :
       {CampaignEngine::kDifferential, CampaignEngine::kReference,
        CampaignEngine::kBatch, CampaignEngine::kPredicted}) {
    EXPECT_EQ(ParseCampaignEngine(ToString(engine)), engine)
        << ToString(engine);
  }
  EXPECT_EQ(ToString(CampaignEngine::kBatch), "batch");
}

TEST(CampaignEngineNameTest, RejectsUnknownNames) {
  // "full" named a removed engine; it is rejected like any unknown name,
  // with the error listing the engines that remain.
  for (const char* name :
       {"", "Batch", "BATCH", "batched", "lane", "fast", "full"}) {
    try {
      ParseCampaignEngine(name);
      ADD_FAILURE() << "'" << name << "' parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what())
                    .find("differential|reference|batch|predicted"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(BatchCampaignTest, RejectsBadLaneCounts) {
  auto config = BaseConfig();
  config.engine = CampaignEngine::kBatch;
  config.batch_lanes = 0;
  EXPECT_THROW(RunCampaignSerial(config), std::invalid_argument);
  config.batch_lanes = 4097;
  EXPECT_THROW(RunCampaignSerial(config), std::invalid_argument);
}

// The acceptance matrix: {OS, WS} × {SA0, SA1} × bits {0, 7, 31} ×
// {permanent, transient}, batch vs reference vs differential.
TEST(BatchCampaignTest, MatrixMatchesReferenceAndDifferential) {
  for (const Dataflow dataflow :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
    for (const StuckPolarity polarity :
         {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
      for (const int bit : {0, 7, 31}) {
        for (const FaultKind kind :
             {FaultKind::kStuckAt, FaultKind::kTransientFlip}) {
          auto config = UnfoldedConfig();
          config.dataflow = dataflow;
          config.polarity = polarity;
          config.bit = bit;
          config.kind = kind;
          SCOPED_TRACE(config.ToString());

          config.engine = CampaignEngine::kReference;
          const CampaignResult reference = RunCampaignSerial(config);
          config.engine = CampaignEngine::kDifferential;
          const CampaignResult differential = RunCampaignSerial(config);
          config.engine = CampaignEngine::kBatch;
          const CampaignResult batch = RunCampaignSerial(config);

          ExpectSameRecords(reference, differential,
                            /*normalize_cost=*/true);
          ExpectSameRecords(reference, batch, /*normalize_cost=*/true);
          // Batch vs differential is exact — same cone, same cost split.
          ExpectSameRecords(differential, batch);
          EXPECT_EQ(batch.lanes_filled, batch.records.size());
          EXPECT_GE(batch.batches_run, 1u);
        }
      }
    }
  }
}

// 64 sites at 5 lanes per pass: 12 full batches plus a 4-lane final one.
TEST(BatchCampaignTest, PartialFinalBatchAndOccupancyCounters) {
  auto config = UnfoldedConfig();
  config.engine = CampaignEngine::kDifferential;
  const CampaignResult differential = RunCampaignSerial(config);

  config.engine = CampaignEngine::kBatch;
  config.batch_lanes = 5;
  const CampaignResult batch = RunCampaignSerial(config);
  ExpectSameRecords(differential, batch);
  EXPECT_EQ(batch.records.size(), 64u);
  EXPECT_EQ(batch.lanes_filled, 64u);
  EXPECT_EQ(batch.batches_run, 13u);

  // The per-experiment engines leave the occupancy counters at zero.
  EXPECT_EQ(differential.lanes_filled, 0u);
  EXPECT_EQ(differential.batches_run, 0u);
}

// W=1 degenerates to one experiment per pass and must still agree.
TEST(BatchCampaignTest, SingleLaneBatchesMatch) {
  auto config = UnfoldedConfig();
  config.max_sites = 6;
  config.engine = CampaignEngine::kDifferential;
  const CampaignResult differential = RunCampaignSerial(config);

  config.engine = CampaignEngine::kBatch;
  config.batch_lanes = 1;
  const CampaignResult batch = RunCampaignSerial(config);
  ExpectSameRecords(differential, batch);
  EXPECT_EQ(batch.lanes_filled, 6u);
  EXPECT_EQ(batch.batches_run, 6u);
}

// The executor path: parallel batch runs must match the serial ground truth
// record-for-record, and the canonical batch grouping keeps the occupancy
// counters thread-count-invariant.
TEST(BatchCampaignTest, ParallelMatchesSerial) {
  auto config = UnfoldedConfig();
  config.engine = CampaignEngine::kBatch;
  config.batch_lanes = 5;
  const CampaignResult serial = RunCampaignSerial(config);
  for (const int threads : {1, 4}) {
    const CampaignResult parallel = RunParallel(config, threads);
    ExpectSameRecords(serial, parallel);
    EXPECT_EQ(parallel.lanes_filled, serial.lanes_filled) << threads;
    EXPECT_EQ(parallel.batches_run, serial.batches_run) << threads;
  }
}

// An all-ones campaign folds its sites, so a lane is a class
// representative. The canonical groups are batch_lanes-sized blocks of the
// representatives, which keeps lanes_filled at the number of classes and
// batches_run at the serial run's for any thread count. Records equal the
// per-site direct runs.
TEST(BatchCampaignTest, FoldedCampaignFillsOneLanePerClass) {
  auto config = BaseConfig();
  config.engine = CampaignEngine::kBatch;
  config.batch_lanes = 5;
  const PreparedCampaign prepared = PrepareCampaign(config);
  ASSERT_LT(prepared.symmetry_classes, prepared.sites.size());
  CampaignResult direct;
  direct.golden_cycles = prepared.golden().cycles;
  FiRunner runner(config.accel);
  for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
    direct.records.push_back(
        RunPreparedExperimentWithEngine(prepared, runner, i, config.engine));
  }

  const CampaignResult serial = RunCampaignSerial(config);
  ExpectSameRecords(direct, serial);
  EXPECT_EQ(serial.lanes_filled, prepared.symmetry_classes);
  EXPECT_EQ(serial.batches_run, (prepared.symmetry_classes + 4) / 5);
  for (const int threads : {1, 4}) {
    const CampaignResult parallel = RunParallel(config, threads);
    ExpectSameRecords(direct, parallel);
    EXPECT_EQ(parallel.lanes_filled, prepared.symmetry_classes) << threads;
    EXPECT_EQ(parallel.batches_run, serial.batches_run) << threads;
  }
}

// Transient batch campaigns agree across engines and dataflows too (strike
// offsets are pre-sampled, so engine choice cannot change the experiments).
TEST(BatchCampaignTest, TransientInputStationaryMatches) {
  auto config = BaseConfig();
  config.dataflow = Dataflow::kInputStationary;
  config.kind = FaultKind::kTransientFlip;
  config.engine = CampaignEngine::kReference;
  const CampaignResult reference = RunCampaignSerial(config);
  config.engine = CampaignEngine::kDifferential;
  const CampaignResult differential = RunCampaignSerial(config);
  config.engine = CampaignEngine::kBatch;
  const CampaignResult batch = RunCampaignSerial(config);
  ExpectSameRecords(reference, batch, /*normalize_cost=*/true);
  ExpectSameRecords(differential, batch);
}

// Restores the process-wide SIMD mode so the dispatch choice cannot leak
// into other fixtures.
class SimdModeMatrixTest : public ::testing::Test {
 protected:
  void TearDown() override { SetSimdMode(SimdMode::kAuto); }

  static std::string Csv(const CampaignResult& result) {
    std::ostringstream out;
    WriteCampaignCsv(result, out);
    return out.str();
  }
};

// The SIMD dispatch axis of the equivalence matrix: every grouped rung ×
// {scalar, avx2} must produce the byte-identical CSV the differential
// engine produces. batch_lanes = 13 forces partial final batches AND a
// partial final 8-wide SIMD group inside every batch (13 = 8 + 5), so the
// masked tail path of the vector kernel is on the hook too. The campaign
// does not fold, so every batch really fills its 13 lanes.
TEST_F(SimdModeMatrixTest, EnginesAgreeAcrossSimdModes) {
  for (const Dataflow dataflow :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
    for (const FaultKind kind :
         {FaultKind::kStuckAt, FaultKind::kTransientFlip}) {
      auto config = UnfoldedConfig();
      config.dataflow = dataflow;
      config.kind = kind;
      config.batch_lanes = 13;
      SCOPED_TRACE(config.ToString());

      SetSimdMode(SimdMode::kScalar);
      config.engine = CampaignEngine::kDifferential;
      const std::string want = Csv(RunCampaignSerial(config));

      for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
        if (mode == SimdMode::kAvx2 && !CpuSupportsAvx2()) continue;
        SetSimdMode(mode);
        for (const CampaignEngine engine :
             {CampaignEngine::kBatch, CampaignEngine::kPredicted}) {
          config.engine = engine;
          EXPECT_EQ(want, Csv(RunCampaignSerial(config)))
              << ToString(engine) << " under --simd " << ToString(mode);
        }
      }
    }
  }
}

}  // namespace
}  // namespace saffire
