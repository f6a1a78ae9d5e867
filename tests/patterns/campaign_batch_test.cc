// The predicted engine must be indistinguishable from the reference and
// differential engines in every record it emits — the engine-equivalence
// matrix — and its lane-grid residue (transients, forwarding signals) must
// keep occupancy counters (lanes_filled / batches_run) that reflect the
// canonical batch_lanes-sized grouping, including partial final groups and
// W=1, under every SIMD mode.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
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
// SymmetryEligibleCampaign).
CampaignConfig UnfoldedConfig() {
  CampaignConfig config = BaseConfig();
  config.workload.input_fill = OperandFill::kRandom;
  return config;
}

// An unfolded campaign the closed form does not cover (a forwarding
// signal), so the predicted engine replays every site on the lane grid.
CampaignConfig ResidueConfig() {
  CampaignConfig config = UnfoldedConfig();
  config.signal = MacSignal::kActForward;
  config.bit = 3;
  config.engine = CampaignEngine::kPredicted;
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
// the differential/predicted engines' pe_steps + pe_steps_skipped).
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
        CampaignEngine::kPredicted}) {
    EXPECT_EQ(ParseCampaignEngine(ToString(engine)), engine)
        << ToString(engine);
  }
}

TEST(CampaignEngineNameTest, RejectsUnknownNames) {
  // "full" and "batch" named removed engines; they are rejected like any
  // unknown name, with the error listing the engines that remain.
  for (const char* name :
       {"", "Batch", "BATCH", "batched", "lane", "fast", "full", "batch"}) {
    try {
      ParseCampaignEngine(name);
      ADD_FAILURE() << "'" << name << "' parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what())
                    .find("differential|reference|predicted"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(BatchCampaignTest, RejectsBadLaneCounts) {
  auto config = ResidueConfig();
  config.batch_lanes = 0;
  EXPECT_THROW(RunCampaignSerial(config), std::invalid_argument);
  config.batch_lanes = 4097;
  EXPECT_THROW(RunCampaignSerial(config), std::invalid_argument);
}

// The acceptance matrix: {OS, WS} × {SA0, SA1} × bits {0, 7, 31} ×
// {permanent, transient}, predicted vs reference vs differential. The
// permanent faults run in closed form, the transients on the lane grid.
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
          config.engine = CampaignEngine::kPredicted;
          const CampaignResult predicted = RunCampaignSerial(config);

          ExpectSameRecords(reference, differential,
                            /*normalize_cost=*/true);
          ExpectSameRecords(reference, predicted, /*normalize_cost=*/true);
          // Predicted vs differential is exact — same cone, same cost split.
          ExpectSameRecords(differential, predicted);
          const bool residue = kind == FaultKind::kTransientFlip;
          EXPECT_EQ(predicted.lanes_filled,
                    residue ? predicted.records.size() : 0u);
          EXPECT_EQ(predicted.batches_run >= 1u, residue);
        }
      }
    }
  }
}

// 64 sites at 5 lanes per pass: 12 full passes plus a 4-lane final one.
TEST(BatchCampaignTest, PartialFinalBatchAndOccupancyCounters) {
  auto config = ResidueConfig();
  config.engine = CampaignEngine::kDifferential;
  const CampaignResult differential = RunCampaignSerial(config);

  config.engine = CampaignEngine::kPredicted;
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
  auto config = ResidueConfig();
  config.max_sites = 6;
  config.engine = CampaignEngine::kDifferential;
  const CampaignResult differential = RunCampaignSerial(config);

  config.engine = CampaignEngine::kPredicted;
  config.batch_lanes = 1;
  const CampaignResult batch = RunCampaignSerial(config);
  ExpectSameRecords(differential, batch);
  EXPECT_EQ(batch.lanes_filled, 6u);
  EXPECT_EQ(batch.batches_run, 6u);
}

// The executor path: parallel lane-grid runs must match the serial ground
// truth record-for-record, and the canonical grouping keeps the occupancy
// counters thread-count-invariant.
TEST(BatchCampaignTest, ParallelMatchesSerial) {
  auto config = ResidueConfig();
  config.batch_lanes = 5;
  const CampaignResult serial = RunCampaignSerial(config);
  for (const int threads : {1, 4}) {
    const CampaignResult parallel = RunParallel(config, threads);
    ExpectSameRecords(serial, parallel);
    EXPECT_EQ(parallel.lanes_filled, serial.lanes_filled) << threads;
    EXPECT_EQ(parallel.batches_run, serial.batches_run) << threads;
  }
}

// Transient campaigns agree across engines under IS too (strike offsets
// are pre-sampled, so engine choice cannot change the experiments).
TEST(BatchCampaignTest, TransientInputStationaryMatches) {
  auto config = BaseConfig();
  config.dataflow = Dataflow::kInputStationary;
  config.kind = FaultKind::kTransientFlip;
  config.engine = CampaignEngine::kReference;
  const CampaignResult reference = RunCampaignSerial(config);
  config.engine = CampaignEngine::kDifferential;
  const CampaignResult differential = RunCampaignSerial(config);
  config.engine = CampaignEngine::kPredicted;
  const CampaignResult predicted = RunCampaignSerial(config);
  ExpectSameRecords(reference, predicted, /*normalize_cost=*/true);
  ExpectSameRecords(differential, predicted);
  EXPECT_EQ(predicted.lanes_filled, predicted.records.size());
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

// The SIMD dispatch axis of the equivalence matrix: the predicted engine's
// lane-grid residue × {scalar, avx2} must produce the byte-identical CSV
// the differential engine produces. The AVX2 kernel takes width-1 lanes
// only. An act_forward cone reaches every column east of its site, so only
// its last-column sites run there, where the forwarded activation is dead;
// south_forward stuck-at faults and adder_out / mul_out transients have a
// width-1 cone at every site, so their live faults run through the AVX2
// kernel's scalar fault fixup. batch_lanes = 13 forces partial final groups
// AND a partial final 8-wide SIMD group inside every pass (13 = 8 + 5), so
// the masked tail path of the vector kernel is on the hook too. The
// campaigns do not fold, so every pass really fills its 13 lanes.
TEST_F(SimdModeMatrixTest, EnginesAgreeAcrossSimdModes) {
  struct Arm {
    MacSignal signal;
    FaultKind kind;
  };
  const Arm arms[] = {
      {MacSignal::kActForward, FaultKind::kStuckAt},
      {MacSignal::kActForward, FaultKind::kTransientFlip},
      {MacSignal::kSouthForward, FaultKind::kStuckAt},
      {MacSignal::kAdderOut, FaultKind::kTransientFlip},
      {MacSignal::kMulOut, FaultKind::kTransientFlip},
  };
  const obs::Counter& avx2_lane_steps =
      obs::MetricsRegistry::Default().GetCounter("saffire.simd.lanes_stepped");
  for (const Dataflow dataflow :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
    for (const Arm& arm : arms) {
      auto config = ResidueConfig();
      config.dataflow = dataflow;
      config.signal = arm.signal;
      config.kind = arm.kind;
      config.batch_lanes = 13;
      SCOPED_TRACE(config.ToString());
      ASSERT_FALSE(PredictedEngineExact(config));

      SetSimdMode(SimdMode::kScalar);
      config.engine = CampaignEngine::kDifferential;
      const CampaignResult differential = RunCampaignSerial(config);
      // A campaign whose every fault is masked could not tell a fixup that
      // drops the fault from one that applies it.
      EXPECT_LT(differential.MaskedCount(),
                static_cast<std::int64_t>(differential.records.size()));
      const std::string want = Csv(differential);

      config.engine = CampaignEngine::kPredicted;
      for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
        if (mode == SimdMode::kAvx2 && !CpuSupportsAvx2()) continue;
        SetSimdMode(mode);
        const std::int64_t steps_before = avx2_lane_steps.value();
        EXPECT_EQ(want, Csv(RunCampaignSerial(config)))
            << "predicted under --simd " << ToString(mode);
        EXPECT_EQ(avx2_lane_steps.value() > steps_before,
                  mode == SimdMode::kAvx2)
            << "AVX2 kernel use under --simd " << ToString(mode);
      }
    }
  }
}

}  // namespace
}  // namespace saffire
