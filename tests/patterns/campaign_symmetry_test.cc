// Symmetry-aware campaign dedup: a campaign that simulates one
// representative per equivalence class and synthesizes the member records
// must be indistinguishable — record for record, every field — from
// simulating every site directly (RunPreparedExperimentDirect), across
// dataflows, polarities, and engines, and the replicated-record self-check
// must stay silent while doing it.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "patterns/campaign.h"
#include "patterns/symmetry.h"
#include "service/run.h"
#include "service/sink.h"

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
  config.workload.name = "gemm-8";
  config.workload.m = config.workload.k = config.workload.n = 8;
  config.bit = 8;
  return config;
}

// Every site simulated directly on the campaign's engine, bypassing the
// symmetry memo: the unfolded records a folded campaign must reproduce.
std::vector<ExperimentRecord> UnfoldedRecords(const CampaignConfig& config) {
  const PreparedCampaign prepared = PrepareCampaign(config);
  EXPECT_TRUE(prepared.SymmetryActive()) << config.ToString();
  FiRunner runner(config.accel);
  std::vector<ExperimentRecord> records;
  for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
    records.push_back(
        RunPreparedExperimentDirect(prepared, runner, i, config.engine));
  }
  return records;
}

void ExpectSameRecords(const std::vector<ExperimentRecord>& want,
                       const CampaignResult& got, const std::string& label) {
  ASSERT_EQ(want.size(), got.records.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got.records[i]) << label << " record " << i;
  }
}

TEST(CampaignSymmetryTest, PlanShrinksEligibleCampaigns) {
  const CampaignConfig config = BaseConfig();
  const PreparedCampaign prepared = PrepareCampaign(config);
  EXPECT_TRUE(prepared.SymmetryActive());
  EXPECT_EQ(prepared.symmetry_classes, 8u);  // one class per array row
  ASSERT_EQ(prepared.symmetry_rep_of.size(), 64u);
  for (std::size_t i = 0; i < prepared.symmetry_rep_of.size(); ++i) {
    EXPECT_LE(prepared.symmetry_rep_of[i], i);  // reps come first
  }
}

TEST(CampaignSymmetryTest, IneligibleCampaignsKeepFullPlan) {
  // Transient faults and uncovered signals never get a symmetry plan.
  CampaignConfig transient = BaseConfig();
  transient.kind = FaultKind::kTransientFlip;
  EXPECT_FALSE(PrepareCampaign(transient).SymmetryActive());

  CampaignConfig uncovered = BaseConfig();
  uncovered.signal = MacSignal::kActForward;
  EXPECT_FALSE(PrepareCampaign(uncovered).SymmetryActive());

  // Non-ones operand fills break the column-translation argument member
  // synthesis rests on (fault_activations / max_abs_delta become
  // data-dependent per site), so such campaigns simulate every site.
  CampaignConfig random_inputs = BaseConfig();
  random_inputs.workload.input_fill = OperandFill::kRandom;
  EXPECT_FALSE(SymmetryEligibleCampaign(random_inputs));
  EXPECT_FALSE(PrepareCampaign(random_inputs).SymmetryActive());

  CampaignConfig near_zero_weights = BaseConfig();
  near_zero_weights.workload.weight_fill = OperandFill::kNearZero;
  EXPECT_FALSE(SymmetryEligibleCampaign(near_zero_weights));
  EXPECT_FALSE(PrepareCampaign(near_zero_weights).SymmetryActive());
}

// A padded convolution's lowered input has zeros in its border rows, and
// under IS an array column holds one such row as its stationary operand.
// So two PEs of one array row that the tile geometry alone would fold hold
// different data: with SA0 on bit 0 of the weight operand, PE(1,0) holds a
// padding zero in every tile (masked) and PE(1,1) an input one. Such
// campaigns simulate every site; WS and OS on the same workload fold.
TEST(CampaignSymmetryTest, PaddedConvolutionsDoNotFoldUnderIs) {
  CampaignConfig config = BaseConfig();
  config.workload.name = "conv-6x6-pad1";
  config.workload.op = OpType::kConv;
  ConvParams& conv = config.workload.conv;
  conv.height = conv.width = 6;
  conv.kernel_h = conv.kernel_w = 3;
  conv.pad = 1;
  config.dataflow = Dataflow::kInputStationary;
  config.signal = MacSignal::kWeightOperand;
  config.bit = 0;
  config.polarity = StuckPolarity::kStuckAt0;
  EXPECT_FALSE(SymmetryEligibleCampaign(config));
  const PreparedCampaign prepared = PrepareCampaign(config);
  EXPECT_FALSE(prepared.SymmetryActive());
  ASSERT_EQ(prepared.sites[8], (PeCoord{1, 0}));
  ASSERT_EQ(prepared.sites[9], (PeCoord{1, 1}));
  EXPECT_EQ(PartitionFaultSites(prepared.sites, config.workload, config.accel,
                                config.dataflow)[9],
            8u);
  FiRunner runner(config.accel);
  EXPECT_EQ(RunPreparedExperimentDirect(prepared, runner, 8, config.engine)
                .observed,
            PatternClass::kMasked);
  EXPECT_NE(RunPreparedExperimentDirect(prepared, runner, 9, config.engine)
                .observed,
            PatternClass::kMasked);

  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary}) {
    config.dataflow = dataflow;
    ExpectSameRecords(UnfoldedRecords(config), RunCampaignSerial(config),
                      ToString(dataflow));
  }
}

TEST(CampaignSymmetryTest, SerialMatchesExhaustiveAcrossMatrix) {
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    for (const StuckPolarity polarity :
         {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
      for (const CampaignEngine engine :
           {CampaignEngine::kDifferential, CampaignEngine::kBatch,
            CampaignEngine::kPredicted, CampaignEngine::kReference}) {
        CampaignConfig config = BaseConfig();
        config.dataflow = dataflow;
        config.polarity = polarity;
        config.engine = engine;
        // bit 3 straddles the activation boundary with ones fill (the last
        // row's running sum reaches 8), the hardest case for synthesis.
        config.bit = 3;
        SCOPED_TRACE(config.ToString());
        ExpectSameRecords(UnfoldedRecords(config), RunCampaignSerial(config),
                          ToString(engine));
      }
    }
  }
}

TEST(CampaignSymmetryTest, ExecutorSelfCheckPassesOnReplicatedRecords) {
  // Every replicated record cross-validated against a direct run of the
  // same engine: zero mismatches, and the parallel record stream equals
  // the unfolded one.
  for (const CampaignEngine engine :
       {CampaignEngine::kDifferential, CampaignEngine::kBatch,
        CampaignEngine::kPredicted}) {
    CampaignConfig config = BaseConfig();
    config.engine = engine;
    config.bit = 3;
    RunOptions options;
    options.max_parallelism = 4;
    options.resilience.selfcheck_rate = 1.0;
    CollectorSink collector;
    const SweepOutcome outcome =
        RunSweep(SingleCampaignPlan(config), options, collector);
    EXPECT_GT(outcome.selfchecks, 0) << ToString(engine);
    EXPECT_EQ(outcome.selfcheck_mismatches, 0) << ToString(engine);
    EXPECT_EQ(outcome.quarantined, 0) << ToString(engine);

    std::vector<CampaignResult> results = collector.TakeResults();
    ASSERT_EQ(results.size(), 1u) << ToString(engine);
    ExpectSameRecords(UnfoldedRecords(config), results.front(),
                      ToString(engine));
  }
}

TEST(CampaignSymmetryTest, SampledSitesReplicateFromEarliestMember) {
  // A sampled campaign's sites arrive in shuffled order; representatives
  // follow that order, not the array order, and the reduced run still
  // matches the unfolded one.
  CampaignConfig config = BaseConfig();
  config.max_sites = 23;
  ExpectSameRecords(UnfoldedRecords(config), RunCampaignSerial(config),
                    "sampled");
}

TEST(CampaignSymmetryTest, MemoComputeOnceProtocol) {
  // First acquirer owns the computation; a Fulfill publishes to later
  // acquirers; an Abandon hands ownership back to the next acquirer.
  SymmetryMemo memo;
  ExperimentRecord record;
  EXPECT_FALSE(memo.AcquireOrOwn(7, &record));  // we own it
  memo.Abandon(7);
  EXPECT_FALSE(memo.AcquireOrOwn(7, &record));  // ownership re-claimable
  ExperimentRecord published;
  published.corrupted_count = 42;
  memo.Fulfill(7, published);
  EXPECT_TRUE(memo.AcquireOrOwn(7, &record));
  EXPECT_EQ(record.corrupted_count, 42);
  // An unrelated representative is independent.
  EXPECT_FALSE(memo.AcquireOrOwn(3, &record));
  memo.Fulfill(3, ExperimentRecord{});
  EXPECT_TRUE(memo.AcquireOrOwn(3, &record));
}

TEST(CampaignSymmetryTest, DisabledMemoFallsBackToDirectSimulation) {
  const CampaignConfig config = BaseConfig();
  const PreparedCampaign prepared = PrepareCampaign(config);
  ASSERT_TRUE(prepared.SymmetryActive());
  prepared.symmetry_memo->Disable();
  EXPECT_FALSE(prepared.SymmetryActive());
  // Runs still work (and simulate directly) after a class is distrusted.
  FiRunner runner(config.accel);
  const ExperimentRecord direct =
      RunPreparedExperiment(prepared, runner, /*index=*/9);
  EXPECT_EQ(direct.fault.pe, prepared.sites[9]);
}

}  // namespace
}  // namespace saffire
