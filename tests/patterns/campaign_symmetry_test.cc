// Symmetry-aware campaign dedup: a campaign that simulates one
// representative per equivalence class and copies its record to the
// members must be indistinguishable — record for record, every field —
// from simulating every site directly (RunPreparedExperimentWithEngine),
// across dataflows, polarities, and engines, and the copied-record
// self-check must stay silent while doing it.
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

// Every site simulated directly on the campaign's engine: the unfolded
// records a folded campaign must reproduce.
std::vector<ExperimentRecord> UnfoldedRecords(const CampaignConfig& config) {
  const PreparedCampaign prepared = PrepareCampaign(config);
  EXPECT_LT(prepared.symmetry_classes, prepared.sites.size())
      << config.ToString();
  FiRunner runner(config.accel);
  std::vector<ExperimentRecord> records;
  for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
    records.push_back(
        RunPreparedExperimentWithEngine(prepared, runner, i, config.engine));
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
  EXPECT_EQ(prepared.symmetry_classes, 8u);  // one class per array row
  ASSERT_EQ(prepared.symmetry_rep_of.size(), 64u);
  for (std::size_t i = 0; i < prepared.symmetry_rep_of.size(); ++i) {
    EXPECT_LE(prepared.symmetry_rep_of[i], i);  // reps come first
  }
}

// A campaign that does not fold maps every experiment to itself.
void ExpectUnfolded(const CampaignConfig& config) {
  const PreparedCampaign prepared = PrepareCampaign(config);
  EXPECT_EQ(prepared.symmetry_classes, prepared.sites.size());
  for (std::size_t i = 0; i < prepared.symmetry_rep_of.size(); ++i) {
    EXPECT_EQ(prepared.symmetry_rep_of[i], i);
  }
}

TEST(CampaignSymmetryTest, IneligibleCampaignsKeepFullPlan) {
  // Transient faults and uncovered signals never fold.
  CampaignConfig transient = BaseConfig();
  transient.kind = FaultKind::kTransientFlip;
  ExpectUnfolded(transient);

  CampaignConfig uncovered = BaseConfig();
  uncovered.signal = MacSignal::kActForward;
  uncovered.bit = 3;  // act_forward is 8 bits wide
  ExpectUnfolded(uncovered);

  // Non-ones operand fills break the column-translation argument member
  // synthesis rests on (fault_activations / max_abs_delta become
  // data-dependent per site), so such campaigns simulate every site.
  CampaignConfig random_inputs = BaseConfig();
  random_inputs.workload.input_fill = OperandFill::kRandom;
  EXPECT_FALSE(SymmetryEligibleCampaign(random_inputs));
  ExpectUnfolded(random_inputs);

  CampaignConfig near_zero_weights = BaseConfig();
  near_zero_weights.workload.weight_fill = OperandFill::kNearZero;
  EXPECT_FALSE(SymmetryEligibleCampaign(near_zero_weights));
  ExpectUnfolded(near_zero_weights);
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
  ExpectUnfolded(config);
  const PreparedCampaign prepared = PrepareCampaign(config);
  ASSERT_EQ(prepared.sites[8], (PeCoord{1, 0}));
  ASSERT_EQ(prepared.sites[9], (PeCoord{1, 1}));
  EXPECT_EQ(PartitionFaultSites(prepared.sites, config.workload, config.accel,
                                config.dataflow)[9],
            8u);
  FiRunner runner(config.accel);
  EXPECT_EQ(RunPreparedExperiment(prepared, runner, 8).observed,
            PatternClass::kMasked);
  EXPECT_NE(RunPreparedExperiment(prepared, runner, 9).observed,
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
           {CampaignEngine::kDifferential, CampaignEngine::kPredicted,
            CampaignEngine::kReference}) {
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
  // Every copied record cross-validated against a direct run of the same
  // engine: zero mismatches, and the parallel record stream equals the
  // unfolded one.
  for (const CampaignEngine engine :
       {CampaignEngine::kDifferential, CampaignEngine::kPredicted}) {
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

}  // namespace
}  // namespace saffire
