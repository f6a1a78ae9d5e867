// Sweep planning: axis expansion order, shard partitioning, and the JSON
// spec round-trip.
#include "service/sweep.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

SweepSpec BaseSpec() {
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec workload;
  workload.name = "gemm-20";
  workload.m = workload.k = workload.n = 20;
  spec.workloads = {workload};
  return spec;
}

TEST(SweepSpecTest, CampaignCountIsAxisProduct) {
  SweepSpec spec = BaseSpec();
  spec.dataflows = {Dataflow::kWeightStationary, Dataflow::kOutputStationary};
  spec.signals = {MacSignal::kAdderOut, MacSignal::kMulOut};
  spec.polarities = {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1};
  spec.bits = {4, 8, 31};
  EXPECT_EQ(spec.CampaignCount(), 1u * 2 * 2 * 2 * 3);
}

TEST(SweepSpecTest, ValidateRejectsEmptyAxes) {
  SweepSpec spec = BaseSpec();
  spec.bits.clear();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec = BaseSpec();
  spec.workloads.clear();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec = BaseSpec();
  spec.shards = 0;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(CampaignPlanTest, ExpandsInCanonicalOrder) {
  SweepSpec spec = BaseSpec();
  spec.polarities = {StuckPolarity::kStuckAt1, StuckPolarity::kStuckAt0};
  spec.bits = {8, 31};
  const CampaignPlan plan = BuildCampaignPlan(spec);
  ASSERT_EQ(plan.campaigns.size(), 4u);
  // bit is the innermost axis, polarity the next.
  EXPECT_EQ(plan.campaigns[0].polarity, StuckPolarity::kStuckAt1);
  EXPECT_EQ(plan.campaigns[0].bit, 8);
  EXPECT_EQ(plan.campaigns[1].polarity, StuckPolarity::kStuckAt1);
  EXPECT_EQ(plan.campaigns[1].bit, 31);
  EXPECT_EQ(plan.campaigns[2].polarity, StuckPolarity::kStuckAt0);
  EXPECT_EQ(plan.campaigns[2].bit, 8);
  EXPECT_EQ(plan.campaigns[3].polarity, StuckPolarity::kStuckAt0);
  EXPECT_EQ(plan.campaigns[3].bit, 31);
  // Exhaustive over the 8×8 array.
  EXPECT_EQ(plan.total_experiments(), 4 * 64);
}

TEST(CampaignPlanTest, ConcatenatesHeterogeneousSpecs) {
  SweepSpec a = BaseSpec();
  SweepSpec b = BaseSpec();
  b.max_sites = 5;
  b.bits = {4, 31};
  const CampaignPlan plan = BuildCampaignPlan(std::vector<SweepSpec>{a, b});
  ASSERT_EQ(plan.campaigns.size(), 3u);
  EXPECT_EQ(plan.site_counts[0], 64);
  EXPECT_EQ(plan.site_counts[1], 5);
  EXPECT_EQ(plan.site_counts[2], 5);
  EXPECT_EQ(plan.total_experiments(), 64 + 5 + 5);
}

TEST(CampaignPlanTest, ShardsPartitionEveryCampaign) {
  SweepSpec spec = BaseSpec();
  spec.bits = {8, 31};
  spec.shards = 3;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  ASSERT_EQ(plan.shards.size(), 2u * 3);
  for (std::size_t c = 0; c < plan.campaigns.size(); ++c) {
    std::int64_t covered = 0;
    std::int64_t expected_begin = 0;
    for (const PlannedShard& shard : plan.shards) {
      if (shard.campaign_index != c) continue;
      EXPECT_EQ(shard.begin, expected_begin);
      EXPECT_LT(shard.begin, shard.end);
      covered += shard.end - shard.begin;
      expected_begin = shard.end;
    }
    EXPECT_EQ(covered, plan.site_counts[c]);
    EXPECT_EQ(expected_begin, plan.site_counts[c]);
  }
}

TEST(CampaignPlanTest, ShardCountClampsToSites) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 2;
  spec.shards = 8;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  // No empty shards: 2 sites cannot fill 8 shards.
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].begin, 0);
  EXPECT_EQ(plan.shards[0].end, 1);
  EXPECT_EQ(plan.shards[1].begin, 1);
  EXPECT_EQ(plan.shards[1].end, 2);
}

TEST(CampaignPlanTest, SingleCampaignPlanWrapsOneConfig) {
  CampaignConfig config;
  config.accel = SmallAccel();
  config.workload.name = "gemm-20";
  config.workload.m = config.workload.k = config.workload.n = 20;
  const CampaignPlan plan = SingleCampaignPlan(config);
  ASSERT_EQ(plan.campaigns.size(), 1u);
  EXPECT_EQ(plan.site_counts[0], 64);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].end, 64);
}

TEST(SweepSpecTest, JsonRoundTrip) {
  SweepSpec spec = BaseSpec();
  spec.dataflows = {Dataflow::kOutputStationary, Dataflow::kInputStationary};
  spec.signals = {MacSignal::kMulOut, MacSignal::kSouthForward};
  spec.polarities = {StuckPolarity::kStuckAt0};
  spec.bits = {4, 20};
  spec.kind = FaultKind::kTransientFlip;
  spec.max_sites = 12;
  spec.seed = 99;
  spec.engine = CampaignEngine::kReference;
  spec.shards = 4;

  const SweepSpec parsed = ParseSweepSpec(spec.ToJson());
  EXPECT_EQ(parsed.ToJson(), spec.ToJson());
  EXPECT_EQ(parsed.dataflows, spec.dataflows);
  EXPECT_EQ(parsed.signals, spec.signals);
  EXPECT_EQ(parsed.bits, spec.bits);
  EXPECT_EQ(parsed.kind, spec.kind);
  EXPECT_EQ(parsed.max_sites, spec.max_sites);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.engine, spec.engine);
  EXPECT_EQ(parsed.shards, spec.shards);
  ASSERT_EQ(parsed.workloads.size(), 1u);
  EXPECT_EQ(parsed.workloads[0].name, "gemm-20");
  EXPECT_EQ(parsed.workloads[0].m, 20);
}

TEST(SweepSpecTest, JsonRoundTripConvWorkload) {
  SweepSpec spec = BaseSpec();
  WorkloadSpec conv;
  conv.name = "conv-test";
  conv.op = OpType::kConv;
  conv.conv.batch = 1;
  conv.conv.in_channels = 3;
  conv.conv.height = 16;
  conv.conv.width = 16;
  conv.conv.out_channels = 3;
  conv.conv.kernel_h = 3;
  conv.conv.kernel_w = 3;
  conv.conv.stride = 1;
  conv.conv.pad = 1;
  spec.workloads = {conv};
  const SweepSpec parsed = ParseSweepSpec(spec.ToJson());
  EXPECT_EQ(parsed.ToJson(), spec.ToJson());
  ASSERT_EQ(parsed.workloads.size(), 1u);
  EXPECT_EQ(parsed.workloads[0].op, OpType::kConv);
  EXPECT_EQ(parsed.workloads[0].conv.kernel_h, 3);
  EXPECT_EQ(parsed.workloads[0].lowering, conv.lowering);
}

TEST(SweepSpecTest, ParseRejectsUnknownKeys) {
  SweepSpec spec = BaseSpec();
  std::string json = spec.ToJson();
  json.insert(1, "\"polarity\":[\"SA1\"],");  // typo for "polarities"
  EXPECT_THROW(ParseSweepSpec(json), std::invalid_argument);
}

TEST(SweepSpecTest, ParseRejectsIntegersThatDoNotFit) {
  SweepSpec spec = BaseSpec();
  spec.bits = {8};
  std::string json = spec.ToJson();
  const std::string bits = "\"bits\":[8]";
  const std::string::size_type at = json.find(bits);
  ASSERT_NE(at, std::string::npos);
  // 2^32 + 8 used to narrow to bit 8.
  json.replace(at, bits.size(), "\"bits\":[4294967304]");
  EXPECT_THROW(ParseSweepSpec(json), std::invalid_argument);
}

TEST(CampaignKeyTest, DistinguishesConfigs) {
  CampaignConfig a;
  a.accel = SmallAccel();
  a.workload.name = "gemm-20";
  a.workload.m = a.workload.k = a.workload.n = 20;
  CampaignConfig b = a;
  EXPECT_EQ(CampaignKey(a), CampaignKey(b));
  b.bit = 9;
  EXPECT_NE(CampaignKey(a), CampaignKey(b));
  b = a;
  b.seed = 2;
  EXPECT_NE(CampaignKey(a), CampaignKey(b));
  b = a;
  b.workload.name = "renamed";  // cosmetic: does not affect records
  EXPECT_EQ(CampaignKey(a), CampaignKey(b));
  b = a;
  b.engine = CampaignEngine::kReference;  // engines are bit-identical
  EXPECT_EQ(CampaignKey(a), CampaignKey(b));
}

TEST(SweepSpecTest, LegacySymmetryKeyIsIgnored) {
  // Spec files written while site folding was a switch carry a "symmetry"
  // key. They still load, and true, false and an absent key all give the
  // same spec and the same plan, down to the campaign keys: eligible
  // campaigns always fold, and folding never changes a record.
  const std::string json = BaseSpec().ToJson();
  EXPECT_EQ(json.find("symmetry"), std::string::npos);
  const CampaignPlan want = BuildCampaignPlan(BaseSpec());
  const std::size_t close = json.rfind('}');
  ASSERT_NE(close, std::string::npos);
  for (const std::string& legacy :
       {json, json.substr(0, close) + ",\"symmetry\":true}",
        json.substr(0, close) + ",\"symmetry\":false}"}) {
    SCOPED_TRACE(legacy);
    const SweepSpec parsed = ParseSweepSpec(legacy);
    EXPECT_EQ(parsed.ToJson(), json);
    const CampaignPlan plan = BuildCampaignPlan(parsed);
    ASSERT_EQ(plan.campaigns.size(), want.campaigns.size());
    for (std::size_t c = 0; c < plan.campaigns.size(); ++c) {
      EXPECT_EQ(CampaignKey(plan.campaigns[c]), CampaignKey(want.campaigns[c]));
    }
    EXPECT_EQ(plan.site_counts, want.site_counts);
  }
}

TEST(CampaignContentHashTest, IsAStableRecordIdentity) {
  CampaignConfig a;
  a.accel = SmallAccel();
  a.workload.name = "gemm-20";
  a.workload.m = a.workload.k = a.workload.n = 20;

  // Shape: 16 lowercase hex chars (the cache's entry file stem).
  const std::string hash = CampaignContentHash(a);
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(CampaignContentHash(a), hash);

  // Invariant across everything CampaignKey ignores...
  CampaignConfig b = a;
  b.engine = CampaignEngine::kPredicted;
  b.batch_lanes = 7;
  b.workload.name = "renamed";
  EXPECT_EQ(CampaignContentHash(b), hash);

  // ...and sensitive to every record-relevant axis.
  for (const auto& mutate : std::vector<void (*)(CampaignConfig&)>{
           [](CampaignConfig& c) { c.bit = 9; },
           [](CampaignConfig& c) { c.seed = 2; },
           [](CampaignConfig& c) { c.polarity = StuckPolarity::kStuckAt0; },
           [](CampaignConfig& c) { c.signal = MacSignal::kMulOut; },
           [](CampaignConfig& c) { c.dataflow = Dataflow::kOutputStationary; },
           [](CampaignConfig& c) { c.kind = FaultKind::kTransientFlip; },
           [](CampaignConfig& c) { c.max_sites = 5; },
           [](CampaignConfig& c) { c.accel.array.rows = 4; },
           [](CampaignConfig& c) { c.workload.m = 19; }}) {
    CampaignConfig mutated = a;
    mutate(mutated);
    EXPECT_NE(CampaignContentHash(mutated), hash);
  }
}

}  // namespace
}  // namespace saffire
