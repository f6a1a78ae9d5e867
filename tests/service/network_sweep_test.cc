// Network sweep planning: axis expansion, the spec JSON round-trip,
// campaign/sweep identity, record sinks, and checkpoint loading.
#include "service/network_sweep.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

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

NetworkSweepSpec BaseSpec() {
  NetworkSweepSpec spec;
  spec.accel = SmallAccel();
  spec.network.kind = NetworkKind::kExtraction;
  spec.network.batch = 4;
  spec.network.extraction_k = 8;
  spec.network.extraction_n = 8;
  return spec;
}

NetworkRecord SampleRecord() {
  NetworkRecord record;
  record.campaign_index = 0;
  record.experiment_index = 3;
  record.fault = StuckAtAdder(PeCoord{2, 5}, 8, StuckPolarity::kStuckAt1);
  record.rung = NetworkRung::kAppFi;
  record.pattern = PatternClass::kSingleColumn;
  record.corrupted_elements = 4;
  record.sdc = true;
  record.top1_flips = 1;
  record.batch = 4;
  return record;
}

TEST(NetworkRungTest, RoundTripsEveryName) {
  for (const NetworkRung rung :
       {NetworkRung::kAppFi, NetworkRung::kCycleAccurate}) {
    EXPECT_EQ(ParseNetworkRung(ToString(rung)), rung);
  }
}

TEST(NetworkRungTest, ParseRejectsUnknownNamesNamingTheChoices) {
  try {
    ParseNetworkRung("rtl");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("rtl"), std::string::npos) << message;
    EXPECT_NE(message.find("appfi|cycle-accurate"), std::string::npos)
        << message;
  }
}

TEST(NetworkSweepSpecTest, CampaignCountIsAxisProduct) {
  NetworkSweepSpec spec = BaseSpec();
  spec.dataflows = {Dataflow::kWeightStationary, Dataflow::kOutputStationary};
  spec.signals = {MacSignal::kAdderOut, MacSignal::kMulOut};
  spec.polarities = {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1};
  spec.bits = {4, 8, 31};
  spec.layers = {-1, 0};
  EXPECT_EQ(spec.CampaignCount(), 2u * 2 * 2 * 3 * 2);
}

TEST(NetworkSweepSpecTest, ValidateRejectsEmptyAxes) {
  for (auto clear : {+[](NetworkSweepSpec& s) { s.dataflows.clear(); },
                     +[](NetworkSweepSpec& s) { s.signals.clear(); },
                     +[](NetworkSweepSpec& s) { s.polarities.clear(); },
                     +[](NetworkSweepSpec& s) { s.bits.clear(); },
                     +[](NetworkSweepSpec& s) { s.layers.clear(); }}) {
    NetworkSweepSpec spec = BaseSpec();
    clear(spec);
    EXPECT_THROW(spec.Validate(), std::invalid_argument);
  }
}

TEST(NetworkSweepSpecTest, ValidateRejectsOutOfRangeLayerScopes) {
  NetworkSweepSpec spec = BaseSpec();
  spec.layers = {1};  // extraction has a single layer
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.layers = {-2};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.network.kind = NetworkKind::kMlp;
  spec.layers = {1};  // in range for a two-layer network
  spec.Validate();
}

// The appfi rung only covers signals the pattern predictor models; the
// forwarding signals need the cycle-accurate rung.
TEST(NetworkSweepSpecTest, ValidateRejectsForwardingSignalsOnAppFiRung) {
  NetworkSweepSpec spec = BaseSpec();
  spec.signals = {MacSignal::kActForward};
  spec.rung = NetworkRung::kAppFi;
  try {
    spec.Validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cycle-accurate"),
              std::string::npos)
        << error.what();
  }
  spec.rung = NetworkRung::kCycleAccurate;
  spec.Validate();
}

TEST(NetworkSweepSpecTest, ValidateRejectsBadPerturbBit) {
  NetworkSweepSpec spec = BaseSpec();
  spec.perturb_auto = false;
  spec.perturb.bit = 32;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(NetworkSweepSpecTest, JsonRoundTrip) {
  NetworkSweepSpec spec = BaseSpec();
  spec.network.kind = NetworkKind::kMlp;
  spec.network.hidden = 24;
  spec.dataflows = {Dataflow::kOutputStationary};
  spec.signals = {MacSignal::kMulOut, MacSignal::kAdderOut};
  spec.polarities = {StuckPolarity::kStuckAt0};
  spec.bits = {4, 20};
  spec.layers = {0, 1};
  spec.max_sites = 6;
  spec.seed = 99;
  spec.rung = NetworkRung::kCycleAccurate;
  spec.abft = true;
  spec.perturb_auto = false;
  spec.perturb.mode = PerturbMode::kAddDelta;
  spec.perturb.bit = 5;
  spec.perturb.delta = -41;

  const NetworkSweepSpec parsed = ParseNetworkSweepSpec(spec.ToJson());
  EXPECT_EQ(parsed.ToJson(), spec.ToJson());
  EXPECT_EQ(parsed.network.kind, NetworkKind::kMlp);
  EXPECT_EQ(parsed.network.hidden, 24);
  EXPECT_EQ(parsed.rung, NetworkRung::kCycleAccurate);
  EXPECT_TRUE(parsed.abft);
  EXPECT_FALSE(parsed.perturb_auto);
  EXPECT_EQ(parsed.perturb, spec.perturb);
}

TEST(NetworkSweepSpecTest, PerturbAutoRoundTripsAsAuto) {
  NetworkSweepSpec spec = BaseSpec();
  ASSERT_TRUE(spec.perturb_auto);
  const std::string json = spec.ToJson();
  EXPECT_NE(json.find("\"perturb_mode\":\"auto\""), std::string::npos)
      << json;
  EXPECT_TRUE(ParseNetworkSweepSpec(json).perturb_auto);
}

TEST(NetworkSweepSpecTest, ParseRejectsUnknownKeys) {
  const std::string json = BaseSpec().ToJson();
  // Top-level typo.
  std::string top = json;
  top.insert(top.rfind('}'), ",\"workloads\":[]");
  EXPECT_THROW(ParseNetworkSweepSpec(top), std::invalid_argument);
  // Nested typo inside the network object.
  std::string nested = json;
  const std::string::size_type at = nested.find("\"hidden\"");
  ASSERT_NE(at, std::string::npos);
  nested.replace(at, 8, "\"hiddenn\"");
  EXPECT_THROW(ParseNetworkSweepSpec(nested), std::invalid_argument);
}

TEST(NetworkSweepSpecTest, ParseRejectsIntegersThatDoNotFit) {
  NetworkSweepSpec spec = BaseSpec();
  spec.layers = {0};
  std::string json = spec.ToJson();
  const std::string layers = "\"layers\":[0]";
  const std::string::size_type at = json.find(layers);
  ASSERT_NE(at, std::string::npos);
  // 2^32 used to narrow to layer 0.
  json.replace(at, layers.size(), "\"layers\":[4294967296]");
  EXPECT_THROW(ParseNetworkSweepSpec(json), std::invalid_argument);
}

TEST(NetworkCampaignPlanTest, ExpandsWithLayerInnermost) {
  NetworkSweepSpec spec = BaseSpec();
  spec.network.kind = NetworkKind::kMlp;
  spec.bits = {8, 31};
  spec.layers = {-1, 0, 1};
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  ASSERT_EQ(plan.campaigns.size(), 6u);
  EXPECT_EQ(plan.campaigns[0].bit, 8);
  EXPECT_EQ(plan.campaigns[0].layer, -1);
  EXPECT_EQ(plan.campaigns[1].layer, 0);
  EXPECT_EQ(plan.campaigns[2].layer, 1);
  EXPECT_EQ(plan.campaigns[3].bit, 31);
  EXPECT_EQ(plan.campaigns[3].layer, -1);
  // Exhaustive over the 8×8 array, shared across campaigns.
  EXPECT_EQ(plan.experiments_per_campaign(), 64);
  EXPECT_EQ(plan.total_experiments(), 6 * 64);
}

TEST(NetworkCampaignPlanTest, MaxSitesSamplesDeterministically) {
  NetworkSweepSpec spec = BaseSpec();
  spec.max_sites = 5;
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  ASSERT_EQ(plan.sites.size(), 5u);
  const NetworkCampaignPlan replay = BuildNetworkCampaignPlan(spec);
  for (std::size_t i = 0; i < plan.sites.size(); ++i) {
    EXPECT_EQ(plan.sites[i].row, replay.sites[i].row);
    EXPECT_EQ(plan.sites[i].col, replay.sites[i].col);
  }
  spec.seed = 2;
  const NetworkCampaignPlan reseeded = BuildNetworkCampaignPlan(spec);
  bool any_differs = false;
  for (std::size_t i = 0; i < plan.sites.size(); ++i) {
    any_differs = any_differs || plan.sites[i].row != reseeded.sites[i].row ||
                  plan.sites[i].col != reseeded.sites[i].col;
  }
  EXPECT_TRUE(any_differs);
}

TEST(NetworkCampaignKeyTest, CapturesAxesButNotRung) {
  const NetworkSweepSpec spec = BaseSpec();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  NetworkSweepSpec other_rung = spec;
  other_rung.rung = NetworkRung::kCycleAccurate;
  // Rungs are contracted to produce equivalent records, so the campaign
  // identity must not depend on the rung...
  EXPECT_EQ(NetworkCampaignKey(spec, plan.campaigns[0]),
            NetworkCampaignKey(other_rung, plan.campaigns[0]));
  // ...but any fault-model axis difference must change it.
  NetworkCampaign other_axis = plan.campaigns[0];
  other_axis.bit = 30;
  EXPECT_NE(NetworkCampaignKey(spec, plan.campaigns[0]),
            NetworkCampaignKey(spec, other_axis));
  NetworkSweepSpec other_network = spec;
  other_network.network.batch = 8;
  EXPECT_NE(NetworkCampaignKey(spec, plan.campaigns[0]),
            NetworkCampaignKey(other_network, plan.campaigns[0]));
}

TEST(NetworkSweepHashTest, StableSixteenHexDigits) {
  const NetworkSweepSpec spec = BaseSpec();
  const std::string hash = NetworkSweepHash(spec);
  ASSERT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(NetworkSweepHash(spec), hash);
  NetworkSweepSpec other = spec;
  other.seed = 2;
  EXPECT_NE(NetworkSweepHash(other), hash);
}

TEST(RungEquivalentTest, IgnoresOnlyTheRungField) {
  const NetworkRecord a = SampleRecord();
  NetworkRecord b = a;
  b.rung = NetworkRung::kCycleAccurate;
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(RungEquivalent(a, b));
  b.sdc = false;
  EXPECT_FALSE(RungEquivalent(a, b));
}

TEST(NetworkCsvSinkTest, EmitsHeaderAndOneRowPerRecord) {
  const NetworkSweepSpec spec = BaseSpec();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  std::ostringstream out;
  NetworkCsvSink sink(out);
  sink.OnSweepBegin(spec, plan);
  sink.OnRecord(SampleRecord());
  const std::string csv = out.str();
  EXPECT_EQ(csv.find("campaign,experiment,dataflow,signal,polarity,bit,"
                     "layer,mitigation,pe_row,pe_col,pattern,corrupted,sdc,"
                     "top1_flips"),
            0u)
      << csv;
  // No rung column: rung-equivalent sweeps must diff byte-identically.
  EXPECT_EQ(csv.find("rung"), std::string::npos);
  EXPECT_NE(csv.find("\n0,3,WS,adder_out,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("single-column"), std::string::npos) << csv;
}

TEST(NetworkJsonlSinkTest, CheckpointRoundTrips) {
  const NetworkSweepSpec spec = BaseSpec();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  std::ostringstream out;
  NetworkJsonlSink sink(out);
  sink.OnSweepBegin(spec, plan);
  NetworkCampaignInfo info;
  info.index = 0;
  info.campaign = plan.campaigns[0];
  info.key = NetworkCampaignKey(spec, plan.campaigns[0]);
  info.experiments = plan.experiments_per_campaign();
  sink.OnCampaignBegin(info);
  const NetworkRecord record = SampleRecord();
  sink.OnRecord(record);
  sink.OnSweepEnd(SweepOutcome{});

  std::istringstream in(out.str());
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);
  EXPECT_EQ(checkpoint.lines_dropped, 0);
  EXPECT_EQ(checkpoint.sweep_hash, NetworkSweepHash(spec));
  ASSERT_EQ(checkpoint.records.size(), 1u);
  const NetworkRecord& loaded = checkpoint.records.at({0, 3});
  EXPECT_EQ(loaded, record);
  ValidateNetworkCheckpoint(checkpoint, spec, plan);
}

TEST(NetworkJsonlSinkTest, LoaderDropsDamagedLinesWithoutThrowing) {
  const NetworkSweepSpec spec = BaseSpec();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  std::ostringstream out;
  NetworkJsonlSink sink(out);
  sink.OnSweepBegin(spec, plan);
  NetworkRecord record = SampleRecord();
  record.experiment_index = 0;
  sink.OnRecord(record);
  record.experiment_index = 1;
  sink.OnRecord(record);

  std::string text = out.str();
  // Flip one byte inside the second record line: its seal must fail.
  const std::string::size_type second =
      text.find("\"experiment\":1");
  ASSERT_NE(second, std::string::npos);
  text[second + 14] = text[second + 14] == ':' ? ';' : ':';
  // And append a truncated line, as a crash mid-write would leave.
  text += "{\"type\":\"network-record\",\"campa";

  std::istringstream in(text);
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);
  EXPECT_EQ(checkpoint.lines_dropped, 2);
  ASSERT_EQ(checkpoint.records.size(), 1u);
  EXPECT_EQ(checkpoint.records.begin()->first,
            (std::pair<std::size_t, std::int64_t>{0, 0}));
}

// A record whose PE row does not fit its field is damaged like any other
// line: dropped and counted, never wrapped into a valid-looking site.
TEST(NetworkJsonlSinkTest, LoaderDropsLinesWithIntegersThatDoNotFit) {
  const NetworkSweepSpec spec = BaseSpec();
  std::ostringstream out;
  NetworkJsonlSink sink(out);
  sink.OnSweepBegin(spec, BuildNetworkCampaignPlan(spec));
  sink.OnRecord(SampleRecord());

  // Unsealed lines are accepted, so dropping the seal isolates the value.
  std::string text = out.str();
  const std::string row = "\"pe_row\":2,";
  const std::string::size_type at = text.find(row);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, row.size(), "\"pe_row\":4294967298,");
  const std::string::size_type seal = text.rfind(",\"crc\":\"");
  ASSERT_NE(seal, std::string::npos);
  text.erase(seal, text.find('}', seal) - seal);

  std::istringstream in(text);
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);
  EXPECT_EQ(checkpoint.lines_dropped, 1);
  EXPECT_TRUE(checkpoint.records.empty());
}

TEST(NetworkCheckpointTest, ValidateRejectsForeignSweeps) {
  const NetworkSweepSpec spec = BaseSpec();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  std::ostringstream out;
  NetworkJsonlSink sink(out);
  sink.OnSweepBegin(spec, plan);
  sink.OnRecord(SampleRecord());
  std::istringstream in(out.str());
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);

  NetworkSweepSpec other = BaseSpec();
  other.bits = {20};
  const NetworkCampaignPlan other_plan = BuildNetworkCampaignPlan(other);
  EXPECT_THROW(ValidateNetworkCheckpoint(checkpoint, other, other_plan),
               std::invalid_argument);
}

}  // namespace
}  // namespace saffire
