// Persisted identities: the campaign keys and content hashes that name
// checkpoint campaigns and result-cache entries on disk. A drift in any of
// these strings orphans every stored checkpoint and cache entry without an
// error, so each is pinned here to the exact bytes earlier releases wrote.
#include <gtest/gtest.h>

#include "service/network_sweep.h"
#include "service/sweep.h"

namespace saffire {
namespace {

AccelConfig PinnedAccel() {
  AccelConfig accel;
  accel.array.rows = 6;
  accel.array.cols = 5;
  accel.array.acc_bits = 24;
  accel.spad_rows = 512;
  accel.acc_rows = 256;
  accel.max_compute_rows = 128;
  accel.double_buffered_weights = false;
  accel.dram_bytes = 4 << 20;
  return accel;
}

CampaignConfig PinnedCampaign() {
  CampaignConfig config;
  config.accel = PinnedAccel();
  config.workload = Conv16Kernel3x3x3x8();
  config.workload.input_fill = OperandFill::kRandom;
  config.workload.data_seed = 99;
  config.dataflow = Dataflow::kOutputStationary;
  config.signal = MacSignal::kMulOut;
  config.bit = 5;
  config.polarity = StuckPolarity::kStuckAt0;
  config.max_sites = 7;
  config.seed = 11;
  return config;
}

NetworkSweepSpec PinnedNetworkSpec() {
  NetworkSweepSpec spec;
  spec.accel = PinnedAccel();
  spec.network.kind = NetworkKind::kMlp;
  spec.network.batch = 12;
  spec.network.hidden = 10;
  spec.network.train_samples = 90;
  spec.network.train_epochs = 3;
  spec.network.noise = 0.25;
  spec.network.seed = 5;
  spec.dataflows = {Dataflow::kWeightStationary, Dataflow::kInputStationary};
  spec.signals = {MacSignal::kWeightOperand};
  spec.bits = {3, 17};
  spec.layers = {-1, 1};
  spec.mitigations = {MitigationPolicy::kNone, MitigationPolicy::kRowRemap};
  spec.max_sites = 9;
  spec.seed = 13;
  spec.abft = true;
  spec.perturb_auto = false;
  spec.perturb.mode = PerturbMode::kAddDelta;
  spec.perturb.bit = 4;
  spec.perturb.delta = -6;
  return spec;
}

TEST(PersistedIdentityTest, CampaignKeyAndContentHashArePinned) {
  const CampaignConfig config = PinnedCampaign();
  EXPECT_EQ(CampaignKey(config),
            "6,5,8,24;512,256,128,0,4194304;0;1,16,16,16;"
            "1,3,16,16,8,3,3,1,0;1,1,0,99;0,0,5,0;7,11");
  EXPECT_EQ(CampaignContentHash(config), "04a69c7e1da5ff71");
}

TEST(PersistedIdentityTest, NetworkCampaignKeyAndSweepHashArePinned) {
  const NetworkSweepSpec spec = PinnedNetworkSpec();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  ASSERT_EQ(plan.campaigns.size(), 16u);
  EXPECT_EQ(NetworkCampaignKey(spec, plan.campaigns[13]),
            "6,5,8,24;512,256,128,0,4194304;1,12,5,0.25;16,16;"
            "10,90,3,0.97;4;2,2,1,17,-1,2;9,13;1;add-delta,4,-6");
  EXPECT_EQ(NetworkSweepHash(spec), "dbf0e96a33dc8e26");
}

}  // namespace
}  // namespace saffire
