// The chaos harness has to be trustworthy before it can prove anything
// about the resilience layer: specs parse exactly, schedules install and
// clear, file corruption helpers do what the checkpoint tests assume, and
// a sink failure injected mid-run surfaces as the run's error without
// wedging the shared executor.
#include "service/chaos.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "service/executor.h"
#include "service/sink.h"

namespace saffire {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    chaos::Clear();
    ::unsetenv("SAFFIRE_CHAOS");
  }
};

TEST_F(ChaosTest, ParsesSpecsAndRejectsUnknownKeys) {
  const chaos::ChaosSpec spec = chaos::ParseChaosSpec(
      "experiment_throw_every=3,experiment_throw_attempts=2,"
      "batch_fail_every=1,stall_every=4,stall_ms=50,sink_throw_every=7");
  EXPECT_EQ(spec.experiment_throw_every, 3);
  EXPECT_EQ(spec.experiment_throw_attempts, 2);
  EXPECT_EQ(spec.batch_fail_every, 1);
  EXPECT_EQ(spec.stall_every, 4);
  EXPECT_EQ(spec.stall_ms, 50);
  EXPECT_EQ(spec.sink_throw_every, 7);

  EXPECT_THROW(chaos::ParseChaosSpec("warp_core_breach=1"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ParseChaosSpec("stall_ms"), std::invalid_argument);
  // 2^32 + 4 used to wrap around to every 4th experiment.
  EXPECT_THROW(chaos::ParseChaosSpec("stall_every=4294967300"),
               std::invalid_argument);
}

TEST_F(ChaosTest, InstallsFromTheEnvironment) {
  EXPECT_FALSE(chaos::InstallFromEnv());
  EXPECT_FALSE(chaos::Enabled());

  ::setenv("SAFFIRE_CHAOS", "experiment_throw_every=5", 1);
  EXPECT_TRUE(chaos::InstallFromEnv());
  EXPECT_TRUE(chaos::Enabled());
  EXPECT_EQ(chaos::ActiveSpec().experiment_throw_every, 5);

  chaos::Clear();
  EXPECT_FALSE(chaos::Enabled());
  EXPECT_EQ(chaos::ActiveSpec().experiment_throw_every, 0);
}

TEST_F(ChaosTest, HooksThrowOnTheirIndexSchedule) {
  chaos::ChaosSpec spec;
  spec.experiment_throw_every = 2;
  spec.experiment_throw_attempts = 1;
  spec.batch_fail_every = 3;
  chaos::Install(spec);

  EXPECT_THROW(chaos::OnExperimentAttempt(0, 0, 0), chaos::ChaosError);
  chaos::OnExperimentAttempt(0, 0, 1);  // past throw_attempts: recovers
  chaos::OnExperimentAttempt(0, 1, 0);  // off-schedule index
  EXPECT_THROW(chaos::OnBatchAttempt(0, 0), chaos::ChaosError);
  chaos::OnBatchAttempt(1, 0);

  chaos::Clear();
  chaos::OnExperimentAttempt(0, 0, 0);  // disabled: no-op
}

TEST_F(ChaosTest, FileCorruptionHelpersFlipAndTruncate) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::path(::testing::TempDir()) / "chaos_corrupt.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "0123456789";
  }
  chaos::FlipByteInFile(path, 3);
  chaos::TruncateFileTo(path, 6);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), std::string("012") + char('3' ^ 0x04) + "45");

  EXPECT_THROW(chaos::FlipByteInFile(path, 999), std::invalid_argument);
  EXPECT_THROW(chaos::FlipByteInFile("/no/such/file", 0),
               std::invalid_argument);
  fs::remove(path);
}

TEST_F(ChaosTest, SinkFailureSurfacesWithoutWedgingTheExecutor) {
  SweepSpec spec;
  spec.accel.array.rows = 8;
  spec.accel.array.cols = 8;
  spec.accel.max_compute_rows = 64;
  spec.accel.spad_rows = 128;
  spec.accel.acc_rows = 64;
  spec.accel.dram_bytes = 1 << 20;
  WorkloadSpec workload;
  workload.name = "gemm-20";
  workload.m = workload.k = workload.n = 20;
  spec.workloads = {workload};
  spec.max_sites = 8;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  CollectorSink inner;
  chaos::FlakySink flaky(&inner, 4);  // throws on the 4th and 8th record
  EXPECT_THROW(CampaignExecutor::Shared().Run(plan, flaky),
               chaos::ChaosError);
  EXPECT_EQ(flaky.records_forwarded(), 3);

  // The shared pool survives the poisoned run: a clean run still works.
  CollectorSink collector;
  const SweepOutcome outcome = CampaignExecutor::Shared().Run(plan, collector);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.records, plan.total_experiments());
  EXPECT_EQ(collector.results().at(0).records.size(), 8u);
}

}  // namespace
}  // namespace saffire
