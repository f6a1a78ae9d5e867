// RunSweep facade: the unified entry point must be a pure re-routing — the
// record stream it produces is byte-identical to a direct
// CampaignExecutor::Run and to the serial runner for every engine, and the
// RunOptions knobs (executor override, validation) behave as documented.
#include "service/run.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

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

SweepSpec BaseSpec() {
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec workload;
  workload.name = "gemm-20";
  workload.m = workload.k = workload.n = 20;
  spec.workloads = {workload};
  spec.max_sites = 12;
  return spec;
}

// The canonical record stream as bytes: every field the CSV schema carries,
// in delivery order. Byte equality here is the facade-equivalence contract.
std::string CsvOf(const CampaignPlan& plan, const RunOptions& options) {
  std::ostringstream out;
  CsvRecordSink sink(out);
  RunSweep(plan, options, sink);
  return out.str();
}

TEST(RunSweepTest, PlanOverloadMatchesDirectExecutorRun) {
  SweepSpec spec = BaseSpec();
  spec.bits = {8, 31};
  const CampaignPlan plan = BuildCampaignPlan(spec);

  std::ostringstream direct_out;
  CsvRecordSink direct_sink(direct_out);
  CampaignExecutor::Shared().Run(plan, direct_sink);

  EXPECT_EQ(CsvOf(plan, RunOptions{}), direct_out.str());
  EXPECT_FALSE(direct_out.str().empty());
}

TEST(RunSweepTest, SpecOverloadMatchesPlanOverload) {
  const SweepSpec spec = BaseSpec();
  std::ostringstream spec_out;
  CsvRecordSink spec_sink(spec_out);
  RunSweep(spec, RunOptions{}, spec_sink);
  EXPECT_EQ(spec_out.str(), CsvOf(BuildCampaignPlan(spec), RunOptions{}));
}

TEST(RunSweepTest, MultiSpecOverloadConcatenatesPlans) {
  SweepSpec first = BaseSpec();
  SweepSpec second = BaseSpec();
  second.polarities = {StuckPolarity::kStuckAt0};
  const std::vector<SweepSpec> specs = {first, second};

  std::ostringstream multi_out;
  CsvRecordSink multi_sink(multi_out);
  RunSweep(specs, RunOptions{}, multi_sink);

  // Reference: each spec's plan streamed back-to-back into one sink.
  std::ostringstream sequential_out;
  CsvRecordSink sequential_sink(sequential_out);
  RunSweep(BuildCampaignPlan(first), RunOptions{}, sequential_sink);
  RunSweep(BuildCampaignPlan(second), RunOptions{}, sequential_sink);
  EXPECT_EQ(multi_out.str(), sequential_out.str());
}

TEST(RunSweepTest, MatchesSerialRunnerForEveryEngine) {
  for (const CampaignEngine engine :
       {CampaignEngine::kReference, CampaignEngine::kDifferential,
        CampaignEngine::kPredicted}) {
    CampaignConfig config;
    config.accel = SmallAccel();
    config.workload.name = "gemm-20";
    config.workload.m = config.workload.k = config.workload.n = 20;
    config.max_sites = 12;
    config.engine = engine;

    RunOptions options;
    options.max_parallelism = 2;
    CollectorSink collector;
    RunSweep(SingleCampaignPlan(config), options, collector);
    const std::vector<CampaignResult> results = collector.TakeResults();
    ASSERT_EQ(results.size(), 1u) << ToString(engine);

    const CampaignResult serial = RunCampaignSerial(config);
    ASSERT_EQ(results[0].records.size(), serial.records.size())
        << ToString(engine);
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(results[0].records[i], serial.records[i])
          << ToString(engine) << " record " << i;
    }
  }
}

TEST(RunSweepTest, HonorsExplicitExecutorInRunOptions) {
  CampaignExecutor local(ExecutorOptions{.threads = 2});
  const ExecutorStats local_before = local.stats();
  const ExecutorStats shared_before = CampaignExecutor::Shared().stats();

  RunOptions options;
  options.executor = &local;
  CollectorSink collector;
  RunSweep(BuildCampaignPlan(BaseSpec()), options, collector);
  ASSERT_EQ(collector.TakeResults().size(), 1u);

  const ExecutorStats local_after = local.stats();
  const ExecutorStats shared_after = CampaignExecutor::Shared().stats();
  EXPECT_EQ(local_after.runs, local_before.runs + 1);
  EXPECT_EQ(local_after.campaigns_executed,
            local_before.campaigns_executed + 1);
  EXPECT_EQ(shared_after.runs, shared_before.runs);
}

TEST(RunSweepTest, InvalidSpecThrows) {
  SweepSpec spec = BaseSpec();
  spec.workloads.clear();
  CollectorSink collector;
  EXPECT_THROW(RunSweep(spec, RunOptions{}, collector),
               std::invalid_argument);
}

}  // namespace
}  // namespace saffire
