// Graceful shutdown end to end: a SIGTERM mid-sweep must flip the stop
// token, drain the executor without losing in-flight records, leave a
// loadable JSONL checkpoint, and — the paper-scale property — a resumed
// run must produce a CSV byte-identical to the uninterrupted one, for
// every execution engine.
#include "service/signal.h"

#include <gtest/gtest.h>

#include <csignal>
#include <sstream>
#include <stdexcept>
#include <string>

#include "service/checkpoint.h"
#include "service/executor.h"
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

SweepSpec BaseSpec(CampaignEngine engine) {
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec workload;
  workload.name = "gemm-20";
  workload.m = workload.k = workload.n = 20;
  spec.workloads = {workload};
  spec.engine = engine;
  spec.max_sites = 24;
  return spec;
}

// Raises SIGTERM (to this process, caught by ScopedSignalDrain) once the
// Kth record has been delivered — an in-process stand-in for the operator's
// kill arriving mid-sweep.
class SigtermAfter : public RecordSink {
 public:
  explicit SigtermAfter(std::int64_t after) : after_(after) {}

  void OnRecord(const CampaignBeginInfo& /*info*/,
                std::int64_t /*experiment_index*/,
                const ExperimentRecord& /*record*/) override {
    if (++seen_ == after_) std::raise(SIGTERM);
  }

 private:
  std::int64_t after_;
  std::int64_t seen_ = 0;
};

TEST(SignalTest, HandlerFlipsTheTokenAndReportsTheSignal) {
  ScopedSignalDrain drain;
  EXPECT_FALSE(drain.triggered());
  EXPECT_EQ(drain.signal_number(), 0);
  EXPECT_FALSE(drain.token()->load());
  std::raise(SIGINT);
  EXPECT_TRUE(drain.triggered());
  EXPECT_EQ(drain.signal_number(), SIGINT);
  EXPECT_TRUE(drain.token()->load());
}

TEST(SignalTest, SecondLiveInstanceIsRejectedWithoutPoisoningTheCount) {
  {
    ScopedSignalDrain drain;
    EXPECT_THROW(ScopedSignalDrain second, std::invalid_argument);
  }
  // The failed construction rolled its count back: a fresh instance works.
  ScopedSignalDrain again;
  EXPECT_FALSE(again.triggered());
}

TEST(SignalTest, ResumeAfterSigtermReproducesTheCsvForEveryEngine) {
  for (const CampaignEngine engine :
       {CampaignEngine::kDifferential, CampaignEngine::kReference,
        CampaignEngine::kPredicted}) {
    SCOPED_TRACE(ToString(engine));
    const CampaignPlan plan = BuildCampaignPlan(BaseSpec(engine));

    // The ground truth: one uninterrupted run's CSV.
    std::ostringstream csv_full;
    {
      CsvRecordSink csv(csv_full);
      CampaignExecutor::Shared().Run(plan, csv);
    }

    // Interrupted run: SIGTERM after the 2nd record, cooperative drain,
    // JSONL checkpoint written up to the drained frontier.
    std::ostringstream jsonl;
    bool stopped = false;
    {
      JsonlRecordSink checkpoint_sink(jsonl);
      SigtermAfter killer(2);
      TeeSink tee({&checkpoint_sink, &killer});
      ScopedSignalDrain drain;
      RunOptions options;
      options.max_parallelism = 2;
      options.stop = drain.token();
      const SweepOutcome outcome =
          CampaignExecutor::Shared().Run(plan, tee, options);
      EXPECT_TRUE(drain.triggered());
      EXPECT_EQ(drain.signal_number(), SIGTERM);
      stopped = outcome.stopped;
      if (stopped) {
        EXPECT_FALSE(outcome.ok());
      }
    }

    // The drained checkpoint loads cleanly (no torn lines) and resumes to
    // a CSV byte-identical to the uninterrupted run.
    std::istringstream in(jsonl.str());
    CheckpointLoadStats stats;
    const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in, &stats);
    EXPECT_EQ(stats.dropped, 0) << "cooperative drain tore a line";
    ValidateCheckpoint(checkpoint, plan);
    if (stopped) {
      EXPECT_LT(checkpoint.TotalRecords(), plan.total_experiments());
    }

    std::ostringstream csv_resumed;
    {
      CsvRecordSink csv(csv_resumed);
      RunOptions options;
      options.checkpoint = &checkpoint;
      const SweepOutcome outcome =
          CampaignExecutor::Shared().Run(plan, csv, options);
      EXPECT_TRUE(outcome.ok());
      EXPECT_EQ(outcome.records, plan.total_experiments());
    }
    EXPECT_EQ(csv_resumed.str(), csv_full.str());
  }
}

}  // namespace
}  // namespace saffire
