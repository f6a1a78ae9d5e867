// The executor must be invisible in the results: a batch through the
// shared pool produces records bit-identical to the self-contained serial
// baseline, for every engine, dataflow, shard split, and thread count —
// while constructing strictly fewer simulators than campaigns × workers.
#include "service/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/chaos.h"
#include "service/checkpoint.h"
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
  return spec;
}

void ExpectIdentical(const CampaignResult& expected,
                     const CampaignResult& actual) {
  EXPECT_EQ(expected.golden_cycles, actual.golden_cycles);
  EXPECT_EQ(expected.golden_pe_steps, actual.golden_pe_steps);
  ASSERT_EQ(expected.records.size(), actual.records.size());
  for (std::size_t i = 0; i < expected.records.size(); ++i) {
    EXPECT_EQ(expected.records[i], actual.records[i]) << "record " << i;
  }
}

std::vector<CampaignResult> RunPlan(const CampaignPlan& plan,
                                    const RunOptions& options = {}) {
  CollectorSink collector;
  CampaignExecutor::Shared().Run(plan, collector, options);
  return collector.TakeResults();
}

TEST(ExecutorTest, BatchMatchesSerialBaseline) {
  SweepSpec spec = BaseSpec();
  spec.polarities = {StuckPolarity::kStuckAt1, StuckPolarity::kStuckAt0};
  spec.bits = {8, 31};
  const CampaignPlan plan = BuildCampaignPlan(spec);
  const std::vector<CampaignResult> results = RunPlan(plan);
  ASSERT_EQ(results.size(), plan.campaigns.size());
  for (std::size_t c = 0; c < plan.campaigns.size(); ++c) {
    ExpectIdentical(RunCampaignSerial(plan.campaigns[c]), results[c]);
  }
}

TEST(ExecutorTest, EnginesAgreeThroughTheExecutor) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 10;
  std::vector<std::vector<CampaignResult>> per_engine;
  for (const CampaignEngine engine :
       {CampaignEngine::kDifferential, CampaignEngine::kReference}) {
    spec.engine = engine;
    per_engine.push_back(RunPlan(BuildCampaignPlan(spec)));
  }
  for (std::size_t e = 1; e < per_engine.size(); ++e) {
    ASSERT_EQ(per_engine[e].size(), per_engine[0].size());
    for (std::size_t c = 0; c < per_engine[0].size(); ++c) {
      const CampaignResult& a = per_engine[0][c];
      const CampaignResult& b = per_engine[e][c];
      ASSERT_EQ(a.records.size(), b.records.size());
      for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].observed, b.records[i].observed);
        EXPECT_EQ(a.records[i].corrupted_count, b.records[i].corrupted_count);
        EXPECT_EQ(a.records[i].max_abs_delta, b.records[i].max_abs_delta);
      }
    }
  }
}

TEST(ExecutorTest, ResultsInvariantAcrossThreadCounts) {
  SweepSpec spec = BaseSpec();
  spec.bits = {8, 31};
  const CampaignPlan plan = BuildCampaignPlan(spec);
  RunOptions serial_options;
  serial_options.max_parallelism = 1;
  const std::vector<CampaignResult> serial = RunPlan(plan, serial_options);
  for (const int threads : {2, 4, 0}) {  // 0 = whole pool
    RunOptions options;
    options.max_parallelism = threads;
    const std::vector<CampaignResult> parallel = RunPlan(plan, options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
      ExpectIdentical(serial[c], parallel[c]);
    }
  }
}

// A run's JSONL describes the plan, not the process that ran it: after the
// golden cache is cleared, a first run (which computes the shared golden
// run) and a second run (which finds it cached) write the same bytes, and
// so does a run at four workers, where concurrently prepared campaigns
// race to compute it.
TEST(ExecutorTest, JsonlIsByteIdenticalAcrossRunsAndThreadCounts) {
  SweepSpec spec = BaseSpec();
  spec.polarities = {StuckPolarity::kStuckAt1, StuckPolarity::kStuckAt0};
  spec.bits = {8, 31};
  spec.max_sites = 8;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  CampaignExecutor executor(ExecutorOptions{.threads = 4});
  const auto jsonl = [&](int max_parallelism) {
    std::ostringstream out;
    JsonlRecordSink sink(out);
    RunOptions options;
    options.max_parallelism = max_parallelism;
    executor.Run(plan, sink, options);
    return out.str();
  };
  GoldenRunCache::Instance().Clear();
  const std::string first = jsonl(1);
  EXPECT_EQ(jsonl(1), first) << "second run of the plan differs";
  GoldenRunCache::Instance().Clear();
  EXPECT_EQ(jsonl(4), first) << "run at 4 workers differs";
}

TEST(ExecutorTest, ShardUnionEqualsWholeCampaign) {
  SweepSpec spec = BaseSpec();
  spec.shards = 3;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  const CampaignResult whole = RunCampaignSerial(plan.campaigns[0]);

  std::vector<ExperimentRecord> merged;
  for (int shard = 0; shard < 3; ++shard) {
    RunOptions options;
    options.only_shard = shard;
    const std::vector<CampaignResult> results = RunPlan(plan, options);
    ASSERT_EQ(results.size(), 1u);
    // Deterministic merge: shards are contiguous site ranges, so
    // concatenation in shard order reproduces the campaign.
    merged.insert(merged.end(), results[0].records.begin(),
                  results[0].records.end());
  }
  ASSERT_EQ(merged.size(), whole.records.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], whole.records[i]) << "record " << i;
  }
}

TEST(ExecutorTest, ReusesSimulatorsAcrossBatch) {
  SweepSpec spec = BaseSpec();
  spec.signals = {MacSignal::kAdderOut, MacSignal::kMulOut};
  spec.polarities = {StuckPolarity::kStuckAt1, StuckPolarity::kStuckAt0};
  spec.bits = {4, 8};  // 8 campaigns, one shared accel config
  const CampaignPlan plan = BuildCampaignPlan(spec);

  CampaignExecutor& executor = CampaignExecutor::Shared();
  const ExecutorStats before = executor.stats();
  CollectorSink collector;
  executor.Run(plan, collector);
  const ExecutorStats after = executor.stats();

  const std::int64_t constructed =
      after.simulators_constructed - before.simulators_constructed;
  const std::int64_t reused = after.simulators_reused - before.simulators_reused;
  const auto campaigns = static_cast<std::int64_t>(plan.campaigns.size());
  // The acceptance bound: strictly fewer fresh simulators than the naive
  // per-campaign spawn model (campaigns × pool workers), with real reuse.
  EXPECT_LT(constructed, campaigns * executor.threads());
  EXPECT_LE(constructed, executor.threads());
  EXPECT_GT(reused, 0);
  EXPECT_EQ(after.campaigns_executed - before.campaigns_executed, campaigns);
  EXPECT_EQ(after.experiments_run - before.experiments_run,
            plan.total_experiments());
}

TEST(ExecutorTest, NestedRunThrowsInsteadOfHanging) {
  // A sink that starts a nested Run() on `target` from OnSweepBegin, before
  // the pool has any work, or from OnCampaignEnd, mid-run. Both run on the
  // caller's thread. Nested on the executor serving the sink, the call
  // throws and the outer Run() rethrows it instead of deadlocking on its
  // own pool; on another executor it simply runs.
  class NestedSink : public RecordSink {
   public:
    NestedSink(CampaignExecutor& target, CampaignPlan inner,
               bool from_sweep_begin)
        : target_(target),
          inner_(std::move(inner)),
          from_sweep_begin_(from_sweep_begin) {}
    void OnSweepBegin(const CampaignPlan& /*plan*/) override {
      if (from_sweep_begin_) RunInner();
    }
    void OnCampaignEnd(const CampaignBeginInfo& /*info*/) override {
      if (!from_sweep_begin_) RunInner();
    }
    int nested_calls() const { return nested_calls_; }
    std::size_t nested_records() const { return nested_records_; }

   private:
    void RunInner() {
      ++nested_calls_;
      CollectorSink collector;
      target_.Run(inner_, collector);
      nested_records_ += collector.results().at(0).records.size();
    }
    CampaignExecutor& target_;
    CampaignPlan inner_;
    bool from_sweep_begin_;
    int nested_calls_ = 0;
    std::size_t nested_records_ = 0;
  };

  SweepSpec outer = BaseSpec();
  outer.max_sites = 2;
  SweepSpec inner = BaseSpec();
  inner.max_sites = 3;
  const CampaignPlan outer_plan = BuildCampaignPlan(outer);
  const CampaignPlan inner_plan = BuildCampaignPlan(inner);
  CampaignExecutor executor(ExecutorOptions{.threads = 2});
  for (const bool from_sweep_begin : {true, false}) {
    SCOPED_TRACE(from_sweep_begin ? "OnSweepBegin" : "OnCampaignEnd");
    NestedSink sink(executor, inner_plan, from_sweep_begin);
    try {
      executor.Run(outer_plan, sink);
      ADD_FAILURE() << "the nested Run() did not throw";
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string(error.what()).find("nested runs"),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(sink.nested_calls(), 1);
  }
  // The failed runs released the executor, and a run nested on another
  // executor completes.
  CampaignExecutor other(ExecutorOptions{.threads = 1});
  NestedSink sink(other, inner_plan, /*from_sweep_begin=*/false);
  executor.Run(outer_plan, sink);
  EXPECT_EQ(sink.nested_records(), 3u);
}

TEST(ExecutorTest, ConcurrentRunsExecuteOneAtATime) {
  // Two threads submit different plans to one executor at once. Each gets
  // the records of a solo run, and the runs never overlap: the second
  // run's OnSweepBegin follows the first run's OnSweepEnd.
  class LoggingSink : public CollectorSink {
   public:
    LoggingSink(std::string name, std::mutex& mutex,
                std::vector<std::string>& log)
        : name_(std::move(name)), mutex_(mutex), log_(log) {}
    void OnSweepBegin(const CampaignPlan& plan) override {
      Log("begin");
      // Hold the run open long enough for the other thread to arrive.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      CollectorSink::OnSweepBegin(plan);
    }
    void OnSweepEnd() override {
      CollectorSink::OnSweepEnd();
      Log("end");
    }

   private:
    void Log(const char* event) {
      const std::lock_guard<std::mutex> lock(mutex_);
      log_.push_back(name_ + " " + event);
    }
    std::string name_;
    std::mutex& mutex_;
    std::vector<std::string>& log_;
  };

  SweepSpec first = BaseSpec();
  first.bits = {8, 31};
  SweepSpec second = BaseSpec();
  second.polarities = {StuckPolarity::kStuckAt0};
  second.max_sites = 20;
  const CampaignPlan plans[] = {BuildCampaignPlan(first),
                                BuildCampaignPlan(second)};
  CampaignExecutor executor(ExecutorOptions{.threads = 2});
  std::vector<CampaignResult> solo[2];
  for (int i = 0; i < 2; ++i) {
    CollectorSink collector;
    executor.Run(plans[i], collector);
    solo[i] = collector.TakeResults();
  }

  std::mutex mutex;
  std::vector<std::string> log;
  LoggingSink sinks[] = {{"a", mutex, log}, {"b", mutex, log}};
  std::thread other([&] { executor.Run(plans[1], sinks[1]); });
  executor.Run(plans[0], sinks[0]);
  other.join();

  for (int i = 0; i < 2; ++i) {
    const std::vector<CampaignResult> results = sinks[i].TakeResults();
    ASSERT_EQ(results.size(), solo[i].size()) << "plan " << i;
    for (std::size_t c = 0; c < results.size(); ++c) {
      ExpectIdentical(solo[i][c], results[c]);
    }
  }
  ASSERT_EQ(log.size(), 4u);
  const std::string first_run = log[0].substr(0, 1);
  const std::string second_run = first_run == "a" ? "b" : "a";
  EXPECT_EQ(log, (std::vector<std::string>{
                     first_run + " begin", first_run + " end",
                     second_run + " begin", second_run + " end"}));
}

TEST(ExecutorTest, SinkCallbacksRunOnTheCallingThread) {
  // Collects records while noting the thread behind every callback; throws
  // from the `throw_at`-th OnRecord when that is set.
  class SinkError : public std::runtime_error {
   public:
    using std::runtime_error::runtime_error;
  };
  class ThreadNotingSink : public CollectorSink {
   public:
    explicit ThreadNotingSink(std::int64_t throw_at = 0)
        : throw_at_(throw_at) {}
    void OnSweepBegin(const CampaignPlan& plan) override {
      Note();
      CollectorSink::OnSweepBegin(plan);
    }
    void OnCampaignBegin(const CampaignBeginInfo& info) override {
      Note();
      CollectorSink::OnCampaignBegin(info);
    }
    void OnRecord(const CampaignBeginInfo& info, std::int64_t index,
                  const ExperimentRecord& record) override {
      Note();
      if (++records_ == throw_at_) throw SinkError("sink failed");
      CollectorSink::OnRecord(info, index, record);
    }
    void OnExperimentFailed(const CampaignBeginInfo& /*info*/,
                            const FailedRecord& /*failure*/) override {
      Note();
      ++failures_;
    }
    void OnCampaignEnd(const CampaignBeginInfo& info) override {
      Note();
      CollectorSink::OnCampaignEnd(info);
    }
    void OnSweepEnd() override {
      Note();
      CollectorSink::OnSweepEnd();
    }
    const std::set<std::thread::id>& threads() const { return threads_; }
    std::int64_t records() const { return records_; }
    std::int64_t failures() const { return failures_; }

   private:
    void Note() { threads_.insert(std::this_thread::get_id()); }
    std::int64_t throw_at_;
    std::int64_t records_ = 0;
    std::int64_t failures_ = 0;
    std::set<std::thread::id> threads_;
  };

  SweepSpec spec = BaseSpec();
  spec.workloads.front().input_fill = OperandFill::kRandom;  // nothing folds
  spec.polarities = {StuckPolarity::kStuckAt1, StuckPolarity::kStuckAt0};
  spec.bits = {4, 8};
  spec.max_sites = 12;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  const std::set<std::thread::id> caller{std::this_thread::get_id()};

  // The checkpoint of a resumed run: campaign 0 whole, so it replays
  // without preparation, and a seeded half of every other campaign.
  std::ostringstream jsonl;
  {
    JsonlRecordSink writer(jsonl);
    CampaignExecutor::Shared().Run(plan, writer);
  }
  std::istringstream lines(jsonl.str());
  SweepCheckpoint checkpoint = LoadSweepCheckpoint(lines);
  std::mt19937_64 rng(25);
  for (auto& [c, campaign] : checkpoint.campaigns) {
    if (c == 0) continue;
    std::erase_if(campaign.records,
                  [&](const auto& /*entry*/) { return rng() % 2 == 1; });
  }

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignExecutor executor(ExecutorOptions{.threads = threads});
    ThreadNotingSink fresh;
    executor.Run(plan, fresh);
    EXPECT_EQ(fresh.records(), plan.total_experiments());
    EXPECT_EQ(fresh.threads(), caller);

    ThreadNotingSink resumed;
    RunOptions resume;
    resume.checkpoint = &checkpoint;
    executor.Run(plan, resumed, resume);
    EXPECT_EQ(resumed.threads(), caller);
    const std::vector<CampaignResult> expected = fresh.TakeResults();
    const std::vector<CampaignResult> actual = resumed.TakeResults();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t c = 0; c < expected.size(); ++c) {
      ExpectIdentical(expected[c], actual[c]);
    }

    chaos::ChaosSpec chaos_spec;
    chaos_spec.experiment_throw_every = 5;
    chaos_spec.experiment_throw_attempts = 99;  // never recovers
    chaos::Install(chaos_spec);
    ThreadNotingSink quarantined;
    RunOptions chaotic;
    chaotic.resilience.max_retries = 0;
    chaotic.resilience.backoff_base_ms = 0;
    chaotic.resilience.on_failure = OnFailure::kQuarantine;
    const SweepOutcome outcome = executor.Run(plan, quarantined, chaotic);
    chaos::Clear();
    EXPECT_GT(quarantined.failures(), 0);
    EXPECT_EQ(quarantined.failures(), outcome.quarantined);
    EXPECT_EQ(quarantined.threads(), caller);

    ThreadNotingSink throwing(/*throw_at=*/5);
    EXPECT_THROW(executor.Run(plan, throwing), SinkError);
    EXPECT_EQ(throwing.records(), 5);
    EXPECT_EQ(throwing.threads(), caller);
  }
}

TEST(ExecutorTest, SlowSinkKeepsLookaheadBounded) {
  // A sink far slower than the pool: it sleeps 20 ms in OnCampaignBegin(c)
  // and then checks that at most cap + 1 campaigns, c included, have been
  // prepared from c onward — a campaign holds its place in the lookahead
  // until its OnCampaignEnd returns, so the pool cannot run ahead through
  // the plan.
  class SlowSink : public RecordSink {
   public:
    SlowSink(const CampaignExecutor& executor, std::int64_t bound)
        : executor_(executor),
          bound_(bound),
          start_(executor.stats().campaigns_executed) {}
    void OnCampaignBegin(const CampaignBeginInfo& info) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::int64_t ahead = executor_.stats().campaigns_executed -
                                 start_ -
                                 static_cast<std::int64_t>(info.campaign_index);
      EXPECT_LE(ahead, bound_) << "campaign " << info.campaign_index;
      max_ahead_ = std::max(max_ahead_, ahead);
    }
    std::int64_t max_ahead() const { return max_ahead_; }

   private:
    const CampaignExecutor& executor_;
    std::int64_t bound_;
    std::int64_t start_;
    std::int64_t max_ahead_ = 0;
  };

  SweepSpec spec = BaseSpec();
  spec.workloads.front().input_fill = OperandFill::kRandom;  // nothing folds
  spec.engine = CampaignEngine::kDifferential;
  spec.signals = {MacSignal::kAdderOut, MacSignal::kMulOut};
  spec.polarities = {StuckPolarity::kStuckAt1, StuckPolarity::kStuckAt0};
  spec.bits = {1, 3, 5, 7};
  spec.max_sites = 8;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  ASSERT_EQ(plan.campaigns.size(), 16u);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignExecutor executor(ExecutorOptions{.threads = threads});
    SlowSink sink(executor, /*bound=*/threads + 1);
    executor.Run(plan, sink);
    EXPECT_GE(sink.max_ahead(), 1);
    EXPECT_EQ(executor.stats().campaigns_executed, 16);
  }
}

TEST(ExecutorTest, RejectsInvalidOptionsAndPlans) {
  const CampaignPlan plan = BuildCampaignPlan(BaseSpec());
  NullSink sink;
  RunOptions options;
  options.max_parallelism = -1;
  EXPECT_THROW(CampaignExecutor::Shared().Run(plan, sink, options),
               std::invalid_argument);
  options.max_parallelism = 1000;
  EXPECT_THROW(CampaignExecutor::Shared().Run(plan, sink, options),
               std::invalid_argument);
  EXPECT_THROW(CampaignExecutor::Shared().Run(CampaignPlan{}, sink),
               std::invalid_argument);
  // only_shard must be -1 or a shard index the plan has.
  SweepSpec sharded = BaseSpec();
  sharded.shards = 2;
  const CampaignPlan sharded_plan = BuildCampaignPlan(sharded);
  for (const int shard : {5, -2}) {
    RunOptions shard_options;
    shard_options.only_shard = shard;
    EXPECT_THROW(
        CampaignExecutor::Shared().Run(sharded_plan, sink, shard_options),
        std::invalid_argument)
        << "only_shard=" << shard;
  }
  EXPECT_THROW(CampaignExecutor(ExecutorOptions{.threads = 0}),
               std::invalid_argument);
}

TEST(ExecutorTest, PropagatesExperimentErrors) {
  SweepSpec spec = BaseSpec();
  spec.bits = {200};  // out of range for every signal width
  const CampaignPlan plan = BuildCampaignPlan(spec);
  NullSink sink;
  EXPECT_THROW(CampaignExecutor::Shared().Run(plan, sink),
               std::invalid_argument);
}

}  // namespace
}  // namespace saffire
