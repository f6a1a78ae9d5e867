// The resilience layer must keep a sweep's record stream canonical and
// bit-identical while experiments fail around it: transient faults are
// retried with deterministic backoff, campaigns fall down the engine
// ladder, exhausted experiments quarantine into FailedRecords at their
// canonical positions, and every path is visible in the SweepOutcome.
#include "service/resilience.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "patterns/campaign.h"
#include "service/chaos.h"
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

SweepSpec BaseSpec() {
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec workload;
  workload.name = "gemm-20";
  workload.m = workload.k = workload.n = 20;
  spec.workloads = {workload};
  return spec;
}

// A sweep whose campaign does not fold its sites (random inputs, see
// SymmetryEligibleCampaign): every experiment is simulated, so chaos keyed
// on any index fires.
SweepSpec UnfoldedSpec() {
  SweepSpec spec = BaseSpec();
  spec.workloads.front().input_fill = OperandFill::kRandom;
  return spec;
}

void ExpectIdentical(const CampaignResult& expected,
                     const CampaignResult& actual) {
  EXPECT_EQ(expected.golden_cycles, actual.golden_cycles);
  ASSERT_EQ(expected.records.size(), actual.records.size());
  for (std::size_t i = 0; i < expected.records.size(); ++i) {
    EXPECT_EQ(expected.records[i], actual.records[i]) << "record " << i;
  }
}

// Captures the canonical delivery order of records and failures.
class RecordingSink : public RecordSink {
 public:
  struct Event {
    std::int64_t index;
    bool failed;
  };

  void OnRecord(const CampaignBeginInfo& /*info*/,
                std::int64_t experiment_index,
                const ExperimentRecord& /*record*/) override {
    events_.push_back({experiment_index, false});
  }
  void OnExperimentFailed(const CampaignBeginInfo& /*info*/,
                          const FailedRecord& failure) override {
    events_.push_back({failure.experiment_index, true});
    failures_.push_back(failure);
  }

  const std::vector<Event>& events() const { return events_; }
  const std::vector<FailedRecord>& failures() const { return failures_; }

 private:
  std::vector<Event> events_;
  std::vector<FailedRecord> failures_;
};

// Every chaos test clears the process-wide schedule, pass or fail.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { chaos::Clear(); }

  // No backoff sleeps in tests.
  static ResilienceOptions FastRetries() {
    ResilienceOptions res;
    res.backoff_base_ms = 0;
    return res;
  }
};

TEST(ResiliencePureTest, FallbackLadderEndsAtReference) {
  EXPECT_EQ(FallbackEngine(CampaignEngine::kPredicted),
            CampaignEngine::kDifferential);
  EXPECT_EQ(FallbackEngine(CampaignEngine::kDifferential),
            CampaignEngine::kReference);
  EXPECT_EQ(FallbackEngine(CampaignEngine::kReference), std::nullopt);
}

TEST(ResiliencePureTest, OnFailureParsesAndRoundTrips) {
  EXPECT_EQ(ParseOnFailure("quarantine"), OnFailure::kQuarantine);
  EXPECT_EQ(ParseOnFailure("abort"), OnFailure::kAbort);
  EXPECT_EQ(ToString(OnFailure::kQuarantine), "quarantine");
  EXPECT_EQ(ToString(OnFailure::kAbort), "abort");
  EXPECT_THROW(ParseOnFailure("retry-forever"), std::invalid_argument);
}

TEST(ResiliencePureTest, BackoffIsDeterministicBoundedAndDisableable) {
  ResilienceOptions res;
  res.backoff_base_ms = 2;
  res.backoff_cap_ms = 50;
  for (int attempt = 0; attempt < 24; ++attempt) {
    const std::int64_t delay = BackoffDelayMs(res, 7, 3, 11, attempt);
    EXPECT_EQ(delay, BackoffDelayMs(res, 7, 3, 11, attempt)) << "attempt "
                                                             << attempt;
    EXPECT_GE(delay, 0);
    EXPECT_LE(delay, res.backoff_cap_ms + res.backoff_base_ms);
  }
  // Exponential up to the cap: a late attempt saturates.
  EXPECT_GE(BackoffDelayMs(res, 7, 3, 11, 10), res.backoff_cap_ms);
  res.backoff_base_ms = 0;
  EXPECT_EQ(BackoffDelayMs(res, 7, 3, 11, 5), 0);
}

TEST(ResiliencePureTest, SelfCheckSamplingIsDeterministicAndUnbiased) {
  EXPECT_FALSE(SelfCheckSampled(0.0, 1, 0, 0));
  EXPECT_TRUE(SelfCheckSampled(1.0, 1, 0, 0));
  const double rate = 0.3;
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const bool sampled = SelfCheckSampled(rate, 42, 1, i);
    EXPECT_EQ(sampled, SelfCheckSampled(rate, 42, 1, i));
    hits += sampled ? 1 : 0;
  }
  const double observed = static_cast<double>(hits) / n;
  EXPECT_NEAR(observed, rate, 0.02);
}

TEST_F(ResilienceTest, RetriesRecoverTransientFaults) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 10;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  CollectorSink baseline;
  CampaignExecutor::Shared().Run(plan, baseline);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = 5;  // indices 0 and 5
  chaos_spec.experiment_throw_attempts = 2;
  chaos::Install(chaos_spec);

  CollectorSink collector;
  RunOptions options;
  options.resilience = FastRetries();
  options.resilience.max_retries = 3;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, collector, options);

  EXPECT_EQ(outcome.retries, 4);  // two failed attempts per hit index
  EXPECT_EQ(outcome.quarantined, 0);
  EXPECT_EQ(outcome.fallbacks, 0);
  EXPECT_EQ(outcome.records, plan.total_experiments());
  EXPECT_TRUE(outcome.ok());
  ExpectIdentical(baseline.results().at(0), collector.results().at(0));
}

TEST_F(ResilienceTest, ExhaustedFaultsQuarantineAtTheLadderBottom) {
  SweepSpec spec = UnfoldedSpec();
  spec.max_sites = 6;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = 3;  // indices 0 and 3
  chaos_spec.experiment_throw_attempts = 99;  // never recovers
  chaos::Install(chaos_spec);

  RecordingSink sink;
  RunOptions options;
  options.max_parallelism = 1;
  options.resilience = FastRetries();
  options.resilience.max_retries = 1;
  options.resilience.on_failure = OnFailure::kQuarantine;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, sink, options);

  EXPECT_EQ(outcome.quarantined, 2);
  EXPECT_EQ(outcome.records, 4);
  EXPECT_GE(outcome.fallbacks, 1);  // differential -> reference, once
  EXPECT_FALSE(outcome.ok());

  // The frontier stays canonical: failures occupy their record's slot.
  ASSERT_EQ(sink.events().size(), 6u);
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    EXPECT_EQ(sink.events()[i].index, static_cast<std::int64_t>(i));
    EXPECT_EQ(sink.events()[i].failed, i == 0 || i == 3) << "index " << i;
  }
  for (const FailedRecord& failure : sink.failures()) {
    EXPECT_EQ(failure.engine, CampaignEngine::kReference);
    EXPECT_GE(failure.attempts, 2);
    EXPECT_FALSE(failure.error.empty());
  }

  // The same exhaustion under kAbort rethrows the final error instead.
  NullSink null;
  options.resilience.on_failure = OnFailure::kAbort;
  EXPECT_THROW(CampaignExecutor::Shared().Run(plan, null, options),
               std::runtime_error);
}

TEST_F(ResilienceTest, PermanentErrorsQuarantineWithoutRetrying) {
  SweepSpec spec = BaseSpec();
  spec.bits = {200};  // out of range for every signal width
  const CampaignPlan plan = BuildCampaignPlan(spec);

  RecordingSink sink;
  RunOptions options;
  options.resilience = FastRetries();
  options.resilience.on_failure = OnFailure::kQuarantine;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, sink, options);

  EXPECT_EQ(outcome.quarantined, plan.total_experiments());
  EXPECT_EQ(outcome.records, 0);
  EXPECT_EQ(outcome.retries, 0);  // std::invalid_argument is permanent
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(static_cast<std::int64_t>(sink.failures().size()),
            plan.total_experiments());
}

// Every group attempt fails, on a forwarding signal whose groups replay on
// the lane grid: the campaign falls from predicted to differential once.
TEST_F(ResilienceTest, BatchFailuresFallBackToDifferential) {
  SweepSpec spec = BaseSpec();
  spec.engine = CampaignEngine::kPredicted;
  spec.signals = {MacSignal::kActForward};
  spec.bits = {3};
  spec.max_sites = 16;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  ASSERT_FALSE(PredictedEngineExact(plan.campaigns[0]));

  CollectorSink baseline;
  CampaignExecutor::Shared().Run(plan, baseline);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.batch_fail_every = 1;  // every group attempt in campaign 0
  chaos::Install(chaos_spec);

  CollectorSink collector;
  RunOptions options;
  options.resilience = FastRetries();
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, collector, options);

  // The ladder made the failure invisible: differential reproduced every
  // lane-grid record bit-identically.
  EXPECT_EQ(outcome.fallbacks, 1);
  EXPECT_EQ(outcome.quarantined, 0);
  EXPECT_EQ(outcome.records, plan.total_experiments());
  EXPECT_TRUE(outcome.ok());
  ExpectIdentical(baseline.results().at(0), collector.results().at(0));
}

TEST_F(ResilienceTest, SelfCheckCrossValidatesBatchRecords) {
  SweepSpec spec = BaseSpec();
  spec.engine = CampaignEngine::kPredicted;
  spec.max_sites = 12;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  CollectorSink baseline;
  CampaignExecutor::Shared().Run(plan, baseline);

  CollectorSink collector;
  RunOptions options;
  options.resilience = FastRetries();
  options.resilience.selfcheck_rate = 1.0;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, collector, options);

  EXPECT_EQ(outcome.selfchecks, plan.total_experiments());
  EXPECT_EQ(outcome.selfcheck_mismatches, 0);
  EXPECT_EQ(outcome.fallbacks, 0);
  EXPECT_TRUE(outcome.ok());
  ExpectIdentical(baseline.results().at(0), collector.results().at(0));
}

// An unstalled attempt must finish inside the deadline even on a loaded
// host under a sanitizer, so the deadline leaves it 100 ms and a stall
// lasts three times that.
TEST_F(ResilienceTest, TimeoutsCountAndRetrySucceeds) {
  SweepSpec spec = UnfoldedSpec();
  spec.max_sites = 8;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.stall_every = 4;  // indices 0 and 4 stall their first attempt
  chaos_spec.stall_ms = 300;
  chaos::Install(chaos_spec);

  CollectorSink collector;
  RunOptions options;
  options.max_parallelism = 1;
  options.resilience = FastRetries();
  options.resilience.experiment_timeout_ms = 100;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, collector, options);

  EXPECT_EQ(outcome.timeouts, 2);
  EXPECT_EQ(outcome.retries, 2);
  EXPECT_EQ(outcome.quarantined, 0);
  EXPECT_EQ(outcome.records, plan.total_experiments());
  EXPECT_TRUE(outcome.ok());
}

// A sweep that crosses a signal with a bit outside its width fails that
// cell's campaign once, at preparation: one quarantine per experiment, no
// demotion, and the other campaign runs as if alone.
TEST_F(ResilienceTest, ImpossibleBitQuarantinesItsCampaignAtPreparation) {
  SweepSpec spec = BaseSpec();
  spec.signals = {MacSignal::kWeightOperand, MacSignal::kAdderOut};
  spec.bits = {8};  // weight_operand is 8 bits wide, adder_out 32
  spec.engine = CampaignEngine::kPredicted;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  ASSERT_EQ(plan.campaigns.size(), 2u);
  const std::size_t impossible =
      plan.campaigns[0].signal == MacSignal::kWeightOperand ? 0 : 1;

  SweepSpec clean_spec = spec;
  clean_spec.signals = {MacSignal::kAdderOut};
  CollectorSink clean;
  CampaignExecutor::Shared().Run(BuildCampaignPlan(clean_spec), clean);

  CollectorSink collector;
  RecordingSink recording;
  TeeSink sink({&collector, &recording});
  RunOptions options;
  options.resilience = FastRetries();
  options.resilience.on_failure = OnFailure::kQuarantine;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, sink, options);

  EXPECT_EQ(outcome.fallbacks, 0);
  EXPECT_EQ(outcome.retries, 0);
  EXPECT_EQ(outcome.quarantined, plan.site_counts[impossible]);
  EXPECT_EQ(outcome.records, plan.site_counts[1 - impossible]);
  ASSERT_EQ(static_cast<std::int64_t>(recording.failures().size()),
            plan.site_counts[impossible]);
  for (const FailedRecord& failure : recording.failures()) {
    EXPECT_EQ(failure.campaign_index, impossible);
    EXPECT_EQ(failure.engine, CampaignEngine::kPredicted);
    EXPECT_EQ(failure.attempts, 1);
    EXPECT_NE(failure.error.find("bit 8 outside weight_operand"),
              std::string::npos)
        << failure.error;
  }
  ASSERT_EQ(collector.results().size(), 2u);
  EXPECT_TRUE(collector.results()[impossible].records.empty());
  ExpectIdentical(clean.results().at(0),
                  collector.results()[1 - impossible]);
}

// --- Folded campaigns: chaos and self-checks act on what is simulated ------
// BaseSpec's campaign folds its 64 sites into classes of same-row sites,
// and only each class's representative (its first site) is simulated.

// An exhausted representative quarantines itself and every member of its
// class, each failure at the member's own index and canonical position.
TEST_F(ResilienceTest, ExhaustedRepresentativeQuarantinesItsMembers) {
  const CampaignPlan plan = BuildCampaignPlan(BaseSpec());
  const PreparedCampaign prepared = PrepareCampaign(plan.campaigns[0]);
  const std::int64_t sites = plan.site_counts[0];
  ASSERT_LT(prepared.symmetry_classes, prepared.sites.size());
  std::int64_t class_size = 0;
  for (const std::size_t rep : prepared.symmetry_rep_of) {
    class_size += rep == 0 ? 1 : 0;
  }
  ASSERT_GT(class_size, 1);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = static_cast<int>(sites);  // index 0
  chaos_spec.experiment_throw_attempts = 99;  // never recovers
  chaos::Install(chaos_spec);

  RecordingSink sink;
  RunOptions options;
  options.resilience = FastRetries();
  options.resilience.max_retries = 1;
  options.resilience.on_failure = OnFailure::kQuarantine;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, sink, options);

  EXPECT_EQ(outcome.quarantined, class_size);
  EXPECT_EQ(outcome.records, sites - class_size);
  ASSERT_EQ(static_cast<std::int64_t>(sink.events().size()), sites);
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    EXPECT_EQ(sink.events()[i].index, static_cast<std::int64_t>(i));
    EXPECT_EQ(sink.events()[i].failed, prepared.symmetry_rep_of[i] == 0)
        << "index " << i;
  }
  ASSERT_EQ(static_cast<std::int64_t>(sink.failures().size()), class_size);
  for (const FailedRecord& failure : sink.failures()) {
    EXPECT_EQ(failure.engine, CampaignEngine::kReference);
    EXPECT_EQ(failure.attempts, sink.failures().front().attempts);
    EXPECT_EQ(failure.error, sink.failures().front().error);
  }

  // A resume whose checkpoint holds the representative's record still
  // simulates it for its members, and counts one quarantine per delivered
  // failure.
  SweepCheckpoint checkpoint;
  CheckpointCampaign& held = checkpoint.campaigns[0];
  held.key = CampaignKey(plan.campaigns[0]);
  held.total_experiments = sites;
  held.golden_cycles = prepared.golden().cycles;
  held.golden_pe_steps = prepared.golden().pe_steps;
  held.records.emplace(0, ExperimentRecord{});
  options.checkpoint = &checkpoint;
  RecordingSink resumed;
  const SweepOutcome resumed_outcome =
      CampaignExecutor::Shared().Run(plan, resumed, options);
  EXPECT_EQ(resumed_outcome.quarantined, class_size - 1);
  EXPECT_EQ(static_cast<std::int64_t>(resumed.failures().size()),
            class_size - 1);
  ASSERT_FALSE(resumed.events().empty());
  EXPECT_FALSE(resumed.events().front().failed);  // replayed
}

// Chaos keyed on member indices only never fires: members are not
// attempted. The run is shard 1, whose hit indices (34 and 51) are members
// and whose representatives are no multiple of 17.
TEST_F(ResilienceTest, ChaosOnMembersOnlyChangesNothing) {
  CampaignPlan plan = BuildCampaignPlan(BaseSpec());
  const std::int64_t sites = plan.site_counts[0];
  plan.shards = {{0, 0, 0, sites / 2}, {0, 1, sites / 2, sites}};
  const PreparedCampaign prepared = PrepareCampaign(plan.campaigns[0]);
  std::vector<std::int64_t> shard;
  for (std::int64_t i = sites / 2; i < sites; ++i) shard.push_back(i);
  for (const std::size_t simulated : SimulationList(prepared, shard)) {
    ASSERT_NE(simulated % 17, 0u) << simulated;
  }
  bool hits_member = false;
  for (const std::int64_t i : shard) {
    hits_member |= i % 17 == 0;
  }
  ASSERT_TRUE(hits_member);

  RunOptions options;
  options.only_shard = 1;
  options.resilience = FastRetries();
  options.resilience.on_failure = OnFailure::kQuarantine;
  CollectorSink baseline;
  CampaignExecutor::Shared().Run(plan, baseline, options);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = 17;
  chaos_spec.experiment_throw_attempts = 99;
  chaos::Install(chaos_spec);
  CollectorSink collector;
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, collector, options);

  EXPECT_EQ(outcome.retries, 0);
  EXPECT_EQ(outcome.quarantined, 0);
  EXPECT_EQ(outcome.fallbacks, 0);
  EXPECT_EQ(outcome.records, sites / 2);
  EXPECT_TRUE(outcome.ok());
  ExpectIdentical(baseline.results().at(0), collector.results().at(0));
}

// A self-check that finds a member's copy wrong delivers the direct run
// and stops folding for the campaign's later chunks, whose members are
// then simulated instead of copied. The seed is one whose sample at the
// rate is a single member of the first class, so later chunks exist.
TEST_F(ResilienceTest, MemberMismatchStopsFolding) {
  constexpr double kRate = 0.02;
  SweepSpec spec = BaseSpec();
  const PreparedCampaign prepared =
      PrepareCampaign(BuildCampaignPlan(spec).campaigns[0]);
  std::int64_t members = 0;
  for (std::size_t i = 0; i < prepared.sites.size(); ++i) {
    members += prepared.symmetry_rep_of[i] != i ? 1 : 0;
  }
  std::vector<std::size_t> sampled;
  for (spec.seed = 1; spec.seed < 10000; ++spec.seed) {
    sampled.clear();
    for (std::size_t i = 0; i < prepared.sites.size(); ++i) {
      if (prepared.symmetry_rep_of[i] != i &&
          SelfCheckSampled(kRate, spec.seed, 0,
                           static_cast<std::int64_t>(i))) {
        sampled.push_back(i);
      }
    }
    if (sampled.size() == 1 && prepared.symmetry_rep_of[sampled[0]] == 0) {
      break;
    }
  }
  ASSERT_EQ(sampled.size(), 1u);
  ASSERT_EQ(prepared.symmetry_rep_of[sampled[0]], 0u);
  const CampaignPlan plan = BuildCampaignPlan(spec);
  obs::Counter& replicated = obs::MetricsRegistry::Default().GetCounter(
      "saffire.cache.replicated_records");

  RunOptions options;
  options.max_parallelism = 1;  // chunks run in simulation-list order
  options.resilience = FastRetries();
  options.resilience.selfcheck_rate = kRate;
  CollectorSink clean;
  std::int64_t before = replicated.value();
  const SweepOutcome checked =
      CampaignExecutor::Shared().Run(plan, clean, options);
  EXPECT_EQ(checked.selfchecks, 1);
  EXPECT_EQ(checked.selfcheck_mismatches, 0);
  EXPECT_EQ(replicated.value() - before, members);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.selfcheck_lie_every = 1;
  chaos::Install(chaos_spec);
  CollectorSink collector;
  before = replicated.value();
  const SweepOutcome outcome =
      CampaignExecutor::Shared().Run(plan, collector, options);
  const std::int64_t copied = replicated.value() - before;
  EXPECT_EQ(outcome.selfchecks, 1);
  EXPECT_EQ(outcome.selfcheck_mismatches, 1);
  EXPECT_EQ(outcome.fallbacks, 0);
  EXPECT_FALSE(outcome.ok());
  EXPECT_GE(copied, 1);  // the checked copy itself
  EXPECT_LT(copied, members);
  ExpectIdentical(clean.results().at(0), collector.results().at(0));
}

TEST_F(ResilienceTest, RejectsInvalidResilienceOptions) {
  const CampaignPlan plan = BuildCampaignPlan(BaseSpec());
  NullSink sink;
  RunOptions options;
  options.resilience.max_retries = -1;
  EXPECT_THROW(CampaignExecutor::Shared().Run(plan, sink, options),
               std::invalid_argument);
  options = {};
  options.resilience.selfcheck_rate = 1.5;
  EXPECT_THROW(CampaignExecutor::Shared().Run(plan, sink, options),
               std::invalid_argument);
}

// --- The shared ladder, on a fake rung type ---------------------------------
// RunResilient's contract, independent of either sweep family: a family
// with three rungs (0 on top, 2 at the bottom) whose attempts fail as
// scripted.

struct FakeRungError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FakeFamily {
 public:
  explicit FakeFamily(ResilienceOptions options) : options_(options) {}

  // Fails every attempt on rungs above `healthy_from` with `fail`.
  std::function<void()> fail = [] { throw FakeRungError("fake rung down"); };
  int healthy_from = 3;
  int rung = 0;
  int demotions = 0;
  int attempts_seen = 0;
  SweepOutcome outcome;
  LadderFailure failure;

  bool Run() {
    obs::MetricsRegistry registry;
    const ResilienceTally tally{&outcome, nullptr, &registry, "fake=\"1\""};
    const LadderSteps steps{[this] {
                              ++attempts_seen;
                              if (rung < healthy_from) fail();
                            },
                            [this](int /*attempts*/) {
                              if (rung == 2) return false;
                              ++rung;
                              ++demotions;
                              return true;
                            }};
    return RunResilient(options_, tally, /*seed=*/5, /*campaign_index=*/1,
                        /*experiment_index=*/7, "fake campaign", steps,
                        &failure);
  }

 private:
  ResilienceOptions options_;
};

ResilienceOptions Ladder(int max_retries, OnFailure on_failure) {
  ResilienceOptions options;
  options.max_retries = max_retries;
  options.on_failure = on_failure;
  options.backoff_base_ms = 0;
  return options;
}

TEST(ResilienceLadderTest, RetriesEachRungThenDemotesOnceToAHealthyRung) {
  FakeFamily family(Ladder(2, OnFailure::kAbort));
  family.healthy_from = 1;
  EXPECT_TRUE(family.Run());
  EXPECT_EQ(family.rung, 1);
  EXPECT_EQ(family.demotions, 1);
  // Three attempts on rung 0, then the first on rung 1 succeeds; every
  // attempt after the very first counts as a retry, across rungs.
  EXPECT_EQ(family.attempts_seen, 4);
  EXPECT_EQ(family.outcome.retries, 3);
  EXPECT_EQ(family.outcome.quarantined, 0);
}

TEST(ResilienceLadderTest, BackoffIndexCountsAttemptsAcrossRungs) {
  ResilienceOptions options = Ladder(1, OnFailure::kQuarantine);
  options.backoff_base_ms = 32;
  options.backoff_cap_ms = 10000;
  FakeFamily family(options);
  family.healthy_from = 1;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(family.Run());
  const std::int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Two failed attempts on rung 0, success on rung 1: backoffs 0 and 1.
  ASSERT_EQ(family.outcome.retries, 2);
  const auto delay = [&options](int attempt) {
    return BackoffDelayMs(options, 5, 1, 7, attempt);
  };
  const std::int64_t expected = delay(0) + delay(1);
  // The fixture tells the indices apart: restarting the index on the new
  // rung would sleep backoff 0 twice (less), starting it at 1 would sleep
  // backoffs 1 and 2 (more than the slack below).
  const std::int64_t slack_ms = 90;
  ASSERT_LT(2 * delay(0), expected);
  ASSERT_GE(delay(1) + delay(2), expected + slack_ms);
  EXPECT_GE(elapsed_ms, expected);
  EXPECT_LT(elapsed_ms, expected + slack_ms);
}

TEST(ResilienceLadderTest, DeadlineMissIsATimeoutAndIsRetried) {
  // The second attempt does no work, yet a loaded host can deschedule it
  // for tens of milliseconds: the deadline leaves it that margin, and the
  // first attempt stalls for three times the deadline.
  ResilienceOptions options = Ladder(2, OnFailure::kQuarantine);
  options.experiment_timeout_ms = 100;
  FakeFamily family(options);
  family.fail = [&family] {
    if (family.attempts_seen == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  };
  EXPECT_TRUE(family.Run());
  EXPECT_EQ(family.attempts_seen, 2);
  EXPECT_EQ(family.outcome.timeouts, 1);
  EXPECT_EQ(family.outcome.retries, 1);
  EXPECT_EQ(family.demotions, 0);
}

TEST(ResilienceLadderTest, InvalidArgumentIsPermanent) {
  FakeFamily family(Ladder(5, OnFailure::kQuarantine));
  family.fail = [] { throw std::invalid_argument("bad config"); };
  EXPECT_FALSE(family.Run());
  EXPECT_EQ(family.attempts_seen, 1);
  EXPECT_EQ(family.outcome.retries, 0);
  EXPECT_EQ(family.demotions, 0);
  EXPECT_EQ(family.failure.attempts, 1);
  EXPECT_EQ(family.failure.error, "bad config");
  EXPECT_EQ(family.outcome.quarantined, 1);
}

TEST(ResilienceLadderTest, AbortRethrowsTheOriginalExceptionType) {
  FakeFamily family(Ladder(1, OnFailure::kAbort));
  EXPECT_THROW(family.Run(), FakeRungError);
  EXPECT_EQ(family.rung, 2);
  EXPECT_EQ(family.attempts_seen, 6);
  EXPECT_EQ(family.outcome.quarantined, 0);
}

TEST(ResilienceLadderTest, QuarantineFillsTheFailureAtTheLadderBottom) {
  FakeFamily family(Ladder(1, OnFailure::kQuarantine));
  EXPECT_FALSE(family.Run());
  // The family's rung is where its failed record comes from.
  EXPECT_EQ(family.rung, 2);
  EXPECT_EQ(family.demotions, 2);
  EXPECT_EQ(family.failure.attempts, 6);
  EXPECT_FALSE(family.failure.timed_out);
  EXPECT_EQ(family.failure.error, "fake rung down");
  EXPECT_EQ(family.outcome.retries, 5);
  EXPECT_EQ(family.outcome.quarantined, 1);

  // A final attempt that missed its deadline quarantines as timed out.
  ResilienceOptions options = Ladder(0, OnFailure::kQuarantine);
  options.experiment_timeout_ms = 1;
  FakeFamily stalled(options);
  stalled.fail = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  EXPECT_FALSE(stalled.Run());
  EXPECT_EQ(stalled.failure.attempts, 3);
  EXPECT_TRUE(stalled.failure.timed_out);
  EXPECT_NE(stalled.failure.error.find("deadline"), std::string::npos);
  EXPECT_EQ(stalled.outcome.timeouts, 3);
}

TEST(ResilienceLadderTest, ValidateRejectsOutOfRangeKnobs) {
  EXPECT_NO_THROW(ResilienceOptions{}.Validate());
  for (const auto& mutate : std::vector<void (*)(ResilienceOptions&)>{
           [](ResilienceOptions& o) { o.max_retries = -1; },
           [](ResilienceOptions& o) { o.experiment_timeout_ms = -3; },
           [](ResilienceOptions& o) { o.selfcheck_rate = 1.5; },
           [](ResilienceOptions& o) { o.selfcheck_rate = -0.1; },
           [](ResilienceOptions& o) { o.backoff_base_ms = -1; },
           [](ResilienceOptions& o) { o.backoff_cap_ms = -1; }}) {
    ResilienceOptions options;
    mutate(options);
    EXPECT_THROW(options.Validate(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace saffire
