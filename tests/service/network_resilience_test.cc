// The network resilience ladder under injected chaos: retries converge to
// the byte-identical clean records, cooperative timeouts are classified and
// survived, exhausted experiments quarantine into re-simulatable
// "network-failed" checkpoint lines (or abort when asked), flaky sinks
// propagate, and a lying self-check demotes the campaign to ground truth.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "service/chaos.h"
#include "service/network_run.h"

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

NetworkSweepSpec ExtractionSpec() {
  NetworkSweepSpec spec;
  spec.accel = SmallAccel();
  spec.network.kind = NetworkKind::kExtraction;
  spec.network.batch = 4;
  spec.network.extraction_k = 8;
  spec.network.extraction_n = 8;
  spec.max_sites = 6;
  return spec;
}

NetworkRunOptions FastRetries(int max_retries) {
  NetworkRunOptions options;
  options.resilience.max_retries = max_retries;
  options.resilience.backoff_base_ms = 0;  // no sleeping in tests
  options.resilience.on_failure = OnFailure::kQuarantine;
  return options;
}

// Chaos schedules are process-global: every test clears them on exit.
class NetworkResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { chaos::Clear(); }
};

TEST_F(NetworkResilienceTest, RetriesConvergeToCleanRecords) {
  const NetworkSweepSpec spec = ExtractionSpec();
  NetworkCollectorSink clean;
  EXPECT_TRUE(RunNetworkSweep(spec, clean).ok());

  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = 1;  // every experiment fails once
  chaos_spec.experiment_throw_attempts = 1;
  chaos::Install(chaos_spec);
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, FastRetries(2), sink);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.retries, 6);
  EXPECT_EQ(outcome.quarantined, 0);
  ASSERT_EQ(sink.records.size(), clean.records.size());
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    EXPECT_EQ(sink.records[i], clean.records[i]) << "record " << i;
  }
}

TEST_F(NetworkResilienceTest, StallsPastTheDeadlineCountAsTimeouts) {
  const NetworkSweepSpec spec = ExtractionSpec();
  chaos::ChaosSpec chaos_spec;
  chaos_spec.stall_every = 1;  // first attempt of every experiment stalls
  chaos_spec.stall_ms = 40;
  chaos::Install(chaos_spec);
  NetworkRunOptions options = FastRetries(2);
  options.resilience.experiment_timeout_ms = 10;
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, options, sink);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.timeouts, 6);
  EXPECT_EQ(outcome.retries, 6);  // each timed-out attempt was retried
  EXPECT_EQ(sink.records.size(), 6u);
}

TEST_F(NetworkResilienceTest, ExhaustedLadderQuarantinesAndResumes) {
  const NetworkSweepSpec spec = ExtractionSpec();
  NetworkCollectorSink clean;
  RunNetworkSweep(spec, clean);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = 3;  // experiments 0 and 3
  chaos_spec.experiment_throw_attempts = 99;  // beyond any ladder
  chaos::Install(chaos_spec);
  std::ostringstream jsonl;
  NetworkJsonlSink jsonl_sink(jsonl);
  NetworkCollectorSink collector;
  NetworkTeeSink tee({&jsonl_sink, &collector});
  const SweepOutcome outcome = RunNetworkSweep(spec, FastRetries(1), tee);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.quarantined, 2);
  EXPECT_EQ(outcome.fallbacks, 1);  // first exhausted appfi ladder demotes
  ASSERT_EQ(collector.failures.size(), 2u);
  EXPECT_EQ(collector.failures[0].experiment_index, 0);
  EXPECT_EQ(collector.failures[1].experiment_index, 3);
  EXPECT_NE(collector.failures[0].error.find("chaos"), std::string::npos);
  EXPECT_GE(collector.failures[0].attempts, 2);
  ASSERT_EQ(collector.records.size(), 4u);
  // Surviving records match ground truth (the demoted campaign runs
  // cycle-accurate, which on extraction is rung-equivalent).
  for (const NetworkRecord& record : collector.records) {
    const NetworkRecord& expected =
        clean.records[static_cast<std::size_t>(record.experiment_index)];
    EXPECT_TRUE(RungEquivalent(record, expected))
        << "experiment " << record.experiment_index;
  }

  // The quarantine marker is sealed into the checkpoint stream but carries
  // no resumable result: the loader skips it and a chaos-free resume
  // re-simulates exactly the two failed experiments.
  EXPECT_NE(jsonl.str().find("network-failed"), std::string::npos);
  std::istringstream in(jsonl.str());
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);
  EXPECT_EQ(checkpoint.records.size(), 4u);
  chaos::Clear();
  NetworkRunOptions options;
  options.resume = &checkpoint;
  NetworkCollectorSink resumed;
  const SweepOutcome resumed_outcome = RunNetworkSweep(spec, options, resumed);
  EXPECT_TRUE(resumed_outcome.ok());
  EXPECT_EQ(resumed_outcome.records, 6);
  ASSERT_EQ(resumed.records.size(), 6u);
  for (std::size_t i = 0; i < resumed.records.size(); ++i) {
    EXPECT_TRUE(RungEquivalent(resumed.records[i], clean.records[i]))
        << "record " << i;
  }
}

TEST_F(NetworkResilienceTest, AbortPolicyRethrowsTheFinalError) {
  const NetworkSweepSpec spec = ExtractionSpec();
  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = 1;
  chaos_spec.experiment_throw_attempts = 99;
  chaos::Install(chaos_spec);
  NetworkRunOptions options = FastRetries(0);
  options.resilience.on_failure = OnFailure::kAbort;
  NetworkCollectorSink sink;
  EXPECT_THROW(RunNetworkSweep(spec, options, sink), chaos::ChaosError);
  EXPECT_TRUE(sink.records.empty());
}

TEST_F(NetworkResilienceTest, FlakySinkFailurePropagates) {
  // Sink failures are delivery failures, not experiment failures: the
  // resilience ladder must not swallow them into retries or quarantine.
  const NetworkSweepSpec spec = ExtractionSpec();
  NetworkCollectorSink collector;
  chaos::NetworkFlakySink flaky(&collector, /*throw_every=*/3);
  EXPECT_THROW(RunNetworkSweep(spec, flaky), chaos::ChaosError);
  EXPECT_EQ(flaky.records_forwarded(), 2);
}

TEST_F(NetworkResilienceTest, LyingSelfCheckDemotesToGroundTruth) {
  const NetworkSweepSpec spec = ExtractionSpec();
  NetworkCollectorSink clean;
  RunNetworkSweep(spec, clean);

  chaos::ChaosSpec chaos_spec;
  chaos_spec.selfcheck_lie_every = 1;
  chaos::Install(chaos_spec);
  NetworkRunOptions options;
  options.resilience.selfcheck_rate = 1.0;
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, options, sink);
  EXPECT_FALSE(outcome.ok());
  EXPECT_GE(outcome.selfcheck_mismatches, 1);
  EXPECT_EQ(outcome.fallbacks, 1);
  ASSERT_EQ(sink.records.size(), 6u);
  // The forced mismatch keeps the trusted record; on the bit-exact
  // extraction workload it is rung-equivalent to the clean run, so no
  // delivered data was corrupted.
  EXPECT_EQ(sink.records[0].rung, NetworkRung::kCycleAccurate);
  for (std::size_t i = 0; i < sink.records.size(); ++i) {
    EXPECT_TRUE(RungEquivalent(sink.records[i], clean.records[i]))
        << "record " << i;
  }
}

TEST_F(NetworkResilienceTest, RejectsInvalidResilienceOptions) {
  const NetworkSweepSpec spec = ExtractionSpec();
  NetworkCollectorSink sink;
  NetworkRunOptions options;
  options.resilience.max_retries = -1;
  EXPECT_THROW(RunNetworkSweep(spec, options, sink), std::invalid_argument);
  options = {};
  options.resilience.selfcheck_rate = 1.5;
  EXPECT_THROW(RunNetworkSweep(spec, options, sink), std::invalid_argument);
  options = {};
  options.resilience.experiment_timeout_ms = -3;
  EXPECT_THROW(RunNetworkSweep(spec, options, sink), std::invalid_argument);
  EXPECT_TRUE(sink.records.empty());
  EXPECT_TRUE(sink.failures.empty());
}

}  // namespace
}  // namespace saffire
