// Content-addressed result cache: a completed campaign stored once must
// replay from disk with zero simulation and a byte-identical record stream,
// and every kind of damage — absent, corrupt, truncated, key-mismatched, or
// short entries — must degrade to a miss, never to a wrong record.
#include "service/result_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/chaos.h"
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
  config.workload.name = "gemm-10";
  config.workload.m = config.workload.k = config.workload.n = 10;
  config.max_sites = 12;
  return config;
}

// A fresh cache directory per test, removed on teardown.
class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("saffire_result_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  // A complete, storable entry built from the serial ground truth.
  static CheckpointCampaign EntryFor(const CampaignConfig& config) {
    const CampaignResult result = RunCampaignSerial(config);
    CheckpointCampaign entry;
    entry.total_experiments = static_cast<std::int64_t>(result.records.size());
    entry.golden_cycles = result.golden_cycles;
    entry.golden_pe_steps = result.golden_pe_steps;
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      entry.records.emplace(static_cast<std::int64_t>(i), result.records[i]);
    }
    return entry;
  }

  std::filesystem::path dir_;
};

TEST_F(ResultCacheTest, StoreThenLoadRoundTripsEveryRecord) {
  const ResultCache cache(dir());
  const CampaignConfig config = BaseConfig();
  const CheckpointCampaign entry = EntryFor(config);
  ASSERT_TRUE(cache.Store(config, entry));
  ASSERT_TRUE(std::filesystem::exists(cache.EntryPath(config)));

  const auto loaded = cache.Load(config, entry.total_experiments);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->total_experiments, entry.total_experiments);
  EXPECT_EQ(loaded->golden_cycles, entry.golden_cycles);
  EXPECT_EQ(loaded->golden_pe_steps, entry.golden_pe_steps);
  EXPECT_EQ(loaded->records, entry.records);
}

TEST_F(ResultCacheTest, AbsentEntryIsAMiss) {
  const ResultCache cache(dir());
  EXPECT_FALSE(cache.Load(BaseConfig(), 12).has_value());
}

TEST_F(ResultCacheTest, CorruptEntryIsAMissNeverWrongRecords) {
  const ResultCache cache(dir());
  const CampaignConfig config = BaseConfig();
  const CheckpointCampaign entry = EntryFor(config);
  ASSERT_TRUE(cache.Store(config, entry));
  const std::string path = cache.EntryPath(config);

  // Garbage file.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not jsonl at all\n";
  }
  EXPECT_FALSE(cache.Load(config, entry.total_experiments).has_value());

  // Truncated mid-stream: the CRC seal rejects the torn tail, and the
  // now-incomplete campaign is a miss.
  ASSERT_TRUE(cache.Store(config, entry));
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << full.substr(0, full.size() / 2);
  }
  EXPECT_FALSE(cache.Load(config, entry.total_experiments).has_value());
}

TEST_F(ResultCacheTest, KeyMismatchedEntryIsAMiss) {
  // Simulate a filename collision / tampering: campaign A's entry sitting
  // under campaign B's path. The embedded CampaignKey must veto it.
  const ResultCache cache(dir());
  const CampaignConfig config_a = BaseConfig();
  CampaignConfig config_b = BaseConfig();
  config_b.bit = 3;
  const CheckpointCampaign entry = EntryFor(config_a);
  ASSERT_TRUE(cache.Store(config_a, entry));
  std::filesystem::copy_file(
      cache.EntryPath(config_a), cache.EntryPath(config_b),
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.Load(config_b, entry.total_experiments).has_value());
  // The original entry is untouched and still serves.
  EXPECT_TRUE(cache.Load(config_a, entry.total_experiments).has_value());
}

TEST_F(ResultCacheTest, WrongExperimentCountIsAMiss) {
  const ResultCache cache(dir());
  const CampaignConfig config = BaseConfig();
  const CheckpointCampaign entry = EntryFor(config);
  ASSERT_TRUE(cache.Store(config, entry));
  EXPECT_FALSE(cache.Load(config, entry.total_experiments + 1).has_value());
}

TEST_F(ResultCacheTest, RefusesToStoreIncompleteCampaigns) {
  // Density is a caller contract, not an I/O condition: violating it is a
  // programming error, and nothing may land under the entry path.
  const ResultCache cache(dir());
  const CampaignConfig config = BaseConfig();
  CheckpointCampaign entry = EntryFor(config);
  entry.records.erase(entry.records.begin());
  EXPECT_THROW(cache.Store(config, entry), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(cache.EntryPath(config)));
}

TEST_F(ResultCacheTest, RefusesToStoreSparseRecordIndices) {
  // Same size as a complete campaign but indices 1…N instead of 0…N−1: a
  // size-only check would store it, and it would load back as "complete".
  const ResultCache cache(dir());
  const CampaignConfig config = BaseConfig();
  CheckpointCampaign entry = EntryFor(config);
  const ExperimentRecord shifted = entry.records.begin()->second;
  entry.records.erase(entry.records.begin());
  entry.records.emplace(entry.total_experiments, shifted);
  ASSERT_EQ(static_cast<std::int64_t>(entry.records.size()),
            entry.total_experiments);
  EXPECT_FALSE(entry.Complete());
  EXPECT_THROW(cache.Store(config, entry), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(cache.EntryPath(config)));
}

// The facade contract: the second identical sweep is 100% cache hits,
// simulates nothing, and streams byte-identical CSV.
TEST_F(ResultCacheTest, RepeatedSweepReplaysWithoutSimulating) {
  ResultCache cache(dir());
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec workload;
  workload.name = "gemm-10";
  workload.m = workload.k = workload.n = 10;
  spec.workloads = {workload};
  spec.max_sites = 12;
  spec.bits = {8, 31};
  const CampaignPlan plan = BuildCampaignPlan(spec);

  RunOptions options;
  options.result_cache = &cache;

  std::ostringstream cold_out;
  CsvRecordSink cold_sink(cold_out);
  const SweepOutcome cold = RunSweep(plan, options, cold_sink);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.cache_misses, 2);
  EXPECT_EQ(cold.cache_stores, 2);

  // Warm run on a private executor so its stats isolate this sweep.
  CampaignExecutor executor(ExecutorOptions{.threads = 2});
  options.executor = &executor;
  std::ostringstream warm_out;
  CsvRecordSink warm_sink(warm_out);
  const SweepOutcome warm = RunSweep(plan, options, warm_sink);
  EXPECT_EQ(warm.cache_hits, 2);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.cache_stores, 0);
  EXPECT_EQ(executor.stats().experiments_run, 0);
  EXPECT_EQ(executor.stats().experiments_replayed, plan.total_experiments());
  EXPECT_EQ(warm_out.str(), cold_out.str());
  EXPECT_FALSE(warm_out.str().empty());
}

// A folded sweep must populate the cache with the unfolded records — the
// cached bytes are record-level, not plan-level — and a warm run replays
// them without simulating.
TEST_F(ResultCacheTest, FoldedRunsCacheTheUnfoldedRecords) {
  ResultCache cache(dir());
  CampaignConfig config = BaseConfig();
  config.max_sites = 0;  // exhaustive, so the campaign has sites to fold
  const PreparedCampaign prepared = PrepareCampaign(config);
  ASSERT_LT(prepared.symmetry_classes, prepared.sites.size());
  FiRunner runner(config.accel);
  std::vector<ExperimentRecord> unfolded;
  for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
    unfolded.push_back(
        RunPreparedExperimentWithEngine(prepared, runner, i, config.engine));
  }

  RunOptions options;
  options.result_cache = &cache;
  CollectorSink cold;
  const SweepOutcome stored =
      RunSweep(SingleCampaignPlan(config), options, cold);
  EXPECT_EQ(stored.cache_stores, 1);

  CampaignExecutor executor(ExecutorOptions{.threads = 2});
  options.executor = &executor;
  CollectorSink warm;
  const SweepOutcome replayed =
      RunSweep(SingleCampaignPlan(config), options, warm);
  EXPECT_EQ(replayed.cache_hits, 1);
  EXPECT_EQ(executor.stats().experiments_run, 0);
  for (CollectorSink* sink : {&cold, &warm}) {
    const std::vector<CampaignResult> results = sink->TakeResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results.front().records == unfolded);
  }
}

// A self-check mismatch marks the whole run untrusted (exit 3); its
// records — correct or not — must never become permanent cache hits.
TEST_F(ResultCacheTest, MismatchedRunsAreNeverCached) {
  ResultCache cache(dir());
  CampaignConfig config = BaseConfig();
  config.engine = CampaignEngine::kPredicted;

  chaos::ChaosSpec chaos_spec;
  chaos_spec.selfcheck_lie_every = 1;  // every self-check reports mismatch
  chaos::Install(chaos_spec);

  CampaignExecutor executor(ExecutorOptions{.threads = 2});
  RunOptions options;
  options.executor = &executor;
  options.result_cache = &cache;
  options.resilience.selfcheck_rate = 1.0;
  CollectorSink collector;
  const SweepOutcome outcome =
      RunSweep(SingleCampaignPlan(config), options, collector);
  chaos::Clear();

  // The campaign still completed (the "mismatched" group recomputed on the
  // fallback rung), but the run is unhealthy and nothing was stored.
  EXPECT_EQ(outcome.records, config.max_sites);
  EXPECT_GT(outcome.selfcheck_mismatches, 0);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.cache_stores, 0);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));

  // A later healthy run gets no hit — it simulates and stores as normal.
  CollectorSink clean;
  const SweepOutcome rerun =
      RunSweep(SingleCampaignPlan(config), options, clean);
  EXPECT_EQ(rerun.cache_hits, 0);
  EXPECT_EQ(rerun.cache_misses, 1);
  EXPECT_EQ(rerun.cache_stores, 1);
}

TEST_F(ResultCacheTest, ShardedRunsBypassTheCache) {
  ResultCache cache(dir());
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec workload;
  workload.name = "gemm-10";
  workload.m = workload.k = workload.n = 10;
  spec.workloads = {workload};
  spec.max_sites = 12;
  spec.shards = 2;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  RunOptions options;
  options.result_cache = &cache;
  options.only_shard = 0;
  CollectorSink collector;
  const SweepOutcome outcome = RunSweep(plan, options, collector);
  EXPECT_EQ(outcome.cache_hits, 0);
  EXPECT_EQ(outcome.cache_misses, 0);
  EXPECT_EQ(outcome.cache_stores, 0);
  // No half-campaign entry may have been written.
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST(ResultCacheCtorTest, RejectsUncreatableDirectories) {
  EXPECT_THROW(ResultCache("/proc/definitely/not/creatable"),
               std::invalid_argument);
}

}  // namespace
}  // namespace saffire
