#include "service/result_cache.h"

#include <exception>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/atomic_file.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "service/sink.h"
#include "service/sweep.h"

namespace saffire {

namespace {

obs::Counter& CacheHitsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.cache.hits", "campaigns fully served from the result cache");
  return counter;
}

obs::Counter& CacheMissesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.cache.misses",
      "result-cache lookups that had to simulate (absent, corrupt, "
      "incomplete, or key-mismatched entries)");
  return counter;
}

obs::Counter& CacheStoresCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.cache.stores",
      "completed campaigns written back to the result cache");
  return counter;
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  SAFFIRE_CHECK_MSG(!dir_.empty(), "empty result-cache directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  SAFFIRE_CHECK_MSG(!ec, "cannot create result-cache directory '"
                             << dir_ << "': " << ec.message());
}

std::string ResultCache::EntryPath(const CampaignConfig& config) const {
  return dir_ + "/" + CampaignContentHash(config) + ".jsonl";
}

std::optional<CheckpointCampaign> ResultCache::Load(
    const CampaignConfig& config, std::int64_t expected_experiments) const {
  const std::string path = EntryPath(config);
  std::optional<CheckpointCampaign> entry;
  std::ifstream in(path);
  if (in) {
    // The checkpoint loader already treats damage as "not yet simulated";
    // here any irregularity at all — extra campaigns, foreign key, wrong
    // count, holes — additionally voids the whole entry. A cache may only
    // answer with exactly the records a fresh simulation would produce.
    SweepCheckpoint checkpoint = LoadSweepCheckpoint(in);
    const auto it = checkpoint.campaigns.find(0);
    if (checkpoint.campaigns.size() == 1 && it != checkpoint.campaigns.end() &&
        it->second.key == CampaignKey(config) &&
        it->second.total_experiments == expected_experiments &&
        it->second.Complete()) {
      entry = std::move(it->second);
    }
  }
  (entry.has_value() ? CacheHitsCounter() : CacheMissesCounter()).Increment();
  return entry;
}

bool ResultCache::Store(const CampaignConfig& config,
                        const CheckpointCampaign& entry) const {
  const std::int64_t total = entry.total_experiments;
  // Density precondition: exactly indices 0…total−1. Size alone would let
  // a same-sized map with stray indices (1…N) through, and such an entry
  // would also pass Load's Complete() gate on the way back out.
  SAFFIRE_CHECK_MSG(
      static_cast<std::int64_t>(entry.records.size()) == total &&
          (entry.records.empty() ||
           (entry.records.begin()->first == 0 &&
            entry.records.rbegin()->first == total - 1)),
      "caching a partial campaign: " << entry.records.size() << " of "
                                     << total << " records");
  try {
    AtomicFileWriter writer(EntryPath(config));
    JsonlRecordSink sink(writer.stream());
    CampaignBeginInfo info;
    info.campaign_index = 0;
    info.config = &config;
    info.total_experiments = total;
    info.scheduled_experiments = total;
    info.golden_cycles = entry.golden_cycles;
    info.golden_pe_steps = entry.golden_pe_steps;
    sink.OnCampaignBegin(info);
    for (const auto& [experiment_index, record] : entry.records) {
      sink.OnRecord(info, experiment_index, record);
    }
    writer.Commit();
  } catch (const std::exception& error) {
    SAFFIRE_LOG_WARN << "result cache: failed to store "
                     << EntryPath(config) << ": " << error.what();
    return false;
  }
  CacheStoresCounter().Increment();
  return true;
}

}  // namespace saffire
