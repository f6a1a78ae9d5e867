#include "service/run.h"

#include <exception>
#include <optional>
#include <set>
#include <utility>

#include "common/log.h"
#include "service/result_cache.h"

namespace saffire {

namespace {

// Forwards every callback to the inner sink while accumulating each
// campaign's records, and writes a campaign back to the result cache the
// moment OnCampaignEnd shows it complete (every experiment has a record —
// quarantined or sharded campaigns are not cacheable). A campaign that
// tripped a self-check mismatch is not cacheable either: it still
// completes (a mismatched group recomputes on a trusted rung, a mismatched
// copy is replaced by its direct run), but records emitted before the
// demotion or the end of folding were never re-verified, and caching them
// would launder an unhealthy (exit-3) run into permanent silent hits for
// later healthy-looking runs. Campaigns that were themselves served from
// the cache are skipped; checkpoint-replayed ones are stored, which lets a
// resumed sweep warm the cache for free.
class CacheStoreSink : public RecordSink {
 public:
  CacheStoreSink(RecordSink& inner, const ResultCache& cache,
                 const std::set<std::size_t>& cache_hits)
      : inner_(inner), cache_(cache), cache_hits_(cache_hits) {}

  void OnSweepBegin(const CampaignPlan& plan) override {
    inner_.OnSweepBegin(plan);
  }
  void OnCampaignBegin(const CampaignBeginInfo& info) override {
    inner_.OnCampaignBegin(info);
    entry_ = CheckpointCampaign();
    entry_.total_experiments = info.total_experiments;
    entry_.golden_cycles = info.golden_cycles;
    entry_.golden_pe_steps = info.golden_pe_steps;
    collect_ = cache_hits_.count(info.campaign_index) == 0;
  }
  void OnRecord(const CampaignBeginInfo& info, std::int64_t experiment_index,
                const ExperimentRecord& record) override {
    inner_.OnRecord(info, experiment_index, record);
    if (collect_) entry_.records.emplace(experiment_index, record);
  }
  void OnExperimentFailed(const CampaignBeginInfo& info,
                          const FailedRecord& failure) override {
    inner_.OnExperimentFailed(info, failure);
    collect_ = false;
  }
  void OnCampaignEnd(const CampaignBeginInfo& info) override {
    inner_.OnCampaignEnd(info);
    if (collect_ && info.selfcheck_mismatches == 0 &&
        static_cast<std::int64_t>(entry_.records.size()) ==
            info.total_experiments) {
      if (cache_.Store(*info.config, entry_)) ++stores_;
    }
    entry_ = CheckpointCampaign();
  }
  void OnSweepEnd() override { inner_.OnSweepEnd(); }

  std::int64_t stores() const { return stores_; }

 private:
  RecordSink& inner_;
  const ResultCache& cache_;
  const std::set<std::size_t>& cache_hits_;
  CheckpointCampaign entry_;
  bool collect_ = false;
  std::int64_t stores_ = 0;
};

SweepOutcome RunWithCache(CampaignExecutor& executor, const CampaignPlan& plan,
                          const RunOptions& options, RecordSink& sink) {
  const ResultCache& cache = *options.result_cache;

  // Merge cached campaigns into the replay checkpoint. MergeFrom enforces
  // bit-identical overlap with any resume checkpoint; an entry that
  // conflicts is discarded like any other damaged entry — a cache may slow
  // a run down, never change its records.
  SweepCheckpoint merged;
  if (options.checkpoint != nullptr) merged = *options.checkpoint;
  std::set<std::size_t> hit_campaigns;
  std::int64_t misses = 0;
  for (std::size_t c = 0; c < plan.campaigns.size(); ++c) {
    const auto it = merged.campaigns.find(c);
    if (it != merged.campaigns.end() &&
        static_cast<std::int64_t>(it->second.records.size()) ==
            plan.site_counts[c]) {
      continue;  // the checkpoint already covers it fully
    }
    std::optional<CheckpointCampaign> entry =
        cache.Load(plan.campaigns[c], plan.site_counts[c]);
    if (!entry.has_value()) {
      ++misses;
      continue;
    }
    SweepCheckpoint addition;
    addition.campaigns.emplace(c, std::move(*entry));
    try {
      merged.MergeFrom(addition);
      hit_campaigns.insert(c);
    } catch (const std::exception& error) {
      SAFFIRE_LOG_WARN << "result cache: entry for campaign " << c
                       << " conflicts with the resume checkpoint, ignoring: "
                       << error.what();
      ++misses;
    }
  }

  CacheStoreSink store_sink(sink, cache, hit_campaigns);
  RunOptions effective = options;
  effective.checkpoint = merged.campaigns.empty() ? nullptr : &merged;
  SweepOutcome outcome = executor.Run(plan, store_sink, effective);
  outcome.cache_hits = static_cast<std::int64_t>(hit_campaigns.size());
  outcome.cache_misses = misses;
  outcome.cache_stores = store_sink.stores();
  return outcome;
}

}  // namespace

SweepOutcome RunSweep(const CampaignPlan& plan, const RunOptions& options,
                      RecordSink& sink) {
  CampaignExecutor& executor =
      options.executor != nullptr ? *options.executor
                                  : CampaignExecutor::Shared();
  // The cache works in whole campaigns; a shard run never completes one, so
  // it bypasses the cache entirely (and must not poison it).
  if (options.result_cache != nullptr && options.only_shard < 0) {
    return RunWithCache(executor, plan, options, sink);
  }
  return executor.Run(plan, sink, options);
}

SweepOutcome RunSweep(const SweepSpec& spec, const RunOptions& options,
                      RecordSink& sink) {
  spec.Validate();
  return RunSweep(BuildCampaignPlan(spec), options, sink);
}

SweepOutcome RunSweep(const std::vector<SweepSpec>& specs,
                      const RunOptions& options, RecordSink& sink) {
  for (const SweepSpec& spec : specs) spec.Validate();
  return RunSweep(BuildCampaignPlan(specs), options, sink);
}

}  // namespace saffire
