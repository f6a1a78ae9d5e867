#include "service/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "obs/trace.h"
#include "service/chaos.h"

namespace saffire {

namespace {

// The executor whose run this thread is inside: set on a Run() caller from
// taking the run gate until it returns, the span in which it calls the
// sink. A Run() on that executor from such a thread is a nested run.
thread_local const CampaignExecutor* t_inside_run = nullptr;

// Marks the calling thread as inside `executor`'s run for its lifetime,
// restoring the previous mark (a run of another executor whose sink started
// this one) on exit.
class InsideRun {
 public:
  explicit InsideRun(const CampaignExecutor* executor)
      : previous_(t_inside_run) {
    t_inside_run = executor;
  }
  ~InsideRun() { t_inside_run = previous_; }
  InsideRun(const InsideRun&) = delete;
  InsideRun& operator=(const InsideRun&) = delete;

 private:
  const CampaignExecutor* previous_;
};

// Microseconds between two steady_clock points, for busy-time counters.
std::int64_t MicrosBetween(std::chrono::steady_clock::time_point begin,
                           std::chrono::steady_clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
      .count();
}

}  // namespace

// A worker's cached simulator. Capacity one: within a sweep, consecutive
// campaigns almost always share the accel, and a miss is cheap — a new
// FiRunner zero-fills its scratchpad and accumulator SRAM, while its DRAM
// image is lazily backed — so more slots would buy little reuse.
struct CampaignExecutor::WorkerCache {
  std::string key;
  std::optional<FiRunner> runner;
  // Pool worker index owning this cache — the identity behind the steal
  // counter and per-worker busy time.
  std::size_t worker_index = 0;

  // Returns a simulator for `accel`, setting *constructed to whether a new
  // one had to be built (vs a cache hit).
  FiRunner& Get(const AccelConfig& accel, bool* constructed) {
    std::string want = accel.Key();
    if (!runner.has_value() || key != want) {
      runner.emplace(accel);
      key = std::move(want);
      *constructed = true;
    } else {
      *constructed = false;
    }
    return *runner;
  }
};

namespace {

// Per-campaign execution state inside a run. Guarded by the executor mutex
// except where noted.
struct CampaignState {
  enum class Stage : std::uint8_t {
    kPending = 0,   // not yet prepared
    kPreparing,     // a worker is running PrepareCampaign
    kReady,         // prepared, or fully checkpointed; chunks claimable
  };

  Stage stage = Stage::kPending;
  std::int64_t total = 0;  // plan site count
  // Effective engine, starting at the configured one; graceful degradation
  // demotes it down the ladder (FallbackEngine) for the whole campaign.
  // Read at chunk-claim time and passed into RunChunk, so a chunk claimed
  // before a demotion may still finish on the old engine. Under failures at
  // more than one thread the schedule therefore decides which rung serves
  // an experiment, and with it the JSONL pe_steps / pe_steps_skipped split,
  // a failed line's attempts and engine, and the retry and fallback
  // tallies. The CSV and every other record field cannot vary: every rung
  // computes the same record.
  CampaignEngine engine = CampaignEngine::kDifferential;
  // Whether chunks copy their representatives' records to the members.
  // Cleared for good by a member's self-check mismatch; read at claim time
  // like `engine`, so chunks claimed afterwards simulate every member.
  bool fold = true;
  // Worker that ran PrepareOne; chunks claimed by any other worker count as
  // steals.
  std::size_t prepared_by = 0;

  // Indices this run delivers (in-shard ∪ checkpointed), ascending, and the
  // subset it must produce records for (deliverable minus checkpointed).
  std::vector<std::int64_t> deliverable;
  std::vector<std::int64_t> to_simulate;

  // The work units claimable once prepared. Chunks partition the
  // simulation list (SimulationList: the distinct representatives of
  // to_simulate, ascending) into consecutive blocks, and to_simulate by
  // which block holds each experiment's representative.
  struct Chunk {
    std::vector<std::size_t> representatives;
    std::vector<std::int64_t> members;  // ascending
  };
  std::vector<Chunk> chunks;
  std::size_t next_chunk = 0;

  // Read-only after the stage becomes kReady (workers access it without
  // the lock while running experiments).
  PreparedCampaign prepared;
  // One slot per experiment index, filled from checkpoint replay (in Run)
  // or chunk publication (under the lock). A slot is written once, so the
  // caller reads a filled one without the lock while the sink consumes it.
  std::vector<std::optional<ExperimentRecord>> records;
  // Quarantined experiments by index: an empty record slot whose index is
  // here is delivered as OnExperimentFailed instead of being waited for.
  std::map<std::int64_t, FailedRecord> failed;

  // Lane-grid occupancy and self-check mismatches, accumulated under
  // the lock as chunks publish; copied into `info` before OnCampaignEnd
  // (by which point every chunk has published, so the values are final).
  std::uint64_t lanes_filled = 0;
  std::uint64_t batches_run = 0;
  std::int64_t selfcheck_mismatches = 0;

  CampaignBeginInfo info;

  bool HasClaimableChunk() const { return next_chunk < chunks.size(); }
};

}  // namespace

// One Run() invocation's shared state, living on the calling thread's
// stack; workers reach it only while it is the executor's `current_` run.
struct CampaignExecutor::RunState {
  const CampaignPlan* plan = nullptr;
  int cap = 0;               // max workers serving this run
  int running_tasks = 0;     // workers currently executing its tasks
  std::size_t next_prepare = 0;
  // Campaigns counted against the cap + 1 lookahead: from the start of
  // their preparation until their OnCampaignEnd returns.
  int lookahead = 0;
  std::vector<CampaignState> campaigns;
  std::exception_ptr error;
  // Resilience policy and the cooperative stop token for this run.
  ResilienceOptions resilience;
  const std::atomic<bool>* stop = nullptr;
  // This run's tallies (guarded by the executor mutex), returned from Run().
  SweepOutcome outcome;
  // Where the resilience ladder counts into `outcome` and the pool's
  // saffire.resilience.* series.
  ResilienceTally tally;

  bool StopRequested() const {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  }
};

CampaignExecutor::CampaignExecutor(const ExecutorOptions& options) {
  SAFFIRE_CHECK_MSG(options.threads >= 1 && options.threads <= 256,
                    "threads=" << options.threads);

  // Register this pool's instrument series, labelled by instance so
  // concurrent executors sharing the registry stay distinguishable.
  static std::atomic<int> pool_ids{0};
  pool_label_ = "pool=\"" + std::to_string(pool_ids.fetch_add(1)) + "\"";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const auto counter = [&](const char* name, const char* help) {
    return &registry.GetCounter(name, help, pool_label_);
  };
  metrics_.runs = counter("saffire.executor.runs", "Run() invocations");
  metrics_.campaigns_executed = counter("saffire.executor.campaigns_executed",
                                        "campaigns simulated");
  metrics_.campaigns_replayed = counter(
      "saffire.executor.campaigns_replayed",
      "campaigns satisfied entirely from a checkpoint");
  metrics_.experiments_run =
      counter("saffire.executor.experiments_run",
              "experiment records produced by simulation");
  metrics_.experiments_replayed =
      counter("saffire.executor.experiments_replayed",
              "experiments replayed from checkpointed records");
  metrics_.chunks_executed =
      counter("saffire.executor.chunks_executed", "work chunks executed");
  metrics_.chunks_stolen =
      counter("saffire.executor.chunks_stolen",
              "chunks executed by a worker that did not prepare the campaign");
  metrics_.lanes_filled = counter("saffire.executor.lanes_filled",
                                  "occupied lane-grid lanes");
  metrics_.batches_run =
      counter("saffire.executor.batches_run", "lane-grid passes");
  metrics_.simulators_constructed =
      counter("saffire.executor.simulators_constructed",
              "FiRunner constructions");
  metrics_.simulators_reused = counter("saffire.executor.simulators_reused",
                                       "per-worker simulator cache hits");
  metrics_.golden_cache_hits =
      counter("saffire.executor.golden_cache_hits",
              "golden runs served from the process-wide cache");
  metrics_.retries = counter("saffire.resilience.retries",
                             "failed experiment/group attempts retried");
  metrics_.fallbacks =
      counter("saffire.resilience.fallbacks",
              "campaign engine demotions down the fallback ladder");
  metrics_.quarantined =
      counter("saffire.resilience.quarantined",
              "experiments quarantined after exhausting every retry");
  metrics_.selfchecks =
      counter("saffire.resilience.selfchecks",
              "records cross-validated: predicted-engine records against the "
              "differential engine, copied records against a direct run");
  metrics_.selfcheck_mismatches =
      counter("saffire.resilience.selfcheck_mismatches",
              "cross-validated records that disagreed");
  metrics_.timeouts =
      counter("saffire.resilience.timeouts",
              "experiment attempts that exceeded the deadline");
  metrics_.predict_selfchecks =
      counter("saffire.predict.selfchecks",
              "cross-validated records produced on the predicted engine");
  metrics_.queue_depth =
      &registry.GetGauge("saffire.executor.queue_depth",
                         "claimable chunks across active runs", pool_label_);
  metrics_.busy_workers =
      &registry.GetGauge("saffire.executor.busy_workers",
                         "workers currently executing a task", pool_label_);
  metrics_.chunk_seconds = &registry.GetHistogram(
      "saffire.executor.chunk_seconds", "wall time per executed chunk",
      pool_label_);
  metrics_.worker_busy_us.reserve(static_cast<std::size_t>(options.threads));
  for (int i = 0; i < options.threads; ++i) {
    metrics_.worker_busy_us.push_back(&registry.GetCounter(
        "saffire.executor.worker_busy_us",
        "microseconds each worker spent executing tasks",
        pool_label_ + ",worker=\"" + std::to_string(i) + "\""));
  }

  workers_.reserve(static_cast<std::size_t>(options.threads));
  for (int i = 0; i < options.threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<std::size_t>(i)); });
  }
}

CampaignExecutor::~CampaignExecutor() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

CampaignExecutor& CampaignExecutor::Shared() {
  // Meyers static: joined at process exit, so leak checkers stay quiet and
  // in-flight work drains before static destruction proceeds.
  static CampaignExecutor executor;
  return executor;
}

ExecutorStats CampaignExecutor::stats() const {
  // Thin accessor over the registry-backed counters; individual fields are
  // each exact, though a racing snapshot may observe them at slightly
  // different instants (same contract a Prometheus scrape gets).
  ExecutorStats stats;
  stats.pool_threads = static_cast<int>(workers_.size());
  stats.runs = metrics_.runs->value();
  stats.campaigns_executed = metrics_.campaigns_executed->value();
  stats.campaigns_replayed = metrics_.campaigns_replayed->value();
  stats.experiments_run = metrics_.experiments_run->value();
  stats.experiments_replayed = metrics_.experiments_replayed->value();
  stats.chunks_executed = metrics_.chunks_executed->value();
  stats.chunks_stolen = metrics_.chunks_stolen->value();
  stats.lanes_filled = metrics_.lanes_filled->value();
  stats.batches_run = metrics_.batches_run->value();
  stats.simulators_constructed = metrics_.simulators_constructed->value();
  stats.simulators_reused = metrics_.simulators_reused->value();
  stats.golden_cache_hits = metrics_.golden_cache_hits->value();
  stats.retries = metrics_.retries->value();
  stats.fallbacks = metrics_.fallbacks->value();
  stats.quarantined = metrics_.quarantined->value();
  stats.selfchecks = metrics_.selfchecks->value();
  stats.selfcheck_mismatches = metrics_.selfcheck_mismatches->value();
  stats.timeouts = metrics_.timeouts->value();
  stats.predict_selfchecks = metrics_.predict_selfchecks->value();
  return stats;
}

SweepOutcome CampaignExecutor::Run(const CampaignPlan& plan, RecordSink& sink,
                                   const RunOptions& options) {
  if (t_inside_run == this) {
    // Queueing onto the pool this thread is inside would deadlock: a worker
    // would wait on itself, a caller on a run that cannot finish until its
    // sink callback returns.
    throw std::logic_error(
        "CampaignExecutor::Run called from inside a run of the same "
        "executor; nested runs are not supported");
  }
  SAFFIRE_CHECK_MSG(!plan.campaigns.empty(), "empty campaign plan");
  SAFFIRE_CHECK_MSG(plan.campaigns.size() == plan.site_counts.size(),
                    "malformed plan: " << plan.campaigns.size()
                                       << " campaigns, "
                                       << plan.site_counts.size()
                                       << " site counts");
  SAFFIRE_CHECK_MSG(
      options.max_parallelism >= 0 && options.max_parallelism <= 256,
      "max_parallelism=" << options.max_parallelism);
  const bool shard_planned =
      options.only_shard == -1 ||
      std::any_of(plan.shards.begin(), plan.shards.end(),
                  [&](const PlannedShard& shard) {
                    return shard.shard_index == options.only_shard;
                  });
  SAFFIRE_CHECK_MSG(shard_planned,
                    "only_shard=" << options.only_shard
                                  << " is neither -1 nor a shard of the plan");
  options.resilience.Validate();
  for (const CampaignConfig& config : plan.campaigns) {
    config.accel.Validate();
    config.workload.Validate();
  }
  if (options.checkpoint != nullptr) {
    ValidateCheckpoint(*options.checkpoint, plan);
  }

  RunState run;
  run.plan = &plan;
  run.resilience = options.resilience;
  run.stop = options.stop;
  run.tally = {&run.outcome, &mutex_, &obs::MetricsRegistry::Default(),
               pool_label_};
  run.cap = options.max_parallelism == 0
                ? static_cast<int>(workers_.size())
                : std::min(options.max_parallelism,
                           static_cast<int>(workers_.size()));

  // Expand per-campaign delivery/replay/simulation sets.
  std::int64_t replay_only_campaigns = 0;
  std::int64_t replayed_experiments = 0;
  run.campaigns.resize(plan.campaigns.size());
  for (std::size_t c = 0; c < plan.campaigns.size(); ++c) {
    CampaignState& campaign = run.campaigns[c];
    campaign.total = plan.site_counts[c];
    campaign.engine = plan.campaigns[c].engine;
    campaign.records.resize(static_cast<std::size_t>(campaign.total));

    std::vector<bool> deliver(static_cast<std::size_t>(campaign.total),
                              options.only_shard < 0);
    if (options.only_shard >= 0) {
      for (const PlannedShard& shard : plan.shards) {
        if (shard.campaign_index != c ||
            shard.shard_index != options.only_shard) {
          continue;
        }
        for (std::int64_t i = shard.begin; i < shard.end; ++i) {
          deliver[static_cast<std::size_t>(i)] = true;
        }
      }
    }
    const CheckpointCampaign* from = nullptr;
    if (options.checkpoint != nullptr) {
      const auto it = options.checkpoint->campaigns.find(c);
      if (it != options.checkpoint->campaigns.end()) from = &it->second;
    }
    if (from != nullptr) {
      for (const auto& [index, record] : from->records) {
        deliver[static_cast<std::size_t>(index)] = true;
        campaign.records[static_cast<std::size_t>(index)] = record;
      }
    }
    for (std::int64_t i = 0; i < campaign.total; ++i) {
      const auto s = static_cast<std::size_t>(i);
      if (!deliver[s]) continue;
      campaign.deliverable.push_back(i);
      if (!campaign.records[s].has_value()) campaign.to_simulate.push_back(i);
    }
    replayed_experiments +=
        static_cast<std::int64_t>(campaign.deliverable.size()) -
        static_cast<std::int64_t>(campaign.to_simulate.size());

    campaign.info.campaign_index = c;
    campaign.info.config = &plan.campaigns[c];
    campaign.info.total_experiments = campaign.total;
    campaign.info.scheduled_experiments =
        static_cast<std::int64_t>(campaign.deliverable.size());
    // "No reduction" until PrepareOne installs the real partition; stays
    // this way for replay-only campaigns (nothing simulated either way).
    campaign.info.symmetry_classes = campaign.total;

    if (campaign.to_simulate.empty() && from != nullptr) {
      // Fully covered: golden metadata comes from the checkpoint too, so
      // no simulator or golden run is needed at all, and no chunk either.
      campaign.stage = CampaignState::Stage::kReady;
      campaign.info.golden_cycles = from->golden_cycles;
      campaign.info.golden_pe_steps = from->golden_pe_steps;
      campaign.info.replayed = true;
      ++replay_only_campaigns;
    }
  }

  // One plan at a time: the gate is held from OnSweepBegin to OnSweepEnd,
  // so a caller on another thread waits here for the running plan.
  const std::lock_guard<std::mutex> gate(run_mutex_);
  const InsideRun inside(this);
  sink.OnSweepBegin(plan);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    metrics_.runs->Increment();
    metrics_.campaigns_replayed->Increment(replay_only_campaigns);
    metrics_.experiments_replayed->Increment(replayed_experiments);
    current_ = &run;
    work_ready_.notify_all();
    StreamRecords(run, sink, lock);
    AbandonUnclaimed(run);
    // Workers inside a task of this run still reach into `run`, which
    // lives on this stack.
    work_ready_.wait(lock, [&run] { return run.running_tasks == 0; });
    current_ = nullptr;
  }
  if (run.error != nullptr) std::rethrow_exception(run.error);
  sink.OnSweepEnd();
  return run.outcome;
}

void CampaignExecutor::StreamRecords(RunState& run, RecordSink& sink,
                                     std::unique_lock<std::mutex>& lock) {
  // Waits until `ready` holds, or returns false when the run ends first: on
  // an error, or on a stop request once no worker holds a task, so records
  // a worker was holding at the stop are delivered (and checkpointed)
  // before the run is declared stopped, which is what makes --resume
  // continue exactly where the drain ended. The wait polls because a signal
  // handler cannot notify a condition variable.
  const auto await = [&](const auto& ready) {
    while (run.error == nullptr) {
      if (ready()) return true;
      if (run.StopRequested() && run.running_tasks == 0) {
        run.outcome.stopped = true;
        return false;
      }
      work_ready_.wait_for(lock, std::chrono::milliseconds(50));
    }
    return false;
  };
  // Invokes one sink callback outside the lock. A throwing sink aborts the
  // run like a failed experiment: Run() rethrows it once workers drain.
  const auto call_sink = [&](const auto& invoke) {
    lock.unlock();
    try {
      invoke();
      lock.lock();
      return true;
    } catch (...) {
      lock.lock();
      if (run.error == nullptr) run.error = std::current_exception();
      return false;
    }
  };
  for (CampaignState& campaign : run.campaigns) {
    const auto ready = [&] {
      return campaign.stage == CampaignState::Stage::kReady;
    };
    if (!await(ready) ||
        !call_sink([&] { sink.OnCampaignBegin(campaign.info); })) {
      return;
    }
    for (const std::int64_t index : campaign.deliverable) {
      // An empty slot is either still simulating (wait for it) or
      // quarantined (delivered as a failure in the record's place).
      const std::optional<ExperimentRecord>& slot =
          campaign.records[static_cast<std::size_t>(index)];
      if (!await([&] {
            return slot.has_value() || campaign.failed.contains(index);
          })) {
        return;
      }
      bool delivered = false;
      if (slot.has_value()) {
        ++run.outcome.records;
        delivered =
            call_sink([&] { sink.OnRecord(campaign.info, index, *slot); });
      } else {
        const FailedRecord failure = campaign.failed.at(index);
        delivered = call_sink(
            [&] { sink.OnExperimentFailed(campaign.info, failure); });
      }
      if (!delivered) return;
    }
    // Every deliverable record has been published, so the occupancy and
    // mismatch counters are final.
    campaign.info.lanes_filled = campaign.lanes_filled;
    campaign.info.batches_run = campaign.batches_run;
    campaign.info.selfcheck_mismatches = campaign.selfcheck_mismatches;
    if (!call_sink([&] { sink.OnCampaignEnd(campaign.info); })) return;
    // Release the campaign's bulk (golden run reference, fault list,
    // record buffer) and its place in the lookahead.
    campaign.prepared = PreparedCampaign();
    campaign.records.clear();
    campaign.records.shrink_to_fit();
    if (!campaign.info.replayed) {
      --run.lookahead;
      work_ready_.notify_all();
    }
  }
}

void CampaignExecutor::WorkerLoop(std::size_t worker_index) {
  WorkerCache cache;
  cache.worker_index = worker_index;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (shutdown_) return;
    if (!RunOneTask(cache, lock)) work_ready_.wait(lock);
  }
}

bool CampaignExecutor::RunOneTask(WorkerCache& cache,
                                  std::unique_lock<std::mutex>& lock) {
  // Claim a task of the current run within its worker cap — this is the
  // work-stealing: a worker serves whichever campaign has a claimable task.
  // Chunks of already-prepared campaigns take priority over preparing new
  // ones so the run's in-flight memory (golden traces + record buffers)
  // stays bounded. Workers never call the sink: they publish and notify,
  // and the thread inside Run() delivers.
  if (current_ == nullptr) return false;
  RunState& run = *current_;
  if (run.running_tasks >= run.cap || run.error != nullptr ||
      run.StopRequested()) {
    return false;
  }

  // Pass 1: a claimable chunk from any ready campaign.
  for (std::size_t c = 0; c < run.campaigns.size(); ++c) {
    CampaignState& campaign = run.campaigns[c];
    if (campaign.stage != CampaignState::Stage::kReady ||
        !campaign.HasClaimableChunk()) {
      continue;
    }
    const std::size_t chunk = campaign.next_chunk++;
    const CampaignEngine engine = campaign.engine;
    const bool fold = campaign.fold;
    ++run.running_tasks;
    metrics_.busy_workers->Add(1);
    metrics_.queue_depth->Add(-1);
    if (campaign.prepared_by != cache.worker_index) {
      metrics_.chunks_stolen->Increment();
    }
    lock.unlock();
    try {
      RunChunk(run, c, cache, chunk, engine, fold);
      lock.lock();
    } catch (...) {
      lock.lock();
      if (run.error == nullptr) run.error = std::current_exception();
    }
    --run.running_tasks;
    metrics_.busy_workers->Add(-1);
    work_ready_.notify_all();
    return true;
  }

  // Pass 2: prepare the next campaign. A campaign counts against the
  // cap + 1 lookahead from the start of its preparation until its
  // OnCampaignEnd returns, so a slow sink bounds prepared state and record
  // buffers as well as a slow simulation does.
  if (run.lookahead > run.cap) return false;
  // Fully checkpointed campaigns never need preparing; skip past them.
  while (run.next_prepare < run.campaigns.size() &&
         run.campaigns[run.next_prepare].stage !=
             CampaignState::Stage::kPending) {
    ++run.next_prepare;
  }
  if (run.next_prepare >= run.campaigns.size()) return false;
  const std::size_t c = run.next_prepare++;
  run.campaigns[c].stage = CampaignState::Stage::kPreparing;
  run.campaigns[c].prepared_by = cache.worker_index;
  ++run.lookahead;
  ++run.running_tasks;
  metrics_.busy_workers->Add(1);
  PrepareWithPolicy(run, c, cache, lock);
  --run.running_tasks;
  metrics_.busy_workers->Add(-1);
  work_ready_.notify_all();
  return true;
}

void CampaignExecutor::PrepareWithPolicy(RunState& run,
                                         std::size_t campaign_index,
                                         WorkerCache& cache,
                                         std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  try {
    PrepareOne(run, campaign_index, cache);
    lock.lock();
    return;
  } catch (const std::exception& error) {
    const std::exception_ptr raised = std::current_exception();
    lock.lock();
    CampaignState& campaign = run.campaigns[campaign_index];
    // Mark ready with no chunks either way, so delivery can pass the
    // campaign.
    campaign.stage = CampaignState::Stage::kReady;
    campaign.chunks.clear();
    if (run.resilience.on_failure == OnFailure::kQuarantine) {
      // Quarantine the whole campaign: every experiment it would have
      // simulated becomes a FailedRecord (checkpointed records still
      // deliver normally). Preparation is all-or-nothing — there is no
      // per-experiment rung to fall down.
      SAFFIRE_LOG_WARN << "campaign " << campaign_index
                       << ": preparation failed, quarantining "
                       << campaign.to_simulate.size()
                       << " experiments: " << error.what();
      for (const std::int64_t index : campaign.to_simulate) {
        FailedRecord failure;
        failure.campaign_index = campaign_index;
        failure.experiment_index = index;
        failure.engine = campaign.engine;
        failure.attempts = 1;
        failure.error = error.what();
        campaign.failed.emplace(index, std::move(failure));
      }
      const auto n = static_cast<std::int64_t>(campaign.to_simulate.size());
      run.outcome.quarantined += n;
      metrics_.quarantined->Increment(n);
      return;
    }
    if (run.error == nullptr) run.error = raised;
  } catch (...) {
    lock.lock();
    CampaignState& campaign = run.campaigns[campaign_index];
    campaign.stage = CampaignState::Stage::kReady;
    campaign.chunks.clear();
    if (run.error == nullptr) run.error = std::current_exception();
  }
}

void CampaignExecutor::PrepareOne(RunState& run, std::size_t campaign_index,
                                  WorkerCache& cache) {
  SAFFIRE_SPAN("executor.prepare");
  const auto busy_start = std::chrono::steady_clock::now();
  CampaignState& campaign = run.campaigns[campaign_index];
  const CampaignConfig& config = run.plan->campaigns[campaign_index];

  bool constructed = false;
  FiRunner* golden_runner = nullptr;
  if (config.engine == CampaignEngine::kReference) {
    // Only the reference engine runs its golden on a local simulator; the
    // others go through the process-wide GoldenRunCache.
    golden_runner = &cache.Get(config.accel, &constructed);
  }
  PreparedCampaign prepared = PrepareCampaign(config, golden_runner);
  SAFFIRE_ASSERT_MSG(
      static_cast<std::int64_t>(prepared.faults.size()) == campaign.total,
      "campaign " << campaign_index << ": plan expects " << campaign.total
                  << " sites, prepare produced " << prepared.faults.size());

  // Chunk the simulation list: small enough for stealing to balance load
  // across workers, large enough that claiming is not the bottleneck.
  const std::vector<std::size_t> list =
      SimulationList(prepared, campaign.to_simulate);
  std::size_t chunk_size = std::clamp<std::size_t>(
      list.size() / (static_cast<std::size_t>(run.cap) * 4), 1, 64);
  if (config.engine == CampaignEngine::kPredicted) {
    // Align chunks to whole groups so a chunk never splits a canonical
    // batch_lanes-sized group of the simulation list across workers.
    const auto lanes = static_cast<std::size_t>(config.batch_lanes);
    chunk_size = ((chunk_size + lanes - 1) / lanes) * lanes;
  }
  std::vector<CampaignState::Chunk> chunks(
      (list.size() + chunk_size - 1) / chunk_size);
  for (std::size_t p = 0; p < list.size(); ++p) {
    chunks[p / chunk_size].representatives.push_back(list[p]);
  }
  // Each experiment joins the chunk that simulates its representative.
  for (const std::int64_t index : campaign.to_simulate) {
    const std::size_t rep =
        prepared.symmetry_rep_of[static_cast<std::size_t>(index)];
    const auto position = static_cast<std::size_t>(
        std::lower_bound(list.begin(), list.end(), rep) - list.begin());
    chunks[position / chunk_size].members.push_back(index);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (golden_runner != nullptr) {
    (constructed ? metrics_.simulators_constructed
                 : metrics_.simulators_reused)
        ->Increment();
  }
  if (prepared.golden_cache_hit) metrics_.golden_cache_hits->Increment();
  metrics_.campaigns_executed->Increment();

  campaign.info.golden_cycles = prepared.golden().cycles;
  campaign.info.golden_pe_steps = prepared.golden().pe_steps;
  campaign.info.symmetry_classes =
      static_cast<std::int64_t>(prepared.symmetry_classes);
  campaign.prepared = std::move(prepared);
  campaign.chunks = std::move(chunks);
  campaign.stage = CampaignState::Stage::kReady;
  if (run.error == nullptr) {
    // Publish the new chunks to the queue-depth gauge. An errored run's
    // chunks are never claimed (workers skip it), so they stay off the
    // gauge entirely — AbandonUnclaimed retires any published before the
    // error.
    metrics_.queue_depth->Add(
        static_cast<std::int64_t>(campaign.chunks.size()));
  }
  lock.unlock();
  metrics_.worker_busy_us[cache.worker_index]->Increment(
      MicrosBetween(busy_start, std::chrono::steady_clock::now()));
}

void CampaignExecutor::RunChunk(RunState& run, std::size_t campaign_index,
                                WorkerCache& cache, std::size_t chunk,
                                CampaignEngine engine, bool fold) {
  SAFFIRE_SPAN("executor.chunk");
  const auto busy_start = std::chrono::steady_clock::now();
  CampaignState& campaign = run.campaigns[campaign_index];
  const CampaignConfig& config = run.plan->campaigns[campaign_index];
  const PreparedCampaign& prepared = campaign.prepared;
  const ResilienceOptions& res = run.resilience;

  bool constructed = false;
  FiRunner& runner = cache.Get(config.accel, &constructed);
  const std::vector<std::int64_t>& members = campaign.chunks[chunk].members;
  // What this chunk simulates: its block of the simulation list while the
  // campaign folds, its members themselves once folding has stopped.
  const std::vector<std::size_t> simulate =
      fold ? campaign.chunks[chunk].representatives
           : std::vector<std::size_t>(members.begin(), members.end());
  // Each simulated experiment's record — empty once it quarantined, with
  // `failure` saying how — and the rung that produced it.
  struct Simulated {
    std::optional<ExperimentRecord> record;
    CampaignEngine rung = CampaignEngine::kDifferential;
    LadderFailure failure;
    // Whether a delivered failure has taken the one quarantine the ladder
    // counted for this experiment.
    bool quarantine_delivered = false;
  };
  std::vector<Simulated> simulated(simulate.size());
  std::uint64_t lanes_filled = 0;
  std::uint64_t batches_run = 0;

  // Runs simulate[p] through the retry/fallback ladder starting at `rung`.
  const auto run_one = [&](std::size_t p, CampaignEngine rung) {
    const std::size_t index = simulate[p];
    Simulated& out = simulated[p];
    ExperimentRecord record;
    out.rung = rung;
    const LadderSteps steps{
        [&] {
          record = RunPreparedExperimentWithEngine(prepared, runner, index,
                                                   out.rung);
        },
        [&](int /*attempts*/) {
          const CampaignEngine next =
              DemoteEngine(run, campaign_index, out.rung);
          if (next == out.rung) return false;  // bottom of the ladder
          out.rung = next;
          return true;
        }};
    if (RunResilient(res, run.tally, config.seed, campaign_index,
                     static_cast<std::int64_t>(index), "campaign", steps,
                     &out.failure)) {
      out.record = std::move(record);
    }
  };

  // The predicted engine packs the chunk into groups of batch_lanes
  // consecutive entries. While folding, the chunk starts on a group
  // boundary of the simulation list, so these are the campaign's canonical
  // groups. Records are independent across lanes, so the grouping affects
  // occupancy stats only, never record content; closed-form groups never
  // touch a lane, so they stay out of the occupancy counters (matching
  // RunCampaignSerial). A group that fails or mismatches demotes the
  // campaign, and the rest of the chunk, that group included, runs one
  // experiment at a time on the fallback engine.
  std::size_t p = 0;
  const auto lanes = static_cast<std::size_t>(config.batch_lanes);
  for (; engine == CampaignEngine::kPredicted && p < simulate.size();
       p += lanes) {
    const std::span<const std::size_t> group(
        simulate.data() + p, std::min(lanes, simulate.size() - p));
    std::vector<ExperimentRecord> records;
    bool ok = false;
    for (int attempt = 0; attempt <= res.max_retries; ++attempt) {
      if (attempt > 0) {
        run.tally.Retry();
        SleepBackoff(res, config.seed, campaign_index,
                     static_cast<std::int64_t>(group.front()), attempt - 1);
      }
      try {
        chaos::OnBatchAttempt(campaign_index, attempt);
        records = RunPreparedBatch(prepared, runner, group);
        ok = true;
        break;
      } catch (const std::invalid_argument&) {
        break;  // permanent: retrying the identical config cannot help
      } catch (const std::exception&) {
        // Transient group failure: retry, then fall down the ladder.
      }
    }
    // Cross-validate sampled lanes against the differential engine.
    for (std::size_t i = 0; ok && i < group.size(); ++i) {
      const auto index = static_cast<std::int64_t>(group[i]);
      if (!SelfCheckSampled(res.selfcheck_rate, config.seed, campaign_index,
                            index)) {
        continue;
      }
      NoteSelfCheck(run, CampaignEngine::kPredicted);
      try {
        const ExperimentRecord check = RunPreparedExperimentWithEngine(
            prepared, runner, group[i], CampaignEngine::kDifferential);
        if (!(check == records[i]) ||
            chaos::ForceSelfCheckMismatch(campaign_index)) {
          NoteMismatch(run, campaign_index, index,
                       "its grouped record and the differential engine");
          ok = false;
        }
      } catch (const std::exception&) {
        // The cross-check itself failing is indistinguishable from a
        // predicted-engine defect — degrade the same way.
        ok = false;
      }
    }
    if (!ok) {
      // The group never produced (trusted) records. The demotion is
      // campaign-wide and sticky.
      engine = DemoteEngine(run, campaign_index, CampaignEngine::kPredicted);
      break;
    }
    if (!PredictedEngineExact(config)) {
      lanes_filled += group.size();
      ++batches_run;
    }
    for (std::size_t i = 0; i < group.size(); ++i) {
      simulated[p + i].record = std::move(records[i]);
      simulated[p + i].rung = CampaignEngine::kPredicted;
    }
  }
  // A closed-form campaign records its golden trace on its first
  // differential run. Record it here, outside any timed attempt, so the
  // recording never counts against an experiment's deadline (run_one starts
  // on no rung above differential, so its ladder never demotes onto it). A
  // recording that diverges from the plan throws out of the chunk and fails
  // the sweep.
  if (engine == CampaignEngine::kDifferential) prepared.trace();
  for (; p < simulate.size(); ++p) run_one(p, engine);

  // Fan out: each member takes its representative's record, or a failure
  // at its own index when the representative quarantined. Buffer locally,
  // publish under the lock: the delivering caller must never observe a
  // half-written record.
  std::vector<std::optional<ExperimentRecord>> chunk_records(members.size());
  std::vector<FailedRecord> failures;
  for (std::size_t k = 0; k < members.size(); ++k) {
    const std::int64_t index = members[k];
    const auto i = static_cast<std::size_t>(index);
    const std::size_t source = fold ? prepared.symmetry_rep_of[i] : i;
    Simulated& from =
        simulated[static_cast<std::size_t>(
            std::lower_bound(simulate.begin(), simulate.end(), source) -
            simulate.begin())];
    if (!from.record.has_value()) {
      failures.push_back({campaign_index, index, from.rung,
                          from.failure.attempts, from.failure.timed_out,
                          from.failure.error});
      // One quarantine per delivered failure: the first takes the one the
      // ladder counted, even when the representative itself is not
      // delivered (checkpointed, or in another shard).
      if (from.quarantine_delivered) run.tally.Quarantine();
      from.quarantine_delivered = true;
      continue;
    }
    if (source == i) {
      chunk_records[k] = *from.record;
      continue;
    }
    ExperimentRecord record = MemberRecord(prepared, *from.record, i);
    if (SelfCheckSampled(res.selfcheck_rate, config.seed, campaign_index,
                         index)) {
      // The copy against a direct run on the rung that produced the
      // representative's record: engines legitimately differ in the
      // pe_steps split, so the same rung is the like-for-like check.
      NoteSelfCheck(run, from.rung);
      try {
        const ExperimentRecord check =
            RunPreparedExperimentWithEngine(prepared, runner, i, from.rung);
        if (!(check == record) ||
            chaos::ForceSelfCheckMismatch(campaign_index)) {
          NoteMismatch(run, campaign_index, index,
                       "its copied record and a direct run");
          // The class lied for this site: keep the direct record, and stop
          // folding for the campaign's remaining chunks.
          record = check;
          std::lock_guard<std::mutex> lock(mutex_);
          campaign.fold = false;
        }
      } catch (const std::exception&) {
        // The cross-check failing says nothing about the copy.
      }
    }
    chunk_records[k] = std::move(record);
  }

  const std::int64_t busy_us =
      MicrosBetween(busy_start, std::chrono::steady_clock::now());

  std::unique_lock<std::mutex> lock(mutex_);
  campaign.lanes_filled += lanes_filled;
  campaign.batches_run += batches_run;
  metrics_.lanes_filled->Increment(static_cast<std::int64_t>(lanes_filled));
  metrics_.batches_run->Increment(static_cast<std::int64_t>(batches_run));
  for (std::size_t k = 0; k < members.size(); ++k) {
    if (!chunk_records[k].has_value()) continue;
    campaign.records[static_cast<std::size_t>(members[k])] =
        std::move(*chunk_records[k]);
  }
  for (FailedRecord& failure : failures) {
    const std::int64_t index = failure.experiment_index;
    campaign.failed.emplace(index, std::move(failure));
  }
  (constructed ? metrics_.simulators_constructed : metrics_.simulators_reused)
      ->Increment();
  metrics_.chunks_executed->Increment();
  metrics_.experiments_run->Increment(
      static_cast<std::int64_t>(members.size() - failures.size()));
  lock.unlock();
  metrics_.chunk_seconds->Observe(static_cast<double>(busy_us) * 1e-6);
  metrics_.worker_busy_us[cache.worker_index]->Increment(busy_us);
}

CampaignEngine CampaignExecutor::DemoteEngine(RunState& run,
                                              std::size_t campaign_index,
                                              CampaignEngine from) {
  std::lock_guard<std::mutex> lock(mutex_);
  CampaignState& campaign = run.campaigns[campaign_index];
  if (campaign.engine != from) return campaign.engine;  // already demoted
  const std::optional<CampaignEngine> next = FallbackEngine(from);
  if (!next.has_value()) return from;
  campaign.engine = *next;
  ++run.outcome.fallbacks;
  metrics_.fallbacks->Increment();
  SAFFIRE_LOG_WARN << "campaign " << campaign_index << ": falling back from "
                   << ToString(from) << " to the " << ToString(*next)
                   << " engine";
  return *next;
}

void CampaignExecutor::NoteSelfCheck(RunState& run, CampaignEngine engine) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++run.outcome.selfchecks;
  metrics_.selfchecks->Increment();
  if (engine == CampaignEngine::kPredicted) {
    metrics_.predict_selfchecks->Increment();
  }
}

void CampaignExecutor::NoteMismatch(RunState& run, std::size_t campaign_index,
                                    std::int64_t experiment_index,
                                    const char* between) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++run.outcome.selfcheck_mismatches;
    ++run.campaigns[campaign_index].selfcheck_mismatches;
    metrics_.selfcheck_mismatches->Increment();
  }
  SAFFIRE_LOG_WARN << "campaign " << campaign_index << " experiment "
                   << experiment_index << ": self-check mismatch between "
                   << between;
}

void CampaignExecutor::AbandonUnclaimed(RunState& run) {
  // Unclaimed chunks will never be picked up (workers skip errored and
  // stopped runs, and a finished run has none), so retire them from the
  // queue-depth gauge.
  std::int64_t abandoned = 0;
  for (CampaignState& campaign : run.campaigns) {
    if (campaign.stage != CampaignState::Stage::kReady) continue;
    abandoned += static_cast<std::int64_t>(campaign.chunks.size() -
                                           campaign.next_chunk);
    campaign.next_chunk = campaign.chunks.size();
  }
  if (abandoned > 0) metrics_.queue_depth->Add(-abandoned);
}

}  // namespace saffire
