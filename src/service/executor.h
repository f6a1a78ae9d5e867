// The campaign execution service: one persistent worker pool that runs
// whole CampaignPlans, one plan at a time, work-stealing across every
// campaign in the plan, while the thread that called Run() streams records
// to a RecordSink in a deterministic canonical order. The pool prepares
// campaigns and simulates chunks; only the caller calls the sink.
//
// Why a service instead of a spawn-per-call model:
// a paper-scale sweep is hundreds of campaigns (Sec. III-B), and per-call
// orchestration pays thread spawn/join and simulator construction (each
// FiRunner zero-fills its accelerator's scratchpad and accumulator SRAM)
// once per campaign. The executor pays them once per *process*: workers
// live across Run() calls, each worker caches its simulator keyed by the
// accelerator configuration, and the tail of one campaign overlaps the head
// of the next instead of serializing at a join barrier. ExecutorStats
// counts exactly these savings.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "patterns/campaign.h"
#include "service/checkpoint.h"
#include "service/resilience.h"
#include "service/sink.h"
#include "service/sweep.h"

namespace saffire {

// Cumulative counters since construction, assembled by stats() from the
// executor's registry-backed instruments (obs/metrics.h) — the struct is a
// point-in-time view kept for API compatibility; the live values are the
// "saffire.executor.*" series (one label set per pool) that --metrics-out
// and Prometheus scrapes read. Deltas across a Run() are the per-batch
// cost.
struct ExecutorStats {
  int pool_threads = 0;
  std::int64_t runs = 0;
  // Campaigns simulated vs satisfied entirely from a checkpoint.
  std::int64_t campaigns_executed = 0;
  std::int64_t campaigns_replayed = 0;
  // Records the run produced — a folding campaign's copies included, not
  // only the representatives it simulated — vs records replayed from a
  // checkpoint.
  std::int64_t experiments_run = 0;
  std::int64_t experiments_replayed = 0;
  std::int64_t chunks_executed = 0;
  // Lane-grid occupancy of the predicted engine's residue campaigns (0
  // otherwise): occupied lanes and lane-grid passes, the pool-wide sum of
  // the per-campaign CampaignResult counters.
  std::int64_t lanes_filled = 0;
  std::int64_t batches_run = 0;
  // Simulator (FiRunner) construction vs per-worker cache hits — the
  // acceptance criterion: across a batch, constructed must stay below
  // campaigns × workers while reused grows.
  std::int64_t simulators_constructed = 0;
  std::int64_t simulators_reused = 0;
  // Golden runs served from the process-wide GoldenRunCache. A count of
  // process history, so no output record carries it.
  std::int64_t golden_cache_hits = 0;
  // Chunks executed by a worker other than the one that prepared the
  // campaign — the work-stealing traffic.
  std::int64_t chunks_stolen = 0;
  // Resilience-layer traffic (the "saffire.resilience.*" series): failed
  // attempts retried, campaign engine demotions, experiments quarantined
  // after exhausting retries, records cross-validated (and the mismatches
  // among them), and attempts that exceeded the deadline.
  std::int64_t retries = 0;
  std::int64_t fallbacks = 0;
  std::int64_t quarantined = 0;
  std::int64_t selfchecks = 0;
  std::int64_t selfcheck_mismatches = 0;
  std::int64_t timeouts = 0;
  // Self-checked records whose group ran on the predicted engine (the
  // "saffire.predict.selfchecks" series) — a subset of `selfchecks`.
  std::int64_t predict_selfchecks = 0;
};

// Construction-time configuration of a CampaignExecutor. The executor's
// instruments go to obs::MetricsRegistry::Default(), each series labelled
// pool="<instance>" so concurrent pools stay distinguishable.
struct ExecutorOptions {
  // Worker pool size, [1, 256].
  int threads = DefaultCampaignThreads();
};

class CampaignExecutor;
class ResultCache;

struct RunOptions {
  // Cap on workers serving this run; 0 means the whole pool. A cap of 1
  // means "at most one experiment in flight", which is what determinism
  // tests exercise.
  int max_parallelism = 0;
  // Restrict execution to one plan shard index per campaign (-1 = all);
  // any other value must be a shard_index of plan.shards. Records outside
  // the shard are delivered only if the checkpoint covers them — the
  // multi-process split workflow.
  int only_shard = -1;
  // Previously completed records to replay instead of re-simulating.
  // Validated against the plan (ValidateCheckpoint) before anything runs.
  const SweepCheckpoint* checkpoint = nullptr;
  // Content-addressed cross-sweep result store (service/result_cache.h),
  // consumed by the RunSweep facade: campaigns found in the cache merge
  // into the replay checkpoint before execution, and freshly completed
  // campaigns are written back. Ignored by CampaignExecutor::Run itself
  // (like `executor`) — pass through RunSweep to get cache semantics.
  // nullptr disables caching. Not combined with only_shard (a shard run
  // never completes a whole campaign).
  ResultCache* result_cache = nullptr;
  // Executor serving the run when going through the RunSweep facade
  // (service/run.h); nullptr means CampaignExecutor::Shared(). Ignored by
  // CampaignExecutor::Run itself (the callee is already chosen).
  CampaignExecutor* executor = nullptr;
  // Retry/fallback/quarantine policy (service/resilience.h). The default
  // retries transient failures but aborts once they are exhausted,
  // preserving the historical "an experiment error fails the sweep"
  // contract.
  ResilienceOptions resilience;
  // Cooperative stop token (graceful shutdown): when it becomes true,
  // workers stop claiming this run's work, in-flight experiments finish and
  // their records are delivered, and Run returns with outcome.stopped set.
  // Typically ScopedSignalDrain::token() (service/signal.h).
  const std::atomic<bool>* stop = nullptr;
};

// The persistent executor. It runs one plan at a time: a Run() from another
// thread waits until the running plan returns, and a Run() from a thread
// already inside a run of this executor (the caller, during its own sink
// callbacks) throws std::logic_error instead of deadlocking on its own pool.
class CampaignExecutor {
 public:
  explicit CampaignExecutor(const ExecutorOptions& options = {});
  ~CampaignExecutor();

  CampaignExecutor(const CampaignExecutor&) = delete;
  CampaignExecutor& operator=(const CampaignExecutor&) = delete;

  // Executes the plan, streaming every record to `sink` in canonical order
  // (campaign-major, site order within a campaign) no matter how the work
  // was scheduled. Blocks until the sink has seen OnSweepEnd. Sink
  // callbacks run on the thread that called Run(), never on a pool worker
  // (RecordSink needs no locks). A campaign holds prepared state and
  // record buffers from the start of its preparation until its
  // OnCampaignEnd returns, and at most cap + 1 campaigns do at once
  // (cap: RunOptions::max_parallelism, or the pool size), so a slow sink
  // holds the pool back instead of letting it run ahead through the plan.
  //
  // Failure semantics (service/resilience.h): a throwing experiment is
  // retried with deterministic backoff, then its campaign falls down the
  // engine ladder (predicted→differential→reference), and only exhaustion
  // applies ResilienceOptions::on_failure — abort (rethrow after in-flight
  // work drains, preserving the original exception) or quarantine (deliver
  // a FailedRecord via RecordSink::OnExperimentFailed and keep going). A
  // throwing sink aborts the run the same way. The returned SweepOutcome
  // carries this run's record/retry/fallback/quarantine tallies;
  // outcome.ok() is the health check callers should gate on.
  SweepOutcome Run(const CampaignPlan& plan, RecordSink& sink,
                   const RunOptions& options = {});

  // The process-wide shared executor (sized DefaultCampaignThreads()),
  // constructed on first use and joined at exit.
  static CampaignExecutor& Shared();

  // Point-in-time view of the registry-backed counters (thin accessor; the
  // same numbers are scrapeable as the pool-labelled "saffire.executor.*"
  // series).
  ExecutorStats stats() const;
  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct RunState;
  struct WorkerCache;

  // The executor's registered instruments; handles are resolved once at
  // construction, updates are lock-free.
  struct Metrics {
    obs::Counter* runs = nullptr;
    obs::Counter* campaigns_executed = nullptr;
    obs::Counter* campaigns_replayed = nullptr;
    obs::Counter* experiments_run = nullptr;
    obs::Counter* experiments_replayed = nullptr;
    obs::Counter* chunks_executed = nullptr;
    obs::Counter* chunks_stolen = nullptr;
    obs::Counter* lanes_filled = nullptr;
    obs::Counter* batches_run = nullptr;
    obs::Counter* simulators_constructed = nullptr;
    obs::Counter* simulators_reused = nullptr;
    obs::Counter* golden_cache_hits = nullptr;
    // The resilience layer ("saffire.resilience.*" series).
    obs::Counter* retries = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* selfchecks = nullptr;
    obs::Counter* selfcheck_mismatches = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* predict_selfchecks = nullptr;
    // Claimable-but-unclaimed chunks of the current run.
    obs::Gauge* queue_depth = nullptr;
    // Workers currently executing a task (vs parked on the condvar).
    obs::Gauge* busy_workers = nullptr;
    // Wall time of each executed chunk — the load-balance distribution.
    obs::Histogram* chunk_seconds = nullptr;
    // Per-worker busy microseconds (utilization = delta / wall time).
    std::vector<obs::Counter*> worker_busy_us;
  };

  void WorkerLoop(std::size_t worker_index);
  // Claims the next task of the current run: a chunk, else a campaign
  // preparation while at most cap campaigns are between the start of their
  // preparation and the return of their OnCampaignEnd. Returns false when
  // idle.
  bool RunOneTask(WorkerCache& cache, std::unique_lock<std::mutex>& lock);
  // Executes chunk `chunk` of a prepared campaign on `engine` (the
  // campaign's effective engine at claim time — demotion may move it below
  // the configured one): simulates its block of the simulation list and
  // copies each representative's record to its members, or, once `fold` is
  // false, simulates the members themselves. A chunk claimed before another
  // chunk's demotion still starts on the old rung, so under failures at
  // more than one thread the schedule can change a record's pe_steps /
  // pe_steps_skipped split, a failed record's attempts and engine, and the
  // retry and fallback tallies; never the CSV or any other record field.
  void RunChunk(RunState& run, std::size_t campaign_index, WorkerCache& cache,
                std::size_t chunk, CampaignEngine engine, bool fold);
  void PrepareOne(RunState& run, std::size_t campaign_index,
                  WorkerCache& cache);
  // PrepareOne plus failure policy: on a throw, either quarantines the
  // whole campaign (kQuarantine) or records the run error (kAbort), leaving
  // the campaign ready-with-no-chunks so delivery can pass it. Caller
  // holds `mutex_`; it is dropped around the preparation itself.
  void PrepareWithPolicy(RunState& run, std::size_t campaign_index,
                         WorkerCache& cache,
                         std::unique_lock<std::mutex>& lock);
  // Demotes the campaign's effective engine one ladder rung if it still sits
  // at `from`; returns the (possibly unchanged) engine to continue on.
  CampaignEngine DemoteEngine(RunState& run, std::size_t campaign_index,
                              CampaignEngine from);
  // Self-check tally helpers: bump the run's outcome (under `mutex_`) and
  // the matching resilience counter. `engine` is the rung whose record is
  // being cross-validated; predicted checks additionally feed the
  // "saffire.predict.selfchecks" series. `between` names the two records
  // that disagreed, for the log line.
  void NoteSelfCheck(RunState& run, CampaignEngine engine);
  void NoteMismatch(RunState& run, std::size_t campaign_index,
                    std::int64_t experiment_index, const char* between);
  // Retires every unclaimed chunk (queue-depth gauge included) once
  // delivery has ended — the error/stop abandonment path. Caller holds
  // `mutex_`.
  void AbandonUnclaimed(RunState& run);
  // The Run() caller's half: walks the campaigns and their deliverable
  // indices in canonical order, waiting on `work_ready_` for each record to
  // be published or quarantined, and calls the sink. Returns when every
  // campaign has ended, or early on an error or a drained stop. Caller
  // holds `mutex_`; it is dropped around sink callbacks.
  void StreamRecords(RunState& run, RecordSink& sink,
                     std::unique_lock<std::mutex>& lock);

  // Held by the calling thread for a whole Run(), OnSweepBegin through
  // OnSweepEnd: the one-plan-at-a-time gate other callers queue on.
  std::mutex run_mutex_;
  mutable std::mutex mutex_;
  // Notified whenever a run's state moves: a task finished (the caller may
  // have a record to deliver, an idle worker a chunk to claim) or a
  // campaign ended (a preparation fits in the lookahead again).
  std::condition_variable work_ready_;
  RunState* current_ = nullptr;  // the run workers serve, while it has work
  bool shutdown_ = false;
  // pool="<instance>", the label set of every series this pool registers.
  std::string pool_label_;
  Metrics metrics_;
  std::vector<std::thread> workers_;
};

}  // namespace saffire
