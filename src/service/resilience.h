// Resilience policy for sweep execution. The paper's 49-hour FPGA campaign
// (Sec. III-B) only produced trustworthy Table I data because every
// experiment either completed or was visibly rerun; this header defines the
// native equivalent: what a sweep does when an experiment throws, stalls
// past its deadline, or a rung disagrees with its baseline — retry with
// deterministic backoff, fall down the rung ladder, and finally quarantine
// into a failed-record stream instead of silently losing or poisoning
// records. One ladder (RunResilient) serves both sweep families: the
// operator executor walks the engine ladder, the network sweep the appfi →
// cycle-accurate rungs.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "patterns/campaign.h"

namespace saffire {

// What happens to an experiment whose retries (across the whole fallback
// ladder) are exhausted.
enum class OnFailure : std::uint8_t {
  // Emit a FailedRecord through RecordSink::OnExperimentFailed (and the
  // JSONL "failed" line) and keep sweeping. The library default for
  // long-running campaigns: one poisoned site must not cost the other
  // thousands of records.
  kQuarantine = 0,
  // Rethrow the final error from Run(), draining in-flight work first —
  // the pre-resilience fail-fast behavior.
  kAbort = 1,
};

std::string ToString(OnFailure policy);
// Parses "quarantine"/"abort"; throws std::invalid_argument otherwise.
OnFailure ParseOnFailure(const std::string& name);

// Per-run resilience knobs, carried by RunOptions. Defaults retry transient
// errors but abort on exhaustion, which preserves the historical "an
// experiment error fails the sweep" contract; services and the CLI opt into
// quarantine explicitly.
struct ResilienceOptions {
  // Extra attempts after the first failure, per ladder rung. 0 disables
  // retries entirely.
  int max_retries = 2;
  // Deadline per experiment attempt; an attempt observed to exceed it is
  // treated as failed (and counted as a timeout) even if it eventually
  // produced a record. 0 disables the guard. Detection is cooperative: a
  // stalled attempt is only classified once it returns.
  std::int64_t experiment_timeout_ms = 0;
  // Fraction of predicted-engine records cross-validated against the
  // differential engine, and of folded campaigns' copied records against a
  // direct run, sampled deterministically from the campaign seed. A
  // mismatch demotes the campaign down the ladder and recomputes the
  // affected group from the trusted engine, or stops the campaign's
  // folding. 0 disables self-checking.
  double selfcheck_rate = 0.0;
  OnFailure on_failure = OnFailure::kAbort;
  // Backoff before retry k is min(cap, base << k) plus a deterministic
  // seed-derived jitter in [0, base] — no wall-clock or global randomness,
  // so reruns schedule identically. base 0 disables sleeping (tests).
  std::int64_t backoff_base_ms = 1;
  std::int64_t backoff_cap_ms = 100;

  // Throws std::invalid_argument unless retries, the deadline and the
  // backoff are non-negative and selfcheck_rate lies in [0, 1]. Both sweep
  // families call it before running anything.
  void Validate() const;
};

// One quarantined experiment: everything needed to audit the failure and to
// re-run the site later (a resumed sweep re-simulates quarantined indices).
struct FailedRecord {
  std::size_t campaign_index = 0;
  std::int64_t experiment_index = -1;
  // Engine of the final attempt (the bottom of the ladder reached).
  CampaignEngine engine = CampaignEngine::kDifferential;
  // Total attempts spent across every rung.
  int attempts = 0;
  bool timed_out = false;
  // what() of the final failure.
  std::string error;
};

// Summary of one Run()/RunSweep() invocation. `ok()` gating is the
// service-level health check: the CLI exits non-zero when it fails even
// though the sweep "completed".
struct SweepOutcome {
  // Records delivered to the sink (simulated + replayed).
  std::int64_t records = 0;
  // Experiments that exhausted every retry and rung.
  std::int64_t quarantined = 0;
  // Failed attempts that were retried (any rung).
  std::int64_t retries = 0;
  // Campaign engine demotions (predicted→differential→reference).
  std::int64_t fallbacks = 0;
  // Records cross-validated, and how many disagreed.
  std::int64_t selfchecks = 0;
  std::int64_t selfcheck_mismatches = 0;
  // Attempts that exceeded experiment_timeout_ms.
  std::int64_t timeouts = 0;
  // Corrupt/truncated checkpoint lines dropped while loading the resume
  // stream (filled by callers that loaded one; the executor leaves it 0).
  std::int64_t checkpoint_lines_dropped = 0;
  // Result-cache traffic (filled by the RunSweep facade when
  // RunOptions::result_cache is set; the executor leaves them 0): campaigns
  // fully served from the cache, campaigns that had to simulate, and
  // freshly completed campaigns written back. Not part of ok() — a cold
  // cache is healthy.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_stores = 0;
  // True when a cooperative stop (RunOptions::stop) drained the run before
  // every record was delivered.
  bool stopped = false;

  bool ok() const {
    return quarantined == 0 && selfcheck_mismatches == 0 && !stopped;
  }
};

// The graceful-degradation ladder: predicted → differential → reference.
// It ends at the oracle: reference IS the baseline the other rungs are
// validated against, so it returns nullopt. Every rung produces the same
// records by construction except in the pe_steps / pe_steps_skipped split,
// so a demotion never changes the CSV or any other record field. What it
// can change is that split in JSONL record lines, a failed line's attempts
// and engine, and the retry and fallback tallies; under failures at more
// than one thread, which experiments a demotion reaches depends on the
// schedule (service/executor.h RunChunk).
std::optional<CampaignEngine> FallbackEngine(CampaignEngine engine);

// Backoff before retry `attempt` (0-based) of the given experiment:
// min(cap, base << attempt) + jitter(seed, campaign, experiment, attempt)
// with jitter in [0, base]. Pure function of its arguments.
std::int64_t BackoffDelayMs(const ResilienceOptions& options,
                            std::uint64_t seed, std::size_t campaign_index,
                            std::int64_t experiment_index, int attempt);

// Sleeps BackoffDelayMs (no-op when the policy disables backoff).
void SleepBackoff(const ResilienceOptions& options, std::uint64_t seed,
                  std::size_t campaign_index, std::int64_t experiment_index,
                  int attempt);

// True when the deterministic self-check sample includes this experiment:
// a seed-derived hash of (campaign, experiment) falls below `rate`.
bool SelfCheckSampled(double rate, std::uint64_t seed,
                      std::size_t campaign_index,
                      std::int64_t experiment_index);

// Where the ladder counts its work: the run's SweepOutcome and the
// saffire.resilience.{retries,timeouts,quarantined} series under the sweep
// family's `labels` (pool="N" for an executor, layer="network"). `mutex`,
// when set, guards `outcome` (pool workers share one run); serial runs
// leave it null.
struct ResilienceTally {
  SweepOutcome* outcome = nullptr;
  std::mutex* mutex = nullptr;
  obs::MetricsRegistry* registry = nullptr;
  std::string labels;

  void Retry() const;
  void Timeout() const;
  void Quarantine() const;
};

// A sweep family's half of one experiment's walk down the ladder.
struct LadderSteps {
  // One attempt on the current rung; throws on failure.
  std::function<void()> attempt;
  // Moves the experiment one rung down, given the attempts spent so far;
  // false at the bottom of the ladder.
  std::function<bool(int attempts)> demote;
};

// How an experiment that exhausted the ladder failed: what a family's
// failed record carries besides its indices and final rung.
struct LadderFailure {
  int attempts = 0;
  bool timed_out = false;
  // what() of the final failure.
  std::string error;
};

// Runs one experiment down the ladder: up to max_retries + 1 attempts per
// rung, each preceded by chaos::OnExperimentAttempt inside the cooperative
// deadline window, with deterministic backoff before every attempt after
// the first (the backoff index counts attempts across rungs); then one
// demote and the same again. A failure that throws std::invalid_argument
// is permanent: the same config fails identically on any rung, so it skips
// the remaining retries and rungs. Returns true once an attempt succeeds
// within its deadline. On exhaustion, OnFailure::kAbort rethrows the final
// error (a runtime_error naming the deadline when that was the last
// failure); kQuarantine counts and logs the quarantine under `label`
// ("campaign 3 experiment 5: quarantined after ..."), fills *failure and
// returns false.
bool RunResilient(const ResilienceOptions& options,
                  const ResilienceTally& tally, std::uint64_t seed,
                  std::size_t campaign_index, std::int64_t experiment_index,
                  const char* label, const LadderSteps& steps,
                  LadderFailure* failure);

}  // namespace saffire
