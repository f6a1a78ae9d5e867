// Deterministic fault injection for testing the resilience layer itself.
// The executor calls the hooks below at well-defined points (experiment
// attempt, predicted-engine group attempt); when a ChaosSpec is installed
// they throw or stall on a fixed, index-derived schedule, so a chaos run is
// exactly reproducible and its expected retry/fallback counters can be
// computed in closed form. When nothing is installed every hook is a single
// relaxed atomic load — cheap enough to leave compiled into release builds,
// which is what lets CI drive the real campaign_cli binary through failures
// via the SAFFIRE_CHAOS environment variable.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "service/network_sweep.h"
#include "service/sink.h"

namespace saffire {
namespace chaos {

// Thrown by injection points. Derives std::runtime_error so the resilience
// layer classifies it as transient (retryable), like a real engine fault —
// never std::invalid_argument, which would be treated as permanent.
class ChaosError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Injection schedule. All triggers key on plan indices, not on execution
// order, so they fire identically regardless of worker count or stealing.
struct ChaosSpec {
  // Every Nth experiment (experiment_index % N == 0) fails its first
  // `experiment_throw_attempts` attempts on the current ladder rung.
  // 0 disables. Applies to per-experiment engine paths only; predicted-engine
  // groups are driven by batch_fail_every. Fires only for experiments a
  // run simulates: a folding campaign's member is never attempted, so it
  // fails only when its representative does.
  int experiment_throw_every = 0;
  int experiment_throw_attempts = 1;
  // Every Nth campaign (campaign_index % N == 0) throws from every
  // predicted-engine group attempt, closed-form and lane-grid alike,
  // forcing the predicted→differential fallback.
  int batch_fail_every = 0;
  // Every Nth experiment stalls stall_ms on its first attempt — trips the
  // experiment_timeout_ms guard without failing the attempt.
  int stall_every = 0;
  std::int64_t stall_ms = 0;
  // Every Nth campaign's sampled self-checks report a mismatch even though
  // the records agree, driving the mismatch path end to end — engine
  // demotion on a grouped rung, the end of site folding for the campaign's
  // remaining chunks on a copied record, unhealthy SweepOutcome, cache
  // exclusion — without corrupting any delivered record (a "mismatched"
  // group recomputes on the fallback rung, a "mismatched" copy is replaced
  // by its direct run, and both are identical).
  int selfcheck_lie_every = 0;
  // Every Nth record through FlakySink throws. Consumed by FlakySink and
  // the CLI's chaos wiring, not by the executor hooks.
  int sink_throw_every = 0;
};

// Installs/clears the process-wide schedule. Not thread-safe against
// in-flight runs: install before Run(), clear after.
void Install(const ChaosSpec& spec);
void Clear();
bool Enabled();
ChaosSpec ActiveSpec();

// Parses "key=value,key=value" with the ChaosSpec field names as keys;
// throws std::invalid_argument on unknown keys or malformed values.
ChaosSpec ParseChaosSpec(const std::string& text);

// Installs from the SAFFIRE_CHAOS environment variable when set and
// non-empty; returns whether anything was installed.
bool InstallFromEnv();

// Executor hooks. No-ops when nothing is installed.
void OnExperimentAttempt(std::size_t campaign_index,
                         std::int64_t experiment_index, int attempt);
void OnBatchAttempt(std::size_t campaign_index, int attempt);
// True when selfcheck_lie_every forces this campaign's self-check
// comparisons to report a mismatch (false when nothing is installed).
bool ForceSelfCheckMismatch(std::size_t campaign_index);

// Checkpoint-corruption helpers for robustness tests: XOR one byte in
// place / truncate to `size` bytes. Both throw on I/O failure.
void FlipByteInFile(const std::string& path, std::int64_t offset);
void TruncateFileTo(const std::string& path, std::int64_t size);

// Sink decorator that forwards to `inner` but throws ChaosError from every
// Nth OnRecord (1-based count). Non-owning, like TeeSink.
class FlakySink : public RecordSink {
 public:
  FlakySink(RecordSink* inner, int throw_every);

  void OnSweepBegin(const CampaignPlan& plan) override;
  void OnCampaignBegin(const CampaignBeginInfo& info) override;
  void OnRecord(const CampaignBeginInfo& info, std::int64_t experiment_index,
                const ExperimentRecord& record) override;
  void OnExperimentFailed(const CampaignBeginInfo& info,
                          const FailedRecord& failure) override;
  void OnCampaignEnd(const CampaignBeginInfo& info) override;
  void OnSweepEnd() override;

  std::int64_t records_forwarded() const { return forwarded_; }

 private:
  RecordSink* inner_;
  int throw_every_;
  std::int64_t seen_ = 0;
  std::int64_t forwarded_ = 0;
};

// FlakySink's network-sweep sibling: forwards to `inner` but throws
// ChaosError from every Nth OnRecord (1-based count). Failure/begin/end
// callbacks always forward — only record delivery is flaky, matching the
// operator-level decorator.
class NetworkFlakySink : public NetworkRecordSink {
 public:
  NetworkFlakySink(NetworkRecordSink* inner, int throw_every);

  void OnSweepBegin(const NetworkSweepSpec& spec,
                    const NetworkCampaignPlan& plan) override;
  void OnCampaignBegin(const NetworkCampaignInfo& info) override;
  void OnRecord(const NetworkRecord& record) override;
  void OnExperimentFailed(const NetworkFailedRecord& failed) override;
  void OnCampaignEnd(std::size_t campaign_index) override;
  void OnSweepEnd(const SweepOutcome& outcome) override;

  std::int64_t records_forwarded() const { return forwarded_; }

 private:
  NetworkRecordSink* inner_;
  int throw_every_;
  std::int64_t seen_ = 0;
  std::int64_t forwarded_ = 0;
};

}  // namespace chaos
}  // namespace saffire
