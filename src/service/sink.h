// Streaming consumption of campaign records. The executor pushes each
// record to a RecordSink as soon as its campaign's canonical turn comes up,
// so consumers (CSV files, JSONL checkpoints, live progress, histograms)
// see results incrementally instead of waiting for a CampaignResult to
// materialize — on the paper's scale (hours-long sweeps, Sec. III-B) the
// difference is whether a killed run leaves anything behind.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "patterns/campaign.h"
#include "service/resilience.h"
#include "service/sweep.h"

namespace saffire {

// Per-campaign header handed to every campaign-scoped callback.
struct CampaignBeginInfo {
  std::size_t campaign_index = 0;
  const CampaignConfig* config = nullptr;
  // Experiments in the campaign; records are delivered with indices in
  // [0, total_experiments) but a sharded/resumed run may deliver a subset.
  std::int64_t total_experiments = 0;
  // Experiments this run will actually deliver (in-shard + replayed).
  std::int64_t scheduled_experiments = 0;
  std::int64_t golden_cycles = 0;
  std::uint64_t golden_pe_steps = 0;
  // True when the campaign was satisfied entirely from a checkpoint (no
  // simulation happened; golden_* come from the checkpoint too).
  bool replayed = false;
  // Lane-grid occupancy (patterns/campaign.h CampaignResult): populated
  // only once every record has been published, so these are zero in every
  // callback before OnCampaignEnd.
  std::uint64_t lanes_filled = 0;
  std::uint64_t batches_run = 0;
  // Self-check mismatches charged to this campaign (service/resilience.h).
  // Populated like the occupancy counters — final only in OnCampaignEnd,
  // zero in earlier callbacks. A nonzero count means some records were
  // emitted before the engine demotion or the end of folding and never
  // re-verified; consumers that persist completed campaigns (the result
  // cache) must gate on it.
  std::int64_t selfcheck_mismatches = 0;
  // The number of site-equivalence classes among total_experiments sites
  // (PreparedCampaign::symmetry_classes; == total_experiments when the
  // campaign does not fold). Campaigns replayed from a checkpoint report
  // classes == total_experiments — nothing was simulated either way.
  std::int64_t symmetry_classes = 0;
};

// Consumer interface. Delivery contract (service/executor.h): callbacks
// arrive in canonical order — OnSweepBegin, then for each campaign in plan
// order OnCampaignBegin / OnRecord or OnExperimentFailed (experiment
// indices strictly increasing) / OnCampaignEnd, then OnSweepEnd — all on
// the thread that called CampaignExecutor::Run, never on a pool worker, so
// implementations need no locking. A slow callback holds the pool back
// rather than letting prepared campaigns pile up: the executor keeps at
// most cap + 1 campaigns between the start of their preparation and the
// return of their OnCampaignEnd. All methods default to no-ops so sinks
// override only what they consume.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  virtual void OnSweepBegin(const CampaignPlan& /*plan*/) {}
  virtual void OnCampaignBegin(const CampaignBeginInfo& /*info*/) {}
  virtual void OnRecord(const CampaignBeginInfo& /*info*/,
                        std::int64_t /*experiment_index*/,
                        const ExperimentRecord& /*record*/) {}
  // A quarantined experiment (service/resilience.h), delivered at the
  // position its record would have occupied — the frontier stays canonical
  // even when sites fail. Only emitted under OnFailure::kQuarantine.
  virtual void OnExperimentFailed(const CampaignBeginInfo& /*info*/,
                                  const FailedRecord& /*failure*/) {}
  virtual void OnCampaignEnd(const CampaignBeginInfo& /*info*/) {}
  virtual void OnSweepEnd() {}
};

// Accumulates full CampaignResult values — for callers that want the batch
// CampaignResult analysis API after a streaming run.
class CollectorSink : public RecordSink {
 public:
  void OnCampaignBegin(const CampaignBeginInfo& info) override;
  void OnRecord(const CampaignBeginInfo& info, std::int64_t experiment_index,
                const ExperimentRecord& record) override;
  void OnCampaignEnd(const CampaignBeginInfo& info) override;

  // One result per campaign, in plan order. Valid after the run returns.
  std::vector<CampaignResult> TakeResults() { return std::move(results_); }
  const std::vector<CampaignResult>& results() const { return results_; }

 private:
  std::vector<CampaignResult> results_;
};

// Streams the WriteCampaignCsv schema: one header, then one row per record
// across every campaign in the sweep. For a single campaign the output is
// byte-identical to WriteCampaignCsv (tests/service/sink_test.cc).
class CsvRecordSink : public RecordSink {
 public:
  explicit CsvRecordSink(std::ostream& out);

  void OnRecord(const CampaignBeginInfo& info, std::int64_t experiment_index,
                const ExperimentRecord& record) override;

 private:
  CsvWriter writer_;
};

// Streams the checkpoint format (service/checkpoint.h): one JSON object per
// line — a "campaign" line per OnCampaignBegin carrying the CampaignKey
// identity guard, then a "record" line per experiment and a "failed" line
// per quarantined one. Every line is sealed with a trailing "crc" member
// (WriteSealedLine, service/checkpoint.h), so the loader can drop lines
// corrupted on disk instead of resuming from poisoned data; each line stays
// a valid standalone JSON object. Record, failed and end lines are flushed
// as they are written. The file doubles as a resumable checkpoint and a
// machine-readable result log.
class JsonlRecordSink : public RecordSink {
 public:
  explicit JsonlRecordSink(std::ostream& out) : out_(out) {}

  void OnSweepBegin(const CampaignPlan& plan) override;
  void OnCampaignBegin(const CampaignBeginInfo& info) override;
  void OnRecord(const CampaignBeginInfo& info, std::int64_t experiment_index,
                const ExperimentRecord& record) override;
  void OnExperimentFailed(const CampaignBeginInfo& info,
                          const FailedRecord& failure) override;
  void OnSweepEnd() override;

 private:
  std::ostream& out_;
};

// Live progress / ETA on an interactive stream, throttled so hot loops do
// not spend their time formatting ("\r"-refreshed single line).
class ProgressSink : public RecordSink {
 public:
  explicit ProgressSink(std::ostream& out,
                        std::chrono::milliseconds min_interval =
                            std::chrono::milliseconds(500))
      : out_(out), min_interval_(min_interval) {}

  void OnSweepBegin(const CampaignPlan& plan) override;
  void OnRecord(const CampaignBeginInfo& info, std::int64_t experiment_index,
                const ExperimentRecord& record) override;
  void OnSweepEnd() override;

 private:
  void Render(bool final);

  std::ostream& out_;
  std::chrono::milliseconds min_interval_;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point last_render_{};
  std::int64_t total_ = 0;
  std::int64_t done_ = 0;
};

// Fans every callback out to several sinks (non-owning), in order.
class TeeSink : public RecordSink {
 public:
  explicit TeeSink(std::vector<RecordSink*> sinks);

  void OnSweepBegin(const CampaignPlan& plan) override;
  void OnCampaignBegin(const CampaignBeginInfo& info) override;
  void OnRecord(const CampaignBeginInfo& info, std::int64_t experiment_index,
                const ExperimentRecord& record) override;
  void OnExperimentFailed(const CampaignBeginInfo& info,
                          const FailedRecord& failure) override;
  void OnCampaignEnd(const CampaignBeginInfo& info) override;
  void OnSweepEnd() override;

 private:
  std::vector<RecordSink*> sinks_;
};

// Discards everything — for timing runs where consumption cost must be 0.
class NullSink : public RecordSink {};

}  // namespace saffire
