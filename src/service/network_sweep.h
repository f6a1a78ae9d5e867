// Network-level sweep planning: the end-to-end analogue of service/sweep.h.
// Where a SweepSpec sweeps stuck-at faults over one operator and records
// corruption maps, a NetworkSweepSpec sweeps them over the layers of a
// whole quantized network (dnn/network.h) and records what the corruption
// does to the application — SDC, top-1 flips, accuracy degradation —
// classified by the paper's pattern classes, plus ABFT detection/correction
// coverage when mitigation is enabled.
//
// Two execution rungs realize each experiment:
//   kAppFi          — the fast tensor-level path the paper proposes for
//                     application-level injectors: clean host GEMMs with
//                     the predicted fault reach perturbed in (appfi/appfi.h);
//   kCycleAccurate  — ground truth: the faulty simulated accelerator runs
//                     every in-scope layer, and the real corrupted tensors
//                     feed forward.
// RunNetworkSweep (service/network_run.h) cross-validates the fast rung
// against ground truth with seed-deterministic selfcheck sampling and
// demotes a campaign to the cycle-accurate rung on any mismatch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "appfi/appfi.h"
#include "dnn/network.h"
#include "mitigation/abft.h"
#include "mitigation/remap.h"
#include "patterns/classify.h"
#include "service/resilience.h"

namespace saffire {

// Which engine realizes the network experiments.
enum class NetworkRung : std::uint8_t {
  kAppFi = 0,
  kCycleAccurate = 1,
};

std::string ToString(NetworkRung rung);

// Parses exactly the ToString names; throws std::invalid_argument naming
// the accepted values ("appfi|cycle-accurate") otherwise.
NetworkRung ParseNetworkRung(const std::string& name);

// The cartesian fault-model axes of one network sweep. Every axis must be
// non-empty; single-element axes pin that dimension. The fault model is the
// paper's: one permanent stuck-at per experiment (transient strikes need
// per-run cycle planning and stay at the operator level).
struct NetworkSweepSpec {
  AccelConfig accel;
  NetworkSpec network;
  std::vector<Dataflow> dataflows{Dataflow::kWeightStationary};
  std::vector<MacSignal> signals{MacSignal::kAdderOut};
  std::vector<StuckPolarity> polarities{StuckPolarity::kStuckAt1};
  std::vector<int> bits{8};
  // Injection scopes: each entry is either a 0-based layer index (the fault
  // is active only while that layer's GEMM runs — a per-layer fault study)
  // or -1 (the fault is active for the whole network — a true permanent
  // fault).
  std::vector<int> layers{-1};
  // Graceful-degradation axis (mitigation/remap.h): for every policy other
  // than kNone each experiment runs a baseline and a mitigated inference
  // and records the recovered-accuracy / residual-SDC deltas. The
  // remap/prune policies plan from the analytical predictor, so they
  // require predictor-covered signals on either rung.
  std::vector<MitigationPolicy> mitigations{MitigationPolicy::kNone};

  // Site selection per campaign: 0 = exhaustive, else uniform sample.
  std::int64_t max_sites = 0;
  std::uint64_t seed = 1;
  NetworkRung rung = NetworkRung::kAppFi;
  // Run every in-scope layer's GEMM through ABFT verify-and-correct
  // (mitigation/abft.h) and record per-class coverage.
  bool abft = false;
  // Perturbation the appfi rung applies to predicted coordinates.
  // perturb_auto derives it from each fault (set/clear the fault's bit per
  // polarity — PerturbForFault); otherwise `perturb` applies verbatim.
  bool perturb_auto = true;
  PerturbSpec perturb;

  // Campaigns this spec expands to (the axis product).
  std::size_t CampaignCount() const;

  // Throws std::invalid_argument on empty axes, out-of-range layer
  // indices, or invalid members.
  void Validate() const;

  // JSON round-trip. Enums serialize as their ToString names
  // (perturb_mode additionally accepts "auto"); ParseNetworkSweepSpec
  // accepts exactly what ToJson emits and rejects unknown keys.
  std::string ToJson() const;
};

NetworkSweepSpec ParseNetworkSweepSpec(const std::string& json);

// One expanded campaign: a fault axis cell. Sites are shared across
// campaigns (same array, same seed) and live on the plan.
struct NetworkCampaign {
  Dataflow dataflow = Dataflow::kWeightStationary;
  MacSignal signal = MacSignal::kAdderOut;
  StuckPolarity polarity = StuckPolarity::kStuckAt1;
  int bit = 8;
  int layer = -1;  // -1 = whole network
  MitigationPolicy mitigation = MitigationPolicy::kNone;
};

struct NetworkCampaignPlan {
  std::vector<NetworkCampaign> campaigns;  // canonical axis order
  std::vector<PeCoord> sites;              // per-campaign experiment sites

  std::int64_t experiments_per_campaign() const {
    return static_cast<std::int64_t>(sites.size());
  }
  std::int64_t total_experiments() const {
    return static_cast<std::int64_t>(campaigns.size()) *
           experiments_per_campaign();
  }
};

NetworkCampaignPlan BuildNetworkCampaignPlan(const NetworkSweepSpec& spec);

// Serializes every field that determines a campaign's records — the
// identity guard network checkpoints store so a resume against a different
// sweep is rejected instead of silently merged.
std::string NetworkCampaignKey(const NetworkSweepSpec& spec,
                               const NetworkCampaign& campaign);

// FNV-1a 64-bit hash (16 lowercase hex chars) of the spec JSON under a
// versioned domain prefix — the whole-sweep identity stamped on checkpoint
// header lines.
std::string NetworkSweepHash(const NetworkSweepSpec& spec);

// One completed network experiment.
struct NetworkRecord {
  std::size_t campaign_index = 0;
  std::int64_t experiment_index = -1;
  FaultSpec fault;
  // Rung that actually produced this record (demotion can differ from the
  // spec's rung). Excluded from the CSV sink so rung-equivalent sweeps
  // diff byte-identically.
  NetworkRung rung = NetworkRung::kAppFi;

  // Fault manifestation at the first in-scope layer, in GEMM view.
  PatternClass pattern = PatternClass::kMasked;
  std::int64_t corrupted_elements = 0;

  // Network-level outcome. `sdc` is any final-logit deviation from golden;
  // correct_* are right-label counts over the batch (-1 when the network
  // has no labels, e.g. kExtraction).
  bool sdc = false;
  std::int64_t top1_flips = 0;
  std::int64_t batch = 0;
  std::int64_t correct_golden = -1;
  std::int64_t correct_faulty = -1;

  // ABFT coverage (meaningful when the sweep ran with abft = true).
  bool abft_on = false;
  AbftDiagnosis abft_diagnosis = AbftDiagnosis::kClean;  // worst layer
  std::int64_t abft_corrections = 0;
  // Every flagged layer re-verified clean after correction.
  bool abft_corrected = false;

  // Mitigated-run outcome (campaign.mitigation != kNone; sentinels
  // otherwise). The mitigated inference re-runs the experiment with the
  // campaign's LayerMitigationPlans applied; these fields are its residual
  // damage, so (mit_correct_faulty - correct_faulty) is the recovered
  // accuracy and mit_corrupted the residual first-layer corruption after
  // remapping/pruning/correction.
  bool mit_sdc = false;
  std::int64_t mit_corrupted = 0;
  std::int64_t mit_top1_flips = 0;
  std::int64_t mit_correct_faulty = -1;

  bool operator==(const NetworkRecord&) const = default;
};

// True when the two records agree on everything an execution rung is
// contracted to reproduce (all fields except `rung` itself).
bool RungEquivalent(const NetworkRecord& a, const NetworkRecord& b);

// --- Record sinks -----------------------------------------------------------
// The network analogue of service/sink.h, with the same streaming
// discipline: begin/record/end callbacks in canonical order, all on the
// thread that called RunNetworkSweep, single sweep at a time.

struct NetworkCampaignInfo {
  std::size_t index = 0;
  NetworkCampaign campaign;
  std::string key;
  std::int64_t experiments = 0;
};

// One quarantined network experiment — the network analogue of
// FailedRecord, with the execution rung in place of the operator engine.
struct NetworkFailedRecord {
  std::size_t campaign_index = 0;
  std::int64_t experiment_index = -1;
  // Rung of the final attempt (the bottom of the ladder reached).
  NetworkRung rung = NetworkRung::kCycleAccurate;
  // Total attempts spent across both rungs.
  int attempts = 0;
  bool timed_out = false;
  // what() of the final failure.
  std::string error;
};

class NetworkRecordSink {
 public:
  virtual ~NetworkRecordSink() = default;
  virtual void OnSweepBegin(const NetworkSweepSpec& spec,
                            const NetworkCampaignPlan& plan) {
    (void)spec;
    (void)plan;
  }
  virtual void OnCampaignBegin(const NetworkCampaignInfo& info) {
    (void)info;
  }
  virtual void OnRecord(const NetworkRecord& record) { (void)record; }
  // A quarantined experiment (retries exhausted under on_failure =
  // kQuarantine). Delivered in canonical position — where OnRecord would
  // have been.
  virtual void OnExperimentFailed(const NetworkFailedRecord& failed) {
    (void)failed;
  }
  virtual void OnCampaignEnd(std::size_t campaign_index) {
    (void)campaign_index;
  }
  virtual void OnSweepEnd(const SweepOutcome& outcome) { (void)outcome; }
};

// Accumulates every record in memory.
class NetworkCollectorSink : public NetworkRecordSink {
 public:
  void OnRecord(const NetworkRecord& record) override {
    records.push_back(record);
  }
  void OnExperimentFailed(const NetworkFailedRecord& failed) override {
    failures.push_back(failed);
  }
  std::vector<NetworkRecord> records;
  std::vector<NetworkFailedRecord> failures;
};

// Streams records as CSV (header + one row per record, canonical order).
// The rung column is deliberately absent — see NetworkRecord::rung.
class NetworkCsvSink : public NetworkRecordSink {
 public:
  explicit NetworkCsvSink(std::ostream& out) : out_(out) {}
  void OnSweepBegin(const NetworkSweepSpec& spec,
                    const NetworkCampaignPlan& plan) override;
  void OnRecord(const NetworkRecord& record) override;

 private:
  std::ostream& out_;
  // Rows carry the campaign's axes, which live on the plan.
  std::vector<NetworkCampaign> campaigns_;
};

// Streams the sweep as CRC-sealed JSONL (WriteSealedLine,
// service/checkpoint.h) — the checkpoint format LoadNetworkCheckpoint reads
// back. Line types: "network-sweep" (header, spec hash), "network-campaign"
// (key guard), "network-record", "network-failed" (quarantine marker;
// carries no resumable result, so the loader skips it and a resume
// re-simulates the experiment) and "network-sweep-end". Like
// JsonlRecordSink, record, failed and end lines are flushed as they are
// written.
class NetworkJsonlSink : public NetworkRecordSink {
 public:
  explicit NetworkJsonlSink(std::ostream& out) : out_(out) {}
  void OnSweepBegin(const NetworkSweepSpec& spec,
                    const NetworkCampaignPlan& plan) override;
  void OnCampaignBegin(const NetworkCampaignInfo& info) override;
  void OnRecord(const NetworkRecord& record) override;
  void OnExperimentFailed(const NetworkFailedRecord& failed) override;
  void OnSweepEnd(const SweepOutcome& outcome) override;

 private:
  std::ostream& out_;
};

// Fans every callback out to several sinks in order.
class NetworkTeeSink : public NetworkRecordSink {
 public:
  explicit NetworkTeeSink(std::vector<NetworkRecordSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void OnSweepBegin(const NetworkSweepSpec& spec,
                    const NetworkCampaignPlan& plan) override {
    for (NetworkRecordSink* sink : sinks_) sink->OnSweepBegin(spec, plan);
  }
  void OnCampaignBegin(const NetworkCampaignInfo& info) override {
    for (NetworkRecordSink* sink : sinks_) sink->OnCampaignBegin(info);
  }
  void OnRecord(const NetworkRecord& record) override {
    for (NetworkRecordSink* sink : sinks_) sink->OnRecord(record);
  }
  void OnExperimentFailed(const NetworkFailedRecord& failed) override {
    for (NetworkRecordSink* sink : sinks_) sink->OnExperimentFailed(failed);
  }
  void OnCampaignEnd(std::size_t campaign_index) override {
    for (NetworkRecordSink* sink : sinks_) sink->OnCampaignEnd(campaign_index);
  }
  void OnSweepEnd(const SweepOutcome& outcome) override {
    for (NetworkRecordSink* sink : sinks_) sink->OnSweepEnd(outcome);
  }

 private:
  std::vector<NetworkRecordSink*> sinks_;
};

// --- Checkpoint loading -----------------------------------------------------

struct NetworkCheckpoint {
  // Records by (campaign, experiment); duplicates keep the last line.
  std::map<std::pair<std::size_t, std::int64_t>, NetworkRecord> records;
  // Campaign keys seen (for the resume identity guard).
  std::map<std::size_t, std::string> campaign_keys;
  std::string sweep_hash;  // from the header line; empty if none survived
  std::int64_t lines_dropped = 0;

  bool empty() const { return records.empty(); }
};

// Reads a stream of NetworkJsonlSink lines through ReadSealedLines
// (service/checkpoint.h). Never throws on malformed, truncated, or
// seal-failing lines — they are counted in lines_dropped and skipped, so a
// checkpoint cut mid-line resumes cleanly.
NetworkCheckpoint LoadNetworkCheckpoint(std::istream& in);

// Resume identity guard: throws std::invalid_argument when the checkpoint
// carries a different sweep hash or a campaign key that disagrees with the
// plan's.
void ValidateNetworkCheckpoint(const NetworkCheckpoint& checkpoint,
                               const NetworkSweepSpec& spec,
                               const NetworkCampaignPlan& plan);

}  // namespace saffire
