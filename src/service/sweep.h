// Sweep planning: the paper's evaluation is not one campaign but *sweeps*
// of hundreds of them (Sec. III-B — every signal × polarity × bit ×
// dataflow × workload; 49 h on the F1 FPGA). A SweepSpec makes that matrix
// data instead of a hand-written bench loop: it names the axes, expands to
// a CampaignPlan (one CampaignConfig per cartesian cell plus explicit shard
// ranges over fault sites), and serializes to JSON so a sweep can be
// version-controlled, shipped to a service endpoint, or split across
// processes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "patterns/campaign.h"

namespace saffire {

// JSON (de)serialization of one workload, shared by SweepSpec and
// NetworkSweepSpec (service/network_sweep.h) so spec files agree on one
// schema. The accelerator analogue lives in accel/config_json.h.
void WriteWorkloadJson(JsonWriter& w, const WorkloadSpec& workload);
WorkloadSpec ParseWorkloadJson(const JsonValue& json);

// The cartesian fault-model axes of one sweep. Every axis must be
// non-empty; single-element axes pin that dimension (a single campaign is
// the degenerate sweep with every axis pinned). Heterogeneous sweeps —
// e.g. Table I's per-row site sampling — are lists of specs; plans
// concatenate.
struct SweepSpec {
  AccelConfig accel;
  std::vector<WorkloadSpec> workloads;
  std::vector<Dataflow> dataflows{Dataflow::kWeightStationary};
  std::vector<MacSignal> signals{MacSignal::kAdderOut};
  std::vector<StuckPolarity> polarities{StuckPolarity::kStuckAt1};
  std::vector<int> bits{8};

  FaultKind kind = FaultKind::kStuckAt;
  // Site selection per campaign: 0 = exhaustive, else uniform sample.
  std::int64_t max_sites = 0;
  std::uint64_t seed = 1;
  CampaignEngine engine = CampaignEngine::kDifferential;
  // Shard ranges per campaign (for multi-process splits and partial runs);
  // executors subdivide further for load balance, so 1 is fine locally.
  int shards = 1;

  // Campaigns this spec expands to (the axis product).
  std::size_t CampaignCount() const;

  // Throws std::invalid_argument on empty axes or invalid members.
  void Validate() const;

  // JSON round-trip. Enums serialize as their ToString names so spec files
  // are hand-editable; ParseSweepSpec accepts exactly what ToJson emits
  // (unknown keys are rejected to catch typos early), plus the legacy
  // "symmetry" key of older spec files, whose value it ignores: eligible
  // campaigns always fold their sites (SymmetryEligibleCampaign).
  std::string ToJson() const;
};

SweepSpec ParseSweepSpec(const std::string& json);

// One contiguous range of a campaign's canonical site order. Shards of one
// campaign partition [0, sites); executing any subset of shards yields
// exactly those records, and the deterministic merge is concatenation.
struct PlannedShard {
  std::size_t campaign_index = 0;
  int shard_index = 0;  // within the campaign
  std::int64_t begin = 0;
  std::int64_t end = 0;  // exclusive
};

// A fully expanded sweep: campaigns in canonical order (spec order, then
// workload × dataflow × signal × polarity × bit, each axis in list order)
// and their shard ranges.
struct CampaignPlan {
  std::vector<CampaignConfig> campaigns;
  // Sites per campaign (the campaign's experiment count).
  std::vector<std::int64_t> site_counts;
  // Campaign-major: all shards of campaign 0, then campaign 1, ...
  std::vector<PlannedShard> shards;

  std::int64_t total_experiments() const;
};

CampaignPlan BuildCampaignPlan(const SweepSpec& spec);
CampaignPlan BuildCampaignPlan(const std::vector<SweepSpec>& specs);

// The one-campaign degenerate plan (tests and single-campaign tools).
CampaignPlan SingleCampaignPlan(const CampaignConfig& config);

// Serializes every field that determines a campaign's records — the
// identity guard checkpoints store so a resume against a different plan is
// rejected instead of silently merged (service/checkpoint.h).
std::string CampaignKey(const CampaignConfig& config);

// FNV-1a 64-bit hash of CampaignKey (16 lowercase hex chars) — the
// content address of a campaign's record set, invariant across engines,
// thread counts, site folding, and workload names (none affect the
// records).
// Used as the result cache's filename (service/result_cache.h); the cache
// re-verifies the full key on load, so a hash collision degrades to a miss,
// never to wrong records.
std::string CampaignContentHash(const CampaignConfig& config);

}  // namespace saffire
