#include "service/sweep.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "accel/config_json.h"
#include "common/json.h"
#include "common/strings.h"

namespace saffire {

void WriteWorkloadJson(JsonWriter& w, const WorkloadSpec& workload) {
  w.BeginObject()
      .Key("name").String(workload.name)
      .Key("op").String(ToString(workload.op));
  if (workload.op == OpType::kGemm) {
    w.Key("m").Int(workload.m).Key("k").Int(workload.k).Key("n").Int(
        workload.n);
  } else {
    w.Key("conv").BeginObject()
        .Key("batch").Int(workload.conv.batch)
        .Key("in_channels").Int(workload.conv.in_channels)
        .Key("height").Int(workload.conv.height)
        .Key("width").Int(workload.conv.width)
        .Key("out_channels").Int(workload.conv.out_channels)
        .Key("kernel_h").Int(workload.conv.kernel_h)
        .Key("kernel_w").Int(workload.conv.kernel_w)
        .Key("stride").Int(workload.conv.stride)
        .Key("pad").Int(workload.conv.pad)
        .EndObject();
    w.Key("lowering").String(ToString(workload.lowering));
  }
  w.Key("input_fill").String(ToString(workload.input_fill))
      .Key("weight_fill").String(ToString(workload.weight_fill))
      .Key("data_seed").Uint(workload.data_seed)
      .EndObject();
}

WorkloadSpec ParseWorkloadJson(const JsonValue& json) {
  WorkloadSpec workload;
  workload.name = json.At("name").AsString();
  workload.op = OpTypeFromString(json.At("op").AsString());
  if (workload.op == OpType::kGemm) {
    workload.m = json.At("m").AsInt();
    workload.k = json.At("k").AsInt();
    workload.n = json.At("n").AsInt();
  } else {
    const JsonValue& conv = json.At("conv");
    workload.conv.batch = conv.At("batch").AsInt();
    workload.conv.in_channels = conv.At("in_channels").AsInt();
    workload.conv.height = conv.At("height").AsInt();
    workload.conv.width = conv.At("width").AsInt();
    workload.conv.out_channels = conv.At("out_channels").AsInt();
    workload.conv.kernel_h = conv.At("kernel_h").AsInt();
    workload.conv.kernel_w = conv.At("kernel_w").AsInt();
    workload.conv.stride = conv.At("stride").AsInt();
    workload.conv.pad = conv.At("pad").AsInt();
    workload.lowering = ConvLoweringFromString(json.At("lowering").AsString());
  }
  workload.input_fill =
      OperandFillFromString(json.At("input_fill").AsString());
  workload.weight_fill =
      OperandFillFromString(json.At("weight_fill").AsString());
  workload.data_seed = json.At("data_seed").AsUint();
  return workload;
}

std::size_t SweepSpec::CampaignCount() const {
  return workloads.size() * dataflows.size() * signals.size() *
         polarities.size() * bits.size();
}

void SweepSpec::Validate() const {
  accel.Validate();
  SAFFIRE_CHECK_MSG(!workloads.empty(), "sweep has no workloads");
  SAFFIRE_CHECK_MSG(!dataflows.empty(), "sweep has no dataflows");
  SAFFIRE_CHECK_MSG(!signals.empty(), "sweep has no signals");
  SAFFIRE_CHECK_MSG(!polarities.empty(), "sweep has no polarities");
  SAFFIRE_CHECK_MSG(!bits.empty(), "sweep has no bit positions");
  SAFFIRE_CHECK_MSG(shards >= 1 && shards <= 4096, "shards=" << shards);
  SAFFIRE_CHECK_MSG(max_sites >= 0, "max_sites=" << max_sites);
  for (const WorkloadSpec& workload : workloads) workload.Validate();
  // Bit positions are checked per campaign, against its signal's width,
  // by PrepareCampaign: a sweep may cross a bit with a signal too narrow
  // for it, and only that cell's campaigns fail (quarantined at
  // preparation under OnFailure::kQuarantine) while the rest run.
}

std::string SweepSpec::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("accel");
  WriteAccelJson(w, accel);
  w.Key("workloads").BeginArray();
  for (const WorkloadSpec& workload : workloads) {
    WriteWorkloadJson(w, workload);
  }
  w.EndArray();
  w.Key("dataflows").BeginArray();
  for (const Dataflow dataflow : dataflows) w.String(ToString(dataflow));
  w.EndArray();
  w.Key("signals").BeginArray();
  for (const MacSignal signal : signals) w.String(ToString(signal));
  w.EndArray();
  w.Key("polarities").BeginArray();
  for (const StuckPolarity polarity : polarities) {
    w.String(ToString(polarity));
  }
  w.EndArray();
  w.Key("bits").BeginArray();
  for (const int bit : bits) w.Int(bit);
  w.EndArray();
  w.Key("kind").String(ToString(kind))
      .Key("max_sites").Int(max_sites)
      .Key("seed").Uint(seed)
      .Key("engine").String(ToString(engine))
      .Key("shards").Int(shards)
      .EndObject();
  return os.str();
}

SweepSpec ParseSweepSpec(const std::string& json) {
  const JsonValue root = JsonValue::Parse(json);
  // Reject unknown keys so a typo ("polarity" for "polarities") fails loudly
  // instead of silently sweeping the default axis. "symmetry" is the legacy
  // folding switch: older spec files still load, and its value is ignored.
  static const std::set<std::string> kKnown = {
      "accel", "workloads", "dataflows", "signals", "polarities", "bits",
      "kind",  "max_sites", "seed",      "engine",  "shards", "symmetry"};
  for (const auto& [key, value] : root.AsObject()) {
    (void)value;
    SAFFIRE_CHECK_MSG(kKnown.count(key) != 0,
                      "unknown sweep spec key '" << key << "'");
  }

  SweepSpec spec;
  spec.accel = ParseAccelJson(root.At("accel"));
  spec.workloads.clear();
  for (const JsonValue& workload : root.At("workloads").AsArray()) {
    spec.workloads.push_back(ParseWorkloadJson(workload));
  }
  spec.dataflows.clear();
  for (const JsonValue& dataflow : root.At("dataflows").AsArray()) {
    spec.dataflows.push_back(DataflowFromString(dataflow.AsString()));
  }
  spec.signals.clear();
  for (const JsonValue& signal : root.At("signals").AsArray()) {
    spec.signals.push_back(MacSignalFromString(signal.AsString()));
  }
  spec.polarities.clear();
  for (const JsonValue& polarity : root.At("polarities").AsArray()) {
    spec.polarities.push_back(StuckPolarityFromString(polarity.AsString()));
  }
  spec.bits.clear();
  for (const JsonValue& bit : root.At("bits").AsArray()) {
    spec.bits.push_back(NarrowInt<int>(bit.AsInt()));
  }
  spec.kind = FaultKindFromString(root.At("kind").AsString());
  spec.max_sites = root.At("max_sites").AsInt();
  spec.seed = root.At("seed").AsUint();
  spec.engine = ParseCampaignEngine(root.At("engine").AsString());
  spec.shards = NarrowInt<int>(root.At("shards").AsInt());
  spec.Validate();
  return spec;
}

std::int64_t CampaignPlan::total_experiments() const {
  std::int64_t total = 0;
  for (const std::int64_t count : site_counts) total += count;
  return total;
}

namespace {

// Appends one campaign and its shard partition to the plan.
void AppendCampaign(CampaignPlan& plan, const CampaignConfig& config,
                    int shard_count) {
  const std::size_t index = plan.campaigns.size();
  plan.campaigns.push_back(config);
  const auto sites =
      static_cast<std::int64_t>(CampaignSites(config).size());
  plan.site_counts.push_back(sites);
  const auto shards = static_cast<std::int64_t>(
      std::min<std::int64_t>(shard_count, std::max<std::int64_t>(sites, 1)));
  for (std::int64_t s = 0; s < shards; ++s) {
    PlannedShard shard;
    shard.campaign_index = index;
    shard.shard_index = static_cast<int>(s);
    shard.begin = sites * s / shards;
    shard.end = sites * (s + 1) / shards;
    plan.shards.push_back(shard);
  }
}

void AppendSpec(CampaignPlan& plan, const SweepSpec& spec) {
  spec.Validate();
  for (const WorkloadSpec& workload : spec.workloads) {
    for (const Dataflow dataflow : spec.dataflows) {
      for (const MacSignal signal : spec.signals) {
        for (const StuckPolarity polarity : spec.polarities) {
          for (const int bit : spec.bits) {
            CampaignConfig config;
            config.accel = spec.accel;
            config.workload = workload;
            config.dataflow = dataflow;
            config.signal = signal;
            config.polarity = polarity;
            config.bit = bit;
            config.kind = spec.kind;
            config.max_sites = spec.max_sites;
            config.seed = spec.seed;
            config.engine = spec.engine;
            AppendCampaign(plan, config, spec.shards);
          }
        }
      }
    }
  }
}

}  // namespace

CampaignPlan BuildCampaignPlan(const SweepSpec& spec) {
  CampaignPlan plan;
  AppendSpec(plan, spec);
  return plan;
}

CampaignPlan BuildCampaignPlan(const std::vector<SweepSpec>& specs) {
  SAFFIRE_CHECK_MSG(!specs.empty(), "empty sweep list");
  CampaignPlan plan;
  for (const SweepSpec& spec : specs) AppendSpec(plan, spec);
  return plan;
}

CampaignPlan SingleCampaignPlan(const CampaignConfig& config) {
  CampaignPlan plan;
  AppendCampaign(plan, config, 1);
  return plan;
}

std::string CampaignKey(const CampaignConfig& config) {
  // Every field that feeds the records, explicitly, so two configs collide
  // iff their campaigns are bit-identical. The workload name is excluded
  // (it does not affect the data); the engine is excluded too, because all
  // engines produce identical records by contract.
  std::ostringstream key;
  key << config.accel.Key() << ';' << static_cast<int>(config.dataflow)
      << ';' << config.workload.Key() << ';'
      << static_cast<int>(config.kind) << ','
      << static_cast<int>(config.signal) << ',' << config.bit << ','
      << static_cast<int>(config.polarity) << ';' << config.max_sites << ','
      << config.seed;
  return key.str();
}

std::string CampaignContentHash(const CampaignConfig& config) {
  // The versioned domain prefix means a future key-format change moves
  // every address instead of aliasing old cache entries.
  return Fnv1aHex("saffire-campaign-v1;" + CampaignKey(config));
}

}  // namespace saffire
