#include "service/network_sweep.h"

#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "accel/config_json.h"
#include "common/json.h"
#include "common/log.h"
#include "common/strings.h"
#include "service/checkpoint.h"

namespace saffire {

namespace {

constexpr const char* kNetworkRungNames[] = {"appfi", "cycle-accurate"};

void WriteNetworkSpecJson(JsonWriter& w, const NetworkSpec& network) {
  w.BeginObject()
      .Key("kind").String(ToString(network.kind))
      .Key("batch").Int(network.batch)
      .Key("seed").Uint(network.seed)
      .Key("noise").Double(network.noise)
      .Key("extraction_k").Int(network.extraction_k)
      .Key("extraction_n").Int(network.extraction_n)
      .Key("hidden").Int(network.hidden)
      .Key("train_samples").Int(network.train_samples)
      .Key("train_epochs").Int(network.train_epochs)
      .Key("train_target").Double(network.train_target)
      .Key("conv_channels").Int(network.conv_channels)
      .EndObject();
}

NetworkSpec ParseNetworkSpecJson(const JsonValue& json) {
  static const std::set<std::string> kKnown = {
      "kind",         "batch",        "seed",
      "noise",        "extraction_k", "extraction_n",
      "hidden",       "train_samples", "train_epochs",
      "train_target", "conv_channels"};
  for (const auto& [key, value] : json.AsObject()) {
    (void)value;
    SAFFIRE_CHECK_MSG(kKnown.count(key) != 0,
                      "unknown network spec key '" << key << "'");
  }
  NetworkSpec network;
  network.kind = ParseNetworkKind(json.At("kind").AsString());
  network.batch = json.At("batch").AsInt();
  network.seed = json.At("seed").AsUint();
  network.noise = json.At("noise").AsDouble();
  network.extraction_k = json.At("extraction_k").AsInt();
  network.extraction_n = json.At("extraction_n").AsInt();
  network.hidden = json.At("hidden").AsInt();
  network.train_samples = json.At("train_samples").AsInt();
  network.train_epochs = json.At("train_epochs").AsInt();
  network.train_target = json.At("train_target").AsDouble();
  network.conv_channels = json.At("conv_channels").AsInt();
  return network;
}

}  // namespace

std::string ToString(NetworkRung rung) {
  const auto index = static_cast<std::size_t>(rung);
  SAFFIRE_ASSERT_MSG(index < std::size(kNetworkRungNames),
                     "network rung " << static_cast<int>(index));
  return kNetworkRungNames[index];
}

NetworkRung ParseNetworkRung(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kNetworkRungNames); ++i) {
    if (name == kNetworkRungNames[i]) return static_cast<NetworkRung>(i);
  }
  SAFFIRE_CHECK_MSG(false, "unknown network rung '"
                               << name
                               << "' (expected appfi|cycle-accurate)");
}

std::size_t NetworkSweepSpec::CampaignCount() const {
  return dataflows.size() * signals.size() * polarities.size() *
         bits.size() * layers.size() * mitigations.size();
}

void NetworkSweepSpec::Validate() const {
  accel.Validate();
  network.Validate();
  SAFFIRE_CHECK_MSG(!dataflows.empty(), "network sweep has no dataflows");
  SAFFIRE_CHECK_MSG(!signals.empty(), "network sweep has no signals");
  SAFFIRE_CHECK_MSG(!polarities.empty(), "network sweep has no polarities");
  SAFFIRE_CHECK_MSG(!bits.empty(), "network sweep has no bit positions");
  SAFFIRE_CHECK_MSG(!layers.empty(), "network sweep has no layer scopes");
  const std::int64_t layer_count = NetworkLayerCount(network.kind);
  for (const int layer : layers) {
    SAFFIRE_CHECK_MSG(layer >= -1 && layer < layer_count,
                      "layer scope " << layer << " out of range for a "
                                     << ToString(network.kind) << " network ("
                                     << layer_count << " layers; -1 = all)");
  }
  SAFFIRE_CHECK_MSG(!mitigations.empty(), "network sweep has no mitigations");
  SAFFIRE_CHECK_MSG(max_sites >= 0, "max_sites=" << max_sites);
  SAFFIRE_CHECK_MSG(perturb.bit >= 0 && perturb.bit < 32,
                    "perturb bit=" << perturb.bit);
  for (const MitigationPolicy mitigation : mitigations) {
    if (!MitigationNeedsPredictor(mitigation)) continue;
    // Remap/prune plans are derived from the analytical predictor
    // (PredictPattern), regardless of the execution rung — so every swept
    // signal must be predictor-covered when such a policy is on the axis.
    for (const MacSignal signal : signals) {
      SAFFIRE_CHECK_MSG(signal == MacSignal::kMulOut ||
                            signal == MacSignal::kAdderOut ||
                            signal == MacSignal::kWeightOperand,
                        "mitigation " << ToString(mitigation)
                                      << " plans from the predictor, which "
                                         "does not cover signal "
                                      << ToString(signal));
    }
  }
  if (rung == NetworkRung::kAppFi) {
    // The appfi rung derives corruption from the analytical predictor,
    // which only covers the PE-local signals; forwarding-signal sweeps must
    // run cycle-accurate.
    for (const MacSignal signal : signals) {
      SAFFIRE_CHECK_MSG(signal == MacSignal::kMulOut ||
                            signal == MacSignal::kAdderOut ||
                            signal == MacSignal::kWeightOperand,
                        "signal " << ToString(signal)
                                  << " is not predictor-covered; use the "
                                     "cycle-accurate rung");
    }
  }
  // Fault bit positions are validated per FaultSpec against the signal's
  // width when each campaign's faults are built, same as SweepSpec.
}

std::string NetworkSweepSpec::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("accel");
  WriteAccelJson(w, accel);
  w.Key("network");
  WriteNetworkSpecJson(w, network);
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
  w.Key("layers").BeginArray();
  for (const int layer : layers) w.Int(layer);
  w.EndArray();
  w.Key("mitigations").BeginArray();
  for (const MitigationPolicy mitigation : mitigations) {
    w.String(ToString(mitigation));
  }
  w.EndArray();
  w.Key("max_sites").Int(max_sites)
      .Key("seed").Uint(seed)
      .Key("rung").String(ToString(rung))
      .Key("abft").Bool(abft)
      .Key("perturb_mode")
      .String(perturb_auto ? "auto" : ToString(perturb.mode))
      .Key("perturb_bit").Int(perturb.bit)
      .Key("perturb_delta").Int(perturb.delta)
      .EndObject();
  return os.str();
}

NetworkSweepSpec ParseNetworkSweepSpec(const std::string& json) {
  const JsonValue root = JsonValue::Parse(json);
  // Same policy as ParseSweepSpec: a typo'd key must fail loudly instead of
  // silently sweeping a default axis.
  static const std::set<std::string> kKnown = {
      "accel",     "network", "dataflows",    "signals",
      "polarities", "bits",   "layers",       "mitigations",
      "max_sites", "seed",    "rung",         "abft",
      "perturb_mode", "perturb_bit", "perturb_delta"};
  for (const auto& [key, value] : root.AsObject()) {
    (void)value;
    SAFFIRE_CHECK_MSG(kKnown.count(key) != 0,
                      "unknown network sweep spec key '" << key << "'");
  }

  NetworkSweepSpec spec;
  spec.accel = ParseAccelJson(root.At("accel"));
  spec.network = ParseNetworkSpecJson(root.At("network"));
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
  spec.layers.clear();
  for (const JsonValue& layer : root.At("layers").AsArray()) {
    spec.layers.push_back(NarrowInt<int>(layer.AsInt()));
  }
  spec.mitigations.clear();
  for (const JsonValue& mitigation : root.At("mitigations").AsArray()) {
    spec.mitigations.push_back(ParseMitigationPolicy(mitigation.AsString()));
  }
  spec.max_sites = root.At("max_sites").AsInt();
  spec.seed = root.At("seed").AsUint();
  spec.rung = ParseNetworkRung(root.At("rung").AsString());
  spec.abft = root.At("abft").AsBool();
  const std::string& mode = root.At("perturb_mode").AsString();
  spec.perturb_auto = mode == "auto";
  if (!spec.perturb_auto) spec.perturb.mode = ParsePerturbMode(mode);
  spec.perturb.bit = NarrowInt<int>(root.At("perturb_bit").AsInt());
  spec.perturb.delta =
      NarrowInt<std::int32_t>(root.At("perturb_delta").AsInt());
  spec.Validate();
  return spec;
}

NetworkCampaignPlan BuildNetworkCampaignPlan(const NetworkSweepSpec& spec) {
  spec.Validate();
  NetworkCampaignPlan plan;
  for (const Dataflow dataflow : spec.dataflows) {
    for (const MacSignal signal : spec.signals) {
      for (const StuckPolarity polarity : spec.polarities) {
        for (const int bit : spec.bits) {
          for (const int layer : spec.layers) {
            for (const MitigationPolicy mitigation : spec.mitigations) {
              NetworkCampaign campaign;
              campaign.dataflow = dataflow;
              campaign.signal = signal;
              campaign.polarity = polarity;
              campaign.bit = bit;
              campaign.layer = layer;
              campaign.mitigation = mitigation;
              plan.campaigns.push_back(campaign);
            }
          }
        }
      }
    }
  }
  // CampaignSites' selection, shared by every campaign so that per-class
  // comparisons across campaigns are paired.
  plan.sites = SampleSites(spec.accel.array, spec.max_sites, spec.seed);
  return plan;
}

std::string NetworkCampaignKey(const NetworkSweepSpec& spec,
                               const NetworkCampaign& campaign) {
  // CampaignKey's philosophy: serialize every field that feeds the records.
  // The execution rung is excluded — all rungs are contracted to produce
  // RungEquivalent records, which is what lets a cycle-accurate resume
  // finish an appfi checkpoint after a demotion.
  const NetworkSpec& n = spec.network;
  std::ostringstream key;
  key << spec.accel.Key()
      << ';' << static_cast<int>(n.kind) << ',' << n.batch << ',' << n.seed
      << ',' << n.noise << ';' << n.extraction_k << ',' << n.extraction_n
      << ';' << n.hidden << ',' << n.train_samples << ',' << n.train_epochs
      << ',' << n.train_target << ';' << n.conv_channels << ';'
      << static_cast<int>(campaign.dataflow) << ','
      << static_cast<int>(campaign.signal) << ','
      << static_cast<int>(campaign.polarity) << ',' << campaign.bit << ','
      << campaign.layer << ','
      << static_cast<int>(campaign.mitigation) << ';'
      << spec.max_sites << ',' << spec.seed << ';'
      << spec.abft << ';'
      << (spec.perturb_auto
              ? std::string("auto")
              : ToString(spec.perturb.mode) + "," +
                    std::to_string(spec.perturb.bit) + "," +
                    std::to_string(spec.perturb.delta));
  return key.str();
}

std::string NetworkSweepHash(const NetworkSweepSpec& spec) {
  // Over a versioned domain prefix + the spec JSON (the full spec, rung
  // included: a resume must describe the same sweep document, even though
  // records themselves are rung-invariant).
  return Fnv1aHex("saffire-network-sweep-v1;" + spec.ToJson());
}

bool RungEquivalent(const NetworkRecord& a, const NetworkRecord& b) {
  NetworkRecord left = a;
  NetworkRecord right = b;
  left.rung = right.rung;
  return left == right;
}

// --- Sinks ------------------------------------------------------------------

void NetworkCsvSink::OnSweepBegin(const NetworkSweepSpec& spec,
                                  const NetworkCampaignPlan& plan) {
  (void)spec;
  campaigns_ = plan.campaigns;
  out_ << "campaign,experiment,dataflow,signal,polarity,bit,layer,mitigation,"
          "pe_row,pe_col,pattern,corrupted,sdc,top1_flips,correct_golden,"
          "correct_faulty,abft_diagnosis,abft_corrections,abft_corrected,"
          "mit_corrupted,mit_sdc,mit_top1_flips,mit_correct_faulty\n";
}

void NetworkCsvSink::OnRecord(const NetworkRecord& record) {
  SAFFIRE_CHECK_MSG(record.campaign_index < campaigns_.size(),
                    "record for campaign " << record.campaign_index
                                           << " before OnSweepBegin");
  const NetworkCampaign& campaign = campaigns_[record.campaign_index];
  out_ << record.campaign_index << ',' << record.experiment_index << ','
       << ToString(campaign.dataflow) << ',' << ToString(campaign.signal)
       << ',' << ToString(campaign.polarity) << ',' << campaign.bit << ','
       << campaign.layer << ',' << ToString(campaign.mitigation) << ','
       << record.fault.pe.row << ','
       << record.fault.pe.col << ',' << ToString(record.pattern) << ','
       << record.corrupted_elements << ',' << (record.sdc ? 1 : 0) << ','
       << record.top1_flips << ',' << record.correct_golden << ','
       << record.correct_faulty << ',' << ToString(record.abft_diagnosis)
       << ',' << record.abft_corrections << ','
       << (record.abft_corrected ? 1 : 0) << ','
       << record.mit_corrupted << ',' << (record.mit_sdc ? 1 : 0) << ','
       << record.mit_top1_flips << ',' << record.mit_correct_faulty << '\n';
}

void NetworkJsonlSink::OnSweepBegin(const NetworkSweepSpec& spec,
                                    const NetworkCampaignPlan& plan) {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("network-sweep")
      .Key("hash").String(NetworkSweepHash(spec))
      .Key("campaigns").Uint(plan.campaigns.size())
      .Key("experiments").Int(plan.total_experiments())
      .Key("spec").String(spec.ToJson())
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/false);
}

void NetworkJsonlSink::OnCampaignBegin(const NetworkCampaignInfo& info) {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("network-campaign")
      .Key("campaign").Uint(info.index)
      .Key("key").String(info.key)
      .Key("experiments").Int(info.experiments)
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/false);
}

void NetworkJsonlSink::OnRecord(const NetworkRecord& record) {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("network-record")
      .Key("campaign").Uint(record.campaign_index)
      .Key("experiment").Int(record.experiment_index)
      .Key("pe_row").Int(record.fault.pe.row)
      .Key("pe_col").Int(record.fault.pe.col)
      .Key("signal").Int(static_cast<int>(record.fault.signal))
      .Key("bit").Int(record.fault.bit)
      .Key("polarity").Int(static_cast<int>(record.fault.polarity))
      .Key("rung").String(ToString(record.rung))
      .Key("pattern").Int(static_cast<int>(record.pattern))
      .Key("pattern_class").String(ToString(record.pattern))
      .Key("corrupted").Int(record.corrupted_elements)
      .Key("sdc").Bool(record.sdc)
      .Key("top1_flips").Int(record.top1_flips)
      .Key("batch").Int(record.batch)
      .Key("correct_golden").Int(record.correct_golden)
      .Key("correct_faulty").Int(record.correct_faulty)
      .Key("abft_on").Bool(record.abft_on)
      .Key("abft_diagnosis").Int(static_cast<int>(record.abft_diagnosis))
      .Key("abft_corrections").Int(record.abft_corrections)
      .Key("abft_corrected").Bool(record.abft_corrected)
      .Key("mit_sdc").Bool(record.mit_sdc)
      .Key("mit_corrupted").Int(record.mit_corrupted)
      .Key("mit_top1_flips").Int(record.mit_top1_flips)
      .Key("mit_correct_faulty").Int(record.mit_correct_faulty)
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/true);
}

void NetworkJsonlSink::OnExperimentFailed(const NetworkFailedRecord& failed) {
  // Sealed like every checkpoint line, but deliberately an unknown type to
  // LoadNetworkCheckpoint: a quarantined experiment carries no result, so a
  // resume naturally re-simulates it.
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("network-failed")
      .Key("campaign").Uint(failed.campaign_index)
      .Key("experiment").Int(failed.experiment_index)
      .Key("rung").String(ToString(failed.rung))
      .Key("attempts").Int(failed.attempts)
      .Key("timed_out").Bool(failed.timed_out)
      .Key("error").String(failed.error)
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/true);
}

void NetworkJsonlSink::OnSweepEnd(const SweepOutcome& outcome) {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("network-sweep-end")
      .Key("records").Int(outcome.records)
      .Key("quarantined").Int(outcome.quarantined)
      .Key("retries").Int(outcome.retries)
      .Key("timeouts").Int(outcome.timeouts)
      .Key("fallbacks").Int(outcome.fallbacks)
      .Key("selfchecks").Int(outcome.selfchecks)
      .Key("selfcheck_mismatches").Int(outcome.selfcheck_mismatches)
      .Key("stopped").Bool(outcome.stopped)
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/true);
}

// --- Checkpoint loading -----------------------------------------------------

namespace {

NetworkRecord ParseNetworkRecordLine(const JsonValue& json) {
  NetworkRecord record;
  record.campaign_index =
      static_cast<std::size_t>(json.At("campaign").AsUint());
  record.experiment_index = json.At("experiment").AsInt();
  record.fault.kind = FaultKind::kStuckAt;
  record.fault.pe.row = NarrowInt<std::int32_t>(json.At("pe_row").AsInt());
  record.fault.pe.col = NarrowInt<std::int32_t>(json.At("pe_col").AsInt());
  const std::int64_t signal = json.At("signal").AsInt();
  SAFFIRE_CHECK_MSG(signal >= 0 && signal < kNumMacSignals,
                    "signal " << signal << " out of range");
  record.fault.signal = static_cast<MacSignal>(signal);
  record.fault.bit = NarrowInt<int>(json.At("bit").AsInt());
  const std::int64_t polarity = json.At("polarity").AsInt();
  SAFFIRE_CHECK_MSG(polarity == 0 || polarity == 1,
                    "polarity " << polarity << " out of range");
  record.fault.polarity = static_cast<StuckPolarity>(polarity);
  record.rung = ParseNetworkRung(json.At("rung").AsString());
  const std::int64_t pattern = json.At("pattern").AsInt();
  SAFFIRE_CHECK_MSG(pattern >= 0 && pattern < kNumPatternClasses,
                    "pattern class " << pattern << " out of range");
  record.pattern = static_cast<PatternClass>(pattern);
  record.corrupted_elements = json.At("corrupted").AsInt();
  record.sdc = json.At("sdc").AsBool();
  record.top1_flips = json.At("top1_flips").AsInt();
  record.batch = json.At("batch").AsInt();
  record.correct_golden = json.At("correct_golden").AsInt();
  record.correct_faulty = json.At("correct_faulty").AsInt();
  record.abft_on = json.At("abft_on").AsBool();
  const std::int64_t diagnosis = json.At("abft_diagnosis").AsInt();
  SAFFIRE_CHECK_MSG(
      diagnosis >= 0 &&
          diagnosis <= static_cast<std::int64_t>(AbftDiagnosis::kComplex),
      "abft diagnosis " << diagnosis << " out of range");
  record.abft_diagnosis = static_cast<AbftDiagnosis>(diagnosis);
  record.abft_corrections = json.At("abft_corrections").AsInt();
  record.abft_corrected = json.At("abft_corrected").AsBool();
  record.mit_sdc = json.At("mit_sdc").AsBool();
  record.mit_corrupted = json.At("mit_corrupted").AsInt();
  record.mit_top1_flips = json.At("mit_top1_flips").AsInt();
  record.mit_correct_faulty = json.At("mit_correct_faulty").AsInt();
  return record;
}

}  // namespace

NetworkCheckpoint LoadNetworkCheckpoint(std::istream& in) {
  NetworkCheckpoint checkpoint;
  const auto apply = [&checkpoint](const JsonValue& json) {
    const std::string& type = json.At("type").AsString();
    if (type == "network-sweep") {
      const std::string& hash = json.At("hash").AsString();
      SAFFIRE_CHECK_MSG(
          checkpoint.sweep_hash.empty() || checkpoint.sweep_hash == hash,
          "header for a different sweep (hash mismatch)");
      checkpoint.sweep_hash = hash;
    } else if (type == "network-campaign") {
      const auto index =
          static_cast<std::size_t>(json.At("campaign").AsUint());
      const std::string& key = json.At("key").AsString();
      const auto [slot, inserted] =
          checkpoint.campaign_keys.emplace(index, key);
      SAFFIRE_CHECK_MSG(inserted || slot->second == key,
                        "campaign " << index
                                    << " appears twice with different keys");
    } else if (type == "network-record") {
      NetworkRecord record = ParseNetworkRecordLine(json);
      checkpoint.records[{record.campaign_index, record.experiment_index}] =
          record;
      return true;
    }
    // "network-failed", "network-sweep-end" and unknown future types carry
    // no resumable state.
    return false;
  };
  checkpoint.lines_dropped =
      ReadSealedLines(in, "network checkpoint", apply).dropped;
  return checkpoint;
}

void ValidateNetworkCheckpoint(const NetworkCheckpoint& checkpoint,
                               const NetworkSweepSpec& spec,
                               const NetworkCampaignPlan& plan) {
  SAFFIRE_CHECK_MSG(
      checkpoint.sweep_hash.empty() ||
          checkpoint.sweep_hash == NetworkSweepHash(spec),
      "checkpoint was produced by a different network sweep (hash mismatch)");
  for (const auto& [index, key] : checkpoint.campaign_keys) {
    SAFFIRE_CHECK_MSG(index < plan.campaigns.size(),
                      "checkpoint has campaign " << index << " but the plan"
                      << " has only " << plan.campaigns.size());
    SAFFIRE_CHECK_MSG(key == NetworkCampaignKey(spec, plan.campaigns[index]),
                      "checkpoint campaign "
                          << index
                          << " was produced by a different sweep than the "
                             "plan's (key mismatch)");
  }
  for (const auto& [coords, record] : checkpoint.records) {
    (void)record;
    SAFFIRE_CHECK_MSG(coords.first < plan.campaigns.size(),
                      "checkpoint record for campaign " << coords.first
                                                        << " out of range");
    SAFFIRE_CHECK_MSG(coords.second >= 0 &&
                          coords.second < plan.experiments_per_campaign(),
                      "checkpoint record for experiment "
                          << coords.second << " out of range");
  }
}

}  // namespace saffire
