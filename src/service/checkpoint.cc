#include "service/checkpoint.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/crc32.h"
#include "common/json.h"
#include "common/log.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace saffire {

// The raw byte sequence ,"crc":" cannot occur inside a JSON string literal
// (its quotes would be escaped), so the last occurrence is always the seal
// itself.
bool CheckpointLineCrcOk(const std::string& line) {
  const std::size_t pos = line.rfind(",\"crc\":\"");
  if (pos == std::string::npos) return true;
  // The seal is the line's final member: ,"crc":"xxxxxxxx"}
  const std::size_t hex = pos + 8;
  if (line.size() != hex + 10 || line.compare(hex + 8, 2, "\"}") != 0) {
    return false;
  }
  std::uint32_t stored = 0;
  for (std::size_t i = hex; i < hex + 8; ++i) {
    const char c = line[i];
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
    stored = stored * 16 +
             static_cast<std::uint32_t>(
                 c <= '9' ? c - '0'
                          : (c | 0x20) - 'a' + 10);
  }
  return stored == Crc32(std::string_view(line).substr(0, pos));
}

void WriteSealedLine(std::ostream& out, std::string_view body, bool flush) {
  // The loader re-derives the covered prefix by splitting at the last
  // ,"crc":" occurrence (CheckpointLineCrcOk).
  SAFFIRE_ASSERT_MSG(!body.empty() && body.back() == '}',
                     "sealing a non-object checkpoint line");
  const std::string_view prefix = body.substr(0, body.size() - 1);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(prefix));
  out << prefix << ",\"crc\":\"" << crc << "\"}\n";
  if (flush) {
    // A resumable line is only worth anything if it reaches the disk
    // before a crash.
    static obs::Counter& flushes = obs::MetricsRegistry::Default().GetCounter(
        "saffire.sink.jsonl_flushes",
        "explicit stream flushes issued by JSONL sinks (checkpoint "
        "durability)");
    out << std::flush;
    flushes.Increment();
  }
}

CheckpointLoadStats ReadSealedLines(
    std::istream& in, const char* label,
    const std::function<bool(const JsonValue&)>& apply) {
  CheckpointLoadStats counts;
  std::string line;
  std::int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    ++counts.lines;
    if (!CheckpointLineCrcOk(line)) {
      ++counts.dropped;
      SAFFIRE_LOG_WARN << label << " line " << line_number
                       << " failed its CRC seal, dropping it";
      continue;
    }
    try {
      if (apply(JsonValue::Parse(line))) ++counts.records;
    } catch (const std::invalid_argument& error) {
      // Truncated tail (a run killed mid-write), bit-rotted interior line
      // that happened to keep or predate its seal, or content inconsistent
      // with preceding lines — either way the line cannot be trusted, and
      // re-simulating it is always safe.
      ++counts.dropped;
      SAFFIRE_LOG_WARN << label << " line " << line_number
                       << " dropped: " << error.what();
    }
  }
  if (counts.dropped > 0) {
    // Surfaced as a metric too, so monitored fleets see on-disk corruption
    // without scraping logs or the CLI's resume line.
    static obs::Counter& dropped_lines =
        obs::MetricsRegistry::Default().GetCounter(
            "saffire.checkpoint.dropped_lines",
            "corrupt or torn checkpoint lines dropped while loading");
    dropped_lines.Increment(counts.dropped);
    SAFFIRE_LOG_WARN << label << ": dropped " << counts.dropped << " of "
                     << counts.lines
                     << " lines; the affected experiments will be "
                        "re-simulated";
  }
  return counts;
}

namespace {

// Rehydrates one "record" line. Enum payloads are integers in the JSONL
// (stable across renames); each is range-checked so a corrupted file cannot
// smuggle out-of-range values into downstream switch statements.
ExperimentRecord ParseRecordLine(const JsonValue& json) {
  ExperimentRecord record;
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

  const std::int64_t kind = json.At("kind").AsInt();
  SAFFIRE_CHECK_MSG(kind == 0 || kind == 1, "kind " << kind << " out of range");
  record.fault.kind = static_cast<FaultKind>(kind);

  record.fault.at_cycle = json.At("at_cycle").AsInt();

  const std::int64_t observed = json.At("observed").AsInt();
  SAFFIRE_CHECK_MSG(observed >= 0 && observed < kNumPatternClasses,
                    "observed class " << observed << " out of range");
  record.observed = static_cast<PatternClass>(observed);

  const std::int64_t predicted = json.At("predicted").AsInt();
  SAFFIRE_CHECK_MSG(predicted >= 0 && predicted < kNumPatternClasses,
                    "predicted class " << predicted << " out of range");
  record.predicted = static_cast<PatternClass>(predicted);

  record.prediction_exact = json.At("prediction_exact").AsBool();
  record.observed_within_predicted =
      json.At("observed_within_predicted").AsBool();
  record.corrupted_count = json.At("corrupted_count").AsInt();
  record.max_abs_delta = json.At("max_abs_delta").AsInt();
  record.fault_activations = json.At("fault_activations").AsUint();
  record.cycles = json.At("cycles").AsInt();
  record.pe_steps = json.At("pe_steps").AsUint();
  record.pe_steps_skipped = json.At("pe_steps_skipped").AsUint();
  return record;
}

// Returns true when the line contributed a record (for CheckpointLoadStats).
bool ApplyLine(SweepCheckpoint& checkpoint, const JsonValue& json) {
  const std::string& type = json.At("type").AsString();
  if (type == "campaign") {
    // Parse every field before touching the checkpoint: a line that throws
    // halfway must leave no partial campaign behind (the loader drops such
    // lines, and a half-applied one would fail validation later).
    const auto index = static_cast<std::size_t>(json.At("campaign").AsUint());
    const std::string& key = json.At("key").AsString();
    const std::int64_t total_experiments = json.At("experiments").AsInt();
    const std::int64_t golden_cycles = json.At("golden_cycles").AsInt();
    const std::uint64_t golden_pe_steps = json.At("golden_pe_steps").AsUint();
    // Lines written before golden_cache_hit left the stream still carry it;
    // it described process history, not the campaign, so it is ignored.
    CheckpointCampaign& campaign = checkpoint.campaigns[index];
    SAFFIRE_CHECK_MSG(campaign.key.empty() || campaign.key == key,
                      "campaign " << index
                                  << " appears twice with different keys");
    campaign.key = key;
    campaign.total_experiments = total_experiments;
    campaign.golden_cycles = golden_cycles;
    campaign.golden_pe_steps = golden_pe_steps;
    return false;
  }
  if (type == "record") {
    const auto index = static_cast<std::size_t>(json.At("campaign").AsUint());
    const auto it = checkpoint.campaigns.find(index);
    SAFFIRE_CHECK_MSG(it != checkpoint.campaigns.end(),
                      "record for campaign " << index
                                             << " before its campaign line");
    const std::int64_t experiment = json.At("experiment").AsInt();
    const ExperimentRecord record = ParseRecordLine(json);
    const auto [slot, inserted] =
        it->second.records.emplace(experiment, record);
    SAFFIRE_CHECK_MSG(inserted || slot->second == record,
                      "conflicting duplicates of campaign "
                          << index << " experiment " << experiment);
    return true;
  }
  // Forward compatibility: "sweep"/"sweep_end"/"failed" markers and any
  // future line types carry no resumable state. Skipping "failed" is what
  // makes a resume retry quarantined sites.
  return false;
}

}  // namespace

void SweepCheckpoint::MergeFrom(const SweepCheckpoint& other) {
  for (const auto& [index, theirs] : other.campaigns) {
    const auto it = campaigns.find(index);
    if (it == campaigns.end()) {
      campaigns.emplace(index, theirs);
      continue;
    }
    CheckpointCampaign& ours = it->second;
    SAFFIRE_CHECK_MSG(ours.key == theirs.key,
                      "checkpoints disagree on campaign " << index
                                                          << "'s key");
    SAFFIRE_CHECK_MSG(
        ours.total_experiments == theirs.total_experiments,
        "checkpoints disagree on campaign " << index << "'s size");
    for (const auto& [experiment, record] : theirs.records) {
      const auto [slot, inserted] = ours.records.emplace(experiment, record);
      SAFFIRE_CHECK_MSG(inserted || slot->second == record,
                        "checkpoints conflict on campaign "
                            << index << " experiment " << experiment);
    }
  }
}

const ExperimentRecord* SweepCheckpoint::Find(
    std::size_t campaign_index, std::int64_t experiment_index) const {
  const auto campaign = campaigns.find(campaign_index);
  if (campaign == campaigns.end()) return nullptr;
  const auto record = campaign->second.records.find(experiment_index);
  return record == campaign->second.records.end() ? nullptr : &record->second;
}

std::int64_t SweepCheckpoint::TotalRecords() const {
  std::int64_t total = 0;
  for (const auto& [index, campaign] : campaigns) {
    total += static_cast<std::int64_t>(campaign.records.size());
  }
  return total;
}

SweepCheckpoint LoadSweepCheckpoint(std::istream& in,
                                    CheckpointLoadStats* stats) {
  SweepCheckpoint checkpoint;
  const CheckpointLoadStats counts =
      ReadSealedLines(in, "checkpoint", [&checkpoint](const JsonValue& json) {
        return ApplyLine(checkpoint, json);
      });
  if (stats != nullptr) *stats = counts;
  return checkpoint;
}

void ValidateCheckpoint(const SweepCheckpoint& checkpoint,
                        const CampaignPlan& plan) {
  for (const auto& [index, campaign] : checkpoint.campaigns) {
    SAFFIRE_CHECK_MSG(index < plan.campaigns.size(),
                      "checkpoint has campaign " << index << " but the plan"
                      << " has only " << plan.campaigns.size());
    SAFFIRE_CHECK_MSG(
        campaign.key == CampaignKey(plan.campaigns[index]),
        "checkpoint campaign " << index
                               << " was produced by a different config "
                                  "than the plan's (key mismatch)");
    SAFFIRE_CHECK_MSG(campaign.total_experiments == plan.site_counts[index],
                      "checkpoint campaign "
                          << index << " has " << campaign.total_experiments
                          << " experiments, plan expects "
                          << plan.site_counts[index]);
    for (const auto& [experiment, record] : campaign.records) {
      SAFFIRE_CHECK_MSG(experiment >= 0 &&
                            experiment < campaign.total_experiments,
                        "checkpoint campaign " << index << " experiment "
                                               << experiment
                                               << " out of range");
      (void)record;
    }
  }
}

}  // namespace saffire
