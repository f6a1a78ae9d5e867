#include "service/sink.h"

#include <sstream>

#include "common/check.h"
#include "common/json.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "patterns/report.h"
#include "service/checkpoint.h"

namespace saffire {

namespace {

// Sink throughput counters in the default registry ("records/sec" is the
// rate query over these). Handles resolve once per process. One sweep's
// callbacks all run on its calling thread, but sweeps on different
// executors may run at once, hence the (relaxed) atomic counters.
obs::Counter& CsvRowsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.sink.csv_rows", "record rows written by CSV sinks");
  return counter;
}

obs::Counter& JsonlRecordsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.sink.jsonl_records", "record lines written by JSONL sinks");
  return counter;
}

}  // namespace

// --- CollectorSink ----------------------------------------------------------

void CollectorSink::OnCampaignBegin(const CampaignBeginInfo& info) {
  SAFFIRE_ASSERT_MSG(info.campaign_index == results_.size(),
                     "campaign " << info.campaign_index
                                 << " delivered out of order");
  CampaignResult result;
  result.config = *info.config;
  result.golden_cycles = info.golden_cycles;
  result.golden_pe_steps = info.golden_pe_steps;
  result.records.reserve(static_cast<std::size_t>(info.total_experiments));
  results_.push_back(std::move(result));
}

void CollectorSink::OnRecord(const CampaignBeginInfo& info,
                             std::int64_t experiment_index,
                             const ExperimentRecord& record) {
  CampaignResult& result = results_.at(info.campaign_index);
  // In-order delivery means indices arrive strictly increasing; a sharded
  // run may skip ranges, which leaves holes the CampaignResult API cannot
  // represent — the collector just concatenates what it sees.
  SAFFIRE_ASSERT_MSG(
      experiment_index >= static_cast<std::int64_t>(result.records.size()),
      "experiment " << experiment_index << " delivered out of order");
  result.records.push_back(record);
}

void CollectorSink::OnCampaignEnd(const CampaignBeginInfo& info) {
  // Lane occupancy is only known once every record has been published.
  CampaignResult& result = results_.at(info.campaign_index);
  result.lanes_filled = info.lanes_filled;
  result.batches_run = info.batches_run;
}

// --- CsvRecordSink ----------------------------------------------------------

CsvRecordSink::CsvRecordSink(std::ostream& out)
    : writer_(out, CampaignCsvHeader()) {}

void CsvRecordSink::OnRecord(const CampaignBeginInfo& info,
                             std::int64_t /*experiment_index*/,
                             const ExperimentRecord& record) {
  writer_.WriteRow(CampaignCsvRow(*info.config, record));
  CsvRowsCounter().Increment();
}

// --- JsonlRecordSink --------------------------------------------------------

void JsonlRecordSink::OnSweepBegin(const CampaignPlan& plan) {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("sweep")
      .Key("campaigns").Uint(plan.campaigns.size())
      .Key("experiments").Int(plan.total_experiments())
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/false);
}

void JsonlRecordSink::OnCampaignBegin(const CampaignBeginInfo& info) {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("campaign")
      .Key("campaign").Uint(info.campaign_index)
      .Key("key").String(CampaignKey(*info.config))
      .Key("experiments").Int(info.total_experiments)
      .Key("golden_cycles").Int(info.golden_cycles)
      .Key("golden_pe_steps").Uint(info.golden_pe_steps)
      .Key("config").String(info.config->ToString())
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/false);
}

void JsonlRecordSink::OnRecord(const CampaignBeginInfo& info,
                               std::int64_t experiment_index,
                               const ExperimentRecord& record) {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("record")
      .Key("campaign").Uint(info.campaign_index)
      .Key("experiment").Int(experiment_index)
      .Key("pe_row").Int(record.fault.pe.row)
      .Key("pe_col").Int(record.fault.pe.col)
      .Key("signal").Int(static_cast<int>(record.fault.signal))
      .Key("bit").Int(record.fault.bit)
      .Key("polarity").Int(static_cast<int>(record.fault.polarity))
      .Key("kind").Int(static_cast<int>(record.fault.kind))
      .Key("at_cycle").Int(record.fault.at_cycle)
      .Key("observed").Int(static_cast<int>(record.observed))
      .Key("observed_class").String(ToString(record.observed))
      .Key("predicted").Int(static_cast<int>(record.predicted))
      .Key("prediction_exact").Bool(record.prediction_exact)
      .Key("observed_within_predicted").Bool(record.observed_within_predicted)
      .Key("corrupted_count").Int(record.corrupted_count)
      .Key("max_abs_delta").Int(record.max_abs_delta)
      .Key("fault_activations").Uint(record.fault_activations)
      .Key("cycles").Int(record.cycles)
      .Key("pe_steps").Uint(record.pe_steps)
      .Key("pe_steps_skipped").Uint(record.pe_steps_skipped)
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/true);
  JsonlRecordsCounter().Increment();
}

void JsonlRecordSink::OnExperimentFailed(const CampaignBeginInfo& info,
                                         const FailedRecord& failure) {
  // The quarantine stream rides in the same file. The loader ignores
  // "failed" lines when rebuilding records, so a resumed sweep re-simulates
  // quarantined sites — exactly the semantics a transient failure wants.
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject()
      .Key("type").String("failed")
      .Key("campaign").Uint(info.campaign_index)
      .Key("experiment").Int(failure.experiment_index)
      .Key("engine").String(ToString(failure.engine))
      .Key("attempts").Int(failure.attempts)
      .Key("timed_out").Bool(failure.timed_out)
      .Key("error").String(failure.error)
      .EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/true);
}

void JsonlRecordSink::OnSweepEnd() {
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject().Key("type").String("sweep_end").EndObject();
  WriteSealedLine(out_, line.str(), /*flush=*/true);
}

// --- ProgressSink -----------------------------------------------------------

void ProgressSink::OnSweepBegin(const CampaignPlan& plan) {
  total_ = plan.total_experiments();
  done_ = 0;
  start_ = std::chrono::steady_clock::now();
  last_render_ = start_ - min_interval_;
}

void ProgressSink::OnRecord(const CampaignBeginInfo& /*info*/,
                            std::int64_t /*experiment_index*/,
                            const ExperimentRecord& /*record*/) {
  ++done_;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_render_ < min_interval_) return;
  last_render_ = now;
  Render(/*final=*/false);
}

void ProgressSink::OnSweepEnd() { Render(/*final=*/true); }

void ProgressSink::Render(bool final) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start_);
  const double seconds = static_cast<double>(elapsed.count()) / 1000.0;
  const double percent =
      total_ == 0 ? 100.0
                  : 100.0 * static_cast<double>(done_) /
                        static_cast<double>(total_);
  out_ << '\r' << done_ << '/' << total_ << " experiments ("
       << FormatDouble(percent, 1) << "%), " << FormatDouble(seconds, 1)
       << "s elapsed";
  if (!final && done_ > 0 && total_ > done_) {
    const double eta = seconds * static_cast<double>(total_ - done_) /
                       static_cast<double>(done_);
    out_ << ", ETA " << FormatDouble(eta, 1) << "s";
  }
  if (final) out_ << '\n';
  out_ << std::flush;
}

// --- TeeSink ----------------------------------------------------------------

TeeSink::TeeSink(std::vector<RecordSink*> sinks) : sinks_(std::move(sinks)) {
  for (RecordSink* sink : sinks_) {
    SAFFIRE_CHECK_MSG(sink != nullptr, "null sink in tee");
  }
}

void TeeSink::OnSweepBegin(const CampaignPlan& plan) {
  for (RecordSink* sink : sinks_) sink->OnSweepBegin(plan);
}

void TeeSink::OnCampaignBegin(const CampaignBeginInfo& info) {
  for (RecordSink* sink : sinks_) sink->OnCampaignBegin(info);
}

void TeeSink::OnRecord(const CampaignBeginInfo& info,
                       std::int64_t experiment_index,
                       const ExperimentRecord& record) {
  for (RecordSink* sink : sinks_) {
    sink->OnRecord(info, experiment_index, record);
  }
}

void TeeSink::OnExperimentFailed(const CampaignBeginInfo& info,
                                 const FailedRecord& failure) {
  for (RecordSink* sink : sinks_) sink->OnExperimentFailed(info, failure);
}

void TeeSink::OnCampaignEnd(const CampaignBeginInfo& info) {
  for (RecordSink* sink : sinks_) sink->OnCampaignEnd(info);
}

void TeeSink::OnSweepEnd() {
  for (RecordSink* sink : sinks_) sink->OnSweepEnd();
}

}  // namespace saffire
