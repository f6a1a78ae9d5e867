// Operator workloads: Table I style campaign sweeps through RunSweep on a
// fresh two-thread CampaignExecutor (table1-closed-form,
// forwarding-replay).
#include <algorithm>
#include <fstream>
#include <memory>
#include <span>

#include "bench.h"
#include "common/rng.h"
#include "fi/golden_cache.h"
#include "patterns/campaign.h"
#include "service/run.h"
#include "service/sink.h"

namespace perfbench {
namespace {

using namespace saffire;

// The stuck bit of table1-closed-form: one of bits 4..12 (the seed's
// residue), bit 8 at the default seed 1.
int StuckBit(std::uint64_t seed) { return 4 + static_cast<int>((seed + 3) % 9); }

// Loads the workload's spec template (the CLI's --print-spec output) and
// applies the seed to the inputs it generates, and to nothing else.
SweepSpec LoadSpec(const Options& options) {
  SweepSpec spec = ParseSweepSpec(
      ReadFile(options.specs_dir + "/" + options.workload + ".json"));
  spec.seed = options.seed;
  if (options.workload == "table1-closed-form") {
    spec.bits = {StuckBit(options.seed)};
    if (options.smoke) {
      spec.workloads = {spec.workloads.at(0), spec.workloads.at(2)};
      spec.dataflows.resize(1);
      spec.signals.resize(1);
    }
  } else {
    for (WorkloadSpec& workload : spec.workloads) {
      workload.data_seed = options.seed;
    }
    if (options.smoke) {
      spec.workloads.resize(1);
      spec.dataflows.resize(1);
      spec.signals.resize(1);
    }
  }
  if (!options.engine_override.empty()) {
    spec.engine = ParseCampaignEngine(options.engine_override);
  }
  // Round-trip through JSON so the sweep is exactly what a spec file holds.
  return ParseSweepSpec(spec.ToJson());
}

// Closes the per-campaign digest of the sink bytes.
class MarkSink : public RecordSink {
 public:
  explicit MarkSink(DigestBuf& buf) : buf_(buf) {}
  void OnCampaignEnd(const CampaignBeginInfo& /*info*/) override {
    buf_.MarkCampaign();
  }

 private:
  DigestBuf& buf_;
};

// Times every callback into the wrapped sink as a "service.sink" span.
// Callbacks are serialized by the executor, so the log needs no lock.
class TimedSink : public RecordSink {
 public:
  TimedSink(RecordSink& inner, SpanLog& spans) : inner_(inner), spans_(spans) {}

  void OnSweepBegin(const CampaignPlan& plan) override {
    spans_.Time("service.sink", -1, -1, -1,
                [&] { inner_.OnSweepBegin(plan); });
  }
  void OnCampaignBegin(const CampaignBeginInfo& info) override {
    spans_.Time("service.sink", Id(info), -1, -1,
                [&] { inner_.OnCampaignBegin(info); });
  }
  void OnRecord(const CampaignBeginInfo& info, std::int64_t index,
                const ExperimentRecord& record) override {
    spans_.Time("service.sink", Id(info), index, index,
                [&] { inner_.OnRecord(info, index, record); });
  }
  void OnExperimentFailed(const CampaignBeginInfo& info,
                          const FailedRecord& failure) override {
    spans_.Time("service.sink", Id(info), failure.experiment_index,
                failure.experiment_index,
                [&] { inner_.OnExperimentFailed(info, failure); });
  }
  void OnCampaignEnd(const CampaignBeginInfo& info) override {
    spans_.Time("service.sink", Id(info), -1, -1,
                [&] { inner_.OnCampaignEnd(info); });
  }
  void OnSweepEnd() override {
    spans_.Time("service.sink", -1, -1, -1, [&] { inner_.OnSweepEnd(); });
  }

 private:
  static std::int64_t Id(const CampaignBeginInfo& info) {
    return static_cast<std::int64_t>(info.campaign_index);
  }

  RecordSink& inner_;
  SpanLog& spans_;
};

struct ColdSweep {
  double wall_s = 0.0;
  SweepOutcome outcome;
  std::int64_t experiments = 0;
  std::vector<CampaignResult> results;
  std::string digest;
  std::vector<std::string> campaign_digests;
  std::uint64_t sink_bytes = 0;
  ExecutorStats stats;
};

// One sweep from the state a fresh CLI process sees (after BeginColdSweep):
// new executor, empty golden cache, no result cache, symmetry and selfcheck
// off. The timed window is the CLI's: plan, run, every record through the
// sink. With `spans`, the sink calls are timed.
ColdSweep RunColdSweep(const SweepSpec& spec, bool jsonl, SpanLog* spans) {
  CampaignExecutor executor(ExecutorOptions{.threads = kExecutorThreads});
  // A JSONL campaign line carries golden_cache_hit, which says whether this
  // campaign or a concurrently prepared sibling computed the shared golden
  // run first; it changes with scheduling, so those lines stay out of the
  // digest (record lines carry the campaign index and every result field).
  DigestBuf buf(jsonl ? "{\"type\":\"campaign\"" : "");
  std::ostream out(&buf);
  std::unique_ptr<RecordSink> format;
  if (jsonl) {
    format = std::make_unique<JsonlRecordSink>(out);
  } else {
    format = std::make_unique<CsvRecordSink>(out);
  }
  std::unique_ptr<TimedSink> timed;
  RecordSink* writer = format.get();
  if (spans != nullptr) {
    timed = std::make_unique<TimedSink>(*format, *spans);
    writer = timed.get();
  }
  CollectorSink collector;
  MarkSink mark(buf);
  TeeSink tee({&collector, writer, &mark});

  RunOptions options;
  options.executor = &executor;
  options.max_parallelism = kExecutorThreads;
  options.resilience.on_failure = OnFailure::kQuarantine;

  ColdSweep sweep;
  const Clock::time_point start = Clock::now();
  const CampaignPlan plan = BuildCampaignPlan(spec);
  sweep.outcome = RunSweep(plan, options, tee);
  sweep.wall_s = SecondsSince(start);
  sweep.experiments = plan.total_experiments();
  sweep.results = collector.TakeResults();
  sweep.digest = buf.digest();
  sweep.campaign_digests = buf.campaign_digests();
  sweep.sink_bytes = buf.bytes();
  sweep.stats = executor.stats();
  return sweep;
}

// Cold set-up a sweep pays before its first experiment: the plan and every
// campaign's preparation on an empty golden cache, serially.
double MeasureSetup(const SweepSpec& spec) {
  GoldenRunCache::Instance().Clear();
  const Clock::time_point start = Clock::now();
  const CampaignPlan plan = BuildCampaignPlan(spec);
  for (const CampaignConfig& config : plan.campaigns) {
    const PreparedCampaign prepared = PrepareCampaign(config);
  }
  return SecondsSince(start);
}

// Index of the first campaign whose records or sink bytes differ, or -1.
std::int64_t FirstDivergence(const ColdSweep& a, const ColdSweep& b) {
  const std::size_t n = std::max(a.results.size(), b.results.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (c >= a.results.size() || c >= b.results.size() ||
        a.results[c].records != b.results[c].records ||
        a.campaign_digests.at(c) != b.campaign_digests.at(c)) {
      return static_cast<std::int64_t>(c);
    }
  }
  return a.digest == b.digest ? -1 : static_cast<std::int64_t>(n);
}

// Re-runs one seed-chosen experiment per campaign on the differential
// engine (an independent rung) and compares it with the sweep's record.
void OracleCheck(const SweepSpec& spec, const ColdSweep& sweep,
                 std::uint64_t seed, Report& report) {
  const CampaignPlan plan = BuildCampaignPlan(spec);
  FiRunner runner(spec.accel);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t c = 0; c < plan.campaigns.size(); ++c) {
    const PreparedCampaign prepared = PrepareCampaign(plan.campaigns[c]);
    const auto index = static_cast<std::size_t>(
        rng.UniformInt(0, plan.site_counts[c] - 1));
    const ExperimentRecord expected = RunPreparedExperimentWithEngine(
        prepared, runner, index, CampaignEngine::kDifferential);
    if (sweep.results.at(c).records.at(index) != expected) {
      report.errors.push_back("campaign " + std::to_string(c) +
                              " experiment " + std::to_string(index) +
                              " differs from the differential engine");
      return;
    }
  }
}

std::string PlanHash(const SweepSpec& spec) {
  Fnv1a hash;
  for (const CampaignConfig& config : BuildCampaignPlan(spec).campaigns) {
    const std::string content = CampaignContentHash(config);
    hash.Update(content.data(), content.size());
  }
  return hash.Hex();
}

// The traced pass: one sweep with its sink timed and the executor's
// counters diffed, then a serial replay of the plan through the layer
// primitives on one FiRunner, whose records must equal the sweep's.
void TracedRun(const SweepSpec& spec, bool jsonl, const ColdSweep& reference,
               double untraced_wall_s, SpanLog& spans, Report& report) {
  Metrics& m = report.metrics;
  for (const auto& [name, unit] : PerLayerMetrics()) m[name] = {0.0, unit};

  spans.Time("service.plan", -1, -1, -1,
             [&] { return BuildCampaignPlan(spec); });

  const std::int64_t hits0 = CounterTotal("saffire.predict.hits");
  const std::int64_t residue0 = CounterTotal("saffire.predict.residue");
  const std::int64_t lanes0 = CounterTotal("saffire.simd.lanes_stepped");
  const std::int64_t busy0 = CounterTotal("saffire.executor.worker_busy_us");
  BeginColdSweep();
  const ColdSweep traced = spans.Time("service.sweep", -1, -1, -1, [&] {
    return RunColdSweep(spec, jsonl, &spans);
  });
  const double hits =
      static_cast<double>(CounterTotal("saffire.predict.hits") - hits0);
  const double residue =
      static_cast<double>(CounterTotal("saffire.predict.residue") - residue0);
  const double lanes =
      static_cast<double>(CounterTotal("saffire.simd.lanes_stepped") - lanes0);
  const double busy_us = static_cast<double>(
      CounterTotal("saffire.executor.worker_busy_us") - busy0);
  const std::int64_t diverged = FirstDivergence(reference, traced);
  if (diverged >= 0) {
    report.errors.push_back("traced sweep diverges at campaign " +
                            std::to_string(diverged));
  }

  m["service.sink_bytes"].value = static_cast<double>(traced.sink_bytes);
  m["service.worker_busy_frac"].value =
      busy_us / 1e6 / (kExecutorThreads * traced.wall_s);
  m["service.chunks_executed"].value =
      static_cast<double>(traced.stats.chunks_executed);
  m["service.chunks_stolen"].value =
      static_cast<double>(traced.stats.chunks_stolen);
  m["service.simulators_constructed"].value =
      static_cast<double>(traced.stats.simulators_constructed);
  m["fi.predict_hit_frac"].value =
      hits + residue > 0 ? hits / (hits + residue) : 0.0;
  std::uint64_t lanes_filled = 0;
  std::int64_t lane_slots = 0;
  std::uint64_t pe_steps = 0;
  std::uint64_t pe_steps_skipped = 0;
  for (const CampaignResult& result : traced.results) {
    lane_slots += static_cast<std::int64_t>(result.batches_run) *
                  result.config.batch_lanes;
    lanes_filled += result.lanes_filled;
    pe_steps += result.FaultyPeSteps();
    pe_steps_skipped += result.FaultyPeStepsSkipped();
  }
  m["fi.lane_occupancy"].value =
      lane_slots > 0 ? static_cast<double>(lanes_filled) /
                           static_cast<double>(lane_slots)
                     : 0.0;
  m["fi.pe_steps"].value = static_cast<double>(pe_steps);
  m["fi.pe_steps_skipped"].value = static_cast<double>(pe_steps_skipped);
  m["systolic.lanes_stepped"].value = lanes;
  m["obs.trace_overhead_frac"].value = traced.wall_s / untraced_wall_s - 1.0;

  // Serial replay through the primitives.
  GoldenRunCache::Instance().Clear();
  const CampaignPlan plan = BuildCampaignPlan(spec);
  FiRunner runner(spec.accel);
  for (std::size_t c = 0; c < plan.campaigns.size(); ++c) {
    const CampaignConfig& config = plan.campaigns[c];
    const auto ci = static_cast<std::int64_t>(c);
    spans.Time("fi.golden", ci, -1, -1, [&] {
      return GoldenRunCache::Instance().GetOrCompute(
          config.accel, config.workload, config.dataflow);
    });
    const PreparedCampaign prepared = spans.Time(
        "patterns.prepare", ci, -1, -1,
        [&] { return PrepareCampaign(config, &runner); });
    const std::size_t sites = prepared.faults.size();
    const auto lanes_per_group = static_cast<std::size_t>(config.batch_lanes);
    for (std::size_t begin = 0; begin < sites; begin += lanes_per_group) {
      const std::size_t end = std::min(sites, begin + lanes_per_group);
      const auto first = static_cast<std::int64_t>(begin);
      const auto last = static_cast<std::int64_t>(end) - 1;
      const std::span<const FaultSpec> faults(prepared.faults.data() + begin,
                                              end - begin);
      spans.Time("fi.engine", ci, first, last, [&] {
        return PredictedEngineExact(config)
                   ? runner.RunFaultyPredicted(config.workload,
                                               config.dataflow, faults,
                                               *prepared.trace(),
                                               prepared.golden())
                   : runner.RunFaultyBatch(config.workload, config.dataflow,
                                           faults, *prepared.trace(),
                                           prepared.golden());
      });
      const std::vector<ExperimentRecord> records =
          spans.Time("patterns.batch", ci, first, last, [&] {
            return RunPreparedBatch(prepared, runner, begin, end);
          });
      const std::vector<ExperimentRecord>& expected =
          reference.results.at(c).records;
      if (!std::equal(records.begin(), records.end(),
                      expected.begin() + first)) {
        report.errors.push_back("serial replay diverges at campaign " +
                                std::to_string(c));
        return;
      }
    }
  }

  const std::map<std::string, double> ms = spans.SelfMs();
  const auto total = [&ms](const char* name) {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : it->second;
  };
  m["service.plan_ms"].value = total("service.plan");
  m["service.sink_ms"].value = total("service.sink");
  m["fi.golden_ms"].value = total("fi.golden");
  m["fi.engine_ms"].value = total("fi.engine");
  m["patterns.prepare_ms"].value = total("patterns.prepare");
  m["patterns.record_ms"].value =
      total("patterns.batch") - total("fi.engine");
  m["fi.ns_per_pe_step"].value =
      pe_steps > 0 ? total("fi.engine") * 1e6 / static_cast<double>(pe_steps)
                   : 0.0;
  m["systolic.ns_per_lane_step"].value =
      lanes > 0 ? total("fi.engine") * 1e6 / lanes : 0.0;
}

}  // namespace

bool IsOperatorWorkload(const std::string& name) {
  return name == "table1-closed-form" || name == "forwarding-replay";
}

void RunOperatorWorkload(const Options& options, Report& report) {
  const SweepSpec spec = LoadSpec(options);
  const bool jsonl = options.workload == "forwarding-replay";
  report.manifest["spec_hash"] = PlanHash(spec);

  const ColdSweep first = MeasureColdSweeps(
      options, report, [&] { return MeasureSetup(spec); },
      [&] { return RunColdSweep(spec, jsonl, nullptr); }, FirstDivergence);

  OracleCheck(spec, first, options.seed, report);
  if (options.trace) {
    SpanLog spans;
    TracedRun(spec, jsonl, first, Median(report.samples["sweep_s"]), spans,
              report);
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      spans.WriteChromeTrace(out);
    }
  }
}

}  // namespace perfbench
