// Network workloads: whole-network campaigns through RunNetworkSweep
// (cnn-cycle on the cycle-accurate rung, mlp-appfi on the appfi rung).
#include <algorithm>
#include <fstream>
#include <memory>

#include "accel/controller.h"
#include "accel/driver.h"
#include "bench.h"
#include "common/rng.h"
#include "fi/injector.h"
#include "mitigation/abft.h"
#include "patterns/corruption.h"
#include "service/network_run.h"
#include "tensor/gemm.h"

namespace perfbench {
namespace {

using namespace saffire;

// Loads the spec template (the CLI's --print-spec output) and applies the
// seed to site sampling only; the network weights keep their own seed, so
// training cost does not swing with the benchmark seed.
NetworkSweepSpec LoadSpec(const Options& options) {
  NetworkSweepSpec spec = ParseNetworkSweepSpec(
      ReadFile(options.specs_dir + "/" + options.workload + ".json"));
  spec.seed = options.seed;
  if (options.smoke) {
    spec.max_sites = options.workload == "cnn-cycle" ? 4 : 8;
    spec.layers.resize(1);
    if (spec.mitigations.size() > 1) {
      spec.mitigations = {spec.mitigations.front(), spec.mitigations.back()};
    }
  }
  return ParseNetworkSweepSpec(spec.ToJson());
}

// Collects records, closes per-campaign digests, and stamps the time of
// OnSweepBegin (the end of the sweep's set-up) and of every OnRecord.
class ProbeSink : public NetworkRecordSink {
 public:
  explicit ProbeSink(DigestBuf& buf) : buf_(buf) {}

  void OnSweepBegin(const NetworkSweepSpec& /*spec*/,
                    const NetworkCampaignPlan& /*plan*/) override {
    begin = Clock::now();
  }
  void OnRecord(const NetworkRecord& record) override {
    records.push_back(record);
    record_times.push_back(Clock::now());
  }
  void OnCampaignEnd(std::size_t /*campaign_index*/) override {
    buf_.MarkCampaign();
  }

  Clock::time_point begin{};
  std::vector<NetworkRecord> records;
  std::vector<Clock::time_point> record_times;

 private:
  DigestBuf& buf_;
};

// Times every callback into the wrapped sink as a "service.sink" span.
class TimedSink : public NetworkRecordSink {
 public:
  TimedSink(NetworkRecordSink& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}

  void OnSweepBegin(const NetworkSweepSpec& spec,
                    const NetworkCampaignPlan& plan) override {
    spans_.Time("service.sink", -1, -1, -1,
                [&] { inner_.OnSweepBegin(spec, plan); });
  }
  void OnCampaignBegin(const NetworkCampaignInfo& info) override {
    spans_.Time("service.sink", static_cast<std::int64_t>(info.index), -1, -1,
                [&] { inner_.OnCampaignBegin(info); });
  }
  void OnRecord(const NetworkRecord& record) override {
    spans_.Time("service.sink",
                static_cast<std::int64_t>(record.campaign_index),
                record.experiment_index, record.experiment_index,
                [&] { inner_.OnRecord(record); });
  }
  void OnExperimentFailed(const NetworkFailedRecord& failed) override {
    spans_.Time("service.sink",
                static_cast<std::int64_t>(failed.campaign_index),
                failed.experiment_index, failed.experiment_index,
                [&] { inner_.OnExperimentFailed(failed); });
  }
  void OnCampaignEnd(std::size_t campaign_index) override {
    spans_.Time("service.sink", static_cast<std::int64_t>(campaign_index), -1,
                -1, [&] { inner_.OnCampaignEnd(campaign_index); });
  }
  void OnSweepEnd(const SweepOutcome& outcome) override {
    spans_.Time("service.sink", -1, -1, -1,
                [&] { inner_.OnSweepEnd(outcome); });
  }

 private:
  NetworkRecordSink& inner_;
  SpanLog& spans_;
};

struct ColdSweep {
  double wall_s = 0.0;
  SweepOutcome outcome;
  std::int64_t experiments = 0;
  std::vector<NetworkRecord> records;
  std::vector<double> record_gaps_ms;
  std::string digest;
  std::vector<std::string> campaign_digests;
  std::uint64_t sink_bytes = 0;
};

// One serial network sweep into the CSV sink, as dnn_cli runs it. With
// `spans`, the sink calls are timed.
ColdSweep RunColdSweep(const NetworkSweepSpec& spec, SpanLog* spans) {
  DigestBuf buf;
  std::ostream out(&buf);
  NetworkCsvSink csv(out);
  std::unique_ptr<TimedSink> timed;
  NetworkRecordSink* writer = &csv;
  if (spans != nullptr) {
    timed = std::make_unique<TimedSink>(csv, *spans);
    writer = timed.get();
  }
  ProbeSink probe(buf);
  NetworkTeeSink tee({writer, &probe});

  NetworkRunOptions options;
  options.resilience.on_failure = OnFailure::kQuarantine;

  ColdSweep sweep;
  const Clock::time_point start = Clock::now();
  sweep.outcome = RunNetworkSweep(spec, options, tee);
  sweep.wall_s = SecondsSince(start);
  sweep.experiments = static_cast<std::int64_t>(spec.CampaignCount()) *
                      BuildNetworkCampaignPlan(spec).experiments_per_campaign();
  Clock::time_point previous = probe.begin;
  for (const Clock::time_point at : probe.record_times) {
    sweep.record_gaps_ms.push_back(
        std::chrono::duration<double, std::milli>(at - previous).count());
    previous = at;
  }
  sweep.records = std::move(probe.records);
  sweep.digest = buf.digest();
  sweep.campaign_digests = buf.campaign_digests();
  sweep.sink_bytes = buf.bytes();
  return sweep;
}

// The cold set-up RunNetworkSweep pays before OnSweepBegin, through the
// same public calls: validation, the plan, PreparedNetwork (training and
// quantization) and the golden inference on the host GEMM.
double MeasureSetup(const NetworkSweepSpec& spec) {
  const Clock::time_point start = Clock::now();
  spec.Validate();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  const PreparedNetwork network(spec.network);
  const PreparedNetwork::Inference golden = network.Run(
      [](int /*layer*/, const Int8Tensor& a, const Int8Tensor& b) {
        return GemmRef(a, b);
      });
  return SecondsSince(start);
}

std::int64_t FirstDivergence(const ColdSweep& a, const ColdSweep& b) {
  const std::size_t n =
      std::max(a.campaign_digests.size(), b.campaign_digests.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (c >= a.campaign_digests.size() || c >= b.campaign_digests.size() ||
        a.campaign_digests[c] != b.campaign_digests[c]) {
      return static_cast<std::int64_t>(c);
    }
  }
  return a.digest == b.digest && a.records == b.records
             ? -1
             : static_cast<std::int64_t>(n);
}

// The fault-free state every experiment replay starts from.
struct Golden {
  std::unique_ptr<PreparedNetwork> network;
  PreparedNetwork::Inference inference;
  // Per-layer GEMM operands of the golden inference.
  std::vector<Int8Tensor> a;
  std::vector<Int8Tensor> b;
};

Golden PrepareGolden(const NetworkSweepSpec& spec, SpanLog& spans) {
  Golden golden;
  golden.network = spans.Time("dnn.prepare", -1, -1, -1, [&] {
    return std::make_unique<PreparedNetwork>(spec.network);
  });
  const auto layers = static_cast<std::size_t>(golden.network->layer_count());
  golden.a.assign(layers, Int8Tensor{{1, 1}});
  golden.b.assign(layers, Int8Tensor{{1, 1}});
  golden.inference = spans.Time("dnn.golden", -1, -1, -1, [&] {
    return golden.network->Run(
        [&golden](int layer, const Int8Tensor& a, const Int8Tensor& b) {
          golden.a[static_cast<std::size_t>(layer)] = a;
          golden.b[static_cast<std::size_t>(layer)] = b;
          return GemmRef(a, b);
        });
  });
  return golden;
}

// Replays one recorded experiment through the modules' public calls, each
// timed as a span carrying the experiment's (campaign, experiment) id, and
// checks the first in-scope layer's corruption against the record. Returns
// an error message, or "" when the record is reproduced.
std::string ReplayExperiment(const NetworkSweepSpec& spec,
                             const NetworkCampaignPlan& plan,
                             const Golden& golden, const NetworkRecord& record,
                             SpanLog& spans) {
  const NetworkCampaign& campaign = plan.campaigns.at(record.campaign_index);
  const PreparedNetwork& network = *golden.network;
  const auto ci = static_cast<std::int64_t>(record.campaign_index);
  const std::int64_t ei = record.experiment_index;
  const auto time = [&](const char* name, auto&& fn) {
    return spans.Time(name, ci, ei, ei, fn);
  };
  const auto in_scope = [&campaign](int layer) {
    return campaign.layer == -1 || campaign.layer == layer;
  };
  const int first_scope = campaign.layer == -1 ? 0 : campaign.layer;

  FaultSpec fault;
  fault.kind = FaultKind::kStuckAt;
  fault.pe = plan.sites.at(static_cast<std::size_t>(ei));
  fault.signal = campaign.signal;
  fault.bit = campaign.bit;
  fault.polarity = campaign.polarity;

  std::vector<LayerMitigationPlan> plans;
  if (campaign.mitigation != MitigationPolicy::kNone) {
    plans.resize(static_cast<std::size_t>(network.layer_count()));
    for (int layer = 0; layer < network.layer_count(); ++layer) {
      if (!in_scope(layer)) continue;
      const auto l = static_cast<std::size_t>(layer);
      plans[l] = time("mitigation.plan", [&] {
        return PlanLayerMitigation(
            campaign.mitigation, network.layer_workload(layer), spec.accel,
            campaign.dataflow, fault, network.channel_salience(layer),
            &golden.b[l]);
      });
    }
  }

  AppFiSpec fi_spec;
  fi_spec.accel = spec.accel;
  fi_spec.dataflow = campaign.dataflow;
  fi_spec.perturb = spec.perturb;
  const NetworkFi injector(fi_spec);
  std::unique_ptr<Accelerator> accelerator;
  std::unique_ptr<Driver> driver;
  FaultInjector hook({fault}, spec.accel.array);
  ExecOptions exec;
  exec.dataflow = campaign.dataflow;
  if (record.rung == NetworkRung::kCycleAccurate) {
    accelerator = time("accel.construct", [&] {
      return std::make_unique<Accelerator>(spec.accel);
    });
    driver = std::make_unique<Driver>(*accelerator);
  }

  const LayerGemm physical = [&](int layer, const Int8Tensor& a,
                                 const Int8Tensor& b) {
    const WorkloadSpec& workload = network.layer_workload(layer);
    if (accelerator != nullptr) {
      if (in_scope(layer)) accelerator->array().InstallFaultHook(&hook);
      Int32Tensor out = time(
          workload.name == "conv" ? "accel.gemm.conv" : "accel.gemm.dense",
          [&] { return driver->Gemm(a, b, exec); });
      accelerator->array().ClearFaultHook();
      return out;
    }
    Int32Tensor out = time("tensor.gemm_ref", [&] { return GemmRef(a, b); });
    if (!in_scope(layer)) return out;
    return time("appfi.inject", [&] {
      return spec.perturb_auto ? injector.InjectForFault(out, workload, fault)
                               : injector.Inject(out, workload, fault);
    });
  };

  Int32Tensor first{{1, 1}};
  bool captured = false;
  const LayerGemm observed = [&](int layer, const Int8Tensor& a,
                                 const Int8Tensor& b) {
    Int32Tensor out = physical(layer, a, b);
    if (layer == first_scope && !captured) {
      first = out;
      captured = true;
    }
    if (spec.abft) {
      (void)time("mitigation.abft",
                 [&] { return VerifyAndCorrect(a, b, out); });
    }
    return out;
  };
  const PreparedNetwork::Inference faulty =
      time("dnn.inference", [&] { return network.Run(observed); });

  const ClassifyContext context = MakeClassifyContext(
      network.layer_workload(first_scope), spec.accel, campaign.dataflow);
  const auto [count, pattern] = time("patterns.classify", [&] {
    const CorruptionMap map = ExtractCorruption(
        golden.inference.layer_outputs[static_cast<std::size_t>(first_scope)],
        first);
    return std::make_pair(map.count(), Classify(map, context));
  });
  if (count != record.corrupted_elements || pattern != record.pattern ||
      (faulty.logits == golden.inference.logits) == record.sdc) {
    return "campaign " + std::to_string(ci) + " experiment " +
           std::to_string(ei) + " does not replay (corrupted " +
           std::to_string(count) + " vs recorded " +
           std::to_string(record.corrupted_elements) + ")";
  }

  if (!plans.empty()) {
    Int32Tensor mit_first{{1, 1}};
    bool mit_captured = false;
    const PreparedNetwork::LayerObserver observe =
        [&](int layer, const Int8Tensor& a, const Int8Tensor& b,
            Int32Tensor& out) {
          if (spec.abft || plans[static_cast<std::size_t>(layer)].abft) {
            (void)time("mitigation.abft",
                       [&] { return VerifyAndCorrect(a, b, out); });
          }
          if (layer == first_scope && !mit_captured) {
            mit_first = out;
            mit_captured = true;
          }
        };
    time("dnn.inference",
         [&] { return network.Run(physical, plans, observe); });
    const std::int64_t mit_count = time("patterns.classify", [&] {
      return ExtractCorruption(golden.inference.layer_outputs[static_cast<
                                   std::size_t>(first_scope)],
                               mit_first)
          .count();
    });
    if (mit_count != record.mit_corrupted) {
      return "campaign " + std::to_string(ci) + " experiment " +
             std::to_string(ei) + " mitigated run does not replay";
    }
  }
  return "";
}

void TracedRun(const NetworkSweepSpec& spec, const ColdSweep& reference,
               double untraced_wall_s, SpanLog& spans, Report& report) {
  Metrics& m = report.metrics;
  for (const auto& [name, unit] : PerLayerMetrics()) m[name] = {0.0, unit};

  const NetworkCampaignPlan plan = spans.Time(
      "service.plan", -1, -1, -1, [&] { return BuildNetworkCampaignPlan(spec); });
  const ColdSweep traced = spans.Time("service.sweep", -1, -1, -1,
                                      [&] { return RunColdSweep(spec, &spans); });
  const std::int64_t diverged = FirstDivergence(reference, traced);
  if (diverged >= 0) {
    report.errors.push_back("traced sweep diverges at campaign " +
                            std::to_string(diverged));
  }
  m["service.sink_bytes"].value = static_cast<double>(traced.sink_bytes);
  m["service.net_experiment_ms.p50"].value =
      Percentile(traced.record_gaps_ms, 0.5);
  m["service.net_experiment_ms.p90"].value =
      Percentile(traced.record_gaps_ms, 0.9);
  m["obs.trace_overhead_frac"].value = traced.wall_s / untraced_wall_s - 1.0;

  const Golden golden = PrepareGolden(spec, spans);
  for (const NetworkRecord& record : traced.records) {
    const std::string error = spans.Time(
        "service.experiment", static_cast<std::int64_t>(record.campaign_index),
        record.experiment_index, record.experiment_index,
        [&] { return ReplayExperiment(spec, plan, golden, record, spans); });
    if (!error.empty()) {
      report.errors.push_back(error);
      break;
    }
  }

  const std::map<std::string, double> ms = spans.SelfMs();
  const auto total = [&ms](const char* name) {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : it->second;
  };
  m["service.plan_ms"].value = total("service.plan");
  m["service.sink_ms"].value = total("service.sink");
  m["patterns.classify_ms"].value = total("patterns.classify");
  m["accel.construct_ms"].value = total("accel.construct");
  m["accel.gemm_ms.conv"].value = total("accel.gemm.conv");
  m["accel.gemm_ms.dense"].value = total("accel.gemm.dense");
  m["dnn.prepare_ms"].value = total("dnn.prepare");
  m["dnn.golden_ms"].value = total("dnn.golden");
  m["dnn.inference_ms"].value = total("dnn.inference");
  m["tensor.gemm_ref_ms"].value = total("tensor.gemm_ref");
  m["appfi.inject_ms"].value = total("appfi.inject");
  m["mitigation.plan_ms"].value = total("mitigation.plan");
  m["mitigation.abft_ms"].value = total("mitigation.abft");
}

}  // namespace

bool IsNetworkWorkload(const std::string& name) {
  return name == "cnn-cycle" || name == "mlp-appfi";
}

void RunNetworkWorkload(const Options& options, Report& report) {
  if (!options.engine_override.empty()) {
    throw std::invalid_argument("--engine applies to operator workloads only");
  }
  const NetworkSweepSpec spec = LoadSpec(options);
  report.manifest["spec_hash"] = NetworkSweepHash(spec);

  const ColdSweep first = MeasureColdSweeps(
      options, report, [&] { return MeasureSetup(spec); },
      [&] { return RunColdSweep(spec, nullptr); }, FirstDivergence);

  SpanLog spans;
  if (options.trace) {
    TracedRun(spec, first, Median(report.samples["sweep_s"]), spans, report);
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      spans.WriteChromeTrace(out);
    }
    return;
  }
  // Untraced runs replay a seed-chosen sample of experiments instead of all.
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  const Golden golden = PrepareGolden(spec, spans);
  Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  constexpr int kSamples = 8;
  for (int i = 0; i < kSamples && !first.records.empty(); ++i) {
    const auto pick = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(first.records.size()) - 1));
    const std::string error =
        ReplayExperiment(spec, plan, golden, first.records[pick], spans);
    if (!error.empty()) {
      report.errors.push_back(error);
      break;
    }
  }
}

}  // namespace perfbench
