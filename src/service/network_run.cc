#include "service/network_run.h"

#include <algorithm>
#include <array>
#include <optional>

#include "common/log.h"
#include "fi/cone.h"
#include "fi/runner.h"
#include "mitigation/abft.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "patterns/campaign.h"
#include "patterns/corruption.h"
#include "patterns/predictor.h"
#include "service/chaos.h"
#include "tensor/gemm.h"

namespace saffire {

namespace {

// --- Metrics ----------------------------------------------------------------

obs::Counter& ExperimentsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.experiments", "network-level fault experiments executed");
  return counter;
}

obs::Counter& SdcCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.sdc",
      "network experiments whose final logits deviated from golden");
  return counter;
}

obs::Counter& MaskedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.masked",
      "network experiments with no final-logit deviation");
  return counter;
}

obs::Counter& Top1FlipsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.top1_flips",
      "evaluation samples whose top-1 class flipped under fault");
  return counter;
}

obs::Counter& SelfchecksCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.selfchecks",
      "appfi-rung experiments cross-validated against the cycle-accurate "
      "rung");
  return counter;
}

obs::Counter& SelfcheckMismatchesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.selfcheck_mismatches",
      "network selfchecks where the appfi rung disagreed with ground truth");
  return counter;
}

obs::Counter& DemotionsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.demotions",
      "network campaigns demoted from the appfi rung to cycle-accurate");
  return counter;
}

obs::Counter& AbftDetectedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.abft.detected",
      "network experiments where ABFT flagged at least one layer");
  return counter;
}

obs::Counter& AbftCorrectedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.abft.corrected",
      "network experiments where every flagged layer re-verified clean");
  return counter;
}

obs::Counter& AbftUncorrectedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.abft.uncorrected",
      "network experiments where ABFT detected corruption it could not "
      "repair");
  return counter;
}

obs::Counter& PatternCounter(PatternClass pattern) {
  // One labelled series per class, resolved once per process.
  static std::array<obs::Counter*, kNumPatternClasses> counters = [] {
    std::array<obs::Counter*, kNumPatternClasses> resolved{};
    for (int i = 0; i < kNumPatternClasses; ++i) {
      resolved[static_cast<std::size_t>(i)] =
          &obs::MetricsRegistry::Default().GetCounter(
              "saffire.dnn.pattern",
              "network experiments by first-layer pattern class",
              "class=" + ToString(static_cast<PatternClass>(i)));
    }
    return resolved;
  }();
  return *counters[static_cast<std::size_t>(pattern)];
}

obs::Counter& MitigatedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.mitigation.experiments",
      "network experiments that also ran a mitigated inference");
  return counter;
}

obs::Counter& MitRecoveredCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.mitigation.recovered_samples",
      "evaluation samples classified correctly under mitigation but not "
      "under the unmitigated fault");
  return counter;
}

obs::Counter& MitResidualSdcCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.dnn.mitigation.residual_sdc",
      "mitigated inferences whose final logits still deviated from golden");
  return counter;
}

// --- Experiment execution ---------------------------------------------------

// One layer of the golden inference: the operands the host fed it and their
// ABFT checksums (its output is Inference::layer_outputs). Every experiment
// diffs against them: a layer whose weights equal `b` costs only the rows
// where its input differs from `a` (GemmDeltaRef), and a layer whose
// operands both equal these reuses `checksums`.
struct GoldenLayer {
  Int8Tensor a{{1, 1}};
  Int8Tensor b{{1, 1}};
  AbftChecksums checksums;
};

// Per-experiment observations collected by the layer executor as inference
// flows through it.
struct LayerProbe {
  // First in-scope layer's output, post-injection, pre-ABFT-correction —
  // the raw fault manifestation the pattern is classified from.
  Int32Tensor first_faulty{{1, 1}};
  bool captured = false;
  AbftDiagnosis worst = AbftDiagnosis::kClean;
  std::int64_t corrections = 0;
  bool any_detected = false;
  bool all_verified = true;
};

struct ExperimentContext {
  const NetworkSweepSpec& spec;
  const NetworkCampaign& campaign;
  const PreparedNetwork& network;
  const PreparedNetwork::Inference& golden;
  std::int64_t golden_correct;
  const ClassifyContext& first_context;
  const NetworkFi& injector;
  // Per layer, the golden operands and checksums; the weights are also the
  // row-remap planner's cost input.
  const std::vector<GoldenLayer>& golden_layers;
  // The first layer the fault applies to — where corruption enters from
  // clean inputs and the reach contract holds on both rungs.
  int first_scope;
  // The campaign's cycle-rung FiRunner, once RunNetworkSweep has built and
  // checked it; every experiment on that rung runs after the build.
  FiRunner* cycle = nullptr;
};

struct ExperimentResult {
  NetworkRecord record;
  // Corruption at the first in-scope layer (golden vs pre-ABFT faulty).
  CorruptionMap first_map;
};

bool InScope(const NetworkCampaign& campaign, int layer) {
  return campaign.layer == -1 || campaign.layer == layer;
}

// Mitigation plans for one experiment: the campaign's policy planned
// against this fault site at every in-scope layer, identity elsewhere.
// Empty when the campaign runs unmitigated.
std::vector<LayerMitigationPlan> BuildMitigationPlans(
    const ExperimentContext& context, const FaultSpec& fault) {
  if (context.campaign.mitigation == MitigationPolicy::kNone) return {};
  std::vector<LayerMitigationPlan> plans(
      static_cast<std::size_t>(context.network.layer_count()));
  for (std::int64_t layer = 0; layer < context.network.layer_count();
       ++layer) {
    if (!InScope(context.campaign, static_cast<int>(layer))) continue;
    plans[static_cast<std::size_t>(layer)] = PlanLayerMitigation(
        context.campaign.mitigation, context.network.layer_workload(layer),
        context.spec.accel, context.campaign.dataflow, fault,
        context.network.channel_salience(layer),
        &context.golden_layers[static_cast<std::size_t>(layer)].b);
  }
  return plans;
}

// The fault-free host product a·b of `layer`. While the weights equal the
// golden ones — always outside a remapping or pruning plan — it is the
// golden output plus the rows the input's difference reaches, bit for bit
// GemmRef's (tensor/gemm.h); a plan that rewrote the weights pays the full
// product.
Int32Tensor HostGemm(const ExperimentContext& context, int layer,
                     const Int8Tensor& a, const Int8Tensor& b) {
  const auto l = static_cast<std::size_t>(layer);
  const GoldenLayer& golden = context.golden_layers[l];
  if (!(b == golden.b)) return GemmRef(a, b);
  return GemmDeltaRef(a, golden.a, b, context.golden.layer_outputs[l]);
}

// ABFT verify-and-correct of `out` = a·b, reusing the layer's golden
// checksums when both operands are the golden ones (the conv input always
// is).
AbftReport VerifyLayer(const ExperimentContext& context, int layer,
                       const Int8Tensor& a, const Int8Tensor& b,
                       Int32Tensor& out) {
  SAFFIRE_SPAN("dnn.abft");
  const GoldenLayer& golden =
      context.golden_layers[static_cast<std::size_t>(layer)];
  if (a == golden.a && b == golden.b) {
    return VerifyAndCorrect(golden.checksums, out);
  }
  return VerifyAndCorrect(a, b, out);
}

// Shared per-layer bookkeeping: capture the raw first-scope output, then
// (optionally) ABFT-verify and correct in place so the corrected tensor is
// what propagates forward.
void ObserveLayer(const ExperimentContext& context, LayerProbe& probe,
                  int layer, const Int8Tensor& a, const Int8Tensor& b,
                  Int32Tensor& out) {
  if (layer == context.first_scope && !probe.captured) {
    probe.first_faulty = out;
    probe.captured = true;
  }
  if (context.spec.abft) {
    const AbftReport report = VerifyLayer(context, layer, a, b, out);
    probe.worst = std::max(probe.worst, report.diagnosis);
    probe.corrections += report.corrections;
    if (report.detected()) {
      probe.any_detected = true;
      if (!report.verified_after_correction) probe.all_verified = false;
    }
  }
}

// Second inference of the experiment, with the campaign's plans applied
// around the same physical executor, filling the record's mit_* fields.
// The observer corrects first (sweep-wide ABFT, or the plan's own
// abft_correct) and captures after, so mit_corrupted is the residual
// first-layer damage the mitigation failed to absorb.
void RunMitigatedInference(const ExperimentContext& context,
                           const std::vector<LayerMitigationPlan>& plans,
                           const LayerGemm& physical,
                           NetworkRecord& record) {
  if (plans.empty()) return;
  SAFFIRE_SPAN("dnn.mitigated_inference");
  Int32Tensor mit_first{{1, 1}};
  bool captured = false;
  const PreparedNetwork::LayerObserver observe =
      [&context, &plans, &mit_first, &captured](
          int layer, const Int8Tensor& a, const Int8Tensor& b,
          Int32Tensor& out) {
        if (context.spec.abft ||
            plans[static_cast<std::size_t>(layer)].abft) {
          (void)VerifyLayer(context, layer, a, b, out);
        }
        if (layer == context.first_scope && !captured) {
          mit_first = out;
          captured = true;
        }
      };
  const PreparedNetwork::Inference mitigated =
      context.network.Run(physical, plans, observe);
  SAFFIRE_CHECK_MSG(captured, "first in-scope layer never executed");

  record.mit_corrupted =
      ExtractCorruption(
          context.golden
              .layer_outputs[static_cast<std::size_t>(context.first_scope)],
          mit_first)
          .count();
  record.mit_sdc = !(mitigated.logits == context.golden.logits);
  record.mit_top1_flips = Top1Flips(context.golden.top1, mitigated.top1);
  const std::vector<int>& labels = context.network.labels();
  if (!labels.empty()) {
    std::int64_t correct = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (mitigated.top1[i] == labels[i]) ++correct;
    }
    record.mit_correct_faulty = correct;
  }
}

// One experiment on `rung`: the faulty inference, then the mitigated one
// when the campaign has plans, both through the same physical executor.
// Only that executor's in-scope layers depend on the rung:
//   kAppFi          — the clean host GEMM with the predicted reach perturbed
//                     in; under mitigation the injector perturbs the
//                     remapped (physical) coordinates, and RestoreOutput
//                     permutes them back.
//   kCycleAccurate  — ground truth, so rung cross-validation gates the
//                     remap math end to end. A PE-local fault starts from
//                     the same host product, perturbed by the closed form
//                     (fi/predicted.cc): exact on any operands, since the
//                     fault perturbs only its own MAC stage and its delta
//                     reaches the outputs through wrapped additions. Any
//                     other fault steps the campaign's FiRunner
//                     (RunFaulty), which must have been built.
// Layers outside the fault scope run on the host GEMM on both rungs (the
// golden output plus the input's delta, HostGemm): the fault-free array
// matches GemmRef bit for bit (the driver equivalence invariant the golden
// inference rests on), and a faulty layer leaves no state behind in the
// array.
ExperimentResult RunExperiment(const ExperimentContext& context,
                               const FaultSpec& fault,
                               const std::vector<LayerMitigationPlan>& plans,
                               NetworkRung rung) {
  SAFFIRE_SPAN("dnn.experiment");
  const bool pe_local = PredictedEngineExact(fault.kind, fault.signal);
  const LayerGemm physical = [&context, &fault, rung, pe_local](
                                 int layer, const Int8Tensor& a,
                                 const Int8Tensor& b) {
    SAFFIRE_SPAN("dnn.layer");
    const bool in_scope = InScope(context.campaign, layer);
    const bool cycle = in_scope && rung == NetworkRung::kCycleAccurate;
    const Dataflow dataflow = context.campaign.dataflow;
    if (cycle && !pe_local) {
      return context.cycle
          ->RunFaulty(MaterializedWorkload{a, b}, dataflow, {&fault, 1})
          .output;
    }
    Int32Tensor out = HostGemm(context, layer, a, b);
    if (!in_scope) return out;
    if (cycle) {
      const std::vector<ConeRunResult> faulty =
          context.cycle->RunFaultyPredicted(MaterializedWorkload{a, b},
                                            dataflow, {&fault, 1}, out);
      return ExpandCone(faulty.front().output, out);
    }
    const WorkloadSpec& workload = context.network.layer_workload(layer);
    return context.spec.perturb_auto
               ? context.injector.InjectForFault(out, workload, fault)
               : context.injector.Inject(out, workload, fault);
  };
  LayerProbe probe;
  const LayerGemm gemm = [&context, &physical, &probe](
                             int layer, const Int8Tensor& a,
                             const Int8Tensor& b) {
    Int32Tensor out = physical(layer, a, b);
    ObserveLayer(context, probe, layer, a, b, out);
    return out;
  };
  const PreparedNetwork::Inference faulty = context.network.Run(gemm);
  SAFFIRE_CHECK_MSG(probe.captured, "first in-scope layer never executed");

  ExperimentResult result;
  result.first_map = ExtractCorruption(
      context.golden
          .layer_outputs[static_cast<std::size_t>(context.first_scope)],
      probe.first_faulty);
  NetworkRecord& record = result.record;
  record.fault = fault;
  record.rung = rung;
  record.pattern = Classify(result.first_map, context.first_context);
  record.corrupted_elements = result.first_map.count();
  record.sdc = !(faulty.logits == context.golden.logits);
  record.top1_flips = Top1Flips(context.golden.top1, faulty.top1);
  record.batch = context.network.batch();
  const std::vector<int>& labels = context.network.labels();
  if (!labels.empty()) {
    record.correct_golden = context.golden_correct;
    std::int64_t correct = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (faulty.top1[i] == labels[i]) ++correct;
    }
    record.correct_faulty = correct;
  }
  record.abft_on = context.spec.abft;
  record.abft_diagnosis = probe.worst;
  record.abft_corrections = probe.corrections;
  record.abft_corrected = probe.any_detected && probe.all_verified;
  RunMitigatedInference(context, plans, physical, record);
  return result;
}

// Soundness check of the fast rung against ground truth: every corrupted
// element the hardware produced at the first in-scope layer must lie inside
// the analytically predicted reach.
bool ObservedWithinReach(const CorruptionMap& observed,
                         const PredictedPattern& predicted) {
  for (const MatrixCoord& coord : observed.corrupted) {
    if (!std::binary_search(predicted.coords.begin(), predicted.coords.end(),
                            coord)) {
      return false;
    }
  }
  return true;
}

void CountRecordMetrics(const NetworkCampaign& campaign,
                        const NetworkRecord& record) {
  ExperimentsCounter().Increment();
  PatternCounter(record.pattern).Increment();
  (record.sdc ? SdcCounter() : MaskedCounter()).Increment();
  Top1FlipsCounter().Increment(record.top1_flips);
  if (record.abft_on && record.abft_diagnosis != AbftDiagnosis::kClean) {
    AbftDetectedCounter().Increment();
    (record.abft_corrected ? AbftCorrectedCounter()
                           : AbftUncorrectedCounter())
        .Increment();
  }
  if (campaign.mitigation != MitigationPolicy::kNone) {
    MitigatedCounter().Increment();
    if (record.mit_sdc) MitResidualSdcCounter().Increment();
    if (record.correct_faulty >= 0 &&
        record.mit_correct_faulty > record.correct_faulty) {
      MitRecoveredCounter().Increment(record.mit_correct_faulty -
                                      record.correct_faulty);
    }
  }
}

}  // namespace

SweepOutcome RunNetworkSweep(const NetworkSweepSpec& spec,
                             const NetworkRunOptions& options,
                             NetworkRecordSink& sink) {
  spec.Validate();
  options.resilience.Validate();
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  if (options.resume != nullptr) {
    ValidateNetworkCheckpoint(*options.resume, spec, plan);
  }

  // Prepared once: training/quantization dominate setup, and both rungs
  // share the model. The golden inference runs on the host reference GEMM,
  // which the fault-free accelerator matches bit-for-bit (the driver
  // equivalence invariant), so one golden serves every campaign. The
  // per-layer operands are kept, with their ABFT checksums: every
  // experiment's host GEMMs and checks diff against them, the weights feed
  // the row-remap cost model, and both feed the cycle rung's check of the
  // array against the host.
  const PreparedNetwork network(spec.network);
  std::vector<GoldenLayer> golden_layers(
      static_cast<std::size_t>(network.layer_count()));
  const PreparedNetwork::Inference golden = network.Run(
      [&golden_layers](int layer, const Int8Tensor& a, const Int8Tensor& b) {
        GoldenLayer& golden_layer =
            golden_layers[static_cast<std::size_t>(layer)];
        golden_layer.a = a;
        golden_layer.b = b;
        golden_layer.checksums = ComputeAbftChecksums(a, b);
        return GemmRef(a, b);
      });
  std::int64_t golden_correct = -1;
  if (!network.labels().empty()) {
    golden_correct = 0;
    for (std::size_t i = 0; i < network.labels().size(); ++i) {
      if (golden.top1[i] == network.labels()[i]) ++golden_correct;
    }
  }

  SweepOutcome outcome;
  if (options.resume != nullptr) {
    outcome.checkpoint_lines_dropped = options.resume->lines_dropped;
  }
  // The executor's saffire.resilience.* series carry pool labels; the
  // network sweep counts under layer="network", so both surface through one
  // metric name without colliding.
  const ResilienceTally tally{&outcome, nullptr,
                              &obs::MetricsRegistry::Default(),
                              "layer=\"network\""};
  sink.OnSweepBegin(spec, plan);

  bool stop_requested = false;
  for (std::size_t ci = 0; ci < plan.campaigns.size() && !stop_requested;
       ++ci) {
    const NetworkCampaign& campaign = plan.campaigns[ci];
    NetworkCampaignInfo info;
    info.index = ci;
    info.campaign = campaign;
    info.key = NetworkCampaignKey(spec, campaign);
    info.experiments = plan.experiments_per_campaign();
    sink.OnCampaignBegin(info);

    const int first_scope = campaign.layer == -1 ? 0 : campaign.layer;
    const ClassifyContext first_context = MakeClassifyContext(
        network.layer_workload(first_scope), spec.accel, campaign.dataflow);

    AppFiSpec fi_spec;
    fi_spec.accel = spec.accel;
    fi_spec.dataflow = campaign.dataflow;
    fi_spec.perturb = spec.perturb;
    const NetworkFi injector(fi_spec);

    ExperimentContext context{spec,          campaign,       network,
                              golden,        golden_correct, first_context,
                              injector,      golden_layers,  first_scope};

    // The campaign's one FiRunner, built the first time the campaign needs
    // the cycle rung, and only outside a ladder attempt: before the ladder
    // when an experiment starts on that rung, in the ladder's demote step,
    // and before a selfcheck. Building it checks the array's fault-free
    // output on the first in-scope layer's golden operands, taken from
    // PlanGolden (which equals the array's golden run on any operands and
    // widths, tests/fi/plan_golden_test.cc), and throws
    // saffire::InternalError if it differs from the host's: every PE-local
    // fault perturbs the host product, so a driver/host divergence would
    // corrupt each record silently. It therefore fails the sweep (a throw
    // from the demote step escapes RunResilient) before any cycle-rung
    // result is delivered. Dropped at campaign end.
    std::optional<FiRunner> cycle;
    const auto cycle_rung = [&] {
      if (context.cycle != nullptr) return;
      SAFFIRE_SPAN("dnn.cycle_rung");
      const auto l = static_cast<std::size_t>(first_scope);
      const RunResult array_golden = PlanGolden(
          MaterializedWorkload{golden_layers[l].a, golden_layers[l].b},
          campaign.dataflow, spec.accel);
      SAFFIRE_ASSERT_MSG(array_golden.output == golden.layer_outputs[l],
                         "the array's golden layer output differs from the "
                         "host reference GEMM's");
      cycle.emplace(spec.accel);
      context.cycle = &*cycle;
    };

    // A selfcheck mismatch or an exhausted appfi rung demotes the
    // campaign's remainder to ground truth.
    bool demoted = false;
    const auto demote_campaign = [&] {
      if (demoted) return false;
      demoted = true;
      ++outcome.fallbacks;
      DemotionsCounter().Increment();
      return true;
    };

    for (std::int64_t ei = 0; ei < plan.experiments_per_campaign(); ++ei) {
      if (options.stop != nullptr &&
          options.stop->load(std::memory_order_relaxed)) {
        stop_requested = true;
        break;
      }
      if (options.resume != nullptr) {
        const auto replay = options.resume->records.find({ci, ei});
        if (replay != options.resume->records.end()) {
          sink.OnRecord(replay->second);
          ++outcome.records;
          continue;
        }
        // Quarantined lines carry no result, so a missing record — failed
        // or never reached — re-simulates here.
      }

      FaultSpec fault;
      fault.kind = FaultKind::kStuckAt;
      fault.pe = plan.sites[static_cast<std::size_t>(ei)];
      fault.signal = campaign.signal;
      fault.bit = campaign.bit;
      fault.polarity = campaign.polarity;
      fault.Validate(spec.accel.array);
      const std::vector<LayerMitigationPlan> mit_plans =
          BuildMitigationPlans(context, fault);

      NetworkRung rung = demoted ? NetworkRung::kCycleAccurate : spec.rung;
      if (rung == NetworkRung::kCycleAccurate) cycle_rung();
      ExperimentResult result;
      LadderFailure failure;
      const LadderSteps steps{
          [&] { result = RunExperiment(context, fault, mit_plans, rung); },
          [&](int attempts) {
            if (rung == NetworkRung::kCycleAccurate) return false;
            cycle_rung();
            rung = NetworkRung::kCycleAccurate;
            // Failure-driven demotion sticks for the campaign's remainder,
            // like a selfcheck mismatch.
            if (demote_campaign()) {
              SAFFIRE_LOG_WARN
                  << "network campaign " << ci
                  << ": demoting to the cycle-accurate rung after "
                  << attempts << " failed appfi attempts";
            }
            return true;
          }};
      if (!RunResilient(options.resilience, tally, spec.seed, ci, ei,
                        "network campaign", steps, &failure)) {
        sink.OnExperimentFailed({ci, ei, rung, failure.attempts,
                                 failure.timed_out, failure.error});
        continue;
      }

      if (result.record.rung == NetworkRung::kAppFi &&
          SelfCheckSampled(options.resilience.selfcheck_rate, spec.seed, ci,
                           ei)) {
        ++outcome.selfchecks;
        SelfchecksCounter().Increment();
        cycle_rung();
        const ExperimentResult truth = RunExperiment(
            context, fault, mit_plans, NetworkRung::kCycleAccurate);
        const PredictedPattern& predicted = PredictPattern(
            network.layer_workload(first_scope), spec.accel,
            campaign.dataflow, fault);
        // Mismatch = a falsified contract: ground-truth corruption escaping
        // the predicted reach, or — where the analytical path is provably
        // bit-exact — any record difference. Cross-rung deviation inside
        // the reach on trained networks is quantization-model tolerance,
        // not a mismatch.
        bool mismatch = !ObservedWithinReach(truth.first_map, predicted);
        if (!mismatch &&
            injector.ExtractionExact(network.layer_workload(first_scope),
                                     fault)) {
          mismatch = !RungEquivalent(result.record, truth.record);
        }
        if (chaos::ForceSelfCheckMismatch(ci)) mismatch = true;
        if (mismatch) {
          ++outcome.selfcheck_mismatches;
          SelfcheckMismatchesCounter().Increment();
          demote_campaign();
          result = truth;  // keep the trusted record
        }
      }

      result.record.campaign_index = ci;
      result.record.experiment_index = ei;
      sink.OnRecord(result.record);
      ++outcome.records;
      CountRecordMetrics(campaign, result.record);
    }
    sink.OnCampaignEnd(ci);
  }

  outcome.stopped = stop_requested;
  sink.OnSweepEnd(outcome);
  return outcome;
}

}  // namespace saffire
