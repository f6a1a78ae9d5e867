// RunNetworkSweep end-to-end: rung equivalence on the extraction network,
// selfcheck cross-validation, network-level outcome fields, ABFT coverage,
// checkpoint resume, cooperative stop, the sweep's trace spans, and each
// rung's records against a reference that recomputes every layer (on the
// array for the cycle rung, on the host for the appfi rung).
#include "service/network_run.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "accel/driver.h"
#include "common/rng.h"
#include "fi/injector.h"
#include "mitigation/abft.h"
#include "obs/trace.h"
#include "patterns/corruption.h"
#include "service/chaos.h"
#include "tensor/gemm.h"

namespace saffire {
namespace {

AccelConfig SmallAccel() {
  AccelConfig config;
  config.array.rows = 8;
  config.array.cols = 8;
  config.max_compute_rows = 64;
  config.spad_rows = 128;
  config.acc_rows = 64;
  config.dram_bytes = 1 << 20;
  return config;
}

// One-tile extraction workload: the configuration where the appfi rung is
// provably bit-exact against the simulator.
NetworkSweepSpec ExtractionSpec() {
  NetworkSweepSpec spec;
  spec.accel = SmallAccel();
  spec.network.kind = NetworkKind::kExtraction;
  spec.network.batch = 4;
  spec.network.extraction_k = 8;
  spec.network.extraction_n = 8;
  spec.max_sites = 6;
  return spec;
}

NetworkSweepSpec MlpSpec() {
  NetworkSweepSpec spec;
  spec.accel = SmallAccel();
  spec.network.kind = NetworkKind::kMlp;
  spec.network.batch = 8;
  spec.network.hidden = 8;
  spec.network.train_samples = 60;
  spec.network.train_epochs = 10;
  spec.network.train_target = 0.8;
  spec.max_sites = 3;
  return spec;
}

// Installs a chaos schedule for one scope: schedules are process-global,
// so a test clears its own on every way out.
class ScopedChaos {
 public:
  explicit ScopedChaos(const chaos::ChaosSpec& spec) { chaos::Install(spec); }
  ~ScopedChaos() { chaos::Clear(); }
  ScopedChaos(const ScopedChaos&) = delete;
  ScopedChaos& operator=(const ScopedChaos&) = delete;
};

TEST(RunNetworkSweepTest, ExtractionRungsAreEquivalent) {
  NetworkSweepSpec spec = ExtractionSpec();
  NetworkCollectorSink appfi;
  spec.rung = NetworkRung::kAppFi;
  const SweepOutcome appfi_outcome = RunNetworkSweep(spec, appfi);
  NetworkCollectorSink cycle;
  spec.rung = NetworkRung::kCycleAccurate;
  const SweepOutcome cycle_outcome = RunNetworkSweep(spec, cycle);

  EXPECT_TRUE(appfi_outcome.ok());
  EXPECT_TRUE(cycle_outcome.ok());
  ASSERT_EQ(appfi.records.size(), 6u);
  ASSERT_EQ(cycle.records.size(), appfi.records.size());
  for (std::size_t i = 0; i < appfi.records.size(); ++i) {
    EXPECT_EQ(appfi.records[i].rung, NetworkRung::kAppFi);
    EXPECT_EQ(cycle.records[i].rung, NetworkRung::kCycleAccurate);
    EXPECT_TRUE(RungEquivalent(appfi.records[i], cycle.records[i]))
        << "experiment " << i;
  }
  // A stuck-at-1 on a high adder bit corrupts the reached column: the
  // extraction network reports it as SDC with a non-masked pattern.
  for (const NetworkRecord& record : appfi.records) {
    EXPECT_TRUE(record.sdc);
    EXPECT_EQ(record.pattern, PatternClass::kSingleColumn);
    EXPECT_EQ(record.batch, 4);
    EXPECT_EQ(record.correct_golden, -1);  // extraction has no labels
    EXPECT_EQ(record.correct_faulty, -1);
  }
}

TEST(RunNetworkSweepTest, FullSelfcheckFindsNoMismatchOnExtraction) {
  NetworkSweepSpec spec = ExtractionSpec();
  spec.rung = NetworkRung::kAppFi;
  NetworkRunOptions options;
  options.resilience.selfcheck_rate = 1.0;
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, options, sink);
  EXPECT_EQ(outcome.records, 6);
  EXPECT_EQ(outcome.selfchecks, 6);
  EXPECT_EQ(outcome.selfcheck_mismatches, 0);
  EXPECT_EQ(outcome.fallbacks, 0);
  EXPECT_TRUE(outcome.ok());
}

TEST(RunNetworkSweepTest, MlpRecordsCarryNetworkOutcomes) {
  NetworkSweepSpec spec = MlpSpec();
  spec.rung = NetworkRung::kCycleAccurate;
  spec.bits = {24};  // high accumulator bit: visible logit damage
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, sink);
  EXPECT_TRUE(outcome.ok());
  ASSERT_EQ(sink.records.size(), 3u);
  bool any_sdc = false;
  for (const NetworkRecord& record : sink.records) {
    EXPECT_EQ(record.batch, 8);
    EXPECT_GE(record.correct_golden, 0);
    EXPECT_LE(record.correct_golden, 8);
    EXPECT_GE(record.correct_faulty, 0);
    // Flipped predictions require a logit deviation.
    if (record.top1_flips > 0) {
      EXPECT_TRUE(record.sdc);
    }
    if (!record.sdc) {
      EXPECT_EQ(record.top1_flips, 0);
      EXPECT_EQ(record.correct_faulty, record.correct_golden);
    }
    any_sdc = any_sdc || record.sdc;
  }
  EXPECT_TRUE(any_sdc);
}

// The cycle rung perturbs the host reference GEMM's product for every
// PE-local fault, so an array that disagrees with that GEMM must stop the
// sweep instead of filling it with wrong records. A 4-bit operand path
// truncates the int8 operands the host's GEMM multiplies.
TEST(RunNetworkSweepTest, CycleRungThrowsWhenTheArrayDivergesFromTheHost) {
  NetworkSweepSpec spec = MlpSpec();
  spec.accel.array.input_bits = 4;
  spec.rung = NetworkRung::kCycleAccurate;
  NetworkRunOptions options;
  options.resilience.on_failure = OnFailure::kQuarantine;
  NetworkCollectorSink sink;
  EXPECT_THROW(RunNetworkSweep(spec, options, sink), InternalError);
  EXPECT_TRUE(sink.records.empty());
}

// An appfi experiment demoted mid-ladder builds the cycle rung in the
// ladder's demote step, so the same divergence stops the sweep there, before
// the demoted experiment delivers a record or a failed record.
TEST(RunNetworkSweepTest, DemotionThrowsWhenTheArrayDivergesFromTheHost) {
  NetworkSweepSpec spec = MlpSpec();
  spec.accel.array.input_bits = 4;
  spec.rung = NetworkRung::kAppFi;
  chaos::ChaosSpec chaos_spec;
  chaos_spec.experiment_throw_every = 1;  // every appfi attempt fails once
  chaos_spec.experiment_throw_attempts = 1;
  const ScopedChaos scoped_chaos(chaos_spec);
  NetworkRunOptions options;
  options.resilience.max_retries = 0;
  options.resilience.backoff_base_ms = 0;
  options.resilience.on_failure = OnFailure::kQuarantine;
  NetworkCollectorSink sink;
  EXPECT_THROW(RunNetworkSweep(spec, options, sink), InternalError);
  EXPECT_TRUE(sink.records.empty());
  EXPECT_TRUE(sink.failures.empty());
}

TEST(RunNetworkSweepTest, AbftCorrectsSingleColumnFaultsEndToEnd) {
  NetworkSweepSpec spec = ExtractionSpec();
  spec.abft = true;
  for (const NetworkRung rung :
       {NetworkRung::kAppFi, NetworkRung::kCycleAccurate}) {
    spec.rung = rung;
    NetworkCollectorSink sink;
    const SweepOutcome outcome = RunNetworkSweep(spec, sink);
    EXPECT_TRUE(outcome.ok());
    ASSERT_EQ(sink.records.size(), 6u);
    for (const NetworkRecord& record : sink.records) {
      EXPECT_TRUE(record.abft_on);
      // The corruption is still classified (pre-mitigation view)...
      EXPECT_EQ(record.pattern, PatternClass::kSingleColumn);
      EXPECT_EQ(record.abft_diagnosis, AbftDiagnosis::kSingleColumn);
      EXPECT_TRUE(record.abft_corrected);
      EXPECT_GT(record.abft_corrections, 0);
      // ...but the corrected tensors feed forward, so no SDC survives.
      EXPECT_FALSE(record.sdc) << ToString(rung);
      EXPECT_EQ(record.top1_flips, 0);
    }
  }
}

TEST(RunNetworkSweepTest, ResumeReplaysCheckpointedRecords) {
  NetworkSweepSpec spec = ExtractionSpec();
  std::ostringstream jsonl;
  NetworkJsonlSink jsonl_sink(jsonl);
  NetworkCollectorSink first;
  NetworkTeeSink tee({&jsonl_sink, &first});
  const SweepOutcome original = RunNetworkSweep(spec, tee);
  EXPECT_EQ(original.records, 6);

  std::istringstream in(jsonl.str());
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);
  ASSERT_EQ(checkpoint.records.size(), 6u);

  NetworkRunOptions options;
  options.resume = &checkpoint;
  NetworkCollectorSink resumed;
  const SweepOutcome outcome = RunNetworkSweep(spec, options, resumed);
  EXPECT_EQ(outcome.records, 6);
  ASSERT_EQ(resumed.records.size(), first.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i], first.records[i]) << "record " << i;
  }
}

TEST(RunNetworkSweepTest, ResumeRejectsForeignCheckpoint) {
  NetworkSweepSpec spec = ExtractionSpec();
  std::ostringstream jsonl;
  NetworkJsonlSink jsonl_sink(jsonl);
  RunNetworkSweep(spec, jsonl_sink);
  std::istringstream in(jsonl.str());
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);

  NetworkSweepSpec other = ExtractionSpec();
  other.bits = {20};
  NetworkRunOptions options;
  options.resume = &checkpoint;
  NetworkCollectorSink sink;
  EXPECT_THROW(RunNetworkSweep(other, options, sink), std::invalid_argument);
}

TEST(RunNetworkSweepTest, CooperativeStopDrainsCleanly) {
  NetworkSweepSpec spec = ExtractionSpec();
  std::atomic<bool> stop{true};
  NetworkRunOptions options;
  options.stop = &stop;
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, options, sink);
  EXPECT_TRUE(outcome.stopped);
  EXPECT_EQ(outcome.records, 0);
  EXPECT_TRUE(sink.records.empty());
}

// Builds the executor that both inferences of one experiment share, with
// `fault` applied to the campaign's in-scope layers.
using MakePhysical = std::function<LayerGemm(
    const PreparedNetwork& network, const NetworkCampaign& campaign,
    const FaultSpec& fault)>;

bool InScope(const NetworkCampaign& campaign, int layer) {
  return campaign.layer == -1 || campaign.layer == layer;
}

// Test-local oracle records on `rung`: every layer of every inference is
// recomputed from scratch by the executor `make_physical` builds, and ABFT
// runs in its operand form. RunNetworkSweep instead diffs fault-free work
// against the golden inference (GemmDeltaRef, reused checksums) and, on the
// cycle rung, perturbs a PE-local fault's in-scope GEMMs in closed form.
std::vector<NetworkRecord> ReferenceRecords(const NetworkSweepSpec& spec,
                                            NetworkRung rung,
                                            const MakePhysical& make_physical) {
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  const PreparedNetwork network(spec.network);
  const auto layers = static_cast<std::size_t>(network.layer_count());
  std::vector<Int8Tensor> golden_b(layers, Int8Tensor{{1, 1}});
  const PreparedNetwork::Inference golden = network.Run(
      [&golden_b](int layer, const Int8Tensor& a, const Int8Tensor& b) {
        golden_b[static_cast<std::size_t>(layer)] = b;
        return GemmRef(a, b);
      });
  const std::vector<int>& labels = network.labels();
  const auto correct = [&labels](const std::vector<int>& top1) {
    if (labels.empty()) return std::int64_t{-1};
    std::int64_t hits = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (top1[i] == labels[i]) ++hits;
    }
    return hits;
  };

  std::vector<NetworkRecord> records;
  for (std::size_t ci = 0; ci < plan.campaigns.size(); ++ci) {
    const NetworkCampaign& campaign = plan.campaigns[ci];
    const int first = campaign.layer == -1 ? 0 : campaign.layer;
    const auto first_index = static_cast<std::size_t>(first);
    const ClassifyContext context = MakeClassifyContext(
        network.layer_workload(first), spec.accel, campaign.dataflow);
    for (std::int64_t ei = 0; ei < plan.experiments_per_campaign(); ++ei) {
      FaultSpec fault;
      fault.pe = plan.sites[static_cast<std::size_t>(ei)];
      fault.signal = campaign.signal;
      fault.bit = campaign.bit;
      fault.polarity = campaign.polarity;
      std::vector<LayerMitigationPlan> plans;
      if (campaign.mitigation != MitigationPolicy::kNone) {
        plans.resize(layers);
        for (int layer = 0; layer < network.layer_count(); ++layer) {
          if (!InScope(campaign, layer)) continue;
          const auto l = static_cast<std::size_t>(layer);
          plans[l] = PlanLayerMitigation(
              campaign.mitigation, network.layer_workload(layer), spec.accel,
              campaign.dataflow, fault, network.channel_salience(layer),
              &golden_b[l]);
        }
      }
      const LayerGemm physical = make_physical(network, campaign, fault);

      NetworkRecord record;
      record.campaign_index = ci;
      record.experiment_index = ei;
      record.fault = fault;
      record.rung = rung;
      record.batch = network.batch();
      record.abft_on = spec.abft;

      Int32Tensor first_out{{1, 1}};
      bool captured = false;
      bool any_detected = false;
      bool all_verified = true;
      const LayerGemm observed = [&](int layer, const Int8Tensor& a,
                                     const Int8Tensor& b) {
        Int32Tensor out = physical(layer, a, b);
        if (layer == first && !captured) {
          first_out = out;
          captured = true;
        }
        if (spec.abft) {
          const AbftReport report = VerifyAndCorrect(a, b, out);
          record.abft_diagnosis =
              std::max(record.abft_diagnosis, report.diagnosis);
          record.abft_corrections += report.corrections;
          if (report.detected()) {
            any_detected = true;
            if (!report.verified_after_correction) all_verified = false;
          }
        }
        return out;
      };
      const PreparedNetwork::Inference faulty = network.Run(observed);
      const CorruptionMap map =
          ExtractCorruption(golden.layer_outputs[first_index], first_out);
      record.pattern = Classify(map, context);
      record.corrupted_elements = map.count();
      record.sdc = !(faulty.logits == golden.logits);
      record.top1_flips = Top1Flips(golden.top1, faulty.top1);
      record.correct_golden = correct(golden.top1);
      record.correct_faulty = correct(faulty.top1);
      record.abft_corrected = any_detected && all_verified;

      if (!plans.empty()) {
        Int32Tensor mit_first{{1, 1}};
        bool mit_captured = false;
        const PreparedNetwork::LayerObserver observe =
            [&](int layer, const Int8Tensor& a, const Int8Tensor& b,
                Int32Tensor& out) {
              if (spec.abft || plans[static_cast<std::size_t>(layer)].abft) {
                (void)VerifyAndCorrect(a, b, out);
              }
              if (layer == first && !mit_captured) {
                mit_first = out;
                mit_captured = true;
              }
            };
        const PreparedNetwork::Inference mitigated =
            network.Run(physical, plans, observe);
        record.mit_corrupted =
            ExtractCorruption(golden.layer_outputs[first_index], mit_first)
                .count();
        record.mit_sdc = !(mitigated.logits == golden.logits);
        record.mit_top1_flips = Top1Flips(golden.top1, mitigated.top1);
        record.mit_correct_faulty = correct(mitigated.top1);
      }
      records.push_back(record);
    }
  }
  return records;
}

// One experiment's array: a fresh Accelerator, its Driver and the fault's
// hook, destroyed together in reverse order.
struct ArrayUnderTest {
  ArrayUnderTest(const AccelConfig& config, const FaultSpec& fault)
      : accelerator(config), driver(accelerator), hook({fault}, config.array) {}
  Accelerator accelerator;
  Driver driver;
  FaultInjector hook;
};

// The cycle rung's oracle: every layer of every inference streams through
// Driver::Gemm on one fresh Accelerator per experiment, with the fault hook
// installed on in-scope layers only. RunNetworkSweep runs out-of-scope
// layers on the host instead; this path keeps the array in the loop for
// them.
std::vector<NetworkRecord> EveryLayerOnTheArray(const NetworkSweepSpec& spec) {
  return ReferenceRecords(
      spec, NetworkRung::kCycleAccurate,
      [&spec](const PreparedNetwork& /*network*/,
              const NetworkCampaign& campaign, const FaultSpec& fault) {
        const auto array = std::make_shared<ArrayUnderTest>(spec.accel, fault);
        ExecOptions exec;
        exec.dataflow = campaign.dataflow;
        return LayerGemm([array, exec, campaign](int layer,
                                                 const Int8Tensor& a,
                                                 const Int8Tensor& b) {
          if (InScope(campaign, layer)) {
            array->accelerator.array().InstallFaultHook(&array->hook);
          }
          Int32Tensor out = array->driver.Gemm(a, b, exec);
          array->accelerator.array().ClearFaultHook();
          return out;
        });
      });
}

// The appfi rung's oracle: every layer of every inference is a full
// GemmRef, and the in-scope ones get the fault's predicted reach perturbed
// in, exactly as the rung defines them.
std::vector<NetworkRecord> EveryLayerOnTheHost(const NetworkSweepSpec& spec) {
  return ReferenceRecords(
      spec, NetworkRung::kAppFi,
      [&spec](const PreparedNetwork& network, const NetworkCampaign& campaign,
              const FaultSpec& fault) {
        AppFiSpec fi_spec;
        fi_spec.accel = spec.accel;
        fi_spec.dataflow = campaign.dataflow;
        fi_spec.perturb = spec.perturb;
        const auto injector = std::make_shared<NetworkFi>(fi_spec);
        return LayerGemm([&spec, &network, injector, campaign, fault](
                             int layer, const Int8Tensor& a,
                             const Int8Tensor& b) {
          Int32Tensor out = GemmRef(a, b);
          if (!InScope(campaign, layer)) return out;
          const WorkloadSpec& workload = network.layer_workload(layer);
          return spec.perturb_auto
                     ? injector->InjectForFault(out, workload, fault)
                     : injector->Inject(out, workload, fault);
        });
      });
}

// The cycle rung runs out-of-scope layers on the host reference GEMM, and
// an in-scope layer as the host product perturbed by the closed form for
// the PE-local signals or as FiRunner::RunFaulty on the array for the
// forwarding ones. Neither may change a single record against the
// every-layer-on-the-array oracle, for every dataflow and layer scope, with
// and without a mitigated second inference.
void ExpectCycleRungMatchesEveryLayerReference(
    NetworkSweepSpec spec, std::vector<MacSignal> signals,
    std::vector<int> bits, std::vector<MitigationPolicy> mitigations) {
  spec.rung = NetworkRung::kCycleAccurate;
  spec.dataflows = {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
                    Dataflow::kInputStationary};
  spec.signals = std::move(signals);
  spec.bits = std::move(bits);
  spec.layers = {-1, 0, 1};
  spec.mitigations = std::move(mitigations);
  spec.max_sites = 4;
  spec.abft = true;
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, sink);
  EXPECT_TRUE(outcome.ok());
  const std::vector<NetworkRecord> reference = EveryLayerOnTheArray(spec);
  ASSERT_EQ(reference.size(), spec.CampaignCount() * 4u);
  ASSERT_EQ(sink.records.size(), reference.size());
  bool any_sdc = false;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(sink.records[i], reference[i])
        << "campaign " << reference[i].campaign_index << " experiment "
        << reference[i].experiment_index;
    any_sdc = any_sdc || reference[i].sdc;
  }
  EXPECT_TRUE(any_sdc);  // the faults reach the logits somewhere
}

NetworkSweepSpec CnnSpec() {
  NetworkSweepSpec spec;
  spec.accel = SmallAccel();
  spec.network.kind = NetworkKind::kCnn;
  spec.network.batch = 8;
  spec.network.conv_channels = 4;
  return spec;
}

// Every MAC signal at in-width bits. The mitigated inference of
// abft_correct keeps the golden operands; remap and prune policies need the
// predictor, which the forwarding signals lack.
const std::vector<MacSignal> kEverySignal = {
    MacSignal::kWeightOperand, MacSignal::kMulOut, MacSignal::kAdderOut,
    MacSignal::kActForward, MacSignal::kSouthForward};

// The PE-local signals under the policies that rewrite a layer's operands:
// the closed form must hold on remapped and pruned weights too.
const std::vector<MacSignal> kPeLocalSignals = {
    MacSignal::kWeightOperand, MacSignal::kMulOut, MacSignal::kAdderOut};

TEST(CycleRungReferenceTest, MlpRecordsMatchEveryLayerOnTheArray) {
  ExpectCycleRungMatchesEveryLayerReference(
      MlpSpec(), {MacSignal::kAdderOut}, {8, 24},
      {MitigationPolicy::kNone, MitigationPolicy::kColumnRemap});
}

TEST(CycleRungReferenceTest, CnnRecordsMatchEveryLayerOnTheArray) {
  ExpectCycleRungMatchesEveryLayerReference(
      CnnSpec(), {MacSignal::kAdderOut}, {8, 24},
      {MitigationPolicy::kNone, MitigationPolicy::kColumnRemap});
}

TEST(CycleRungReferenceTest, MlpEverySignalMatchesEveryLayerOnTheArray) {
  ExpectCycleRungMatchesEveryLayerReference(
      MlpSpec(), kEverySignal, {3, 7},
      {MitigationPolicy::kNone, MitigationPolicy::kAbftCorrect});
}

TEST(CycleRungReferenceTest, CnnEverySignalMatchesEveryLayerOnTheArray) {
  ExpectCycleRungMatchesEveryLayerReference(
      CnnSpec(), kEverySignal, {3, 7},
      {MitigationPolicy::kNone, MitigationPolicy::kAbftCorrect});
}

TEST(CycleRungReferenceTest, MlpRewrittenOperandsMatchEveryLayerOnTheArray) {
  ExpectCycleRungMatchesEveryLayerReference(
      MlpSpec(), kPeLocalSignals, {3, 7},
      {MitigationPolicy::kPruneChannel, MitigationPolicy::kRowRemap});
}

TEST(CycleRungReferenceTest, CnnRewrittenOperandsMatchEveryLayerOnTheArray) {
  ExpectCycleRungMatchesEveryLayerReference(
      CnnSpec(), kPeLocalSignals, {3, 7},
      {MitigationPolicy::kPruneChannel, MitigationPolicy::kRowRemap});
}

// The appfi rung computes out-of-scope layers and its in-scope GEMMs as the
// golden output plus the input's delta (GemmDeltaRef) and reuses the golden
// ABFT checksums whenever a layer's operands are the golden ones. Neither
// may change a record against full recomputation, for every dataflow, layer
// scope and mitigation policy, with ABFT on and off.
void ExpectAppFiRungMatchesEveryLayerReference(NetworkSweepSpec spec) {
  spec.rung = NetworkRung::kAppFi;
  spec.dataflows = {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
                    Dataflow::kInputStationary};
  spec.signals = {MacSignal::kAdderOut};
  spec.polarities = {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1};
  spec.bits = {8, 24};
  spec.layers = {-1, 0, 1};
  spec.mitigations = {MitigationPolicy::kNone, MitigationPolicy::kColumnRemap,
                      MitigationPolicy::kRowRemap,
                      MitigationPolicy::kPruneChannel,
                      MitigationPolicy::kAbftCorrect};
  spec.max_sites = 4;
  for (const bool abft : {false, true}) {
    SCOPED_TRACE(abft ? "abft on" : "abft off");
    spec.abft = abft;
    NetworkCollectorSink sink;
    const SweepOutcome outcome = RunNetworkSweep(spec, sink);
    EXPECT_TRUE(outcome.ok());
    const std::vector<NetworkRecord> reference = EveryLayerOnTheHost(spec);
    ASSERT_EQ(reference.size(), spec.CampaignCount() * 4u);
    ASSERT_EQ(sink.records.size(), reference.size());
    bool any_sdc = false;
    bool any_mitigated_sdc = false;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(sink.records[i], reference[i])
          << "campaign " << reference[i].campaign_index << " experiment "
          << reference[i].experiment_index;
      any_sdc = any_sdc || reference[i].sdc;
      any_mitigated_sdc = any_mitigated_sdc || reference[i].mit_sdc;
    }
    EXPECT_TRUE(any_sdc);
    EXPECT_TRUE(any_mitigated_sdc);
  }
}

TEST(AppFiRungReferenceTest, MlpRecordsMatchEveryLayerOnTheHost) {
  ExpectAppFiRungMatchesEveryLayerReference(MlpSpec());
}

TEST(AppFiRungReferenceTest, CnnRecordsMatchEveryLayerOnTheHost) {
  ExpectAppFiRungMatchesEveryLayerReference(CnnSpec());
}

// The every-layer-on-the-array oracle over networks, arrays and fault axes
// the fixed cases above do not reach. Each iteration draws from its own
// seed, which a failure names: the network and its shape (batch; MLP hidden
// width, CNN conv channels or extraction k/n), a non-square array whose
// compute-row budget lies between rows and 2·rows so layers span several
// m-tiles, the dataflow, any signal at an in-width bit and polarity, a
// layer scope, a mitigation policy (remap and prune only for the signals
// the predictor covers) and ABFT on or off. The array stays INT8/ACC32,
// where the host GEMM models it; the DivergesFromTheHost tests above cover a
// width it does not model.
TEST(CycleRungReferenceTest, RandomNetworksMatchEveryLayerOnTheArray) {
  constexpr std::uint64_t kFirstSeed = 20261020;
  constexpr int kIterations = 200;
  const MacSignal signals[] = {MacSignal::kWeightOperand, MacSignal::kMulOut,
                               MacSignal::kAdderOut, MacSignal::kActForward,
                               MacSignal::kSouthForward};
  const Dataflow dataflows[] = {Dataflow::kWeightStationary,
                                Dataflow::kOutputStationary,
                                Dataflow::kInputStationary};
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(iteration);
    Rng rng(seed);
    NetworkSweepSpec spec;
    spec.rung = NetworkRung::kCycleAccurate;
    spec.seed = seed;
    spec.max_sites = 3;
    NetworkSpec& network = spec.network;
    network.kind = static_cast<NetworkKind>(rng.UniformInt(0, 2));
    network.seed = rng();
    switch (network.kind) {
      case NetworkKind::kExtraction:
        network.batch = rng.UniformInt(1, 12);
        network.extraction_k = rng.UniformInt(1, 20);
        network.extraction_n = rng.UniformInt(1, 20);
        break;
      case NetworkKind::kMlp:
        network.batch = rng.UniformInt(1, 12);
        network.hidden = rng.UniformInt(2, 12);
        network.train_samples = 40;
        network.train_epochs = 2;
        break;
      case NetworkKind::kCnn:
        network.batch = rng.UniformInt(1, 3);
        network.conv_channels = rng.UniformInt(1, 5);
        break;
    }
    ArrayConfig& array = spec.accel.array;
    array.rows = static_cast<std::int32_t>(rng.UniformInt(2, 9));
    array.cols = static_cast<std::int32_t>(rng.UniformInt(2, 9));
    spec.accel.max_compute_rows =
        static_cast<std::int32_t>(rng.UniformInt(array.rows, 2 * array.rows));
    spec.accel.acc_rows = spec.accel.max_compute_rows;
    spec.accel.spad_rows =
        spec.accel.max_compute_rows + std::max(array.rows, array.cols);
    spec.accel.dram_bytes = 1 << 20;

    const MacSignal signal = signals[rng.UniformInt(0, 4)];
    spec.dataflows = {dataflows[rng.UniformInt(0, 2)]};
    spec.signals = {signal};
    spec.bits = {static_cast<int>(
        rng.UniformInt(0, SignalWidth(signal, array) - 1))};
    spec.polarities = {rng.Bernoulli(0.5) ? StuckPolarity::kStuckAt1
                                          : StuckPolarity::kStuckAt0};
    spec.layers = {static_cast<int>(
        rng.UniformInt(-1, NetworkLayerCount(network.kind) - 1))};
    const bool pe_local = signal == MacSignal::kWeightOperand ||
                          signal == MacSignal::kMulOut ||
                          signal == MacSignal::kAdderOut;
    spec.mitigations = {
        pe_local ? static_cast<MitigationPolicy>(
                       rng.UniformInt(0, kNumMitigationPolicies - 1))
        : rng.Bernoulli(0.5) ? MitigationPolicy::kNone
                             : MitigationPolicy::kAbftCorrect};
    spec.abft = rng.Bernoulli(0.5);
    SCOPED_TRACE("iteration seed " + std::to_string(seed) + ": " +
                 spec.ToJson());

    NetworkCollectorSink sink;
    const SweepOutcome outcome = RunNetworkSweep(spec, sink);
    EXPECT_TRUE(outcome.ok());
    const std::vector<NetworkRecord> reference = EveryLayerOnTheArray(spec);
    ASSERT_EQ(sink.records.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(sink.records[i], reference[i])
          << "experiment " << reference[i].experiment_index;
    }
  }
}

// Span names are the sweep's per-layer cost breakdown (dnn_cli
// --trace-out): a traced MLP sweep that builds the cycle rung, runs ABFT
// and a mitigated inference emits every one of them.
TEST(RunNetworkSweepTest, TracedSweepEmitsEveryNetworkSpan) {
  NetworkSweepSpec spec = MlpSpec();
  spec.rung = NetworkRung::kCycleAccurate;
  spec.layers = {-1};
  spec.mitigations = {MitigationPolicy::kColumnRemap};
  spec.abft = true;
  obs::TraceSession& session = obs::TraceSession::Instance();
  session.Start();
  NetworkCollectorSink sink;
  const SweepOutcome outcome = RunNetworkSweep(spec, sink);
  session.Stop();
  std::ostringstream trace;
  session.WriteChromeTrace(trace);
  session.Clear();
  EXPECT_TRUE(outcome.ok());
  for (const char* name :
       {"dnn.experiment", "dnn.layer", "dnn.abft", "dnn.mitigated_inference",
        "dnn.cycle_rung"}) {
    EXPECT_NE(trace.str().find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace saffire
