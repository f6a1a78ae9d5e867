#include "patterns/campaign.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "patterns/symmetry.h"

namespace saffire {
namespace {

// The one engine-name table: ToString and ParseCampaignEngine round-trip
// through it exactly, indexed by the enum value.
constexpr const char* kEngineNames[] = {"differential", "reference",
                                        "predicted"};

}  // namespace

std::string ToString(CampaignEngine engine) {
  const auto index = static_cast<std::size_t>(engine);
  SAFFIRE_ASSERT_MSG(index < std::size(kEngineNames),
                     "engine " << static_cast<int>(index));
  return kEngineNames[index];
}

CampaignEngine ParseCampaignEngine(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kEngineNames); ++i) {
    if (name == kEngineNames[i]) return static_cast<CampaignEngine>(i);
  }
  SAFFIRE_CHECK_MSG(false, "unknown campaign engine '"
                               << name
                               << "' (expected differential|reference|"
                                  "predicted)");
}

int DefaultCampaignThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 256u));
}

std::string CampaignConfig::ToString() const {
  std::ostringstream os;
  os << workload.ToString() << " | " << saffire::ToString(dataflow) << " | ";
  if (kind == FaultKind::kStuckAt) {
    os << saffire::ToString(polarity);
  } else {
    os << "transient-flip";
  }
  os << " bit" << bit << " on " << saffire::ToString(signal) << " | array "
     << accel.array.ToString();
  if (max_sites > 0) os << " | sampled " << max_sites << " sites";
  return os.str();
}

std::vector<PeCoord> CampaignSites(const CampaignConfig& config) {
  return SampleSites(config.accel.array, config.max_sites, config.seed);
}

std::vector<PeCoord> SampleSites(const ArrayConfig& array,
                                 std::int64_t max_sites, std::uint64_t seed) {
  const std::vector<PeCoord> all = AllPeCoords(array);
  if (max_sites <= 0 || max_sites >= static_cast<std::int64_t>(all.size())) {
    return all;
  }
  Rng rng(seed);
  const auto picks = rng.SampleWithoutReplacement(
      static_cast<std::int64_t>(all.size()), max_sites);
  std::vector<PeCoord> sites;
  sites.reserve(picks.size());
  for (const std::int64_t index : picks) {
    sites.push_back(all[static_cast<std::size_t>(index)]);
  }
  return sites;
}

namespace {

// Builds the fault of each experiment. For transient campaigns, at_cycle
// holds the strike offset *relative to the faulty run's start*; the
// executor rebases it onto its own simulator's cycle counter. Offsets are
// pre-sampled here so serial and parallel execution (and any site order)
// yield identical experiments.
std::vector<FaultSpec> PlanFaults(const CampaignConfig& config,
                                  const std::vector<PeCoord>& sites,
                                  std::int64_t golden_cycles) {
  Rng strike_rng(config.seed ^ 0x7261696ec0ffeeULL);
  std::vector<FaultSpec> faults;
  faults.reserve(sites.size());
  for (const PeCoord site : sites) {
    FaultSpec fault;
    fault.kind = config.kind;
    fault.pe = site;
    fault.signal = config.signal;
    fault.bit = config.bit;
    fault.polarity = config.polarity;
    if (config.kind == FaultKind::kTransientFlip) {
      fault.at_cycle = strike_rng.UniformInt(0, golden_cycles - 1);
    }
    faults.push_back(fault);
  }
  return faults;
}

// Every experiment of a campaign shares its fault model, and its sites are
// in range by construction, so one check stands for all of them.
void ValidateFaultModel(const CampaignConfig& config) {
  FaultSpec fault;
  fault.kind = config.kind;
  fault.signal = config.signal;
  fault.bit = config.bit;
  fault.polarity = config.polarity;
  fault.at_cycle = 0;  // a transient's strike offset is sampled later
  fault.Validate(config.accel.array);
}

bool PredictorCoversSignal(MacSignal signal) {
  return signal == MacSignal::kAdderOut || signal == MacSignal::kMulOut ||
         signal == MacSignal::kWeightOperand;
}

obs::Counter& PredictHitsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.predict.hits",
      "experiments served by the closed-form predicted engine");
  return counter;
}

obs::Counter& PredictResidueCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.predict.residue",
      "experiments requested as predicted but outside the closed form, "
      "routed through the lane-grid replay");
  return counter;
}

obs::Counter& ReplicatedRecordsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.cache.replicated_records",
      "member records copied from a symmetry-class representative instead "
      "of simulated");
  return counter;
}

obs::Counter& SymmetryClassesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.cache.symmetry_classes",
      "site-equivalence classes found across symmetry-planned campaigns");
  return counter;
}

// Applies the engine choice to the simulator about to execute a run.
void ConfigureEngine(FiRunner& runner, CampaignEngine engine) {
  runner.accel().array().set_force_reference_step(engine ==
                                                  CampaignEngine::kReference);
}

// Turns one faulty run into its record — the engine-independent half of an
// experiment, shared by the per-experiment path (a RunResult, dense output)
// and the grouped path (a ConeRunResult, diffed over the cone only). `fault`
// is the campaign's pre-sampled spec (relative strike offset for
// transients).
template <typename Faulty>
ExperimentRecord BuildRecord(const PreparedCampaign& prepared,
                             const FaultSpec& fault, const Faulty& faulty) {
  const CorruptionMap map =
      ExtractCorruption(prepared.golden().output, faulty.output);

  ExperimentRecord record;
  record.fault = fault;
  record.observed = Classify(map, prepared.context);
  record.corrupted_count = map.count();
  record.max_abs_delta = map.max_abs_delta;
  record.fault_activations = faulty.fault_activations;
  record.cycles = faulty.cycles;
  record.pe_steps = faulty.pe_steps;
  record.pe_steps_skipped = faulty.pe_steps_skipped;

  if (prepared.predictions != nullptr) {
    const PredictedPattern& prediction = prepared.predictions->Lookup(fault);
    record.predicted = prediction.pattern;
    record.prediction_exact = map.corrupted == prediction.coords;
    record.observed_within_predicted =
        std::includes(prediction.coords.begin(), prediction.coords.end(),
                      map.corrupted.begin(), map.corrupted.end());
  } else {
    // No analytical model for this signal; record the observation only.
    record.predicted = PatternClass::kOther;
    record.prediction_exact = false;
    record.observed_within_predicted = false;
  }
  return record;
}

// The closed-form/replay core of a predicted-engine group: simulates
// `faults` as one group and builds their records. Shared by
// RunPreparedBatch and the one-lane groups of
// RunPreparedExperimentWithEngine — lane-partition invariance makes their
// records bit-identical. Both runners are pure functions of the golden run
// (and, on the lane grid, its trace), so the simulator's engine tier does
// not matter here.
std::vector<ExperimentRecord> RunFaultGroup(const PreparedCampaign& prepared,
                                            FiRunner& runner,
                                            std::span<const FaultSpec> faults) {
  const CampaignConfig& config = prepared.config;
  SAFFIRE_CHECK_MSG(config.engine == CampaignEngine::kPredicted,
                    "predicted-engine group on a "
                        << ToString(config.engine) << " campaign");
  const bool closed_form = PredictedEngineExact(config);
  (closed_form ? PredictHitsCounter() : PredictResidueCounter())
      .Increment(static_cast<std::int64_t>(faults.size()));
  // The lane grid consumes the relative strike offsets directly (against
  // the trace's recorded per-step clocks), so no rebasing happens here.
  // The closed form never strikes at all; it runs on the planned half's
  // operands and reports the golden cycles, as the lane grid does.
  std::vector<ConeRunResult> faulty;
  if (closed_form) {
    faulty = runner.RunFaultyPredicted(prepared.planned->operands,
                                       config.dataflow, faults,
                                       prepared.golden().output);
    for (ConeRunResult& result : faulty) {
      result.cycles = prepared.golden().cycles;
    }
  } else {
    faulty = runner.RunFaultyBatch(config.workload, config.dataflow, faults,
                                   *prepared.trace(), prepared.golden());
  }
  std::vector<ExperimentRecord> records;
  records.reserve(faulty.size());
  {
    // Classification + prediction over the lane outputs — the post-replay
    // diff work, separated from the replay itself in phase breakdowns.
    SAFFIRE_SPAN("fi.batch.diff");
    for (std::size_t i = 0; i < faulty.size(); ++i) {
      records.push_back(BuildRecord(prepared, faults[i], faulty[i]));
    }
  }
  return records;
}

}  // namespace

bool PredictedEngineExact(const CampaignConfig& config) {
  return PredictedEngineExact(config.kind, config.signal);
}

bool PredictedEngineExact(FaultKind kind, MacSignal signal) {
  return kind == FaultKind::kStuckAt && PredictorCoversSignal(signal);
}

bool SymmetryEligibleCampaign(const CampaignConfig& config) {
  // The header gives each condition's reason. Member synthesis must be
  // exact, not merely likely: selfcheck_rate defaults to 0, so nothing
  // would catch a member whose record differs from its representative's.
  const WorkloadSpec& workload = config.workload;
  const bool padded_input_stationary =
      config.dataflow == Dataflow::kInputStationary &&
      workload.op == OpType::kConv && workload.conv.pad > 0;
  return config.kind == FaultKind::kStuckAt &&
         PredictorCoversSignal(config.signal) &&
         workload.input_fill == OperandFill::kOnes &&
         workload.weight_fill == OperandFill::kOnes &&
         !padded_input_stationary;
}

PreparedCampaign PrepareCampaign(const CampaignConfig& config,
                                 FiRunner* golden_runner) {
  SAFFIRE_SPAN("campaign.prepare");
  config.accel.Validate();
  config.workload.Validate();
  ValidateFaultModel(config);
  if (config.engine == CampaignEngine::kPredicted) {
    SAFFIRE_CHECK_MSG(config.batch_lanes >= 1 && config.batch_lanes <= 4096,
                      "batch_lanes=" << config.batch_lanes);
  }

  PreparedCampaign prepared;
  prepared.config = config;

  // The golden run: recomputed through the instrumented loop under
  // kReference (the pre-optimization baseline), served from the process-wide
  // cache otherwise — planned for the closed form, recorded for the engines
  // that replay its trace.
  if (config.engine == CampaignEngine::kReference) {
    std::optional<FiRunner> local_runner;
    FiRunner& runner = golden_runner != nullptr
                           ? *golden_runner
                           : local_runner.emplace(config.accel);
    ConfigureEngine(runner, config.engine);
    prepared.golden_run = std::make_shared<const RunResult>(
        runner.RunGolden(config.workload, config.dataflow));
  } else {
    prepared.cached = GoldenRunCache::Instance().Get(
        config.accel, config.workload, config.dataflow);
    if (config.engine == CampaignEngine::kPredicted &&
        PredictedEngineExact(config)) {
      prepared.planned = prepared.cached->planned(&prepared.golden_cache_hit);
      prepared.golden_run = std::shared_ptr<const RunResult>(
          prepared.planned, &prepared.planned->result);
    } else {
      prepared.recorded =
          prepared.cached->recorded(&prepared.golden_cache_hit);
      prepared.golden_run = std::shared_ptr<const RunResult>(
          prepared.recorded, &prepared.recorded->result);
    }
  }

  prepared.context =
      MakeClassifyContext(config.workload, config.accel, config.dataflow);
  if (PredictorCoversSignal(config.signal)) {
    prepared.predictions = std::make_shared<PredictionCache>(
        config.workload, config.accel, config.dataflow);
  }
  prepared.sites = CampaignSites(config);
  prepared.faults = PlanFaults(config, prepared.sites,
                               prepared.golden().cycles);

  // The folding plan: each experiment's representative, the earliest site
  // of its record-identity class in campaign order — itself when the
  // campaign does not fold.
  const bool folds = SymmetryEligibleCampaign(config);
  if (folds) {
    SAFFIRE_SPAN("campaign.symmetry_plan");
    prepared.symmetry_rep_of = PartitionFaultSites(
        prepared.sites, config.workload, config.accel, config.dataflow);
  } else {
    prepared.symmetry_rep_of.resize(prepared.sites.size());
    std::iota(prepared.symmetry_rep_of.begin(),
              prepared.symmetry_rep_of.end(), std::size_t{0});
  }
  for (std::size_t i = 0; i < prepared.sites.size(); ++i) {
    if (prepared.symmetry_rep_of[i] == i) ++prepared.symmetry_classes;
  }
  if (folds) {
    SymmetryClassesCounter().Increment(
        static_cast<std::int64_t>(prepared.symmetry_classes));
  }
  return prepared;
}

ExperimentRecord RunPreparedExperiment(const PreparedCampaign& prepared,
                                       FiRunner& runner, std::size_t index) {
  return RunPreparedExperimentWithEngine(prepared, runner, index,
                                         prepared.config.engine);
}

ExperimentRecord RunPreparedExperimentWithEngine(
    const PreparedCampaign& prepared, FiRunner& runner, std::size_t index,
    CampaignEngine engine) {
  SAFFIRE_ASSERT_MSG(index < prepared.faults.size(),
                     "experiment " << index << " of "
                                   << prepared.faults.size());
  const CampaignConfig& config = prepared.config;
  if (engine == CampaignEngine::kPredicted) {
    // A one-lane group — same code path, same record.
    return RunFaultGroup(prepared, runner, {&prepared.faults[index], 1})
        .front();
  }
  SAFFIRE_SPAN("campaign.experiment");
  ConfigureEngine(runner, engine);
  const FaultSpec& fault = prepared.faults[index];
  FaultSpec injected = fault;
  if (injected.kind == FaultKind::kTransientFlip) {
    // Rebase the relative strike offset onto this simulator's clock. Only
    // the injected copy is rebased: the record keeps the relative offset,
    // which is what makes records identical no matter which simulator (with
    // whatever accumulated cycle count) ran the experiment.
    injected.at_cycle += runner.accel().cycles();
  }
  // The trace is consulted for the *effective* engine, not the configured
  // one: a predicted campaign demoted to differential replays the cached
  // trace (recording it first if the campaign ran in closed form), while a
  // demotion to reference ignores it.
  const GoldenTrace* trace =
      engine == CampaignEngine::kDifferential ? prepared.trace() : nullptr;
  const RunResult faulty =
      trace != nullptr
          ? runner.RunFaultyDifferential(config.workload, config.dataflow,
                                         {&injected, 1}, *trace)
          : runner.RunFaulty(config.workload, config.dataflow,
                             {&injected, 1});
  return BuildRecord(prepared, fault, faulty);
}

std::vector<ExperimentRecord> RunPreparedBatch(
    const PreparedCampaign& prepared, FiRunner& runner,
    std::span<const std::size_t> indices) {
  std::vector<FaultSpec> faults;
  faults.reserve(indices.size());
  for (const std::size_t index : indices) {
    SAFFIRE_ASSERT_MSG(index < prepared.faults.size(),
                       "experiment " << index << " of "
                                     << prepared.faults.size());
    faults.push_back(prepared.faults[index]);
  }
  return RunFaultGroup(prepared, runner, faults);
}

std::vector<ExperimentRecord> RunPreparedBatch(
    const PreparedCampaign& prepared, FiRunner& runner, std::size_t begin,
    std::size_t end) {
  SAFFIRE_ASSERT_MSG(begin < end && end <= prepared.faults.size(),
                     "batch [" << begin << ", " << end << ") of "
                               << prepared.faults.size());
  std::vector<std::size_t> indices(end - begin);
  std::iota(indices.begin(), indices.end(), begin);
  return RunPreparedBatch(prepared, runner, indices);
}

std::vector<std::size_t> SimulationList(
    const PreparedCampaign& prepared,
    std::span<const std::int64_t> experiments) {
  std::vector<std::size_t> list;
  list.reserve(experiments.size());
  for (const std::int64_t index : experiments) {
    list.push_back(prepared.symmetry_rep_of[static_cast<std::size_t>(index)]);
  }
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
  return list;
}

ExperimentRecord MemberRecord(const PreparedCampaign& prepared,
                              const ExperimentRecord& representative,
                              std::size_t index) {
  ExperimentRecord record = representative;
  record.fault = prepared.faults[index];
  if (prepared.symmetry_rep_of[index] != index) {
    ReplicatedRecordsCounter().Increment();
  }
  return record;
}

CampaignResult RunCampaignSerial(const CampaignConfig& config) {
  const PreparedCampaign prepared = PrepareCampaign(config);
  SAFFIRE_LOG_INFO << "campaign (serial): " << config.ToString() << " — "
                   << prepared.sites.size() << " fault sites, "
                   << ToString(config.engine) << " engine";

  CampaignResult result;
  result.config = config;
  result.golden_cycles = prepared.golden().cycles;
  result.golden_pe_steps = prepared.golden().pe_steps;

  std::vector<std::int64_t> experiments(prepared.faults.size());
  std::iota(experiments.begin(), experiments.end(), std::int64_t{0});
  const std::vector<std::size_t> simulate =
      SimulationList(prepared, experiments);
  // Representative records, by experiment index.
  std::vector<ExperimentRecord> simulated(prepared.faults.size());
  FiRunner runner(config.accel);
  if (config.engine == CampaignEngine::kPredicted) {
    // Canonical groups: consecutive batch_lanes-sized blocks of the
    // simulation list, the final one possibly partial. A closed-form
    // campaign never fills a lane, so its occupancy stats stay 0; the
    // residue replays on the lane grid and counts normally.
    const bool closed_form = PredictedEngineExact(config);
    const auto lanes = static_cast<std::size_t>(config.batch_lanes);
    for (std::size_t p = 0; p < simulate.size(); p += lanes) {
      const std::span<const std::size_t> group(
          simulate.data() + p, std::min(lanes, simulate.size() - p));
      std::vector<ExperimentRecord> records =
          RunPreparedBatch(prepared, runner, group);
      if (!closed_form) {
        result.lanes_filled += group.size();
        ++result.batches_run;
      }
      for (std::size_t i = 0; i < group.size(); ++i) {
        simulated[group[i]] = std::move(records[i]);
      }
    }
  } else {
    for (const std::size_t index : simulate) {
      simulated[index] = RunPreparedExperiment(prepared, runner, index);
    }
  }
  result.records.reserve(prepared.faults.size());
  for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
    result.records.push_back(
        MemberRecord(prepared, simulated[prepared.symmetry_rep_of[i]], i));
  }
  return result;
}

std::uint64_t CampaignResult::FaultyPeSteps() const {
  std::uint64_t total = 0;
  for (const ExperimentRecord& record : records) total += record.pe_steps;
  return total;
}

std::uint64_t CampaignResult::FaultyPeStepsSkipped() const {
  std::uint64_t total = 0;
  for (const ExperimentRecord& record : records) {
    total += record.pe_steps_skipped;
  }
  return total;
}

std::map<PatternClass, std::int64_t> CampaignResult::Histogram() const {
  std::map<PatternClass, std::int64_t> histogram;
  for (const ExperimentRecord& record : records) {
    ++histogram[record.observed];
  }
  return histogram;
}

std::int64_t CampaignResult::MaskedCount() const {
  std::int64_t masked = 0;
  for (const ExperimentRecord& record : records) {
    if (record.observed == PatternClass::kMasked) ++masked;
  }
  return masked;
}

PatternClass CampaignResult::DominantClass() const {
  PatternClass best = PatternClass::kMasked;
  std::int64_t best_count = 0;
  for (const auto& [pattern, count] : Histogram()) {
    if (pattern == PatternClass::kMasked) continue;
    if (count > best_count) {
      best = pattern;
      best_count = count;
    }
  }
  return best;
}

double CampaignResult::ClassAgreement() const {
  if (records.empty()) return 1.0;
  std::int64_t agree = 0;
  for (const ExperimentRecord& record : records) {
    if (record.observed == record.predicted) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(records.size());
}

double CampaignResult::ExactAgreement() const {
  if (records.empty()) return 1.0;
  std::int64_t exact = 0;
  for (const ExperimentRecord& record : records) {
    if (record.prediction_exact) ++exact;
  }
  return static_cast<double>(exact) / static_cast<double>(records.size());
}

double CampaignResult::ContainmentRate() const {
  if (records.empty()) return 1.0;
  std::int64_t contained = 0;
  for (const ExperimentRecord& record : records) {
    if (record.observed_within_predicted) ++contained;
  }
  return static_cast<double>(contained) /
         static_cast<double>(records.size());
}

bool CampaignResult::SingleClassProperty() const {
  PatternClass seen = PatternClass::kMasked;
  for (const ExperimentRecord& record : records) {
    if (record.observed == PatternClass::kMasked) continue;
    if (seen == PatternClass::kMasked) {
      seen = record.observed;
    } else if (record.observed != seen) {
      return false;
    }
  }
  return true;
}

}  // namespace saffire
