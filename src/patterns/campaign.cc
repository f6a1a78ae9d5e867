#include "patterns/campaign.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <span>
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
constexpr const char* kEngineNames[] = {"differential", "reference", "batch",
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
                               << "' (expected differential|reference|batch|"
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
      "routed through the batch replay");
  return counter;
}

obs::Counter& ReplicatedRecordsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.cache.replicated_records",
      "member records synthesized from a symmetry-class representative "
      "instead of simulated");
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

// The replay/closed-form core of a grouped run: simulates `faults` as one
// group on `engine` and builds their records. Shared by the plain grouped
// path (a whole [begin, end) slice) and the symmetry path (the deduped
// representative set of a slice) — lane-partition invariance guarantees
// both produce bit-identical records for the faults they do simulate.
std::vector<ExperimentRecord> RunFaultGroup(const PreparedCampaign& prepared,
                                            FiRunner& runner,
                                            std::span<const FaultSpec> faults,
                                            CampaignEngine engine) {
  const CampaignConfig& config = prepared.config;
  const GoldenTrace* trace = prepared.trace();
  SAFFIRE_CHECK_MSG(trace != nullptr,
                    "grouped engines require a cached golden trace");
  ConfigureEngine(runner, engine);
  const bool closed_form =
      engine == CampaignEngine::kPredicted && PredictedEngineExact(config);
  if (engine == CampaignEngine::kPredicted) {
    (closed_form ? PredictHitsCounter() : PredictResidueCounter())
        .Increment(static_cast<std::int64_t>(faults.size()));
  }
  // The batch runner consumes the relative strike offsets directly (against
  // the trace's recorded per-step clocks), so no rebasing happens here.
  // Same convention under the closed form, which never strikes at all.
  const std::vector<ConeRunResult> faulty =
      closed_form
          ? runner.RunFaultyPredicted(config.workload, config.dataflow,
                                      faults, *trace, prepared.golden())
          : runner.RunFaultyBatch(config.workload, config.dataflow, faults,
                                  *trace, prepared.golden());
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

bool SymmetryMemo::AcquireOrOwn(std::size_t representative,
                                ExperimentRecord* record) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto [it, inserted] = records_.try_emplace(representative);
    if (inserted) return false;  // the caller owns the computation
    if (it->second.has_value()) {
      *record = *it->second;
      return true;
    }
    if (disabled()) {
      // Stop waiting on a distrusted memo: the caller simulates directly.
      // The in-flight owner's eventual Fulfill (or an Abandon from this
      // caller's failure path erasing the owner's marker) is harmless —
      // post-disable nobody consults the memo, and racing records are
      // identical anyway.
      return false;
    }
    ready_.wait(lock);
  }
}

void SymmetryMemo::Fulfill(std::size_t representative,
                           ExperimentRecord record) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_[representative] = std::move(record);
  }
  ready_.notify_all();
}

void SymmetryMemo::Abandon(std::size_t representative) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(representative);
    if (it != records_.end() && !it->second.has_value()) records_.erase(it);
  }
  ready_.notify_all();
}

void SymmetryMemo::Disable() {
  {
    // The store happens under the mutex so a waiter between its disabled
    // check and the wait cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(mutex_);
    disabled_.store(true, std::memory_order_relaxed);
  }
  ready_.notify_all();
}

bool GroupedCampaignEngine(CampaignEngine engine) {
  return engine == CampaignEngine::kBatch ||
         engine == CampaignEngine::kPredicted;
}

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
  if (GroupedCampaignEngine(config.engine)) {
    SAFFIRE_CHECK_MSG(config.batch_lanes >= 1 && config.batch_lanes <= 4096,
                      "batch_lanes=" << config.batch_lanes);
  }

  PreparedCampaign prepared;
  prepared.config = config;

  // The golden run: recomputed through the instrumented loop under
  // kReference (the pre-optimization baseline), served from the process-wide
  // cache otherwise.
  if (config.engine == CampaignEngine::kReference) {
    if (golden_runner != nullptr) {
      ConfigureEngine(*golden_runner, config.engine);
      prepared.reference_golden =
          golden_runner->RunGolden(config.workload, config.dataflow);
    } else {
      FiRunner local_runner(config.accel);
      ConfigureEngine(local_runner, config.engine);
      prepared.reference_golden =
          local_runner.RunGolden(config.workload, config.dataflow);
    }
  } else {
    bool hit = false;
    prepared.cached = GoldenRunCache::Instance().GetOrCompute(
        config.accel, config.workload, config.dataflow, &hit);
    prepared.golden_cache_hit = hit;
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

  // Symmetry plan: partition the campaign's sites (in campaign order) into
  // record-identity classes, and record each experiment's representative.
  // A memo is only allocated when the partition actually collapses
  // something — otherwise every experiment simulates directly.
  prepared.symmetry_classes = prepared.sites.size();
  if (SymmetryEligibleCampaign(config)) {
    SAFFIRE_SPAN("campaign.symmetry_plan");
    std::vector<std::size_t> rep_of = PartitionFaultSites(
        prepared.sites, config.workload, config.accel, config.dataflow);
    std::size_t classes = 0;
    for (std::size_t i = 0; i < rep_of.size(); ++i) {
      if (rep_of[i] == i) ++classes;
    }
    prepared.symmetry_classes = classes;
    SymmetryClassesCounter().Increment(static_cast<std::int64_t>(classes));
    if (classes < prepared.sites.size()) {
      prepared.symmetry_rep_of = std::move(rep_of);
      prepared.symmetry_memo = std::make_shared<SymmetryMemo>();
    }
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
  if (prepared.SymmetryActive()) {
    const std::size_t rep = prepared.symmetry_rep_of[index];
    ExperimentRecord record;
    if (!prepared.symmetry_memo->AcquireOrOwn(rep, &record)) {
      // This thread owns the representative's simulation; other workers
      // needing it wait on the memo instead of duplicating the array pass.
      try {
        record = RunPreparedExperimentDirect(prepared, runner, rep, engine);
      } catch (...) {
        prepared.symmetry_memo->Abandon(rep);
        throw;
      }
      prepared.symmetry_memo->Fulfill(rep, record);
    }
    if (rep != index) {
      // Synthesize the member record: identical to the representative's in
      // every field except the injected fault's coordinate.
      record.fault = prepared.faults[index];
      ReplicatedRecordsCounter().Increment();
    }
    return record;
  }
  return RunPreparedExperimentDirect(prepared, runner, index, engine);
}

ExperimentRecord RunPreparedExperimentDirect(const PreparedCampaign& prepared,
                                             FiRunner& runner,
                                             std::size_t index,
                                             CampaignEngine engine) {
  SAFFIRE_ASSERT_MSG(index < prepared.faults.size(),
                     "experiment " << index << " of "
                                   << prepared.faults.size());
  const CampaignConfig& config = prepared.config;
  if (GroupedCampaignEngine(engine)) {
    SAFFIRE_CHECK_MSG(GroupedCampaignEngine(config.engine),
                      "grouped engine on a non-grouped campaign: "
                          << ToString(config.engine));
    // A one-lane group — same code path, same record.
    return RunFaultGroup(prepared, runner, {&prepared.faults[index], 1},
                         engine)
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
  // one: a batch campaign demoted to differential replays the same cached
  // trace, while a demotion to reference ignores it.
  const GoldenTrace* trace =
      prepared.cached != nullptr && engine == CampaignEngine::kDifferential
          ? &prepared.cached->trace
          : nullptr;
  const RunResult faulty =
      trace != nullptr
          ? runner.RunFaultyDifferential(config.workload, config.dataflow,
                                         {&injected, 1}, *trace)
          : runner.RunFaulty(config.workload, config.dataflow,
                             {&injected, 1});
  return BuildRecord(prepared, fault, faulty);
}

std::vector<ExperimentRecord> RunPreparedBatch(
    const PreparedCampaign& prepared, FiRunner& runner, std::size_t begin,
    std::size_t end) {
  return RunPreparedBatch(prepared, runner, begin, end,
                          prepared.config.engine);
}

std::vector<ExperimentRecord> RunPreparedBatch(
    const PreparedCampaign& prepared, FiRunner& runner, std::size_t begin,
    std::size_t end, CampaignEngine engine,
    std::uint64_t* lanes_simulated) {
  SAFFIRE_ASSERT_MSG(begin < end && end <= prepared.faults.size(),
                     "batch [" << begin << ", " << end << ") of "
                               << prepared.faults.size());
  const CampaignConfig& config = prepared.config;
  SAFFIRE_CHECK_MSG(GroupedCampaignEngine(engine),
                    "RunPreparedBatch requires a grouped engine, got "
                        << ToString(engine));
  SAFFIRE_CHECK_MSG(GroupedCampaignEngine(config.engine),
                    "RunPreparedBatch requires a grouped campaign, got "
                        << ToString(config.engine));
  if (lanes_simulated != nullptr) {
    *lanes_simulated = static_cast<std::uint64_t>(end - begin);
  }
  if (prepared.SymmetryActive()) {
    // Gather the slice's distinct representatives — in ascending order, the
    // deadlock-freedom contract of SymmetryMemo::AcquireOrOwn — and acquire
    // each: hits come from the memo (waiting out another worker's in-flight
    // simulation), the rest are owned by this call and simulated as one
    // group below. A representative may lie outside the slice (an earlier
    // batch, or a batch this process never runs under shard filtering /
    // checkpoint resume) — its fault is still addressable globally, so it
    // simply joins this group.
    SymmetryMemo& memo = *prepared.symmetry_memo;
    std::set<std::size_t> reps;
    for (std::size_t i = begin; i < end; ++i) {
      reps.insert(prepared.symmetry_rep_of[i]);
    }
    std::map<std::size_t, ExperimentRecord> group;
    std::vector<std::size_t> need;
    for (const std::size_t rep : reps) {
      ExperimentRecord record;
      if (memo.AcquireOrOwn(rep, &record)) {
        group.emplace(rep, std::move(record));
      } else {
        need.push_back(rep);
      }
    }
    if (!need.empty()) {
      std::vector<FaultSpec> rep_faults;
      rep_faults.reserve(need.size());
      for (const std::size_t rep : need) {
        rep_faults.push_back(prepared.faults[rep]);
      }
      std::vector<ExperimentRecord> simulated;
      try {
        simulated = RunFaultGroup(prepared, runner, rep_faults, engine);
      } catch (...) {
        // Release ownership so a waiter retries instead of hanging; the
        // retry/demotion machinery above re-runs this group.
        for (const std::size_t rep : need) memo.Abandon(rep);
        throw;
      }
      for (std::size_t i = 0; i < need.size(); ++i) {
        memo.Fulfill(need[i], simulated[i]);
        group.emplace(need[i], std::move(simulated[i]));
      }
    }
    if (lanes_simulated != nullptr) {
      *lanes_simulated = static_cast<std::uint64_t>(need.size());
    }
    std::vector<ExperimentRecord> records;
    records.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t rep = prepared.symmetry_rep_of[i];
      ExperimentRecord record = group.at(rep);
      if (rep != i) {
        record.fault = prepared.faults[i];
        ReplicatedRecordsCounter().Increment();
      }
      records.push_back(std::move(record));
    }
    return records;
  }
  const std::span<const FaultSpec> faults(prepared.faults.data() + begin,
                                          end - begin);
  return RunFaultGroup(prepared, runner, faults, engine);
}

CampaignResult RunCampaignSerial(const CampaignConfig& config) {
  const PreparedCampaign prepared = PrepareCampaign(config);
  SAFFIRE_LOG_INFO << "campaign (serial): " << config.ToString() << " — "
                   << prepared.sites.size() << " fault sites, "
                   << ToString(config.engine) << " engine";

  CampaignResult result;
  result.config = config;
  result.golden_cache_hit = prepared.golden_cache_hit;
  result.golden_cycles = prepared.golden().cycles;
  result.golden_pe_steps = prepared.golden().pe_steps;

  FiRunner runner(config.accel);
  result.records.reserve(prepared.faults.size());
  if (GroupedCampaignEngine(config.engine)) {
    // Canonical batch boundaries: consecutive batch_lanes-sized groups of
    // the site order, the final one possibly partial. A closed-form
    // predicted campaign never fills a lane, so its occupancy stats stay 0;
    // the predicted residue replays through the lanes and counts normally.
    const bool closed_form = config.engine == CampaignEngine::kPredicted &&
                             PredictedEngineExact(config);
    const auto lanes = static_cast<std::size_t>(config.batch_lanes);
    for (std::size_t i = 0; i < prepared.faults.size(); i += lanes) {
      const std::size_t end = std::min(prepared.faults.size(), i + lanes);
      std::uint64_t simulated = 0;
      std::vector<ExperimentRecord> records = RunPreparedBatch(
          prepared, runner, i, end, config.engine, &simulated);
      // Occupancy counts lanes actually simulated: under a symmetry plan a
      // group shrinks to its unseen representatives and can vanish
      // entirely, in which case no array pass happened.
      if (!closed_form && simulated > 0) {
        result.lanes_filled += simulated;
        ++result.batches_run;
      }
      std::move(records.begin(), records.end(),
                std::back_inserter(result.records));
    }
  } else {
    for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
      result.records.push_back(RunPreparedExperiment(prepared, runner, i));
    }
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
