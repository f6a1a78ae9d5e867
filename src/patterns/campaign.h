// Fault-injection campaign orchestration: the paper's evaluation
// methodology (Sec. III-B) — for each configuration, inject a stuck-at
// fault into every MAC unit of the array (256 experiments on the 16×16
// array), contrast each faulty output with the golden run, classify the
// corruption, and cross-validate against the analytical predictor.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fi/golden_cache.h"
#include "fi/runner.h"
#include "patterns/classify.h"
#include "patterns/predictor.h"

namespace saffire {

// How each faulty experiment is executed. All engines produce bit-identical
// records (tests/fi/differential_test.cc, tests/patterns tier) apart from
// the pe_steps / pe_steps_skipped split, the cost each run reports.
enum class CampaignEngine : std::uint8_t {
  // Fault-cone differential runs (fi/cone.h) against a cached golden trace;
  // fast-path kernels for unhooked columns. The default, and the oracle
  // --selfcheck-rate cross-validates the predicted engine against.
  kDifferential = 0,
  // Everything through the instrumented reference Step() loop, every PE
  // simulated, golden runs recomputed per campaign — the pre-optimization
  // behavior, kept as the ground truth the other engines are validated
  // against and as the bottom of the demotion ladder.
  kReference = 1,
  // The grouped engine, batch_lanes experiments per group. When the
  // campaign's (kind, signal) combination is provably exact — permanent
  // stuck-at faults on the PE-local kWeightOperand / kMulOut / kAdderOut
  // signals, see PredictedEngineExact — records come from the closed-form
  // corruption delta (fi/predicted.cc) without stepping the array at all.
  // Everything else (transients, forwarding signals) is residue and replays
  // on the lane grid (systolic/lane_grid.h), each lane restricted to its
  // fault cone and diffed against the cached golden trace, so the engine is
  // safe to request unconditionally.
  kPredicted = 2,
};

std::string ToString(CampaignEngine engine);

// Parses the names produced by ToString ("differential"/"reference"/
// "predicted" — one shared table, exact round-trip); throws
// std::invalid_argument on unknown names.
CampaignEngine ParseCampaignEngine(const std::string& name);

// std::thread::hardware_concurrency(), clamped to the [1, 256] range the
// campaign executor accepts — the default worker count for benches/CLIs.
int DefaultCampaignThreads();

struct CampaignConfig {
  AccelConfig accel;
  Dataflow dataflow = Dataflow::kWeightStationary;
  WorkloadSpec workload;

  // Fault parameters applied at every site. For kTransientFlip campaigns
  // (the Rech et al. comparison) each experiment strikes once, at a cycle
  // drawn uniformly from the operation's execution window (seeded).
  FaultKind kind = FaultKind::kStuckAt;
  MacSignal signal = MacSignal::kAdderOut;
  int bit = 8;
  StuckPolarity polarity = StuckPolarity::kStuckAt1;

  // Site selection: 0 = exhaustive over all PEs (the paper's 256-campaign
  // methodology); otherwise a uniform sample without replacement.
  std::int64_t max_sites = 0;
  std::uint64_t seed = 1;

  CampaignEngine engine = CampaignEngine::kDifferential;

  // Experiments per kPredicted group, and so per lane-grid pass of its
  // residue (ignored by the other engines). Affects cost only, never
  // results: record streams are bit-identical for any lane count, including
  // partial final groups. Excluded from the golden-cache key and the sweep
  // JSON campaign key.
  std::int64_t batch_lanes = 256;

  std::string ToString() const;
};

// True when CampaignEngine::kPredicted can serve `config` in closed form:
// permanent stuck-at campaigns on the PE-local kWeightOperand / kMulOut /
// kAdderOut signals. False means the whole campaign is residue (a campaign's
// kind/signal are uniform across its experiments) and kPredicted replays it
// on the lane grid instead.
bool PredictedEngineExact(const CampaignConfig& config);

// The same rule for one fault model, for callers that run single faults
// outside a campaign (the network cycle rung).
bool PredictedEngineExact(FaultKind kind, MacSignal signal);

// True when `config` folds its fault sites (patterns/symmetry.h): only one
// representative per site-equivalence class is simulated, and each member's
// record is its representative's with the fault coordinate rewritten — on
// the paper's 16×16 GEMM, 16 simulations for 256 sites. That needs
// permanent stuck-at faults on a predictor-covered signal (kAdderOut /
// kMulOut / kWeightOperand), where the partition is defined by the tiles
// the PE's output reaches, AND all-ones operand fills, where a translation
// along the array row maps the faulted computation onto itself so member
// synthesis is exact field-for-field. Transients (per-site strike cycles),
// forwarding signals (no closed-form reach), random / near-zero fills
// (column-variant data, so fault_activations / max_abs_delta / even the
// observed class can differ between class members), and IS on a padded
// convolution (its array columns hold lowered input rows, which padding
// makes unequal) always simulate every site. Folded records equal the
// unfolded ones (RunPreparedExperimentWithEngine on every site), so
// campaign keys ignore folding, and ResilienceOptions::selfcheck_rate
// samples copied records against direct runs as defense-in-depth.
bool SymmetryEligibleCampaign(const CampaignConfig& config);

struct ExperimentRecord {
  // The injected fault. For transient campaigns, at_cycle holds the strike
  // offset relative to the faulty run's start (not the simulator's global
  // clock), so records are identical regardless of which simulator ran the
  // experiment — the property checkpoint merging relies on.
  FaultSpec fault;
  PatternClass observed = PatternClass::kMasked;
  PatternClass predicted = PatternClass::kMasked;
  // Observed corruption coordinates equal the predicted reach exactly.
  bool prediction_exact = false;
  // Observed corruption is contained in the predicted reach (must always
  // hold; a violation would falsify the paper's determinism claim).
  bool observed_within_predicted = false;
  std::int64_t corrupted_count = 0;
  std::int64_t max_abs_delta = 0;
  std::uint64_t fault_activations = 0;
  std::int64_t cycles = 0;
  // Cost of this faulty run: PE evaluations executed, and evaluations the
  // differential engine replayed from the golden trace instead of
  // recomputing (0 under kReference). Their sum is engine-invariant.
  std::uint64_t pe_steps = 0;
  std::uint64_t pe_steps_skipped = 0;

  bool operator==(const ExperimentRecord&) const = default;
};

struct CampaignResult {
  CampaignConfig config;
  std::int64_t golden_cycles = 0;
  std::uint64_t golden_pe_steps = 0;
  // Lane-grid occupancy of a kPredicted campaign's residue (0 in closed
  // form and under the per-experiment engines): lanes_filled counts
  // occupied lanes across all passes and batches_run the passes, so
  // lanes_filled / (batches_run · batch_lanes) is the lane-occupancy ratio.
  std::uint64_t lanes_filled = 0;
  std::uint64_t batches_run = 0;
  std::vector<ExperimentRecord> records;

  // Aggregate faulty-run cost across all experiments.
  std::uint64_t FaultyPeSteps() const;
  std::uint64_t FaultyPeStepsSkipped() const;

  // Experiments per observed pattern class.
  std::map<PatternClass, std::int64_t> Histogram() const;
  std::int64_t MaskedCount() const;
  // The dominant (most frequent) non-masked class, or kMasked if none.
  PatternClass DominantClass() const;
  // Fraction of experiments whose predicted class matches the observed one.
  double ClassAgreement() const;
  // Fraction whose corrupted coordinate set matches the prediction exactly.
  double ExactAgreement() const;
  // Fraction with observed ⊆ predicted (soundness of the reach model).
  double ContainmentRate() const;
  // True if every non-masked experiment observed the same class — the
  // paper's "same fault pattern class regardless of the MAC unit" claim.
  bool SingleClassProperty() const;
};

// The self-contained single-threaded implementation: one locally
// constructed simulator, experiments executed in site order on the calling
// thread. This is the ground-truth baseline the service layer is validated
// against (tests/service/executor_test.cc) — it must never depend on the
// executor.
CampaignResult RunCampaignSerial(const CampaignConfig& config);

// Enumerates the fault sites the campaign will use (exhaustive or sampled),
// in execution order.
std::vector<PeCoord> CampaignSites(const CampaignConfig& config);

// The site selection behind CampaignSites: every PE in row-major order when
// max_sites is 0 or covers the array, else a seeded uniform sample without
// replacement.
std::vector<PeCoord> SampleSites(const ArrayConfig& array,
                                 std::int64_t max_sites, std::uint64_t seed);

// --- Execution primitives ---------------------------------------------------
// Everything below is shared by RunCampaignSerial and the campaign service
// (service/executor.h): both paths run the exact same per-experiment code,
// which is what makes their results bit-identical by construction.

// The per-campaign state that is computed once and then shared (read-only)
// by every experiment: the golden run, the classification context, the site
// list, and the pre-sampled fault of each experiment.
struct PreparedCampaign {
  CampaignConfig config;
  // The campaign's GoldenRunCache entry; null under kReference. A kPredicted
  // campaign for which PredictedEngineExact holds takes its planned half at
  // preparation and steps no array; every other campaign takes the
  // recorded half, as the differential engine and the lane grid replay its
  // trace. Holding the entry keeps both halves alive.
  std::shared_ptr<GoldenRun> cached;
  // The half preparation took, null under kReference: `planned` for a
  // closed-form campaign (the operands RunFaultyPredicted's operand form
  // runs on), `recorded` for every other.
  std::shared_ptr<const GoldenRun::Planned> planned;
  std::shared_ptr<const GoldenRun::Recorded> recorded;
  // The golden run records diff against: the result of the half
  // preparation took, or under kReference a run recomputed on the
  // instrumented loop.
  std::shared_ptr<const RunResult> golden_run;
  // Whether the golden half preparation took was already in the cache. It
  // depends on what the process ran before, not on the campaign, so it
  // feeds the saffire.executor.golden_cache_hits counter and no output
  // record.
  bool golden_cache_hit = false;
  ClassifyContext context;
  // Non-null when the campaign's signal is covered by the analytical
  // predictor: the shared prediction memo (a covered fault's reach depends
  // only on its PE coordinate, so the campaign's records share a handful of
  // distinct patterns instead of re-deriving one per experiment).
  std::shared_ptr<PredictionCache> predictions;
  std::vector<PeCoord> sites;
  // faults[i] is experiment i; for transient campaigns at_cycle holds the
  // strike offset relative to the faulty run's start (pre-sampled so any
  // execution order yields identical experiments).
  std::vector<FaultSpec> faults;

  // The folding plan: symmetry_rep_of[i] is the experiment index of
  // experiment i's class representative, the earliest equivalent site in
  // campaign order. A run simulates only the representatives of the
  // experiments it delivers (SimulationList) and copies each record to the
  // class's members (MemberRecord). A campaign that does not fold
  // (SymmetryEligibleCampaign is false) maps every experiment to itself.
  // symmetry_classes is the number of distinct representatives.
  std::vector<std::size_t> symmetry_rep_of;
  std::size_t symmetry_classes = 0;

  const RunResult& golden() const { return *golden_run; }
  // The recorded golden trace, null under kReference. A closed-form
  // campaign holds no recorded half, so each call asks `cached` for it and
  // the first records it: on a demotion to differential, a self-check, or a
  // replay that asks for the trace. The executor makes that first request
  // outside any timed attempt. Thread-safe; the entry records each key once.
  const GoldenTrace* trace() const {
    if (recorded != nullptr) return &recorded->trace;
    return cached != nullptr ? &cached->recorded()->trace : nullptr;
  }
};

// Validates the configuration and its fault model (a bit outside the
// signal's width throws std::invalid_argument here, once, not per
// experiment), takes the golden run (the planned or recorded half of its
// process-wide GoldenRunCache entry, see PreparedCampaign::cached),
// enumerates sites, pre-samples faults, and partitions the sites into
// folding classes.
// Under kReference the golden run needs a simulator: `golden_runner`
// supplies one (the service passes its worker-cached instance); pass
// nullptr to construct a transient one.
PreparedCampaign PrepareCampaign(const CampaignConfig& config,
                                 FiRunner* golden_runner = nullptr);

// Runs experiment `index` of a prepared campaign on `runner`, which must
// have been constructed with prepared.config.accel. Configures the engine
// tier on the runner, so simulators may be freely reused across campaigns
// with different engines. Always simulates `index` itself: folding is the
// caller's plan (SimulationList, MemberRecord), never a side effect here.
ExperimentRecord RunPreparedExperiment(const PreparedCampaign& prepared,
                                       FiRunner& runner, std::size_t index);

// Same, but on an explicit engine instead of prepared.config.engine — the
// graceful-degradation path (service/resilience.h): a campaign demoted down
// the predicted→differential→reference ladder re-runs experiments on the
// fallback engine without re-preparing. `engine` must be reachable from
// the configured one: kDifferential needs the cached golden trace (absent
// under kReference preparation), kPredicted requires a kPredicted
// campaign; kReference is reachable from every campaign. All reachable
// engines produce identical records apart from the pe_steps /
// pe_steps_skipped split. The ground truth of every folding test and of
// the self-check.
ExperimentRecord RunPreparedExperimentWithEngine(
    const PreparedCampaign& prepared, FiRunner& runner, std::size_t index,
    CampaignEngine engine);

// Runs experiments `indices` of a prepared kPredicted campaign as one
// group — the closed form (FiRunner::RunFaultyPredicted) when
// PredictedEngineExact holds, the lane-grid replay (FiRunner::RunFaultyBatch)
// otherwise — and returns their records in the order given, bit-identical
// to running each index through RunPreparedExperimentWithEngine. The
// campaign's canonical groups are the consecutive batch_lanes-sized blocks
// of a run's simulation list (SimulationList); callers that want
// schedule-invariant lanes_filled/batches_run stats must split on them.
std::vector<ExperimentRecord> RunPreparedBatch(
    const PreparedCampaign& prepared, FiRunner& runner,
    std::span<const std::size_t> indices);

// Experiments [begin, end) as one group.
std::vector<ExperimentRecord> RunPreparedBatch(
    const PreparedCampaign& prepared, FiRunner& runner, std::size_t begin,
    std::size_t end);

// What a run simulates to deliver `experiments` (the experiment indices it
// must produce records for): their distinct representatives
// (symmetry_rep_of), ascending. A representative the run does not deliver —
// one held in a checkpoint, or one in another shard — is still simulated.
std::vector<std::size_t> SimulationList(
    const PreparedCampaign& prepared,
    std::span<const std::int64_t> experiments);

// Experiment `index`'s record, given its representative's: the same in
// every field but the injected fault, which becomes prepared.faults[index].
// Copying to a member (index != its representative) counts one
// saffire.cache.replicated_records.
ExperimentRecord MemberRecord(const PreparedCampaign& prepared,
                              const ExperimentRecord& representative,
                              std::size_t index);

}  // namespace saffire
