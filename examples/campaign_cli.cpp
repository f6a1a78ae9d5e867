// Campaign CLI: run a fault-injection sweep from the command line and get
// the summary plus optional per-experiment CSV / JSONL streams.
//
//   $ ./campaign_cli --workload gemm16 --dataflow ws
//   $ ./campaign_cli --workload conv16k8 --bit 12 --polarity sa0
//         --sites 64 --csv out.csv                          (one line)
//   $ ./campaign_cli --workload gemm16 --polarity sa0,sa1 --bit 4,8,31
//         --jsonl out.jsonl --progress                      (12-campaign sweep)
//   $ ./campaign_cli --spec sweep.json --shard 0 --jsonl shard0.jsonl
//   $ ./campaign_cli --spec sweep.json --resume shard0.jsonl --csv full.csv
//
// Sweep axes (comma-separated lists expand to the cartesian product):
//   --workload LIST  {gemm16|gemm112|conv16k3|conv16k8|conv112k8}  (gemm16)
//   --dataflow LIST  {ws|os|is}            (ws)
//   --signal LIST    {adder_out|mul_out|weight_operand|act_forward|
//                     south_forward}       (adder_out)
//   --polarity LIST  {sa0|sa1}             (sa1)
//   --bit LIST       stuck/flipped bit     (8)
// Fault model and sampling:
//   --kind {stuck|transient}  fault kind   (stuck)
//   --fill {ones|random|nearzero}  operand fill (ones)
//   --sites N        sample N sites instead of all (0 = exhaustive)
//   --seed N         sampling seed         (1)
//   --rows N --cols N  array dimensions    (16x16)
// Execution:
//   --engine {differential|reference|predicted}  execution engine
//                    (differential); also accepted in --spec JSON. The
//                    predicted engine runs PE-local stuck-at campaigns in
//                    closed form and replays the rest (transients,
//                    forwarding signals) on the lane grid
//   --simd {auto|avx2|scalar}  SIMD backend for the lane grid (auto);
//                    the SAFFIRE_SIMD environment variable takes the same
//                    values and applies when the flag is absent
//   --threads N      parallel workers      (all hardware threads)
//   --shards N       split each campaign into N site ranges (1)
//   --shard K        run only shard K of every campaign (for process splits)
//   --resume PATH    replay records from a previous --jsonl stream instead
//                    of re-simulating them
// Campaigns of permanent stuck-at faults on adder_out, mul_out or
// weight_operand with ones fills fold their fault sites: one representative
// per equivalence class is simulated and its record replicated to the rest,
// byte-identical to simulating every site. The [symmetry] summary line
// reports classes against sites.
// Result cache:
//   --result-cache DIR   content-addressed on-disk cache of completed
//                    campaigns; a repeated sweep replays from DIR without
//                    simulating anything (no effect under --shard, which
//                    never completes whole campaigns)
//   --no-result-cache    ignore --result-cache for this run
// Spec files and output:
//   --spec PATH      load the sweep from a JSON spec (exclusive with the
//                    axis/fault-model flags above)
//   --print-spec     print the sweep spec as JSON and exit without running
//   --csv PATH       write per-experiment CSV
//   --jsonl PATH     stream records as JSONL (doubles as a checkpoint)
//   --progress       live progress/ETA line on stderr
// Observability (src/obs/):
//   --trace-out PATH     record spans and write Chrome trace_event JSON
//                        (load in chrome://tracing or Perfetto)
//   --metrics-out PATH   export the metrics registry after the run;
//                        '-' writes to stdout
//   --metrics-format {prom|json}  exposition format for --metrics-out (prom)
// Resilience (src/service/resilience.h):
//   --max-retries N      extra attempts per failing experiment, per engine
//                        rung (2)
//   --experiment-timeout-ms N  per-attempt deadline; attempts observed past
//                        it count as failures (0 = off)
//   --selfcheck-rate F   fraction of predicted-engine records cross-validated
//                        against the differential engine, and of replicated
//                        records against a direct run; a mismatch demotes
//                        the campaign down the engine ladder or stops its
//                        folding (0 = off)
//   --on-failure {quarantine|abort}  policy once retries and the fallback
//                        ladder are exhausted (quarantine): quarantine
//                        streams "failed" JSONL lines and keeps sweeping,
//                        abort fails the whole run
// Shutdown and exit codes: SIGINT/SIGTERM start a cooperative drain —
// in-flight experiments finish, every sink is flushed (the JSONL checkpoint
// stays resumable), and the process exits 128+signo. Otherwise the exit
// code is 0 for a fully healthy sweep, 3 when the sweep completed but
// quarantined experiments or observed a self-check mismatch (see the
// [resilience] summary line), and 1 for errors.
//
// --csv and --metrics-out are written atomically (tmp + rename): a killed
// run leaves the previous complete file, never a half-written one. The
// --jsonl stream intentionally writes its final path live, because a
// mid-run kill must leave the checkpointed prefix behind.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "patterns/report.h"
#include "service/checkpoint.h"
#include "service/cli.h"
#include "service/result_cache.h"
#include "service/run.h"
#include "service/sink.h"
#include "systolic/simd_ops.h"

namespace {

using namespace saffire;

WorkloadSpec WorkloadByName(const std::string& name) {
  if (name == "gemm16") return Gemm16x16();
  if (name == "gemm112") return Gemm112x112();
  if (name == "conv16k3") return Conv16Kernel3x3x3x3();
  if (name == "conv16k8") return Conv16Kernel3x3x3x8();
  if (name == "conv112k8") return Conv112Kernel3x3x3x8();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// The sweep-defining flags with their defaults, then the run flags.
cli::Cli CampaignCli() {
  return {"examples/campaign_cli.cpp",
          {{"workload", "gemm16"}, {"dataflow", "ws"},
           {"signal", "adder_out"}, {"polarity", "sa1"},
           {"bit", "8"}, {"kind", "stuck"}, {"fill", "ones"},
           {"sites", "0"}, {"seed", "1"}, {"rows", "16"}, {"cols", "16"},
           {"engine", "differential"}, {"shards", "1"}},
          {{"threads", std::to_string(DefaultCampaignThreads())},
           {"shard", "-1"}, {"simd", ""},
           {"result-cache", ""}, cli::Switch("progress"),
           cli::Switch("no-result-cache")}};
}

SweepSpec SpecFromFlags(const cli::Args& flags) {
  SweepSpec spec;
  spec.accel.array.rows = NarrowInt<std::int32_t>(ParseInt(flags.Get("rows")));
  spec.accel.array.cols = NarrowInt<std::int32_t>(ParseInt(flags.Get("cols")));

  const OperandFill fill = OperandFillFromString(flags.Get("fill"));
  spec.workloads = cli::ParseList(
      flags.Get("workload"), [fill](const std::string& name) {
        WorkloadSpec workload = WorkloadByName(name);
        workload.input_fill = fill;
        workload.weight_fill = fill;
        return workload;
      });
  spec.dataflows = cli::ParseList(flags.Get("dataflow"), DataflowFromString);
  spec.signals = cli::ParseList(flags.Get("signal"), MacSignalFromString);
  spec.polarities =
      cli::ParseList(flags.Get("polarity"), StuckPolarityFromString);
  spec.bits = cli::ParseList(flags.Get("bit"), cli::ParseIntItem);
  spec.kind = FaultKindFromString(flags.Get("kind"));
  spec.max_sites = ParseInt(flags.Get("sites"));
  spec.seed = NarrowInt<std::uint64_t>(ParseInt(flags.Get("seed")));
  spec.engine = ParseCampaignEngine(flags.Get("engine"));
  spec.shards = NarrowInt<int>(ParseInt(flags.Get("shards")));
  return spec;
}

// Accumulates the symmetry plan sizes that OnCampaignBegin announces, for
// the [symmetry] summary line. Campaigns without an active plan (including
// replayed ones) report classes == experiments, i.e. no reduction.
class SymmetryStatsSink : public RecordSink {
 public:
  void OnCampaignBegin(const CampaignBeginInfo& info) override {
    classes_ += info.symmetry_classes;
    sites_ += info.total_experiments;
  }

  std::int64_t classes() const { return classes_; }
  std::int64_t sites() const { return sites_; }

 private:
  std::int64_t classes_ = 0;
  std::int64_t sites_ = 0;
};

std::string CampaignTitle(const CampaignConfig& config) {
  std::string title = config.workload.name;
  title += "/";
  title += ToString(config.dataflow);
  title += " ";
  title += ToString(config.signal);
  title += " bit ";
  title += std::to_string(config.bit);
  title += " ";
  title += config.kind == FaultKind::kTransientFlip
               ? std::string("transient")
               : ToString(config.polarity);
  return title;
}

int RunCampaignCli(const cli::Args& args) {
  // SIMD backend selection, resolved before any kernel runs. The flag wins;
  // otherwise force the lazy SAFFIRE_SIMD read now so a bad value fails
  // here instead of mid-sweep.
  if (args.Has("simd")) {
    ConfigureSimdFromString(args.Get("simd"), "--simd");
  } else {
    RequestedSimdMode();
  }

  const std::optional<SweepSpec> spec =
      cli::LoadSpec(args, ParseSweepSpec, SpecFromFlags);
  if (!spec.has_value()) return 0;
  const CampaignPlan plan = BuildCampaignPlan(*spec);

  SweepCheckpoint checkpoint;
  CheckpointLoadStats load_stats;
  if (args.Has("resume")) {
    std::ifstream in = cli::OpenCheckpoint(args);
    checkpoint = LoadSweepCheckpoint(in, &load_stats);
    ValidateCheckpoint(checkpoint, plan);
    cli::PrintResuming(args, load_stats.records, load_stats.dropped,
                       "re-simulated");
  }

  CollectorSink collector;
  std::vector<RecordSink*> sinks{&collector};
  cli::FileSinks<CsvRecordSink, JsonlRecordSink> files(args, sinks);
  std::unique_ptr<ProgressSink> progress_sink;
  if (args.Has("progress")) {
    progress_sink = std::make_unique<ProgressSink>(std::cerr);
    sinks.push_back(progress_sink.get());
  }
  SymmetryStatsSink symmetry_stats;
  sinks.push_back(&symmetry_stats);
  TeeSink tee(sinks);

  RunOptions options;
  options.max_parallelism = NarrowInt<int>(ParseInt(args.Get("threads")));
  if (options.max_parallelism < 1) {
    throw std::invalid_argument("--threads must be >= 1");
  }
  options.only_shard = NarrowInt<int>(ParseInt(args.Get("shard")));
  if (args.Has("resume")) options.checkpoint = &checkpoint;

  // Result cache: constructed eagerly so a bad directory fails before any
  // simulation. RunSweep itself skips the cache under --shard.
  std::unique_ptr<ResultCache> result_cache;
  const std::string& cache_dir = args.Get("result-cache");
  if (!cache_dir.empty() && !args.Has("no-result-cache")) {
    result_cache = std::make_unique<ResultCache>(cache_dir);
    options.result_cache = result_cache.get();
  }
  options.resilience = cli::ResilienceFromFlags(args);

  cli::StartObservability(args);

  std::unique_ptr<chaos::FlakySink> flaky;
  RecordSink& sink = cli::WithChaosSink<RecordSink>(tee, flaky);

  // Cooperative SIGINT/SIGTERM drain: the handler flips the stop token, the
  // executor finishes in-flight work and flushes every sink, and the exit
  // code is 128+signo with the checkpoint resumable.
  ScopedSignalDrain drain;
  options.stop = drain.token();

  CampaignExecutor& executor = CampaignExecutor::Shared();
  const ExecutorStats before = executor.stats();
  SweepOutcome outcome = RunSweep(plan, options, sink);
  outcome.checkpoint_lines_dropped = load_stats.dropped;
  const std::vector<CampaignResult> results = collector.TakeResults();
  files.Commit();

  cli::WriteTrace(args);
  cli::ExportMetrics(args);

  std::int64_t rows = 0;
  for (std::size_t c = 0; c < results.size(); ++c) {
    if (results.size() > 1) {
      std::cout << "=== campaign " << c << ": "
                << CampaignTitle(plan.campaigns[c]) << " ===\n";
    }
    std::cout << RenderCampaignSummary(results[c]);
    if (results.size() > 1) std::cout << "\n";
    rows += static_cast<std::int64_t>(results[c].records.size());
  }
  if (!args.Get("csv").empty()) {
    std::cout << "wrote " << rows << " rows to " << args.Get("csv") << "\n";
  }
  if (!args.Get("jsonl").empty()) {
    std::cout << "wrote " << rows << " records to " << args.Get("jsonl")
              << "\n";
  }
  const ExecutorStats after = executor.stats();
  std::cout << "[executor] threads=" << after.pool_threads
            << " experiments run="
            << after.experiments_run - before.experiments_run
            << " replayed="
            << after.experiments_replayed - before.experiments_replayed
            << " simulators constructed="
            << after.simulators_constructed - before.simulators_constructed
            << " reused="
            << after.simulators_reused - before.simulators_reused << "\n";

  if (result_cache != nullptr) {
    std::cout << "[cache] dir=" << result_cache->dir()
              << " hits=" << outcome.cache_hits
              << " misses=" << outcome.cache_misses
              << " stores=" << outcome.cache_stores << "\n";
  }
  std::cout << "[symmetry] classes=" << symmetry_stats.classes()
            << " sites=" << symmetry_stats.sites();
  if (symmetry_stats.classes() > 0) {
    const double factor = static_cast<double>(symmetry_stats.sites()) /
                          static_cast<double>(symmetry_stats.classes());
    std::cout << " reduction=" << std::fixed << std::setprecision(2) << factor
              << "x" << std::defaultfloat;
  }
  std::cout << "\n";
  cli::PrintResilience(outcome, {"retries", "timeouts", "fallbacks",
                                 "selfchecks", "mismatches", "quarantined",
                                 "checkpoint_lines_dropped"});
  return cli::ExitCode(args, outcome, drain);
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, CampaignCli(), RunCampaignCli);
}
