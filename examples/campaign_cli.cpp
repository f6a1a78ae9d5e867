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
//   --engine {differential|full|reference|batch|predicted}  execution
//                    engine (differential); also accepted in --spec JSON
//   --simd {auto|avx2|scalar}  SIMD backend for the batch datapath (auto);
//                    the SAFFIRE_SIMD environment variable takes the same
//                    values and applies when the flag is absent
//   --threads N      parallel workers      (all hardware threads)
//   --shards N       split each campaign into N site ranges (1)
//   --shard K        run only shard K of every campaign (for process splits)
//   --resume PATH    replay records from a previous --jsonl stream instead
//                    of re-simulating them
//   --symmetry       symmetry-aware dedup: simulate one representative per
//                    equivalence class of fault sites and replicate its
//                    record to the rest (stuck-at faults on predictor-
//                    covered signals only; other campaigns run unchanged)
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
//   --selfcheck-rate F   fraction of batch-engine records cross-validated
//                        against the differential engine; a mismatch demotes
//                        the campaign down the engine ladder (0 = off)
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
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/atomic_file.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "patterns/report.h"
#include "service/chaos.h"
#include "service/checkpoint.h"
#include "service/result_cache.h"
#include "service/run.h"
#include "service/signal.h"
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

// Flags that take a value, and flags that stand alone.
const std::set<std::string>& ValueFlags() {
  static const std::set<std::string> kFlags = {
      "workload", "dataflow", "signal",    "polarity",  "bit",
      "kind",     "fill",     "sites",     "seed",      "rows",
      "cols",     "engine",   "threads",   "shards",    "shard",
      "resume",   "spec",     "csv",       "jsonl",     "trace-out",
      "metrics-out", "metrics-format", "simd", "result-cache",
      "max-retries", "experiment-timeout-ms", "selfcheck-rate",
      "on-failure"};
  return kFlags;
}

const std::set<std::string>& BoolFlags() {
  static const std::set<std::string> kFlags = {
      "print-spec", "progress", "help", "symmetry", "no-result-cache"};
  return kFlags;
}

SweepSpec SpecFromFlags(const std::map<std::string, std::string>& flags) {
  const auto flag = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  SweepSpec spec;
  spec.accel.array.rows =
      static_cast<std::int32_t>(ParseInt(flag("rows", "16")));
  spec.accel.array.cols =
      static_cast<std::int32_t>(ParseInt(flag("cols", "16")));

  const OperandFill fill = OperandFillFromString(flag("fill", "ones"));
  spec.workloads.clear();
  for (const std::string& name : Split(flag("workload", "gemm16"), ',')) {
    WorkloadSpec workload = WorkloadByName(Trim(name));
    workload.input_fill = fill;
    workload.weight_fill = fill;
    spec.workloads.push_back(std::move(workload));
  }
  spec.dataflows.clear();
  for (const std::string& name : Split(flag("dataflow", "ws"), ',')) {
    spec.dataflows.push_back(DataflowFromString(Trim(name)));
  }
  spec.signals.clear();
  for (const std::string& name : Split(flag("signal", "adder_out"), ',')) {
    spec.signals.push_back(MacSignalFromString(Trim(name)));
  }
  spec.polarities.clear();
  for (const std::string& name : Split(flag("polarity", "sa1"), ',')) {
    spec.polarities.push_back(StuckPolarityFromString(Trim(name)));
  }
  spec.bits.clear();
  for (const std::string& text : Split(flag("bit", "8"), ',')) {
    spec.bits.push_back(static_cast<int>(ParseInt(Trim(text))));
  }
  spec.kind = FaultKindFromString(flag("kind", "stuck"));
  spec.max_sites = ParseInt(flag("sites", "0"));
  spec.seed = static_cast<std::uint64_t>(ParseInt(flag("seed", "1")));
  spec.engine = ParseCampaignEngine(flag("engine", "differential"));
  spec.shards = static_cast<int>(ParseInt(flag("shards", "1")));
  spec.symmetry = flags.count("symmetry") != 0;
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

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (!StartsWith(key, "--")) {
      std::cerr << "expected a --flag, got '" << key << "'\n";
      return 1;
    }
    const std::string name = key.substr(2);
    if (BoolFlags().count(name) != 0) {
      flags[name] = std::string("1");
      continue;
    }
    if (ValueFlags().count(name) == 0) {
      std::cerr << "unknown flag '" << key << "'\n";
      return 1;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag '" << key << "' expects a value\n";
      return 1;
    }
    flags[name] = argv[++i];
  }
  const auto flag = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  if (flags.count("help") != 0) {
    std::cout << "see the header comment of examples/campaign_cli.cpp for "
                 "the flag reference\n";
    return 0;
  }

  try {
    // Chaos-under-test wiring (CI drives the real binary through injected
    // failures): SAFFIRE_CHAOS installs the schedule before anything runs.
    chaos::InstallFromEnv();

    // SIMD backend selection, resolved before any kernel runs. The flag
    // wins; otherwise force the lazy SAFFIRE_SIMD read now so a bad value
    // fails here instead of mid-sweep.
    if (flags.count("simd") != 0) {
      ConfigureSimdFromString(flags.at("simd"), "--simd");
    } else {
      RequestedSimdMode();
    }

    SweepSpec spec;
    if (flags.count("spec") != 0) {
      for (const char* axis :
           {"workload", "dataflow", "signal", "polarity", "bit", "kind",
            "fill", "sites", "seed", "rows", "cols", "engine", "shards",
            "symmetry"}) {
        if (flags.count(axis) != 0) {
          std::cerr << "--spec already defines the sweep; drop '--" << axis
                    << "'\n";
          return 1;
        }
      }
      std::ifstream in(flags.at("spec"));
      if (!in) {
        std::cerr << "cannot open spec '" << flags.at("spec") << "'\n";
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      spec = ParseSweepSpec(text.str());
    } else {
      spec = SpecFromFlags(flags);
    }
    if (flags.count("print-spec") != 0) {
      std::cout << spec.ToJson() << "\n";
      return 0;
    }

    const CampaignPlan plan = BuildCampaignPlan(spec);

    // Read the checkpoint fully before opening any output stream, so
    // resuming from the file a sink is about to truncate is safe.
    SweepCheckpoint checkpoint;
    CheckpointLoadStats load_stats;
    const bool resuming = flags.count("resume") != 0;
    if (resuming) {
      std::ifstream in(flags.at("resume"));
      if (!in) {
        std::cerr << "error: cannot open checkpoint '" << flags.at("resume")
                  << "'\n";
        return 1;
      }
      checkpoint = LoadSweepCheckpoint(in, &load_stats);
      ValidateCheckpoint(checkpoint, plan);
      std::cout << "resuming " << load_stats.records << " records from '"
                << flags.at("resume") << "'";
      if (load_stats.dropped > 0) {
        std::cout << " (dropped " << load_stats.dropped
                  << " corrupt lines; their experiments will be "
                     "re-simulated)";
      }
      std::cout << "\n";
    }

    CollectorSink collector;
    std::vector<RecordSink*> sinks{&collector};
    const std::string csv_path = flag("csv", "");
    std::unique_ptr<AtomicFileWriter> csv_writer;
    std::unique_ptr<CsvRecordSink> csv_sink;
    if (!csv_path.empty()) {
      // Atomic: the CSV materializes only on success (or a drained stop) —
      // a crash leaves the previous complete file.
      csv_writer = std::make_unique<AtomicFileWriter>(csv_path);
      csv_sink = std::make_unique<CsvRecordSink>(csv_writer->stream());
      sinks.push_back(csv_sink.get());
    }
    std::ofstream jsonl_out;
    const std::string jsonl_path = flag("jsonl", "");
    std::unique_ptr<JsonlRecordSink> jsonl_sink;
    if (!jsonl_path.empty()) {
      jsonl_out.open(jsonl_path);
      if (!jsonl_out) {
        std::cerr << "cannot open '" << jsonl_path << "'\n";
        return 1;
      }
      jsonl_sink = std::make_unique<JsonlRecordSink>(jsonl_out);
      sinks.push_back(jsonl_sink.get());
    }
    std::unique_ptr<ProgressSink> progress_sink;
    if (flags.count("progress") != 0) {
      progress_sink = std::make_unique<ProgressSink>(std::cerr);
      sinks.push_back(progress_sink.get());
    }
    SymmetryStatsSink symmetry_stats;
    sinks.push_back(&symmetry_stats);
    TeeSink tee(sinks);

    RunOptions options;
    options.max_parallelism = static_cast<int>(ParseInt(
        flag("threads", std::to_string(DefaultCampaignThreads()))));
    if (options.max_parallelism < 1) {
      std::cerr << "error: --threads must be >= 1\n";
      return 1;
    }
    options.only_shard = static_cast<int>(ParseInt(flag("shard", "-1")));
    if (resuming) options.checkpoint = &checkpoint;

    // Result cache: constructed eagerly so a bad directory fails before any
    // simulation. RunSweep itself skips the cache under --shard.
    std::unique_ptr<ResultCache> result_cache;
    const std::string cache_dir = flag("result-cache", "");
    if (!cache_dir.empty() && flags.count("no-result-cache") == 0) {
      result_cache = std::make_unique<ResultCache>(cache_dir);
      options.result_cache = result_cache.get();
    }

    // Resilience policy. Unlike the library default (abort), the CLI
    // quarantines: a 49-hour sweep should not lose its night to one bad
    // experiment.
    options.resilience.max_retries =
        static_cast<int>(ParseInt(flag("max-retries", "2")));
    options.resilience.experiment_timeout_ms =
        ParseInt(flag("experiment-timeout-ms", "0"));
    options.resilience.selfcheck_rate =
        ParseDouble(flag("selfcheck-rate", "0"));
    options.resilience.on_failure =
        ParseOnFailure(flag("on-failure", "quarantine"));

    // Observability: validate the format before running anything, raise the
    // span gates only for the outputs actually requested.
    const std::string metrics_format = flag("metrics-format", "prom");
    if (metrics_format != "prom" && metrics_format != "json") {
      throw std::invalid_argument("unknown --metrics-format '" +
                                  metrics_format + "' (expected prom|json)");
    }
    const std::string trace_path = flag("trace-out", "");
    const std::string metrics_path = flag("metrics-out", "");
    if (!trace_path.empty()) obs::TraceSession::Instance().Start();
    if (!metrics_path.empty()) obs::SetPhaseMetricsEnabled(true);

    // Chaos sink-failure wiring: wrap the tee so every Nth record delivery
    // throws, exercising the executor's sink-error path end to end.
    RecordSink* sink = &tee;
    std::unique_ptr<chaos::FlakySink> flaky;
    if (chaos::ActiveSpec().sink_throw_every > 0) {
      flaky = std::make_unique<chaos::FlakySink>(
          &tee, chaos::ActiveSpec().sink_throw_every);
      sink = flaky.get();
    }

    // Cooperative SIGINT/SIGTERM drain: the handler flips the stop token,
    // the executor finishes in-flight work and flushes every sink, and we
    // exit 128+signo below with the checkpoint resumable.
    ScopedSignalDrain drain;
    options.stop = drain.token();

    CampaignExecutor& executor = CampaignExecutor::Shared();
    const ExecutorStats before = executor.stats();
    SweepOutcome outcome = RunSweep(plan, options, *sink);
    outcome.checkpoint_lines_dropped = load_stats.dropped;
    const std::vector<CampaignResult> results = collector.TakeResults();
    if (csv_writer != nullptr) {
      // Commit even on a drained stop: resume rewrites the full CSV, so a
      // partial-but-complete file beats no file.
      csv_writer->Commit();
    }

    if (!trace_path.empty()) {
      obs::TraceSession::Instance().Stop();
      std::ofstream trace_out(trace_path);
      if (!trace_out) {
        std::cerr << "cannot open '" << trace_path << "'\n";
        return 1;
      }
      obs::TraceSession::Instance().WriteChromeTrace(trace_out);
      std::cout << "wrote " << obs::TraceSession::Instance().event_count()
                << " trace events to " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      const auto write = [&](std::ostream& out) {
        if (metrics_format == "json") {
          obs::MetricsRegistry::Default().WriteJson(out);
          out << "\n";
        } else {
          obs::MetricsRegistry::Default().WritePrometheus(out);
        }
      };
      if (metrics_path == "-") {
        write(std::cout);
      } else {
        AtomicFileWriter metrics_writer(metrics_path);
        write(metrics_writer.stream());
        metrics_writer.Commit();
        std::cout << "wrote metrics (" << metrics_format << ") to "
                  << metrics_path << "\n";
      }
    }

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
    if (!csv_path.empty()) {
      std::cout << "wrote " << rows << " rows to " << csv_path << "\n";
    }
    if (!jsonl_path.empty()) {
      std::cout << "wrote " << rows << " records to " << jsonl_path << "\n";
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
    if (spec.symmetry) {
      std::cout << "[symmetry] classes=" << symmetry_stats.classes()
                << " sites=" << symmetry_stats.sites();
      if (symmetry_stats.classes() > 0) {
        const double factor =
            static_cast<double>(symmetry_stats.sites()) /
            static_cast<double>(symmetry_stats.classes());
        std::cout << " reduction=" << std::fixed << std::setprecision(2)
                  << factor << "x" << std::defaultfloat;
      }
      std::cout << "\n";
    }

    if (outcome.retries != 0 || outcome.fallbacks != 0 ||
        outcome.quarantined != 0 || outcome.selfchecks != 0 ||
        outcome.timeouts != 0 || outcome.checkpoint_lines_dropped != 0 ||
        !outcome.ok()) {
      std::cout << "[resilience] retries=" << outcome.retries
                << " timeouts=" << outcome.timeouts
                << " fallbacks=" << outcome.fallbacks
                << " selfchecks=" << outcome.selfchecks
                << " mismatches=" << outcome.selfcheck_mismatches
                << " quarantined=" << outcome.quarantined
                << " checkpoint_lines_dropped="
                << outcome.checkpoint_lines_dropped << "\n";
    }
    if (drain.triggered()) {
      std::cerr << "stopped by signal " << drain.signal_number()
                << " after a clean drain";
      if (!jsonl_path.empty()) {
        std::cerr << "; resume with --resume " << jsonl_path;
      }
      std::cerr << "\n";
      return 128 + drain.signal_number();
    }
    if (!outcome.ok()) {
      std::cerr << "sweep completed with quarantined experiments or "
                   "self-check mismatches (see [resilience] above)\n";
      return 3;
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
