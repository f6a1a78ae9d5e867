// Network-campaign CLI: sweep stuck-at faults over a whole quantized
// network and get per-pattern-class SDC / top-1 / ABFT coverage tables,
// plus optional per-experiment CSV / JSONL streams.
//
//   $ ./dnn_cli --network mlp --sites 16
//   $ ./dnn_cli --network extraction --rung cycle-accurate --csv out.csv
//   $ ./dnn_cli --network mlp --abft --bit 20,24 --layer -1,0,1
//         --jsonl net.jsonl
//   $ ./dnn_cli --spec net.json --resume net.jsonl --csv full.csv
//
// Network (dnn/network.h):
//   --network {extraction|mlp|cnn}  topology      (mlp)
//   --batch N          evaluation batch           (32)
//   --hidden N         MLP hidden width           (32)
//   --train-samples N  MLP training set size      (600)
//   --train-epochs N   MLP training epoch cap     (80)
//   --conv-channels N  CNN conv output channels   (4)
//   --extraction-k N --extraction-n N  extraction GEMM shape (16x16)
//   --net-seed N       weights/data seed          (7)
// Sweep axes (comma-separated lists expand to the cartesian product):
//   --dataflow LIST  {ws|os|is}                   (ws)
//   --signal LIST    {adder_out|mul_out|weight_operand|act_forward|
//                     south_forward}              (adder_out)
//   --polarity LIST  {sa0|sa1}                    (sa1)
//   --bit LIST       stuck bit                    (8)
//   --layer LIST     0-based injection scope, -1 = whole network (-1)
//   --mitigation LIST  {none|column_remap|row_remap|prune_channel|
//                     abft_correct}  graceful-degradation policies; each
//                    non-none campaign also runs a mitigated inference and
//                    records recovered accuracy / residual SDC (none)
// Sampling and hardware:
//   --sites N        sample N fault sites (0 = exhaustive)
//   --seed N         site-sampling / selfcheck seed (1)
//   --rows N --cols N  array dimensions           (16x16)
// Execution:
//   --rung {appfi|cycle-accurate}  execution rung (appfi). The appfi rung
//                    serves predictor-covered signals only; forwarding
//                    signals need cycle-accurate.
//   --abft           run every in-scope layer through ABFT
//                    verify-and-correct and record coverage
//   --perturb-mode {auto|set-bit|clear-bit|flip-bit|add-delta}  appfi
//                    perturbation; auto derives set/clear from each fault's
//                    polarity (auto)
//   --perturb-bit N --perturb-delta N  explicit perturbation parameters
//   --selfcheck-rate F  fraction of appfi experiments re-run on the
//                    cycle-accurate rung; a mismatch demotes the campaign
//                    (0 = off)
//   --max-retries N  extra attempts per experiment and rung before the
//                    failure policy applies (2)
//   --experiment-timeout-ms N  cooperative per-attempt deadline; an
//                    attempt observed to exceed it is classified failed
//                    and retried (0 = off)
//   --on-failure {quarantine|abort}  what happens when an experiment
//                    exhausts every retry on every rung: quarantine writes
//                    a re-simulatable "network-failed" JSONL line and keeps
//                    sweeping; abort rethrows (quarantine)
//   --resume PATH    replay records from a previous --jsonl stream
// Spec files and output:
//   --spec PATH      load the sweep from a JSON spec (exclusive with the
//                    network/axis flags above)
//   --print-spec     print the spec as JSON and exit without running
//   --csv PATH       per-experiment CSV (atomic: tmp + rename)
//   --jsonl PATH     CRC-sealed JSONL stream (doubles as a checkpoint)
//   --trace-out PATH     record spans (dnn.experiment, dnn.layer, dnn.abft,
//                    dnn.mitigated_inference, dnn.cycle_rung) and write
//                    Chrome trace_event JSON (chrome://tracing, Perfetto)
//   --metrics-out PATH   export the metrics registry (saffire.dnn.* and the
//                    saffire.phase.seconds span histograms); '-' writes to
//                    stdout
//   --metrics-format {prom|json}  exposition format (prom)
// Shutdown and exit codes are campaign_cli's (one front end, service/cli.h):
// SIGINT/SIGTERM drain cooperatively and exit 128+signo with the JSONL
// checkpoint resumable; otherwise 0 for a healthy sweep, 3 when it
// completed but quarantined experiments or hit self-check mismatches, 1
// for errors. SAFFIRE_CHAOS (service/chaos.h) injects deterministic
// failures for resilience testing.
#include <array>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "service/cli.h"
#include "service/network_run.h"

namespace {

using namespace saffire;

// The sweep-defining flags with their defaults; every run flag is one the
// front end shares.
cli::Cli NetworkCli() {
  return {"examples/dnn_cli.cpp",
          {{"network", "mlp"}, {"batch", "32"}, {"hidden", "32"},
           {"train-samples", "600"}, {"train-epochs", "80"},
           {"conv-channels", "4"}, {"extraction-k", "16"},
           {"extraction-n", "16"}, {"net-seed", "7"}, {"dataflow", "ws"},
           {"signal", "adder_out"}, {"polarity", "sa1"}, {"bit", "8"},
           {"layer", "-1"}, {"mitigation", "none"}, {"sites", "0"},
           {"seed", "1"}, {"rows", "16"}, {"cols", "16"},
           {"rung", "appfi"}, {"perturb-mode", "auto"},
           {"perturb-bit", "8"}, {"perturb-delta", "0"},
           cli::Switch("abft")},
          {}};
}

NetworkSweepSpec SpecFromFlags(const cli::Args& flags) {
  NetworkSweepSpec spec;
  spec.accel.array.rows = NarrowInt<std::int32_t>(ParseInt(flags.Get("rows")));
  spec.accel.array.cols = NarrowInt<std::int32_t>(ParseInt(flags.Get("cols")));

  spec.network.kind = ParseNetworkKind(flags.Get("network"));
  spec.network.batch = ParseInt(flags.Get("batch"));
  spec.network.hidden = ParseInt(flags.Get("hidden"));
  spec.network.train_samples = ParseInt(flags.Get("train-samples"));
  spec.network.train_epochs = ParseInt(flags.Get("train-epochs"));
  spec.network.conv_channels = ParseInt(flags.Get("conv-channels"));
  spec.network.extraction_k = ParseInt(flags.Get("extraction-k"));
  spec.network.extraction_n = ParseInt(flags.Get("extraction-n"));
  spec.network.seed = NarrowInt<std::uint64_t>(ParseInt(flags.Get("net-seed")));

  spec.dataflows = cli::ParseList(flags.Get("dataflow"), DataflowFromString);
  spec.signals = cli::ParseList(flags.Get("signal"), MacSignalFromString);
  spec.polarities =
      cli::ParseList(flags.Get("polarity"), StuckPolarityFromString);
  spec.bits = cli::ParseList(flags.Get("bit"), cli::ParseIntItem);
  spec.layers = cli::ParseList(flags.Get("layer"), cli::ParseIntItem);
  spec.mitigations =
      cli::ParseList(flags.Get("mitigation"), ParseMitigationPolicy);

  spec.max_sites = ParseInt(flags.Get("sites"));
  spec.seed = NarrowInt<std::uint64_t>(ParseInt(flags.Get("seed")));
  spec.rung = ParseNetworkRung(flags.Get("rung"));
  spec.abft = flags.Has("abft");

  // --perturb-mode goes through ParsePerturbMode, with "auto" layered on
  // top (the polarity-derived default).
  const std::string& mode = flags.Get("perturb-mode");
  spec.perturb_auto = mode == "auto";
  if (!spec.perturb_auto) spec.perturb.mode = ParsePerturbMode(mode);
  spec.perturb.bit = NarrowInt<int>(ParseInt(flags.Get("perturb-bit")));
  spec.perturb.delta =
      NarrowInt<std::int32_t>(ParseInt(flags.Get("perturb-delta")));
  return spec;
}

// Per-pattern-class aggregation of the record stream: the SDC table the
// paper's reliability assessment builds, plus ABFT coverage per class.
struct ClassStats {
  std::int64_t experiments = 0;
  std::int64_t sdc = 0;
  std::int64_t top1_flips = 0;
  std::int64_t abft_detected = 0;
  std::int64_t abft_corrected = 0;
};

// Per-mitigation-policy aggregation: the graceful-degradation table
// comparing the unmitigated and mitigated outcomes of the same faults.
struct PolicyStats {
  std::int64_t experiments = 0;
  std::int64_t sdc = 0;
  std::int64_t mit_sdc = 0;
  std::int64_t correct_faulty = 0;
  std::int64_t mit_correct = 0;
  std::int64_t labelled = 0;  // experiments with accuracy semantics
};

class SummarySink : public NetworkRecordSink {
 public:
  void OnSweepBegin(const NetworkSweepSpec& spec,
                    const NetworkCampaignPlan& plan) override {
    (void)spec;
    campaigns_ = plan.campaigns;
  }

  void OnRecord(const NetworkRecord& record) override {
    ClassStats& stats = per_class_[static_cast<std::size_t>(record.pattern)];
    ++stats.experiments;
    if (record.sdc) ++stats.sdc;
    stats.top1_flips += record.top1_flips;
    if (record.abft_on && record.abft_diagnosis != AbftDiagnosis::kClean) {
      ++stats.abft_detected;
      if (record.abft_corrected) ++stats.abft_corrected;
    }
    abft_on_ = abft_on_ || record.abft_on;

    const MitigationPolicy policy =
        campaigns_[record.campaign_index].mitigation;
    if (policy != MitigationPolicy::kNone) {
      any_mitigated_ = true;
      PolicyStats& mit = per_policy_[static_cast<std::size_t>(policy)];
      ++mit.experiments;
      if (record.sdc) ++mit.sdc;
      if (record.mit_sdc) ++mit.mit_sdc;
      if (record.correct_faulty >= 0 && record.mit_correct_faulty >= 0) {
        ++mit.labelled;
        mit.correct_faulty += record.correct_faulty;
        mit.mit_correct += record.mit_correct_faulty;
      }
    }
  }

  void OnExperimentFailed(const NetworkFailedRecord& failed) override {
    (void)failed;
  }

  void Print(std::ostream& out) const {
    out << std::left << std::setw(26) << "pattern class" << std::right
        << std::setw(8) << "expts" << std::setw(8) << "SDC" << std::setw(10)
        << "SDC rate" << std::setw(12) << "top1 flips";
    if (abft_on_) {
      out << std::setw(10) << "detected" << std::setw(11) << "corrected";
    }
    out << "\n";
    for (std::size_t i = 0; i < per_class_.size(); ++i) {
      const ClassStats& stats = per_class_[i];
      if (stats.experiments == 0) continue;
      out << std::left << std::setw(26)
          << ToString(static_cast<PatternClass>(i)) << std::right
          << std::setw(8) << stats.experiments << std::setw(8) << stats.sdc
          << std::setw(9) << std::fixed << std::setprecision(1)
          << (100.0 * static_cast<double>(stats.sdc) /
              static_cast<double>(stats.experiments))
          << "%" << std::defaultfloat << std::setw(12) << stats.top1_flips;
      if (abft_on_) {
        out << std::setw(10) << stats.abft_detected << std::setw(11)
            << stats.abft_corrected;
      }
      out << "\n";
    }
    if (any_mitigated_) {
      out << "\n" << std::left << std::setw(16) << "mitigation"
          << std::right << std::setw(8) << "expts" << std::setw(8) << "SDC"
          << std::setw(10) << "mit SDC" << std::setw(12) << "faulty acc"
          << std::setw(10) << "mit acc" << "\n";
      for (std::size_t i = 0; i < per_policy_.size(); ++i) {
        const PolicyStats& stats = per_policy_[i];
        if (stats.experiments == 0) continue;
        out << std::left << std::setw(16)
            << ToString(static_cast<MitigationPolicy>(i)) << std::right
            << std::setw(8) << stats.experiments << std::setw(8) << stats.sdc
            << std::setw(10) << stats.mit_sdc;
        if (stats.labelled > 0) {
          out << std::setw(12) << stats.correct_faulty << std::setw(10)
              << stats.mit_correct;
        } else {
          out << std::setw(12) << "-" << std::setw(10) << "-";
        }
        out << "\n";
      }
    }
  }

 private:
  std::array<ClassStats, kNumPatternClasses> per_class_{};
  std::array<PolicyStats, kNumMitigationPolicies> per_policy_{};
  std::vector<NetworkCampaign> campaigns_;
  bool abft_on_ = false;
  bool any_mitigated_ = false;
};

int RunNetworkCli(const cli::Args& args) {
  const std::optional<NetworkSweepSpec> spec =
      cli::LoadSpec(args, ParseNetworkSweepSpec, SpecFromFlags);
  if (!spec.has_value()) return 0;
  spec->Validate();

  NetworkCheckpoint checkpoint;
  if (args.Has("resume")) {
    std::ifstream in = cli::OpenCheckpoint(args);
    checkpoint = LoadNetworkCheckpoint(in);
    cli::PrintResuming(args,
                       static_cast<std::int64_t>(checkpoint.records.size()),
                       checkpoint.lines_dropped, "re-run");
  }

  SummarySink summary;
  std::vector<NetworkRecordSink*> sinks{&summary};
  cli::FileSinks<NetworkCsvSink, NetworkJsonlSink> files(args, sinks);
  NetworkTeeSink tee(sinks);
  std::unique_ptr<chaos::NetworkFlakySink> flaky;
  NetworkRecordSink& sink = cli::WithChaosSink<NetworkRecordSink>(tee, flaky);

  NetworkRunOptions options;
  options.resilience = cli::ResilienceFromFlags(args);
  if (args.Has("resume")) options.resume = &checkpoint;
  cli::StartObservability(args);

  // Cooperative SIGINT/SIGTERM drain, exactly like campaign_cli: finish the
  // in-flight experiment, flush sinks, exit 128+signo resumable.
  ScopedSignalDrain drain;
  options.stop = drain.token();

  // RunNetworkSweep counts the resume's dropped lines itself.
  const SweepOutcome outcome = RunNetworkSweep(*spec, options, sink);
  files.Commit();

  std::cout << "network=" << ToString(spec->network.kind)
            << " rung=" << ToString(spec->rung)
            << " abft=" << (spec->abft ? "on" : "off")
            << " records=" << outcome.records << "\n\n";
  summary.Print(std::cout);

  if (!args.Get("csv").empty()) {
    std::cout << "\nwrote " << outcome.records << " rows to "
              << args.Get("csv") << "\n";
  }
  if (!args.Get("jsonl").empty()) {
    std::cout << "\nwrote " << outcome.records << " records to "
              << args.Get("jsonl") << "\n";
  }
  cli::WriteTrace(args);
  cli::ExportMetrics(args);
  cli::PrintResilience(outcome, {"selfchecks", "mismatches", "retries",
                                 "timeouts", "quarantined", "fallbacks",
                                 "checkpoint_lines_dropped"});
  return cli::ExitCode(args, outcome, drain);
}

}  // namespace

int main(int argc, char** argv) {
  return cli::Main(argc, argv, NetworkCli(), RunNetworkCli);
}
