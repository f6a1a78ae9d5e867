// The command-line front end both sweep CLIs share: examples/campaign_cli.cpp
// (operator sweeps) and examples/dnn_cli.cpp (network sweeps). It owns the
// argv grammar, the --spec file and its exclusivity with the sweep-defining
// flags, the four resilience flags, the --csv/--jsonl files, the
// --trace-out and --metrics-out exports, and the exit policy:
//   0         a healthy sweep;
//   1         an error (a usage error prints its message alone, anything
//             else "error: <what>");
//   3         a completed sweep that quarantined experiments or observed a
//             self-check mismatch;
//   128+signo a SIGINT/SIGTERM drain, with the JSONL checkpoint resumable.
// Each CLI passes in only what is its own: its flags, its spec and sink
// types, and its summary.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/strings.h"
#include "service/chaos.h"
#include "service/resilience.h"
#include "service/signal.h"

namespace saffire::cli {

// One command-line flag, spelled --name. A value flag reads as `fallback`
// until given; a switch takes no value.
struct Flag {
  std::string name;
  std::string fallback;
  bool is_switch = false;
};

inline Flag Switch(std::string name) { return {std::move(name), "", true}; }

// A command-line mistake (unknown flag, missing value, a sweep-defining flag
// beside --spec, an output file that cannot be opened): Main prints the
// message alone and exits 1.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A sweep CLI's own part of the command line.
struct Cli {
  // Source file whose header comment is the flag reference (--help).
  std::string source;
  // Flags that define the sweep. SpecFromFlags reads exactly these (through
  // Args::SpecFlags), and each one is rejected beside --spec.
  std::vector<Flag> spec_flags;
  // Flags that steer the run, beyond the ones every sweep CLI has: spec,
  // print-spec, help, resume, csv, jsonl, trace-out, metrics-out,
  // metrics-format and the resilience flags.
  std::vector<Flag> run_flags;
};

// The parsed command line.
class Args {
 public:
  // Parses "--name value" and "--name" (switches) against the shared flags
  // and `cli`'s; throws UsageError on anything else.
  Args(int argc, char** argv, const Cli& cli);

  bool Has(const std::string& name) const { return given_.count(name) != 0; }
  // The flag's value, or its fallback when not given. Reading a flag this
  // view does not declare is an InternalError.
  const std::string& Get(const std::string& name) const;
  // The view SpecFromFlags reads: only the sweep-defining flags.
  Args SpecFlags() const;
  // Text of the --spec file, after rejecting every sweep-defining flag
  // beside it.
  std::string SpecFileText() const;

 private:
  Args() = default;

  std::vector<Flag> flags_;
  std::vector<Flag> spec_flags_;
  std::map<std::string, std::string> given_;
};

// Parses argv against `cli`, answers --help, installs the SAFFIRE_CHAOS
// schedule and returns `body`'s exit code, mapping exceptions to exit 1.
int Main(int argc, char** argv, const Cli& cli,
         const std::function<int(const Args&)>& body);

// A comma-separated flag value ("sa0,sa1"), one `parse` call per trimmed
// item — how SpecFromFlags reads a sweep axis.
template <typename Parse>
auto ParseList(const std::string& text, Parse parse) {
  std::vector<decltype(parse(std::string()))> items;
  for (const std::string& item : Split(text, ',')) {
    items.push_back(parse(Trim(item)));
  }
  return items;
}

// An integer item of a ParseList axis.
inline int ParseIntItem(const std::string& text) {
  return NarrowInt<int>(ParseInt(text));
}

// The sweep, from the --spec file or from the sweep-defining flags. Returns
// nullopt once --print-spec has printed it as JSON.
template <typename Spec>
std::optional<Spec> LoadSpec(const Args& args,
                             Spec (*parse)(const std::string&),
                             Spec (*from_flags)(const Args&)) {
  Spec spec = args.Has("spec") ? parse(args.SpecFileText())
                               : from_flags(args.SpecFlags());
  if (args.Has("print-spec")) {
    std::cout << spec.ToJson() << "\n";
    return std::nullopt;
  }
  return spec;
}

// The --resume checkpoint stream. Read it fully before opening any output
// file, so resuming from the file a sink is about to truncate is safe.
std::ifstream OpenCheckpoint(const Args& args);

// "resuming N records from 'PATH'", noting dropped corrupt lines whose
// experiments will be `redone` ("re-simulated", "re-run").
void PrintResuming(const Args& args, std::int64_t records,
                   std::int64_t dropped, const char* redone);

// --max-retries, --experiment-timeout-ms, --selfcheck-rate, --on-failure.
// Unlike the library default (abort), the CLIs quarantine: a 49-hour sweep
// should not lose its night to one bad experiment.
ResilienceOptions ResilienceFromFlags(const Args& args);

// The --csv and --jsonl sinks of one sweep family, appended to `sinks` on
// construction. The CSV is written atomically: it appears on Commit, so a
// killed run leaves the previous complete file, never a half-written one.
// The JSONL stream writes its final path live, because a killed run must
// leave its checkpointed prefix behind.
template <typename CsvSink, typename JsonlSink>
class FileSinks {
 public:
  template <typename Sink>
  FileSinks(const Args& args, std::vector<Sink*>& sinks) {
    if (const std::string& path = args.Get("csv"); !path.empty()) {
      csv_file_.emplace(path);
      csv_.emplace(csv_file_->stream());
      sinks.push_back(&*csv_);
    }
    if (const std::string& path = args.Get("jsonl"); !path.empty()) {
      jsonl_file_.open(path);
      if (!jsonl_file_) throw UsageError("cannot open '" + path + "'");
      jsonl_.emplace(jsonl_file_);
      sinks.push_back(&*jsonl_);
    }
  }

  // Publishes the CSV. Also after a drained stop: a resume rewrites the
  // whole CSV, so a partial-but-complete file beats none.
  void Commit() {
    if (csv_file_.has_value()) csv_file_->Commit();
  }

 private:
  std::optional<AtomicFileWriter> csv_file_;
  std::optional<CsvSink> csv_;
  std::ofstream jsonl_file_;
  std::optional<JsonlSink> jsonl_;
};

// `tee`, or a `Flaky` decorator around it that throws from every Nth record
// delivery when the SAFFIRE_CHAOS schedule asks for sink failures — how CI
// drives the real binary through a sink crash and resume.
template <typename Sink, typename Flaky>
Sink& WithChaosSink(Sink& tee, std::unique_ptr<Flaky>& flaky) {
  const int every = chaos::ActiveSpec().sink_throw_every;
  if (every <= 0) return tee;
  flaky = std::make_unique<Flaky>(&tee, every);
  return *flaky;
}

// Validates --metrics-format and raises only the span gates the requested
// outputs need: trace events for --trace-out, the saffire.phase.seconds
// histograms for --metrics-out. Call before the sweep runs.
void StartObservability(const Args& args);

// Writes --trace-out, when given, as Chrome trace_event JSON and says where.
void WriteTrace(const Args& args);

// Writes --metrics-out, when given, in --metrics-format (obs::ExportMetrics)
// and says where.
void ExportMetrics(const Args& args);

// The "[resilience] name=value ..." line, printed when the run retried,
// timed out, demoted, self-checked, dropped checkpoint lines or is
// unhealthy. `fields` orders the tallies by their summary names: retries,
// timeouts, fallbacks, selfchecks, mismatches, quarantined,
// checkpoint_lines_dropped.
void PrintResilience(const SweepOutcome& outcome,
                     std::initializer_list<const char*> fields);

// The exit code of a sweep that ran to its end: 128+signo after a signal
// drain (naming the --jsonl checkpoint to resume from), 3 when it completed
// unhealthy, else 0.
int ExitCode(const Args& args, const SweepOutcome& outcome,
             const ScopedSignalDrain& drain);

}  // namespace saffire::cli
