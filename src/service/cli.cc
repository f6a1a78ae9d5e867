#include "service/cli.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace saffire::cli {

namespace {

// The flags every sweep CLI takes, beyond its own.
std::vector<Flag> SharedFlags() {
  return {{"spec", ""}, Switch("print-spec"), Switch("help"), {"resume", ""},
          {"csv", ""}, {"jsonl", ""}, {"trace-out", ""}, {"metrics-out", ""},
          {"metrics-format", "prom"}, {"max-retries", "2"},
          {"experiment-timeout-ms", "0"}, {"selfcheck-rate", "0"},
          {"on-failure", "quarantine"}};
}

const Flag* Find(const std::vector<Flag>& flags, const std::string& name) {
  const auto it =
      std::find_if(flags.begin(), flags.end(),
                   [&name](const Flag& flag) { return flag.name == name; });
  return it == flags.end() ? nullptr : &*it;
}

}  // namespace

Args::Args(int argc, char** argv, const Cli& cli)
    : flags_(SharedFlags()), spec_flags_(cli.spec_flags) {
  flags_.insert(flags_.end(), cli.spec_flags.begin(), cli.spec_flags.end());
  flags_.insert(flags_.end(), cli.run_flags.begin(), cli.run_flags.end());
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (!StartsWith(key, "--")) {
      throw UsageError("expected a --flag, got '" + key + "'");
    }
    const std::string name = key.substr(2);
    const Flag* flag = Find(flags_, name);
    if (flag == nullptr) throw UsageError("unknown flag '" + key + "'");
    if (flag->is_switch) {
      given_.insert_or_assign(name, std::string(1, '1'));
      continue;
    }
    if (i + 1 >= argc) {
      throw UsageError("flag '" + key + "' expects a value");
    }
    given_[name] = argv[++i];
  }
}

const std::string& Args::Get(const std::string& name) const {
  const auto it = given_.find(name);
  if (it != given_.end()) return it->second;
  const Flag* flag = Find(flags_, name);
  SAFFIRE_ASSERT_MSG(flag != nullptr,
                     "flag '--" << name << "' is not declared");
  return flag->fallback;
}

Args Args::SpecFlags() const {
  Args view;
  view.flags_ = spec_flags_;
  view.spec_flags_ = spec_flags_;
  for (const Flag& flag : spec_flags_) {
    const auto it = given_.find(flag.name);
    if (it != given_.end()) view.given_.insert(*it);
  }
  return view;
}

std::string Args::SpecFileText() const {
  for (const Flag& flag : spec_flags_) {
    if (Has(flag.name)) {
      throw UsageError("--spec already defines the sweep; drop '--" +
                       flag.name + "'");
    }
  }
  const std::string& path = Get("spec");
  std::ifstream in(path);
  if (!in) throw UsageError("cannot open spec '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int Main(int argc, char** argv, const Cli& cli,
         const std::function<int(const Args&)>& body) {
  try {
    const Args args(argc, argv, cli);
    if (args.Has("help")) {
      std::cout << "see the header comment of " << cli.source
                << " for the flag reference\n";
      return 0;
    }
    // Chaos-under-test wiring (CI drives the real binaries through injected
    // failures): SAFFIRE_CHAOS installs the schedule before anything runs.
    chaos::InstallFromEnv();
    return body(args);
  } catch (const UsageError& error) {
    std::cerr << error.what() << "\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
  }
  return 1;
}

std::ifstream OpenCheckpoint(const Args& args) {
  const std::string& path = args.Get("resume");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open checkpoint '" + path + "'");
  return in;
}

void PrintResuming(const Args& args, std::int64_t records,
                   std::int64_t dropped, const char* redone) {
  std::cout << "resuming " << records << " records from '"
            << args.Get("resume") << "'";
  if (dropped > 0) {
    std::cout << " (dropped " << dropped
              << " corrupt lines; their experiments will be " << redone
              << ")";
  }
  std::cout << "\n";
}

ResilienceOptions ResilienceFromFlags(const Args& args) {
  ResilienceOptions options;
  options.max_retries = NarrowInt<int>(ParseInt(args.Get("max-retries")));
  options.experiment_timeout_ms = ParseInt(args.Get("experiment-timeout-ms"));
  options.selfcheck_rate = ParseDouble(args.Get("selfcheck-rate"));
  options.on_failure = ParseOnFailure(args.Get("on-failure"));
  return options;
}

void StartObservability(const Args& args) {
  obs::CheckMetricsFormat(args.Get("metrics-format"));
  if (!args.Get("trace-out").empty()) obs::TraceSession::Instance().Start();
  if (!args.Get("metrics-out").empty()) obs::SetPhaseMetricsEnabled(true);
}

void WriteTrace(const Args& args) {
  const std::string& path = args.Get("trace-out");
  if (path.empty()) return;
  obs::TraceSession& session = obs::TraceSession::Instance();
  session.Stop();
  std::ofstream out(path);
  if (!out) throw UsageError("cannot open '" + path + "'");
  session.WriteChromeTrace(out);
  std::cout << "wrote " << session.event_count() << " trace events to "
            << path << "\n";
}

void ExportMetrics(const Args& args) {
  const std::string& path = args.Get("metrics-out");
  if (path.empty()) return;
  const std::string& format = args.Get("metrics-format");
  obs::ExportMetrics(path, format);
  if (path != "-") {
    std::cout << "wrote metrics (" << format << ") to " << path << "\n";
  }
}

void PrintResilience(const SweepOutcome& outcome,
                     std::initializer_list<const char*> fields) {
  const std::map<std::string, std::int64_t> tallies = {
      {"retries", outcome.retries},
      {"timeouts", outcome.timeouts},
      {"fallbacks", outcome.fallbacks},
      {"selfchecks", outcome.selfchecks},
      {"mismatches", outcome.selfcheck_mismatches},
      {"quarantined", outcome.quarantined},
      {"checkpoint_lines_dropped", outcome.checkpoint_lines_dropped}};
  const bool quiet = std::all_of(
      tallies.begin(), tallies.end(),
      [](const auto& tally) { return tally.second == 0; });
  if (quiet && outcome.ok()) return;
  std::cout << "[resilience]";
  for (const char* field : fields) {
    std::cout << ' ' << field << '=' << tallies.at(field);
  }
  std::cout << "\n";
}

int ExitCode(const Args& args, const SweepOutcome& outcome,
             const ScopedSignalDrain& drain) {
  if (drain.triggered()) {
    std::cerr << "stopped by signal " << drain.signal_number()
              << " after a clean drain";
    if (!args.Get("jsonl").empty()) {
      std::cerr << "; resume with --resume " << args.Get("jsonl");
    }
    std::cerr << "\n";
    return 128 + drain.signal_number();
  }
  if (!outcome.ok()) {
    std::cerr << "sweep completed with quarantined experiments or "
                 "self-check mismatches (see [resilience] above)\n";
    return 3;
  }
  return 0;
}

}  // namespace saffire::cli
