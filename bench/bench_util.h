// Shared helpers for the benchmark/reproduction binaries: the paper's
// accelerator configuration, simple fixed-width table printing, and the
// common bench flags (--engine / --records-csv / --benchmark_out /
// --benchmark_out_format / --benchmark_min_time) with a
// google-benchmark-compatible JSON reporter behind them, so plain-main
// benches emit the same BENCH_*.json artifacts as the benchmark::benchmark
// binaries.
#pragma once

#include <chrono>
#include <ctime>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "patterns/campaign.h"
#include "service/run.h"
#include "service/sink.h"

namespace saffire::bench {

// Flags shared by the reproduction benches. Both "--flag=value" and
// "--flag value" spellings are accepted; unknown flags throw
// std::invalid_argument so CI typos fail loudly instead of silently
// benchmarking the wrong thing.
struct BenchOptions {
  // Campaign engine override ("" keeps the bench's default). Parsed by the
  // bench via ParseCampaignEngine so the CLI and benches share one table.
  std::string engine;
  // Stream every campaign record to this CSV (WriteCampaignCsv schema) —
  // what CI diffs across engines.
  std::string records_csv;
  // google-benchmark-compatible JSON timing output ("" = none).
  std::string benchmark_out;
  std::string benchmark_out_format = "json";
  // Minimum wall time per measurement in seconds; "0.05s" and "0.05" both
  // parse. 0 means one iteration. Benches may also use a non-zero value to
  // select their smoke-sized matrix (documented per bench).
  double min_time = 0.0;
  // Observability outputs (src/obs/), "" = disabled. Enabling tracing or
  // metrics perturbs the timings being measured — CI records them in a
  // separate run from the regression-checked one.
  std::string trace_out;    // Chrome trace_event JSON of the measured work
  std::string metrics_out;  // registry exposition after the run ('-'=stdout)
  std::string metrics_format = "prom";  // prom | json
};

inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions options;
  const auto assign = [&options](const std::string& name,
                                 const std::string& value) {
    if (name == "engine") {
      options.engine = value;
    } else if (name == "records-csv") {
      options.records_csv = value;
    } else if (name == "benchmark_out") {
      options.benchmark_out = value;
    } else if (name == "benchmark_out_format") {
      options.benchmark_out_format = value;
    } else if (name == "trace-out") {
      options.trace_out = value;
    } else if (name == "metrics-out") {
      options.metrics_out = value;
    } else if (name == "metrics-format") {
      options.metrics_format = value;
    } else if (name == "benchmark_min_time") {
      std::string text = value;
      if (!text.empty() && text.back() == 's') text.pop_back();
      try {
        options.min_time = std::stod(text);
      } catch (const std::exception&) {
        throw std::invalid_argument("bad --benchmark_min_time '" + value +
                                    "'");
      }
      if (options.min_time < 0) {
        throw std::invalid_argument("bad --benchmark_min_time '" + value +
                                    "'");
      }
    } else {
      throw std::invalid_argument("unknown bench flag '--" + name + "'");
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      throw std::invalid_argument("expected a --flag, got '" + arg + "'");
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      assign(body.substr(0, eq), body.substr(eq + 1));
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("flag '" + arg + "' expects a value");
      }
      assign(body, argv[++i]);
    }
  }
  if (options.benchmark_out_format != "json") {
    throw std::invalid_argument("unsupported --benchmark_out_format '" +
                                options.benchmark_out_format +
                                "' (only json)");
  }
  obs::CheckMetricsFormat(options.metrics_format);
  return options;
}

// Raises the span gates implied by the bench's observability flags. Call
// before the measured work; a bench with neither flag pays only the
// disabled-span fast path (what the regression job measures).
inline void EnableBenchObservability(const BenchOptions& options) {
  if (!options.trace_out.empty()) obs::TraceSession::Instance().Start();
  if (!options.metrics_out.empty()) obs::SetPhaseMetricsEnabled(true);
}

// Writes the trace / metrics artifacts requested by the flags (metrics
// through obs::ExportMetrics, like the CLIs). Returns false (after printing
// to stderr) if an output file cannot be written.
inline bool ExportBenchObservability(const BenchOptions& options) {
  if (!options.trace_out.empty()) {
    obs::TraceSession::Instance().Stop();
    std::ofstream out(options.trace_out);
    if (!out) {
      std::cerr << "cannot open '" << options.trace_out << "'\n";
      return false;
    }
    obs::TraceSession::Instance().WriteChromeTrace(out);
  }
  if (!options.metrics_out.empty()) {
    try {
      obs::ExportMetrics(options.metrics_out, options.metrics_format);
    } catch (const std::exception& error) {
      std::cerr << error.what() << "\n";
      return false;
    }
  }
  return true;
}

// The per-phase wall-clock breakdown ("saffire.phase.seconds" spans) as
// extra numeric keys for BenchJsonReport::Add, in milliseconds. Empty
// unless phase metrics were enabled (EnableBenchObservability with
// --metrics-out) around the measured work.
inline std::vector<std::pair<std::string, double>> PhaseBreakdownMs() {
  std::vector<std::pair<std::string, double>> extra;
  for (const auto& [phase, seconds] :
       obs::MetricsRegistry::Default().Snapshot().PhaseSeconds()) {
    extra.emplace_back("phase_" + phase + "_ms", 1e3 * seconds);
  }
  return extra;
}

// Collects per-measurement timings and writes them in the subset of the
// google-benchmark JSON schema that report tooling consumes: a context
// header plus one {name, iterations, real_time, time_unit} entry per
// measurement (real_time is the per-iteration mean).
class BenchJsonReport {
 public:
  void Add(const std::string& name, double total_seconds,
           std::int64_t iterations) {
    entries_.push_back({name, total_seconds, iterations, {}});
  }

  // Entry with extra numeric keys (google-benchmark user-counter style) —
  // phase breakdowns (PhaseBreakdownMs), occupancy ratios, etc.
  void Add(const std::string& name, double total_seconds,
           std::int64_t iterations,
           std::vector<std::pair<std::string, double>> extra) {
    entries_.push_back({name, total_seconds, iterations, std::move(extra)});
  }

  // Writes options.benchmark_out if set; returns false (after printing to
  // stderr) when the file cannot be opened, so benches can fail their exit
  // code without throwing out of main.
  bool Write(const BenchOptions& options, const std::string& executable) {
    if (options.benchmark_out.empty()) return true;
    std::ofstream out(options.benchmark_out);
    if (!out) {
      std::cerr << "cannot open '" << options.benchmark_out << "'\n";
      return false;
    }
    const std::time_t now =
        std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
    char date[32] = {0};
    std::tm tm_buf{};
#if defined(_WIN32)
    localtime_s(&tm_buf, &now);
#else
    localtime_r(&now, &tm_buf);
#endif
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S", &tm_buf);
    JsonWriter w(out);
    w.BeginObject();
    w.Key("context").BeginObject()
        .Key("date").String(date)
        .Key("executable").String(executable)
        .Key("num_cpus").Int(DefaultCampaignThreads())
        .Key("library_build_type").String("release")
        .EndObject();
    w.Key("benchmarks").BeginArray();
    for (const Entry& entry : entries_) {
      const double mean_ms = entry.iterations > 0
                                 ? 1e3 * entry.total_seconds /
                                       static_cast<double>(entry.iterations)
                                 : 0.0;
      w.BeginObject()
          .Key("name").String(entry.name)
          .Key("run_name").String(entry.name)
          .Key("run_type").String("iteration")
          .Key("repetitions").Int(1)
          .Key("iterations").Int(entry.iterations)
          .Key("real_time").Double(mean_ms)
          .Key("cpu_time").Double(mean_ms)
          .Key("time_unit").String("ms");
      for (const auto& [key, value] : entry.extra) {
        w.Key(key).Double(value);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out << '\n';
    return static_cast<bool>(out);
  }

 private:
  struct Entry {
    std::string name;
    double total_seconds = 0;
    std::int64_t iterations = 0;
    std::vector<std::pair<std::string, double>> extra;
  };
  std::vector<Entry> entries_;
};

// Worker count for campaign benches: all hardware threads.
inline int BenchThreads() { return DefaultCampaignThreads(); }

// Runs every campaign of `specs` through the RunSweep facade (shared
// executor pool, one batch — workers keep their simulators across
// campaigns) and returns the per-campaign results in canonical plan order.
inline std::vector<CampaignResult> RunSweep(
    const std::vector<SweepSpec>& specs,
    std::vector<RecordSink*> extra_sinks = {}) {
  CollectorSink collector;
  std::vector<RecordSink*> sinks{&collector};
  sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());
  TeeSink tee(sinks);
  saffire::RunSweep(specs, RunOptions{}, tee);
  return collector.TakeResults();
}

inline std::vector<CampaignResult> RunSweep(const SweepSpec& spec) {
  return RunSweep(std::vector<SweepSpec>{spec});
}

// Single-campaign run through the RunSweep facade.
inline CampaignResult RunCampaignForBench(const CampaignConfig& config,
                                          int threads = BenchThreads()) {
  CollectorSink collector;
  RunOptions options;
  options.max_parallelism = threads;
  saffire::RunSweep(SingleCampaignPlan(config), options, collector);
  return std::move(collector.TakeResults().front());
}

// One-line executor summary for the work done since `before` was sampled:
// how many simulators the pool built vs reused, and golden-run cache hits.
inline std::string ExecutorStatsLine(const ExecutorStats& before) {
  const ExecutorStats after = CampaignExecutor::Shared().stats();
  std::string line = "[executor] threads=";
  line += std::to_string(after.pool_threads);
  line += " campaigns=";
  line += std::to_string(after.campaigns_executed - before.campaigns_executed);
  line += " experiments=";
  line += std::to_string(after.experiments_run - before.experiments_run);
  line += " simulators: constructed=";
  line += std::to_string(after.simulators_constructed -
                         before.simulators_constructed);
  line += " reused=";
  line += std::to_string(after.simulators_reused - before.simulators_reused);
  line += " golden-cache-hits=";
  line += std::to_string(after.golden_cache_hits - before.golden_cache_hits);
  const std::int64_t batches = after.batches_run - before.batches_run;
  if (batches > 0) {
    line += " batches=";
    line += std::to_string(batches);
    line += " lanes-filled=";
    line += std::to_string(after.lanes_filled - before.lanes_filled);
  }
  return line;
}

// The evaluation platform of Table I: 16×16 INT8 systolic array.
inline AccelConfig PaperAccel() {
  AccelConfig config;
  config.max_compute_rows = 1024;
  config.spad_rows = 2048;
  config.acc_rows = 1024;
  config.dram_bytes = 16 << 20;
  return config;
}

inline void PrintRule(const std::vector<std::size_t>& widths) {
  std::string line;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    line += std::string(widths[i] + 2, '-');
    if (i + 1 < widths.size()) line += '+';
  }
  std::cout << line << '\n';
}

inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<std::size_t>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    line += ' ';
    line += PadRight(cells[i], widths[i]);
    line += ' ';
    if (i + 1 < cells.size()) line += '|';
  }
  std::cout << line << '\n';
}

// Formats the non-masked class histogram as "class×count, ...".
inline std::string HistogramString(const CampaignResult& result) {
  std::vector<std::string> parts;
  for (const auto& [pattern, count] : result.Histogram()) {
    parts.push_back(ToString(pattern) + "x" + std::to_string(count));
  }
  return Join(parts, ", ");
}

inline std::string Percent(double fraction) {
  return FormatDouble(100.0 * fraction, 1) + "%";
}

}  // namespace saffire::bench
