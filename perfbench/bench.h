// Shared pieces of the saffire benchmark: options, the per-run result, the
// in-memory span log of the traced run, and the byte-hashing stream the
// sinks write into. See perfbench/README.md for what the benchmark measures
// and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

// Fixed executor width: the load is one process using at most this many
// threads, independent of the host.
inline constexpr int kExecutorThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Reduced workload sizes for self-tests.
  bool smoke = false;
  // Directory holding the spec templates (<workload>.json).
  std::string specs_dir = "perfbench/specs";
  // Where the per-run result document goes.
  std::string out_path;
  // Where the traced run writes its spans (Chrome trace_event JSON).
  std::string trace_out;
  // When non-empty, the timed sweeps run on this operator engine instead of
  // the spec's (digest pinning cross-checks against "differential").
  std::string engine_override;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// FNV-1a 64-bit, the digest of sink bytes.
class Fnv1a {
 public:
  void Update(const char* data, std::size_t size);
  std::uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// A streambuf that keeps no bytes: it hashes and counts what a sink writes,
// both over the whole stream and per campaign (MarkCampaign closes one).
// Sinks write here instead of a file so disk latency stays out of the
// measurement while the formatting cost stays in.
class DigestBuf : public std::streambuf {
 public:
  // With `skip_line_prefix`, lines starting with it are counted in bytes()
  // but left out of the digests.
  explicit DigestBuf(std::string skip_line_prefix = "")
      : skip_(std::move(skip_line_prefix)) {}

  void MarkCampaign();
  std::uint64_t bytes() const { return bytes_; }
  std::string digest() const { return total_.Hex(); }
  const std::vector<std::string>& campaign_digests() const {
    return campaign_digests_;
  }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* data, std::streamsize size) override;

 private:
  void Consume(const char* data, std::size_t size);
  void Hash(const char* data, std::size_t size);

  std::string skip_;
  std::string line_;
  Fnv1a total_;
  Fnv1a campaign_;
  std::uint64_t bytes_ = 0;
  std::vector<std::string> campaign_digests_;
};

// One timed call into a layer's public function. Spans of one experiment
// share its (campaign, experiment) id; `first`/`last` bound the experiment
// range of a grouped call (first == last for a single experiment, -1 when
// the span is not experiment-scoped).
struct Span {
  std::string name;
  std::int64_t campaign = -1;
  std::int64_t first = -1;
  std::int64_t last = -1;
  std::int64_t parent = -1;  // index into the log, -1 for a root
  double start_us = 0.0;
  double dur_us = 0.0;
};

// Spans kept in memory during the traced run and written once at exit.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  // Times `fn` as a span named `name`, nested under the innermost open span.
  template <typename Fn>
  auto Time(const std::string& name, std::int64_t campaign,
            std::int64_t first, std::int64_t last, Fn&& fn) {
    const std::size_t index = Open(name, campaign, first, last);
    struct Closer {
      SpanLog* log;
      std::size_t index;
      ~Closer() { log->Close(index); }
    } closer{this, index};
    return fn();
  }

  // Self time (duration minus the time covered by direct children) summed
  // per span name, in milliseconds.
  std::map<std::string, double> SelfMs() const;

  void WriteChromeTrace(std::ostream& out) const;

 private:
  std::size_t Open(const std::string& name, std::int64_t campaign,
                   std::int64_t first, std::int64_t last);
  void Close(std::size_t index);
  double NowUs() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Metric name -> (value, unit), in print order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Everything one run reports; serialized to Options::out_path.
struct Report {
  std::map<std::string, std::string> manifest;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t records = 0;  // per sweep
  std::string digest;
  std::vector<std::string> campaign_digests;
  std::vector<std::string> errors;
  Metrics metrics;
  std::map<std::string, std::vector<double>> samples;
};

void WriteResult(const Report& result, std::ostream& out);

// Whether sweep `done` (0-based) should start after `elapsed_s` seconds:
// while another sweep of the mean length so far still fits in `seconds`
// (always at least one).
bool KeepSweeping(double seconds, int done, double elapsed_s);

// Median, and the q-quantile (q in [0, 1]) by linear interpolation between
// closest ranks; both 0 for an empty sample.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);

// Peak resident set (VmHWM) of this process image since the last
// BeginColdSweep, in MiB. Where the kernel refuses the reset, the window is
// the whole process so far.
double PeakRssMb();

// The state a fresh CLI process starts a sweep from: empties the golden
// cache, hands freed heap back to the kernel, and opens the PeakRssMb window.
void BeginColdSweep();

// Host speed: runs per second of a fixed integer kernel the benchmark owns
// (64x64 int8 GEMMs, the simulator's kind of work), 10-20 ms per call.
// A shared host's speed drifts by up to 2.5x over minutes; the reported
// timings are scaled to kNominalHostSpeed with the host speed measured
// around them, so that drift cancels while a change in the program's own
// speed shows in full. kNominalHostSpeed is about the kernel's speed on the
// 4-vCPU host the bounds were measured on; it only sets the scale.
double HostSpeed();
inline constexpr double kNominalHostSpeed = 16000.0;

// Set-up is timed before every sweep, at least kSetupRepeats times per run,
// and repeated before a sweep until kSetupBatchS seconds are covered, so a
// set-up of a millisecond still has a steady median.
inline constexpr std::size_t kSetupRepeats = 5;
inline constexpr double kSetupBatchS = 0.05;

// The untraced measurement both workload families share. Until
// Options::seconds is spent: time set-up, start cold, run one sweep, and
// require it to equal the first sweep. Fills the end-to-end metrics (timings
// scaled to the nominal host speed), their samples (raw ones too),
// attempted/failed and the first sweep's digests, and returns the first
// sweep.
//   setup()        one cold set-up, returns its seconds;
//   sweep()        one cold sweep, returns a type with wall_s, experiments,
//                  outcome (a SweepOutcome), digest and campaign_digests;
//   diverges(a, b) the first campaign where two sweeps differ, or -1.
template <typename Setup, typename Sweep, typename Diverges>
auto MeasureColdSweeps(const Options& options, Report& report, Setup&& setup,
                       Sweep&& sweep, Diverges&& diverges) {
  std::vector<double>& setups = report.samples["setup_s"];
  std::vector<double>& raw_setups = report.samples["setup_raw_s"];
  std::vector<double>& rate = report.samples["experiments_per_s"];
  std::vector<double>& wall = report.samples["sweep_s"];
  std::vector<double>& speed = report.samples["host_speed"];
  std::vector<double>& rss = report.samples["peak_rss_mb"];
  // Times set-up until `at_least_s` seconds are covered (at least once);
  // returns the host speed measured after it.
  const auto setup_batch = [&](double at_least_s) {
    const double before = HostSpeed();
    const std::size_t first_sample = raw_setups.size();
    const Clock::time_point batch = Clock::now();
    do {
      raw_setups.push_back(setup());
    } while (SecondsSince(batch) < at_least_s);
    const double after = HostSpeed();
    const double scale = (before + after) / 2.0 / kNominalHostSpeed;
    for (std::size_t s = first_sample; s < raw_setups.size(); ++s) {
      setups.push_back(raw_setups[s] * scale);
    }
    return after;
  };
  decltype(sweep()) first;
  const Clock::time_point start = Clock::now();
  for (int i = 0; KeepSweeping(options.seconds, i, SecondsSince(start)); ++i) {
    const double before = setup_batch(kSetupBatchS);
    BeginColdSweep();
    auto current = sweep();
    rss.push_back(PeakRssMb());
    speed.push_back((before + HostSpeed()) / 2.0);
    report.attempted += current.experiments;
    report.failed +=
        current.outcome.quarantined + current.outcome.selfcheck_mismatches;
    wall.push_back(current.wall_s);
    rate.push_back(static_cast<double>(current.outcome.records) /
                   current.wall_s * kNominalHostSpeed / speed.back());
    if (i == 0) {
      first = std::move(current);
      continue;
    }
    const std::int64_t diverged = diverges(first, current);
    if (diverged >= 0) {
      report.errors.push_back("sweep " + std::to_string(i) +
                              " diverges from sweep 0 at campaign " +
                              std::to_string(diverged));
    }
  }
  while (setups.size() < kSetupRepeats) setup_batch(0.0);
  report.records = first.outcome.records;
  report.digest = first.digest;
  report.campaign_digests = first.campaign_digests;

  Metrics& m = report.metrics;
  m["experiments_per_s"] = {Median(rate), "1/s"};
  m["setup_s"] = {Median(setups), "s"};
  m["peak_rss_mb"] = {Median(rss), "MB"};
  m["failed_frac"] = {static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted),
                      "ratio"};
  return first;
}

// Sum of every series of counter `name` in the default metrics registry.
std::int64_t CounterTotal(const std::string& name);

// Manifest entries common to every workload.
std::map<std::string, std::string> BaseManifest(const Options& options);

std::string ReadFile(const std::string& path);

// Workload entry points (operator.cc / network.cc). Each fills the
// end-to-end metrics, and the per-layer metrics too when options.trace.
bool IsOperatorWorkload(const std::string& name);
bool IsNetworkWorkload(const std::string& name);
void RunOperatorWorkload(const Options& options, Report& result);
void RunNetworkWorkload(const Options& options, Report& result);

// The per-layer metric names every traced run prints, with units; metrics a
// workload never exercises read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
