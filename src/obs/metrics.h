// Metrics registry: the quantitative half of the observability layer
// (src/obs/). The paper's artifact is a 49-hour FI campaign; at that scale
// "where does the time go" must be a query against live counters, not a
// rerun under a profiler. The registry holds counters, gauges, and
// histograms behind stable handles: registration takes a mutex once, every
// subsequent update is a relaxed atomic on the handle (the lock-free fast
// path), and a snapshot or exposition walks the registered instruments
// without stopping writers.
//
// Naming is hierarchical by dots ("saffire.executor.chunks"); exposition
// sanitizes to Prometheus conventions ("saffire_executor_chunks"). An
// instrument is identified by (name, labels) where labels is a pre-rendered
// Prometheus label body such as `pool="0",worker="3"` — instruments sharing
// a name form one family (one TYPE line, many labelled series).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace saffire::obs {

// Monotonically increasing count. All operations are relaxed atomics: a
// counter is a statistic, not a synchronization point.
class Counter {
 public:
  void Increment(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> value_{0};
};

// Instantaneous level (queue depths, in-flight work). Add() may go negative
// transiently when increments and decrements race a snapshot; the settled
// value is exact.
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> value_{0};
};

// Fixed-boundary histogram. `bounds` are ascending inclusive upper bounds;
// one implicit overflow bucket (+Inf) follows the last. Per-bucket counts
// are independent atomics and the total count is derived from them at
// snapshot time, so a snapshot is structurally consistent (count == sum of
// buckets) even while writers race; only `sum` can lag the buckets by the
// observations in flight.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket (non-cumulative) counts, size bounds().size() + 1.
  std::vector<std::int64_t> BucketCounts() const;
  std::int64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
};

// Default histogram boundaries for durations in seconds: exponential from
// 1 µs to ~67 s (powers of 4), sized for everything between one lane-grid
// tile step and a full Table I sweep.
const std::vector<double>& DurationBounds();

// --- Snapshot ----------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::string labels;  // Prometheus label body, "" when unlabelled
  std::string help;
  std::int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string labels;
  std::string help;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::string labels;
  std::string help;
  std::vector<double> bounds;
  std::vector<std::int64_t> buckets;  // non-cumulative, bounds.size() + 1
  std::int64_t count = 0;             // == sum of buckets
  double sum = 0.0;
};

// A point-in-time copy of every registered instrument, sorted by
// (name, labels) so expositions and diffs are deterministic.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Sum of elapsed seconds per phase label value from the
  // "saffire.phase.seconds" histogram family (obs/trace.h spans) — the
  // phase breakdown BENCH JSON artifacts embed. Keys are the span names.
  std::map<std::string, double> PhaseSeconds() const;
};

// --- Registry ----------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every built-in instrument registers with.
  static MetricsRegistry& Default();

  // Find-or-create. The returned reference is stable for the registry's
  // lifetime; callers cache it and update lock-free. Re-registration with
  // the same (name, labels) returns the existing instrument (first help
  // string wins); registering the same key as two different kinds throws
  // std::invalid_argument.
  Counter& GetCounter(std::string_view name, std::string_view help = "",
                      std::string_view labels = "");
  Gauge& GetGauge(std::string_view name, std::string_view help = "",
                  std::string_view labels = "");
  Histogram& GetHistogram(std::string_view name, std::string_view help = "",
                          std::string_view labels = "",
                          const std::vector<double>& bounds = DurationBounds());

  MetricsSnapshot Snapshot() const;

  // Prometheus text exposition format 0.0.4: HELP/TYPE per family, one
  // series per (name, labels), histograms as cumulative _bucket/_sum/_count.
  // Dots in names become underscores.
  void WritePrometheus(std::ostream& out) const;
  // The same snapshot as a single JSON document (common/json.h writer).
  void WriteJson(std::ostream& out) const;

  // Zeroes every registered instrument (handles stay valid). For tests and
  // repeated bench measurements; production readers should diff snapshots
  // instead.
  void Reset();

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  mutable std::mutex mutex_;
  // Instruments live in deques for pointer stability across registration.
  std::deque<CounterSnapshot> counter_meta_;
  std::deque<Counter> counters_;
  std::deque<GaugeSnapshot> gauge_meta_;
  std::deque<Gauge> gauges_;
  std::deque<HistogramSnapshot> histogram_meta_;
  std::deque<Histogram> histograms_;
  // "name\x1f labels" -> (kind, index into the kind's deque).
  std::map<std::string, std::pair<Kind, std::size_t>> index_;
};

// Throws std::invalid_argument unless `format` names an exposition format
// ExportMetrics writes: "prom" (WritePrometheus) or "json" (WriteJson).
void CheckMetricsFormat(const std::string& format);

// Writes the default registry in `format` to `path`, or to stdout for "-".
// A file is replaced atomically (common/atomic_file.h): a killed run leaves
// the previous complete file, never a half-written one. This is the
// --metrics-out export of every CLI and bench binary.
void ExportMetrics(const std::string& path, const std::string& format);

}  // namespace saffire::obs
