#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/json.h"

namespace saffire::obs {
namespace {

// Shortest decimal text that round-trips the double — Prometheus values and
// bucket bounds must be exact, but "0.001" must not print as
// "0.001000000000000000021".
std::string FormatNumber(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  char buffer[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's hierarchical
// dots (and anything else) become underscores.
std::string SanitizeName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string IndexKey(std::string_view name, std::string_view labels) {
  std::string key(name);
  key += '\x1f';
  key += labels;
  return key;
}

template <typename Snapshot>
void SortSeries(std::vector<Snapshot>& series) {
  std::sort(series.begin(), series.end(),
            [](const Snapshot& a, const Snapshot& b) {
              return a.name != b.name ? a.name < b.name : a.labels < b.labels;
            });
}

// Emits "name{labels} value" (or "name value" when unlabelled).
void WriteSeries(std::ostream& out, const std::string& name,
                 const std::string& labels, const std::string& value) {
  out << name;
  if (!labels.empty()) out << '{' << labels << '}';
  out << ' ' << value << '\n';
}

void WriteFamilyHeader(std::ostream& out, const std::string& name,
                       const std::string& help, const char* type) {
  if (!help.empty()) out << "# HELP " << name << ' ' << help << '\n';
  out << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SAFFIRE_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "histogram bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not universally lock-free; a
  // CAS loop is, and sum is off the per-observation fast path anyway.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::int64_t> Histogram::BucketCounts() const {
  std::vector<std::int64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::int64_t Histogram::count() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

const std::vector<double>& DurationBounds() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> bounds;
    for (double b = 1e-6; b < 100.0; b *= 4.0) bounds.push_back(b);
    return bounds;
  }();
  return kBounds;
}

// --- MetricsSnapshot ---------------------------------------------------------

std::map<std::string, double> MetricsSnapshot::PhaseSeconds() const {
  std::map<std::string, double> phases;
  for (const HistogramSnapshot& h : histograms) {
    if (h.name != "saffire.phase.seconds") continue;
    // Labels are rendered as phase="<span name>" by obs/trace.cc.
    constexpr std::string_view kPrefix = "phase=\"";
    if (h.labels.size() < kPrefix.size() + 1 ||
        h.labels.compare(0, kPrefix.size(), kPrefix) != 0) {
      continue;
    }
    const std::string phase =
        h.labels.substr(kPrefix.size(), h.labels.size() - kPrefix.size() - 1);
    phases[phase] += h.sum;
  }
  return phases;
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     std::string_view labels) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::string key = IndexKey(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    SAFFIRE_CHECK_MSG(it->second.first == Kind::kCounter,
                      "metric '" << name << "' already registered as a "
                                 << "different kind");
    return counters_[it->second.second];
  }
  counter_meta_.push_back(
      {std::string(name), std::string(labels), std::string(help), 0});
  counters_.emplace_back();
  index_.emplace(key, std::make_pair(Kind::kCounter, counters_.size() - 1));
  return counters_.back();
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 std::string_view labels) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::string key = IndexKey(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    SAFFIRE_CHECK_MSG(it->second.first == Kind::kGauge,
                      "metric '" << name << "' already registered as a "
                                 << "different kind");
    return gauges_[it->second.second];
  }
  gauge_meta_.push_back(
      {std::string(name), std::string(labels), std::string(help), 0});
  gauges_.emplace_back();
  index_.emplace(key, std::make_pair(Kind::kGauge, gauges_.size() - 1));
  return gauges_.back();
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         std::string_view labels,
                                         const std::vector<double>& bounds) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::string key = IndexKey(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    SAFFIRE_CHECK_MSG(it->second.first == Kind::kHistogram,
                      "metric '" << name << "' already registered as a "
                                 << "different kind");
    return histograms_[it->second.second];
  }
  HistogramSnapshot meta;
  meta.name = std::string(name);
  meta.labels = std::string(labels);
  meta.help = std::string(help);
  histogram_meta_.push_back(std::move(meta));
  histograms_.emplace_back(bounds);
  index_.emplace(key, std::make_pair(Kind::kHistogram, histograms_.size() - 1));
  return histograms_.back();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    snapshot.counters.reserve(counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      CounterSnapshot s = counter_meta_[i];
      s.value = counters_[i].value();
      snapshot.counters.push_back(std::move(s));
    }
    snapshot.gauges.reserve(gauges_.size());
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      GaugeSnapshot s = gauge_meta_[i];
      s.value = gauges_[i].value();
      snapshot.gauges.push_back(std::move(s));
    }
    snapshot.histograms.reserve(histograms_.size());
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      HistogramSnapshot s = histogram_meta_[i];
      s.bounds = histograms_[i].bounds();
      s.buckets = histograms_[i].BucketCounts();
      s.count = 0;
      for (const std::int64_t c : s.buckets) s.count += c;
      s.sum = histograms_[i].sum();
      snapshot.histograms.push_back(std::move(s));
    }
  }
  SortSeries(snapshot.counters);
  SortSeries(snapshot.gauges);
  SortSeries(snapshot.histograms);
  return snapshot;
}

void MetricsRegistry::WritePrometheus(std::ostream& out) const {
  const MetricsSnapshot snapshot = Snapshot();
  std::string family;
  for (const CounterSnapshot& s : snapshot.counters) {
    const std::string name = SanitizeName(s.name);
    if (name != family) {
      WriteFamilyHeader(out, name, s.help, "counter");
      family = name;
    }
    WriteSeries(out, name, s.labels, std::to_string(s.value));
  }
  family.clear();
  for (const GaugeSnapshot& s : snapshot.gauges) {
    const std::string name = SanitizeName(s.name);
    if (name != family) {
      WriteFamilyHeader(out, name, s.help, "gauge");
      family = name;
    }
    WriteSeries(out, name, s.labels, std::to_string(s.value));
  }
  family.clear();
  for (const HistogramSnapshot& s : snapshot.histograms) {
    const std::string name = SanitizeName(s.name);
    if (name != family) {
      WriteFamilyHeader(out, name, s.help, "histogram");
      family = name;
    }
    const std::string sep = s.labels.empty() ? "" : ",";
    std::int64_t cumulative = 0;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      cumulative += s.buckets[b];
      const std::string le =
          b < s.bounds.size() ? FormatNumber(s.bounds[b]) : "+Inf";
      WriteSeries(out, name + "_bucket", s.labels + sep + "le=\"" + le + "\"",
                  std::to_string(cumulative));
    }
    WriteSeries(out, name + "_sum", s.labels, FormatNumber(s.sum));
    WriteSeries(out, name + "_count", s.labels, std::to_string(s.count));
  }
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  const MetricsSnapshot snapshot = Snapshot();
  JsonWriter w(out);
  w.BeginObject();
  w.Key("counters").BeginArray();
  for (const CounterSnapshot& s : snapshot.counters) {
    w.BeginObject().Key("name").String(s.name);
    if (!s.labels.empty()) w.Key("labels").String(s.labels);
    w.Key("value").Int(s.value).EndObject();
  }
  w.EndArray();
  w.Key("gauges").BeginArray();
  for (const GaugeSnapshot& s : snapshot.gauges) {
    w.BeginObject().Key("name").String(s.name);
    if (!s.labels.empty()) w.Key("labels").String(s.labels);
    w.Key("value").Int(s.value).EndObject();
  }
  w.EndArray();
  w.Key("histograms").BeginArray();
  for (const HistogramSnapshot& s : snapshot.histograms) {
    w.BeginObject().Key("name").String(s.name);
    if (!s.labels.empty()) w.Key("labels").String(s.labels);
    w.Key("buckets").BeginArray();
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      w.BeginObject().Key("le");
      if (b < s.bounds.size()) {
        w.Double(s.bounds[b]);
      } else {
        w.String("+Inf");
      }
      w.Key("count").Int(s.buckets[b]).EndObject();
    }
    w.EndArray();
    w.Key("sum").Double(s.sum).Key("count").Int(s.count).EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << '\n';
}

void MetricsRegistry::Reset() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (Counter& c : counters_) c.value_.store(0, std::memory_order_relaxed);
  for (Gauge& g : gauges_) g.value_.store(0, std::memory_order_relaxed);
  for (Histogram& h : histograms_) {
    for (std::size_t i = 0; i <= h.bounds_.size(); ++i) {
      h.buckets_[i].store(0, std::memory_order_relaxed);
    }
    h.sum_.store(0.0, std::memory_order_relaxed);
  }
}

void CheckMetricsFormat(const std::string& format) {
  if (format != "prom" && format != "json") {
    throw std::invalid_argument("unknown --metrics-format '" + format +
                                "' (expected prom|json)");
  }
}

void ExportMetrics(const std::string& path, const std::string& format) {
  CheckMetricsFormat(format);
  const auto write = [&format](std::ostream& out) {
    if (format == "json") {
      MetricsRegistry::Default().WriteJson(out);
      out << "\n";
    } else {
      MetricsRegistry::Default().WritePrometheus(out);
    }
  };
  if (path == "-") {
    write(std::cout);
    return;
  }
  AtomicFileWriter writer(path);
  write(writer.stream());
  writer.Commit();
}

}  // namespace saffire::obs
