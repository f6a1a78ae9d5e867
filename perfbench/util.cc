#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/json.h"
#include "fi/golden_cache.h"
#include "obs/metrics.h"
#include "systolic/simd_ops.h"

namespace perfbench {

void Fnv1a::Update(const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= static_cast<unsigned char>(data[i]);
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Fnv1a::Hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash_));
  return text;
}

void DigestBuf::Hash(const char* data, std::size_t size) {
  total_.Update(data, size);
  campaign_.Update(data, size);
}

void DigestBuf::Consume(const char* data, std::size_t size) {
  bytes_ += size;
  if (skip_.empty()) {
    Hash(data, size);
    return;
  }
  for (std::size_t i = 0; i < size; ++i) {
    line_.push_back(data[i]);
    if (data[i] != '\n') continue;
    if (line_.compare(0, skip_.size(), skip_) != 0) {
      Hash(line_.data(), line_.size());
    }
    line_.clear();
  }
}

DigestBuf::int_type DigestBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  Consume(&c, 1);
  return ch;
}

std::streamsize DigestBuf::xsputn(const char* data, std::streamsize size) {
  Consume(data, static_cast<std::size_t>(size));
  return size;
}

void DigestBuf::MarkCampaign() {
  campaign_digests_.push_back(campaign_.Hex());
  campaign_ = Fnv1a();
}

// --- SpanLog ----------------------------------------------------------------

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::size_t SpanLog::Open(const std::string& name, std::int64_t campaign,
                          std::int64_t first, std::int64_t last) {
  Span span;
  span.name = name;
  span.campaign = campaign;
  span.first = first;
  span.last = last;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(std::size_t index) {
  spans_[index].dur_us = NowUs() - spans_[index].start_us;
  open_.pop_back();
}

std::map<std::string, double> SpanLog::SelfMs() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] += span.dur_us;
    }
  }
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    totals[spans_[i].name] += (spans_[i].dur_us - child_us[i]) / 1000.0;
  }
  return totals;
}

void SpanLog::WriteChromeTrace(std::ostream& out) const {
  saffire::JsonWriter w(out);
  w.BeginObject().Key("traceEvents").BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.BeginObject()
        .Key("name").String(span.name)
        .Key("ph").String("X")
        .Key("ts").Double(span.start_us)
        .Key("dur").Double(span.dur_us)
        .Key("pid").Int(1)
        .Key("tid").Int(1)
        .Key("cat").String("perfbench")
        .Key("args").BeginObject()
        .Key("id").Uint(i)
        .Key("parent").Int(span.parent)
        .Key("campaign").Int(span.campaign)
        .Key("experiment_first").Int(span.first)
        .Key("experiment_last").Int(span.last)
        .EndObject()
        .EndObject();
  }
  w.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  out << "\n";
}

// --- Results ----------------------------------------------------------------

namespace {

// Full-precision JSON number (JsonWriter::Double rounds to 6 decimals).
std::string Number(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string Quoted(const std::string& text) {
  return "\"" + saffire::JsonEscape(text) + "\"";
}

template <typename T, typename Fn>
void WriteArray(std::ostream& out, const std::vector<T>& values, Fn&& write) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ",") << write(values[i]);
  }
  out << "]";
}

}  // namespace

void WriteResult(const Report& result, std::ostream& out) {
  out << "{\"manifest\":{";
  const char* sep = "";
  for (const auto& [key, value] : result.manifest) {
    out << sep << Quoted(key) << ":" << Quoted(value);
    sep = ",";
  }
  out << "},\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"records\":" << result.records
      << ",\"digest\":" << Quoted(result.digest) << ",\"campaign_digests\":";
  WriteArray(out, result.campaign_digests, Quoted);
  out << ",\"errors\":";
  WriteArray(out, result.errors, Quoted);
  out << ",\"metrics\":{";
  sep = "";
  for (const auto& [name, metric] : result.metrics) {
    out << sep << Quoted(name) << ":{\"value\":" << Number(metric.value)
        << ",\"unit\":" << Quoted(metric.unit) << "}";
    sep = ",";
  }
  out << "},\"samples\":{";
  sep = "";
  for (const auto& [name, values] : result.samples) {
    out << sep << Quoted(name) << ":";
    WriteArray(out, values, Number);
    sep = ",";
  }
  out << "}}\n";
}

bool KeepSweeping(double seconds, int done, double elapsed_s) {
  return done == 0 || elapsed_s + elapsed_s / done <= seconds;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double PeakRssMb() {
  // VmHWM belongs to this image; getrusage's ru_maxrss would also carry the
  // high-water mark of the process that exec'ed us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double HostSpeed() {
  constexpr int kN = 64;
  constexpr int kRuns = 200;
  // Operands from a run-time value and a volatile sink keep the compiler
  // from folding the work away.
  volatile int salt = 1;
  std::vector<std::int8_t> a(kN * kN);
  std::vector<std::int8_t> b(kN * kN);
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = static_cast<std::int8_t>((i * 7919 + salt) % 251);
    b[i] = static_cast<std::int8_t>((i * 104729 + salt) % 241);
  }
  std::vector<std::int32_t> c(kN * kN);
  volatile std::int32_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (int run = 0; run < kRuns; ++run) {
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j) {
        std::int32_t acc = run;
        for (int k = 0; k < kN; ++k) acc += a[i * kN + k] * b[k * kN + j];
        c[i * kN + j] = acc;
      }
    }
    sink = sink + c[run % (kN * kN)];
  }
  return kRuns / SecondsSince(start);
}

void BeginColdSweep() {
  saffire::GoldenRunCache::Instance().Clear();
  // Freed chunks below the mmap threshold stay resident until trimmed; left
  // there they would floor the next sweep's peak.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // VmHWM := VmRSS
}

std::int64_t CounterTotal(const std::string& name) {
  std::int64_t total = 0;
  for (const saffire::obs::CounterSnapshot& counter :
       saffire::obs::MetricsRegistry::Default().Snapshot().counters) {
    if (counter.name == name) total += counter.value;
  }
  return total;
}

std::map<std::string, std::string> BaseManifest(const Options& options) {
  std::map<std::string, std::string> manifest;
  manifest["workload"] = options.workload;
  manifest["size"] = options.smoke ? "smoke" : "full";
  manifest["seed"] = std::to_string(options.seed);
  manifest["build_type"] = PERFBENCH_BUILD_TYPE;
  manifest["compiler"] = std::string("gcc ") + __VERSION__;
  manifest["simd_requested"] = saffire::ToString(saffire::RequestedSimdMode());
  manifest["avx2"] = saffire::UseAvx2() ? "true" : "false";
  manifest["executor_threads"] = std::to_string(kExecutorThreads);
  manifest["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  if (!options.engine_override.empty()) {
    manifest["engine_override"] = options.engine_override;
  }
  return manifest;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"service.plan_ms", "ms"},
      {"service.sink_ms", "ms"},
      {"service.sink_bytes", "bytes"},
      {"service.worker_busy_frac", "ratio"},
      {"service.chunks_executed", "count"},
      {"service.chunks_stolen", "count"},
      {"service.simulators_constructed", "count"},
      {"service.net_experiment_ms.p50", "ms"},
      {"service.net_experiment_ms.p90", "ms"},
      {"fi.golden_ms", "ms"},
      {"fi.engine_ms", "ms"},
      {"fi.predict_hit_frac", "ratio"},
      {"fi.lane_occupancy", "ratio"},
      {"fi.pe_steps", "count"},
      {"fi.pe_steps_skipped", "count"},
      {"fi.ns_per_pe_step", "ns"},
      {"systolic.lanes_stepped", "count"},
      {"systolic.ns_per_lane_step", "ns"},
      {"patterns.prepare_ms", "ms"},
      {"patterns.record_ms", "ms"},
      {"patterns.classify_ms", "ms"},
      {"accel.construct_ms", "ms"},
      {"accel.gemm_ms.conv", "ms"},
      {"accel.gemm_ms.dense", "ms"},
      {"dnn.prepare_ms", "ms"},
      {"dnn.golden_ms", "ms"},
      {"dnn.inference_ms", "ms"},
      {"tensor.gemm_ref_ms", "ms"},
      {"appfi.inject_ms", "ms"},
      {"mitigation.plan_ms", "ms"},
      {"mitigation.abft_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
