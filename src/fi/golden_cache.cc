#include "fi/golden_cache.h"

#include <sstream>
#include <string>

#include "common/check.h"

namespace saffire {

GoldenRun::GoldenRun(const AccelConfig& config, const WorkloadSpec& workload,
                     Dataflow dataflow)
    : config_(config), workload_(workload), dataflow_(dataflow) {}

std::shared_ptr<const GoldenRun::Planned> GoldenRun::planned(
    bool* cache_hit) {
  return Demand(planned_mutex_, planned_, cache_hit, [this] {
    Planned planned{Materialize(workload_), RunResult{}};
    planned.result = PlanGolden(planned.operands, dataflow_, config_);
    return planned;
  });
}

std::shared_ptr<const GoldenRun::Recorded> GoldenRun::recorded(
    bool* cache_hit) {
  return Demand(recorded_mutex_, recorded_, cache_hit, [this] {
    Recorded recorded;
    FiRunner runner(config_);
    recorded.result =
        runner.RunGoldenRecorded(workload_, dataflow_, &recorded.trace);
    return recorded;
  });
}

template <typename Half, typename Compute>
std::shared_ptr<const Half> GoldenRun::Demand(
    std::mutex& compute_mutex, std::shared_ptr<const Half>& half,
    bool* cache_hit, Compute compute) {
  // `half` is written only under both compute_mutex and mutex_, so reading
  // it under compute_mutex alone is safe.
  std::lock_guard<std::mutex> compute_lock(compute_mutex);
  ThrowIfDivergent();
  if (cache_hit != nullptr) *cache_hit = half != nullptr;
  if (half != nullptr) {
    ++hits_;
    return half;
  }
  auto computed = std::make_shared<const Half>(compute());
  ++misses_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    half = computed;
    if (planned_ != nullptr && recorded_ != nullptr) {
      const RunResult& plan = planned_->result;
      const RunResult& array = recorded_->result;
      std::ostringstream what;
      if (plan.output != array.output) what << " output";
      if (plan.cycles != array.cycles) {
        what << " cycles (plan " << plan.cycles << ", array " << array.cycles
             << ")";
      }
      if (plan.pe_steps != array.pe_steps) {
        what << " pe_steps (plan " << plan.pe_steps << ", array "
             << array.pe_steps << ")";
      }
      divergence_ = what.str();
    }
  }
  ThrowIfDivergent();
  return computed;
}

void GoldenRun::ThrowIfDivergent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SAFFIRE_CHECK_MSG(divergence_.empty(),
                    "the planned golden run of " << workload_.ToString()
                                                 << " under "
                                                 << ToString(dataflow_)
                                                 << " on "
                                                 << config_.ToString()
                                                 << " differs from the "
                                                    "array's in"
                                                 << divergence_);
}

GoldenRunCache& GoldenRunCache::Instance() {
  static GoldenRunCache* cache = new GoldenRunCache();
  return *cache;
}

std::string GoldenRunCache::Key(const AccelConfig& config,
                                const WorkloadSpec& workload,
                                Dataflow dataflow) {
  return config.Key() + ';' + std::to_string(static_cast<int>(dataflow)) +
         ';' + workload.Key();
}

std::shared_ptr<GoldenRun> GoldenRunCache::Get(const AccelConfig& config,
                                               const WorkloadSpec& workload,
                                               Dataflow dataflow) {
  const std::string key = Key(config, workload, dataflow);
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<GoldenRun>& entry = entries_[key];
  if (entry == nullptr) {
    entry = std::make_shared<GoldenRun>(config, workload, dataflow);
  }
  return entry;
}

std::shared_ptr<const GoldenRun::Recorded> GoldenRunCache::GetOrCompute(
    const AccelConfig& config, const WorkloadSpec& workload,
    Dataflow dataflow, bool* cache_hit) {
  return Get(config, workload, dataflow)->recorded(cache_hit);
}

void GoldenRunCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::uint64_t GoldenRunCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t hits = 0;
  for (const auto& [key, entry] : entries_) hits += entry->hits();
  return hits;
}

std::uint64_t GoldenRunCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t misses = 0;
  for (const auto& [key, entry] : entries_) misses += entry->misses();
  return misses;
}

std::size_t GoldenRunCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace saffire
