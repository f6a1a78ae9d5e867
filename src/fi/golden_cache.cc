#include "fi/golden_cache.h"

#include <string>

namespace saffire {

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

std::shared_ptr<const GoldenRunCache::Entry> GoldenRunCache::GetOrCompute(
    const AccelConfig& config, const WorkloadSpec& workload,
    Dataflow dataflow, bool* cache_hit) {
  const std::string key = Key(config, workload, dataflow);
  // Computed under the lock: concurrent workers asking for the same key
  // (the parallel-sweep startup pattern) block until the first one has
  // published the entry instead of duplicating the golden run.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    if (cache_hit != nullptr) *cache_hit = true;
    return it->second;
  }
  ++misses_;
  if (cache_hit != nullptr) *cache_hit = false;
  auto entry = std::make_shared<Entry>();
  FiRunner runner(config);
  entry->result = runner.RunGoldenRecorded(workload, dataflow, &entry->trace);
  std::shared_ptr<const Entry> published = std::move(entry);
  entries_.emplace(key, published);
  return published;
}

void GoldenRunCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

std::uint64_t GoldenRunCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t GoldenRunCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t GoldenRunCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace saffire
