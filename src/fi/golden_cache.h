// Process-wide cache of golden runs, keyed on everything that determines
// them: the accelerator configuration, the dataflow, and the full workload
// specification (including operand fills and the data seed).
//
// Campaign sweeps over fault sites / bits / polarities / signals re-execute
// the *same* fault-free workload for every configuration cell; Table 1 alone
// asks for identical golden GEMMs hundreds of times. Each (workload,
// dataflow, config) key holds one GoldenRun of two halves, each computed at
// most once per process, on first demand, and then shared by every later
// campaign and worker:
//
//   - the planned half: the materialized operands and PlanGolden of them
//     (fi/runner.h). No array steps. A closed-form campaign needs nothing
//     more, so a sweep of them never simulates a golden run.
//   - the recorded half: FiRunner::RunGoldenRecorded and its trace, which
//     the differential engine and the lane grid replay.
//
// When both halves of a key exist they must agree in output, cycles and
// pe_steps. A divergence is permanent: the request that found it and every
// later request for either half of the key throw std::invalid_argument,
// which the resilience ladder neither retries nor demotes past.
//
// Halves are immutable once published, so workers read them concurrently
// without synchronization. The cache-wide mutex guards only the key map;
// each half has its own, held while that half is computed, so requests for
// one key wait for its computation and no other key waits on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "fi/runner.h"

namespace saffire {

class GoldenRun {
 public:
  struct Planned {
    MaterializedWorkload operands;
    RunResult result;
  };
  struct Recorded {
    RunResult result;
    GoldenTrace trace;
  };

  GoldenRun(const AccelConfig& config, const WorkloadSpec& workload,
            Dataflow dataflow);

  // The half, computed on the first request. If `cache_hit` is non-null it
  // is set to whether the half was already present. Throws if the halves
  // diverge (see the file comment); a half whose computation throws stays
  // absent, so the next request computes it again.
  std::shared_ptr<const Planned> planned(bool* cache_hit = nullptr);
  std::shared_ptr<const Recorded> recorded(bool* cache_hit = nullptr);

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }

 private:
  template <typename Half, typename Compute>
  std::shared_ptr<const Half> Demand(std::mutex& compute_mutex,
                                     std::shared_ptr<const Half>& half,
                                     bool* cache_hit, Compute compute);
  void ThrowIfDivergent() const;

  const AccelConfig config_;
  const WorkloadSpec workload_;
  const Dataflow dataflow_;

  std::mutex planned_mutex_;
  std::mutex recorded_mutex_;
  // Guards the two published halves and divergence_.
  mutable std::mutex mutex_;
  std::shared_ptr<const Planned> planned_;
  std::shared_ptr<const Recorded> recorded_;
  std::string divergence_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

class GoldenRunCache {
 public:
  static GoldenRunCache& Instance();

  // The key's GoldenRun, created with neither half on first use. Holding it
  // keeps both halves alive across Clear().
  std::shared_ptr<GoldenRun> Get(const AccelConfig& config,
                                 const WorkloadSpec& workload,
                                 Dataflow dataflow);

  // Get(...)->recorded(cache_hit): the recorded golden run and its trace.
  std::shared_ptr<const GoldenRun::Recorded> GetOrCompute(
      const AccelConfig& config, const WorkloadSpec& workload,
      Dataflow dataflow, bool* cache_hit = nullptr);

  // Drops all entries and zeroes the counters (tests; memory pressure).
  void Clear();

  // Half requests served from the cache and halves computed, over the
  // entries present.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t entries() const;

 private:
  GoldenRunCache() = default;

  static std::string Key(const AccelConfig& config,
                         const WorkloadSpec& workload, Dataflow dataflow);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<GoldenRun>> entries_;
};

}  // namespace saffire
