// The accelerator proper: systolic array + scratchpad + accumulator SRAM +
// DRAM, sequenced by an in-order controller executing the ISA of isa.h —
// the full-stack structure of Gemmini in Fig. 2 of the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "accel/host_memory.h"
#include "accel/isa.h"
#include "accel/scratchpad.h"
#include "systolic/array.h"
#include "systolic/dataflow.h"

namespace saffire {

struct AccelConfig {
  ArrayConfig array;
  std::int32_t spad_rows = 8192;
  std::int32_t acc_rows = 4096;
  // Longest activation stream a single WS COMPUTE may issue (bounded by the
  // scratchpad region the driver dedicates to A blocks).
  std::int32_t max_compute_rows = 1024;
  // Gemmini-style double-buffered PE weight registers: the next PRELOAD
  // shifts into the shadow bank while the current COMPUTE streams, so a
  // WS compute pays only the preload latency the previous stream could not
  // hide (max(0, rows − previous stream cycles); the first compute pays it
  // in full). false models single-bank hardware: every compute pays `rows`.
  bool double_buffered_weights = true;
  // Modelled DRAM capacity: bounds every access and allocation. The image
  // is lazily backed (accel/host_memory.h), so capacity costs no memory
  // until bytes are written.
  std::int64_t dram_bytes = 64ll << 20;

  void Validate() const;
  std::string ToString() const;
  // Every field, in the fixed text the persisted identities embed
  // (CampaignKey, NetworkCampaignKey, GoldenRunCache keys): a change here
  // orphans every checkpoint and result-cache entry on disk.
  std::string Key() const;

  bool operator==(const AccelConfig&) const = default;
};

struct AccelStats {
  std::int64_t instructions = 0;
  std::int64_t mvin_rows = 0;
  std::int64_t mvout_rows = 0;
  std::int64_t computes = 0;
  std::int64_t preloads = 0;
  // Total accelerator cycles == the array's cycle counter (one clock
  // domain: datapath steps plus accounted DMA/preload/drain idles).
};

class Accelerator {
 public:
  explicit Accelerator(const AccelConfig& config);

  const AccelConfig& config() const { return config_; }

  void Execute(const Instruction& instruction);
  void Execute(const Program& program);

  HostMemory& dram() { return dram_; }
  const HostMemory& dram() const { return dram_; }
  SystolicArray& array() { return array_; }
  const SystolicArray& array() const { return array_; }
  Scratchpad& scratchpad() { return scratchpad_; }
  AccumulatorMem& accumulator() { return accumulator_; }

  const AccelStats& stats() const { return stats_; }
  std::int64_t cycles() const { return array_.cycle(); }

  // Current dataflow (from the last CONFIG; WS until configured).
  Dataflow dataflow() const { return dataflow_; }

 private:
  void Run(const ConfigOp& op);
  void Run(const MvinOp& op);
  void Run(const PreloadOp& op);
  void Run(const ComputeOp& op);
  void Run(const Mvout32Op& op);
  void Run(const Mvout8Op& op);
  void Run(const FenceOp& op);

  AccelConfig config_;
  HostMemory dram_;
  SystolicArray array_;
  Scratchpad scratchpad_;
  AccumulatorMem accumulator_;
  WeightStationaryScheduler ws_;
  OutputStationaryScheduler os_;

  Dataflow dataflow_ = Dataflow::kWeightStationary;
  Activation activation_ = Activation::kNone;
  std::int32_t output_shift_ = 0;
  // Stream cycles of the previous WS COMPUTE, available to hide the next
  // weight preload when double buffering is enabled.
  std::int64_t ws_overlap_budget_ = 0;
  // Stationary operand captured by the last PRELOAD (WS only).
  std::optional<Int8Tensor> preloaded_b_;

  AccelStats stats_;
};

}  // namespace saffire
