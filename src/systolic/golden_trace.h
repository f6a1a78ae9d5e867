// Golden-run trace: the externally visible array state recorded once per
// fault-free run so that faulty runs can be executed *differentially* — only
// the columns inside a fault's static influence cone are re-simulated, and
// every read that would touch an unsimulated column replays the recorded
// golden value instead (Sec. III-B of the paper contrasts faulty output
// against golden output; the determinism result of Sec. IV is what makes the
// cone static and the replay sound).
//
// What must be recorded is exactly what the schedulers read back from the
// array between Steps:
//   - the registered south outputs of the bottom PE row, sampled after every
//     Step (the WS output path), and
//   - the in-place accumulator grid at the end of every tile invocation
//     (the OS drain path). Tile boundaries are delimited by Reset(), which
//     both schedulers issue at the start of Multiply, so a checkpoint is
//     captured on each Reset plus once when recording ends.
//
// A trace is valid for replay against any run that executes the same
// instruction stream on the same array configuration — which a faulty run
// does, because fault injection corrupts datapath values only and never
// perturbs sequencing (accel/controller.cc keeps cycle counts independent of
// data).
#pragma once

#include <cstdint>
#include <vector>

namespace saffire {

// Contiguous range of array columns [lo, hi] that a fault can influence —
// the static cone computed by FaultCone() (fi/cone.h). Columns outside the
// cone provably carry golden values in a faulty run.
struct ColumnCone {
  std::int32_t lo = 0;
  std::int32_t hi = 0;

  std::int32_t width() const { return hi - lo + 1; }
  bool contains(std::int32_t col) const { return col >= lo && col <= hi; }

  bool operator==(const ColumnCone&) const = default;
};

class GoldenTrace {
 public:
  GoldenTrace() = default;

  // Re-arms the trace for a new recording on a rows×cols array.
  // `base_cycle` is the simulator clock at the start of the recorded run;
  // per-step cycles are exposed relative to it so the trace stays valid for
  // replay on simulators with different accumulated cycle counts.
  void Begin(std::int32_t rows, std::int32_t cols,
             std::int64_t base_cycle = 0);

  // Pre-sizes the per-Step buffers for a recording of `steps` Steps, so a
  // run whose length is known up front records without regrowing them.
  // Call after Begin(); it never changes what the trace holds.
  void Reserve(std::int64_t steps);

  // Appends the registered bottom-row south outputs of one Step, widened
  // from the array's element type (int64_t, or int32_t on the narrow path)
  // to the trace's int64_t. `cycle` is the hook-visible clock of that Step
  // (the value fault hooks compare transient strike cycles against).
  template <typename T>
  void AppendSouthRow(const T* row, std::int64_t cycle) {
    south_rows_.insert(south_rows_.end(), row, row + cols_);
    step_cycles_.push_back(cycle);
    ++steps_;
  }

  // Appends one accumulator checkpoint (row-major rows×cols, captured on
  // Reset and at end of recording). An all-zero grid is stored as an empty
  // vector — the common case for weight-stationary runs, whose accumulators
  // are never written.
  void AppendAccumulatorCheckpoint(std::vector<std::int64_t> grid);

  std::int32_t rows() const { return rows_; }
  std::int32_t cols() const { return cols_; }
  std::int64_t steps() const { return steps_; }
  std::int64_t checkpoints() const {
    return static_cast<std::int64_t>(acc_checkpoints_.size());
  }

  // South output of `col` as registered after the (step+1)-th Step of the
  // recorded run.
  std::int64_t SouthAt(std::int64_t step, std::int32_t col) const;

  // Accumulator of PE (row, col) at checkpoint `index`.
  std::int64_t AccumulatorAt(std::int64_t index, std::int32_t row,
                             std::int32_t col) const;

  // Hook-visible clock of the (step+1)-th recorded Step, relative to the
  // run start — the offset a pre-sampled transient strike cycle is compared
  // against when the run is replayed lane-parallel (fi/batch.cc).
  std::int64_t StepRelCycle(std::int64_t step) const;

  // Total Steps recorded before checkpoint `index` was captured — the tile
  // boundary structure (checkpoints are captured on each Reset plus once at
  // end of recording), used to cross-check a batched replay's re-derived
  // tile schedule against the recorded run.
  std::int64_t StepsAtCheckpoint(std::int64_t index) const;

  // Approximate heap footprint, for cache accounting.
  std::size_t MemoryBytes() const;

 private:
  std::int32_t rows_ = 0;
  std::int32_t cols_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t base_cycle_ = 0;
  std::vector<std::int64_t> south_rows_;  // steps_ × cols_, row-major
  std::vector<std::int64_t> step_cycles_;  // steps_, hook clock per Step
  std::vector<std::int64_t> checkpoint_steps_;  // steps_ at each checkpoint
  std::vector<std::vector<std::int64_t>> acc_checkpoints_;
};

}  // namespace saffire
