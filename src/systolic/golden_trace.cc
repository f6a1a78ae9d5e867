#include "systolic/golden_trace.h"

#include "common/check.h"

namespace saffire {

void GoldenTrace::Begin(std::int32_t rows, std::int32_t cols,
                        std::int64_t base_cycle) {
  SAFFIRE_CHECK_MSG(rows > 0 && cols > 0, rows << "x" << cols);
  rows_ = rows;
  cols_ = cols;
  steps_ = 0;
  base_cycle_ = base_cycle;
  south_rows_.clear();
  step_cycles_.clear();
  checkpoint_steps_.clear();
  acc_checkpoints_.clear();
}

void GoldenTrace::Reserve(std::int64_t steps) {
  SAFFIRE_CHECK_MSG(steps >= 0, "steps=" << steps);
  south_rows_.reserve(static_cast<std::size_t>(steps) *
                      static_cast<std::size_t>(cols_));
  step_cycles_.reserve(static_cast<std::size_t>(steps));
}

void GoldenTrace::AppendAccumulatorCheckpoint(std::vector<std::int64_t> grid) {
  SAFFIRE_ASSERT_MSG(
      grid.empty() ||
          grid.size() == static_cast<std::size_t>(rows_) *
                             static_cast<std::size_t>(cols_),
      "checkpoint size " << grid.size());
  checkpoint_steps_.push_back(steps_);
  acc_checkpoints_.push_back(std::move(grid));
}

std::int64_t GoldenTrace::SouthAt(std::int64_t step, std::int32_t col) const {
  SAFFIRE_ASSERT_MSG(step >= 0 && step < steps_,
                     "step " << step << " of " << steps_
                             << " — differential run misaligned with trace");
  SAFFIRE_ASSERT(col >= 0 && col < cols_);
  return south_rows_[static_cast<std::size_t>(step) *
                         static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(col)];
}

std::int64_t GoldenTrace::AccumulatorAt(std::int64_t index, std::int32_t row,
                                        std::int32_t col) const {
  SAFFIRE_ASSERT_MSG(
      index >= 0 && index < checkpoints(),
      "checkpoint " << index << " of " << checkpoints()
                    << " — differential run misaligned with trace");
  const std::vector<std::int64_t>& grid =
      acc_checkpoints_[static_cast<std::size_t>(index)];
  if (grid.empty()) return 0;  // all-zero checkpoint, stored compactly
  SAFFIRE_ASSERT(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  return grid[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(col)];
}

std::int64_t GoldenTrace::StepRelCycle(std::int64_t step) const {
  SAFFIRE_ASSERT_MSG(step >= 0 && step < steps_,
                     "step " << step << " of " << steps_);
  return step_cycles_[static_cast<std::size_t>(step)] - base_cycle_;
}

std::int64_t GoldenTrace::StepsAtCheckpoint(std::int64_t index) const {
  SAFFIRE_ASSERT_MSG(index >= 0 && index < checkpoints(),
                     "checkpoint " << index << " of " << checkpoints());
  return checkpoint_steps_[static_cast<std::size_t>(index)];
}

std::size_t GoldenTrace::MemoryBytes() const {
  std::size_t bytes = south_rows_.capacity() * sizeof(std::int64_t);
  bytes += step_cycles_.capacity() * sizeof(std::int64_t);
  bytes += checkpoint_steps_.capacity() * sizeof(std::int64_t);
  for (const auto& grid : acc_checkpoints_) {
    bytes += grid.capacity() * sizeof(std::int64_t);
  }
  return bytes;
}

}  // namespace saffire
