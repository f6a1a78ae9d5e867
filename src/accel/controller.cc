#include "accel/controller.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "systolic/timing.h"

namespace saffire {

void AccelConfig::Validate() const {
  array.Validate();
  SAFFIRE_CHECK_MSG(spad_rows >= 2 * array.rows, "spad_rows=" << spad_rows);
  SAFFIRE_CHECK_MSG(acc_rows >= array.rows, "acc_rows=" << acc_rows);
  SAFFIRE_CHECK_MSG(max_compute_rows >= array.rows,
                    "max_compute_rows=" << max_compute_rows);
  SAFFIRE_CHECK_MSG(max_compute_rows <= acc_rows,
                    "max_compute_rows exceeds accumulator capacity");
  SAFFIRE_CHECK_MSG(
      max_compute_rows + std::max(array.rows, array.cols) <= spad_rows,
      "A region plus a B block must fit the scratchpad");
  SAFFIRE_CHECK_MSG(dram_bytes >= (1 << 16), "dram_bytes=" << dram_bytes);
}

std::string AccelConfig::ToString() const {
  std::ostringstream os;
  os << "Accel(" << array.ToString() << ", spad=" << spad_rows
     << " rows, acc=" << acc_rows << " rows, max_compute=" << max_compute_rows
     << ")";
  return os.str();
}

std::string AccelConfig::Key() const {
  std::ostringstream key;
  key << array.rows << ',' << array.cols << ',' << array.input_bits << ','
      << array.acc_bits << ';' << spad_rows << ',' << acc_rows << ','
      << max_compute_rows << ',' << double_buffered_weights << ','
      << dram_bytes;
  return key.str();
}

Accelerator::Accelerator(const AccelConfig& config)
    : config_(config),
      dram_((config.Validate(), config.dram_bytes)),
      array_(config.array),
      scratchpad_(config.spad_rows, config.array.cols),
      accumulator_(config.acc_rows, config.array.cols),
      ws_(array_),
      os_(array_) {}

void Accelerator::Execute(const Instruction& instruction) {
  std::visit([this](const auto& op) { Run(op); }, instruction);
  ++stats_.instructions;
}

void Accelerator::Execute(const Program& program) {
  for (const Instruction& instruction : program.instructions()) {
    Execute(instruction);
  }
}

void Accelerator::Run(const ConfigOp& op) {
  SAFFIRE_CHECK_MSG(op.output_shift >= 0 && op.output_shift < 32,
                    "output_shift=" << op.output_shift);
  // IS is realized by the driver as a WS program on transposed operands
  // (driver.cc); the hardware itself exposes WS and OS, like Gemmini.
  SAFFIRE_CHECK_MSG(op.dataflow != Dataflow::kInputStationary,
                    "the ISA supports WS and OS; lower IS in the driver");
  dataflow_ = op.dataflow;
  activation_ = op.activation;
  output_shift_ = op.output_shift;
  // A new program starts with drained pipelines: no stream is in flight to
  // hide the first preload (this also keeps every run's cycle count
  // independent of what ran before — fault injection must never perturb
  // timing).
  ws_overlap_budget_ = 0;
}

void Accelerator::Run(const MvinOp& op) {
  SAFFIRE_CHECK_MSG(op.rows > 0 && op.cols > 0 &&
                        op.cols <= scratchpad_.cols(),
                    "mvin " << op.rows << "x" << op.cols);
  Int8Tensor block({op.rows, op.cols});
  for (std::int32_t r = 0; r < op.rows; ++r) {
    for (std::int32_t c = 0; c < op.cols; ++c) {
      block(r, c) = dram_.ReadInt8(op.dram_addr + r * op.dram_stride + c);
    }
  }
  scratchpad_.WriteBlock(op.spad_row, block);
  array_.AdvanceIdle(op.rows);  // DMA: one scratchpad row per cycle
  stats_.mvin_rows += op.rows;
}

void Accelerator::Run(const PreloadOp& op) {
  SAFFIRE_CHECK_MSG(dataflow_ == Dataflow::kWeightStationary,
                    "PRELOAD requires the weight-stationary dataflow");
  SAFFIRE_CHECK_MSG(op.b_rows > 0 && op.b_rows <= config_.array.rows &&
                        op.b_cols > 0 && op.b_cols <= config_.array.cols,
                    "preload block " << op.b_rows << "x" << op.b_cols);
  preloaded_b_ = scratchpad_.ReadBlock(op.b_spad_row, op.b_rows, op.b_cols);
  ++stats_.preloads;
  // The shift-in cost is charged by the scheduler on the next COMPUTE.
}

void Accelerator::Run(const ComputeOp& op) {
  SAFFIRE_CHECK_MSG(op.a_rows > 0 && op.a_cols > 0, "compute a "
                                                        << op.a_rows << "x"
                                                        << op.a_cols);
  SAFFIRE_CHECK_MSG(op.a_rows <= config_.max_compute_rows,
                    "a_rows=" << op.a_rows << " exceeds max_compute_rows "
                              << config_.max_compute_rows);
  const auto a = scratchpad_.ReadBlock(op.a_spad_row, op.a_rows, op.a_cols);

  Int32Tensor result({1, 1});
  if (dataflow_ == Dataflow::kWeightStationary) {
    SAFFIRE_CHECK_MSG(preloaded_b_.has_value(),
                      "COMPUTE without a prior PRELOAD");
    SAFFIRE_CHECK_MSG(preloaded_b_->dim(0) == op.a_cols,
                      "A cols " << op.a_cols << " vs preloaded B rows "
                                << preloaded_b_->dim(0));
    array_.AdvanceIdle(WeightStationaryPreloadCycles(
        config_.array, config_.double_buffered_weights, ws_overlap_budget_));
    result = ws_.Multiply(a, *preloaded_b_, nullptr,
                          /*charge_preload=*/false);
    ws_overlap_budget_ = WeightStationaryStreamCycles(op.a_rows,
                                                      config_.array);
  } else {
    SAFFIRE_CHECK_MSG(op.b_rows > 0 && op.b_cols > 0,
                      "OS COMPUTE requires an inline B block");
    SAFFIRE_CHECK_MSG(op.b_rows == op.a_cols,
                      "A cols " << op.a_cols << " vs B rows " << op.b_rows);
    SAFFIRE_CHECK_MSG(op.a_rows <= config_.array.rows,
                      "OS a_rows=" << op.a_rows << " exceeds array rows");
    const auto b = scratchpad_.ReadBlock(op.b_spad_row, op.b_rows, op.b_cols);
    result = os_.Multiply(a, b);
  }
  accumulator_.WriteBlock(op.acc_row, result, op.accumulate);
  ++stats_.computes;
}

void Accelerator::Run(const Mvout32Op& op) {
  const auto block = accumulator_.ReadBlock(op.acc_row, op.rows, op.cols);
  for (std::int32_t r = 0; r < op.rows; ++r) {
    for (std::int32_t c = 0; c < op.cols; ++c) {
      dram_.WriteInt32(op.dram_addr + (r * op.dram_stride + c) * 4,
                       block(r, c));
    }
  }
  array_.AdvanceIdle(op.rows);
  stats_.mvout_rows += op.rows;
}

void Accelerator::Run(const Mvout8Op& op) {
  const auto block = accumulator_.ReadBlockQuantized(
      op.acc_row, op.rows, op.cols, activation_, output_shift_);
  for (std::int32_t r = 0; r < op.rows; ++r) {
    for (std::int32_t c = 0; c < op.cols; ++c) {
      dram_.WriteInt8(op.dram_addr + r * op.dram_stride + c, block(r, c));
    }
  }
  array_.AdvanceIdle(op.rows);
  stats_.mvout_rows += op.rows;
}

void Accelerator::Run(const FenceOp&) {
  // In-order model: nothing outstanding to drain.
}

}  // namespace saffire
