// The software stack: plans tile loops (Sec. II-C), stages operands in
// DRAM, emits ISA programs, and reads results back — the role Gemmini's
// host-side library plays on the Rocket CPU in Fig. 2 of the paper.
//
// The tiling plan is exposed via PlanTiles() so that the analytical
// fault-pattern predictor (patterns/predictor.h) reasons about exactly the
// loop structure the hardware executed.
#pragma once

#include "accel/controller.h"
#include "tensor/conv.h"
#include "tensor/tiling.h"

namespace saffire {

// How convolutions are lowered onto the GEMM engine (ignored by Gemm).
//   kIm2Col:    cuDNN-style (Sec. II-B) — C[NPQ×K] = A[NPQ×CRS]·W[CRS×K],
//               output channels on array columns.
//   kShiftGemm: the [C·R × S·K] factorized lowering (tensor/shift_gemm.h)
//               whose column-tiling reproduces the paper's single- vs
//               multi-channel conv fault patterns (Fig. 3e–3g).
enum class ConvLowering : std::uint8_t { kIm2Col = 0, kShiftGemm = 1 };

std::string ToString(ConvLowering lowering);

// Parses "im2col"/"shift-gemm"; throws std::invalid_argument on unknown
// names.
ConvLowering ConvLoweringFromString(const std::string& name);

struct ExecOptions {
  Dataflow dataflow = Dataflow::kWeightStationary;
  Activation activation = Activation::kNone;
  std::int32_t output_shift = 0;  // used by the quantizing variants only
  ConvLowering conv_lowering = ConvLowering::kShiftGemm;
};

class Driver {
 public:
  explicit Driver(Accelerator& accel) : accel_(accel) {}

  // The tile grid used for an M×N×K GEMM:
  //   WS: A streams, so M is chunked at max_compute_rows; K maps to array
  //       rows (weight block height), N to array columns.
  //   OS: M maps to array rows, N to array columns; K is chunked at the
  //       scratchpad row width (= array columns), since an A block stores
  //       one matrix row per scratchpad row.
  static TileGrid PlanTiles(std::int64_t m, std::int64_t n, std::int64_t k,
                            const AccelConfig& config, Dataflow dataflow);

  // The cost of the program Gemm emits for an M×N×K GEMM, summed from its
  // instructions without running them: `steps` counts the datapath steps
  // (one per streamed cycle of each COMPUTE) and `cycles` every accelerator
  // cycle — MVIN rows, the WS preload charge net of its double-buffered
  // overlap, the steps, the OS drain, and MVOUT rows. IS is the WS program
  // of the transposed problem. A fault-free run's counters equal it.
  struct Schedule {
    std::int64_t cycles = 0;
    std::int64_t steps = 0;
  };
  static Schedule PlanSchedule(std::int64_t m, std::int64_t n,
                               std::int64_t k, const AccelConfig& config,
                               Dataflow dataflow);

  // C = A·B as the fault-free array computes it at its widths: operands
  // sign-extended at input_bits, each reduction tile's products summed with
  // a wrap at acc_bits, and the tiles wrap-added in uint32 as
  // AccumulatorMem::WriteBlock does. Gemm's output on the same operands.
  static Int32Tensor PlanProduct(const Int8Tensor& a, const Int8Tensor& b,
                                 const AccelConfig& config,
                                 Dataflow dataflow);

  // C[M×N] = A[M×K]·B[K×N] with INT32 results (MVOUT32).
  Int32Tensor Gemm(const Int8Tensor& a, const Int8Tensor& b,
                   const ExecOptions& options);

  // Same, but results leave the accumulator through the requantizing MVOUT8
  // path (activation + rounding shift + saturation).
  Int8Tensor GemmQuantized(const Int8Tensor& a, const Int8Tensor& b,
                           const ExecOptions& options);

  // Convolution via im2col lowering (Sec. II-B): the host reshapes input
  // and kernel, the accelerator runs the NPQ×CRS·CRS×K GEMM, and the host
  // folds the NPQ×K result back to N×K×P×Q.
  Int32Tensor Conv(const Int8Tensor& input, const Int8Tensor& kernel,
                   const ConvParams& params, const ExecOptions& options);

  Int8Tensor ConvQuantized(const Int8Tensor& input, const Int8Tensor& kernel,
                           const ConvParams& params,
                           const ExecOptions& options);

  // The ISA program emitted by the most recent operation (for audits,
  // disassembly listings, and tests).
  const Program& last_program() const { return last_program_; }

  Accelerator& accel() { return accel_; }

 private:
  // Emits and runs the tiled GEMM, leaving the INT32 result in DRAM.
  // Returns the DRAM address of C.
  std::int64_t RunTiledGemm(const Int8Tensor& a, const Int8Tensor& b,
                            const ExecOptions& options, bool quantized);

  Accelerator& accel_;
  Program last_program_;
};

}  // namespace saffire
