#include "accel/driver.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/bits.h"
#include "systolic/timing.h"
#include "tensor/im2col.h"
#include "tensor/shift_gemm.h"
#include "tensor/transpose.h"

namespace saffire {

std::string ToString(ConvLowering lowering) {
  return lowering == ConvLowering::kIm2Col ? "im2col" : "shift-gemm";
}

ConvLowering ConvLoweringFromString(const std::string& name) {
  if (name == "im2col") return ConvLowering::kIm2Col;
  if (name == "shift-gemm") return ConvLowering::kShiftGemm;
  SAFFIRE_CHECK_MSG(false, "unknown conv lowering '" << name << "'");
}

TileGrid Driver::PlanTiles(std::int64_t m, std::int64_t n, std::int64_t k,
                           const AccelConfig& config, Dataflow dataflow) {
  config.Validate();
  // The reduction block is bounded by the array rows (the depth of the
  // psum chain / weight column) AND by the scratchpad row width (= array
  // cols): each streamed matrix row occupies one scratchpad row, so its
  // length cannot exceed the row width. Square arrays make this min() a
  // no-op; rows-heavy arrays leave their extra rows idle, as a real
  // cols-wide scratchpad would force.
  const std::int64_t reduction_block =
      std::min(config.array.rows, config.array.cols);
  switch (dataflow) {
    case Dataflow::kWeightStationary:
      return TileGrid(m, n, k, config.max_compute_rows, config.array.cols,
                      reduction_block);
    case Dataflow::kOutputStationary:
      return TileGrid(m, n, k, config.array.rows, config.array.cols,
                      config.array.cols);
    case Dataflow::kInputStationary:
      // The WS plan of the transposed problem, mapped back to C-space:
      // the stationary Aᵀ tile pins M to the array columns and K to the
      // reduction block; the weight stream N is chunked like a WS
      // activation stream.
      return TileGrid(m, n, k, config.array.cols, config.max_compute_rows,
                      reduction_block);
  }
  SAFFIRE_CHECK_MSG(false, "unknown dataflow");
}

Driver::Schedule Driver::PlanSchedule(std::int64_t m, std::int64_t n,
                                      std::int64_t k,
                                      const AccelConfig& config,
                                      Dataflow dataflow) {
  if (dataflow == Dataflow::kInputStationary) {
    return PlanSchedule(n, m, k, config, Dataflow::kWeightStationary);
  }
  // Walks RunTiledGemm's loops, charging what Accelerator::Run charges for
  // each instruction, from the same systolic/timing.h formulas.
  const TileGrid grid = PlanTiles(m, n, k, config, dataflow);
  const ArrayConfig& array = config.array;
  Schedule schedule;
  std::int64_t overlap_budget = 0;  // CONFIG starts with drained pipelines
  for (std::int64_t mi = 0; mi < grid.m_tiles(); ++mi) {
    const std::int64_t me = grid.TileRows(mi);
    for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
      for (std::int64_t ki = 0; ki < grid.k_tiles(); ++ki) {
        const std::int64_t ke = grid.TileDepth(ki);
        schedule.cycles += ke + me;  // MVIN of the B block, then the A block
        if (dataflow == Dataflow::kWeightStationary) {
          const std::int64_t stream = WeightStationaryStreamCycles(me, array);
          schedule.cycles +=
              WeightStationaryPreloadCycles(
                  array, config.double_buffered_weights, overlap_budget) +
              stream;
          schedule.steps += stream;
          overlap_budget = stream;
        } else {
          schedule.cycles += OutputStationaryTileCycles(ke, array);
          schedule.steps += OutputStationaryStreamCycles(ke, array);
        }
      }
      schedule.cycles += me;  // MVOUT
    }
  }
  return schedule;
}

Int32Tensor Driver::PlanProduct(const Int8Tensor& a, const Int8Tensor& b,
                                const AccelConfig& config,
                                Dataflow dataflow) {
  SAFFIRE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
                    "A " << a.ShapeString() << " B " << b.ShapeString());
  config.Validate();
  const ArrayConfig& array = config.array;
  // The edge registers sign-extend each operand at input_bits, a no-op on
  // int8 values from 8 bits up. The product of two such operands always
  // fits product_bits, so the multiplier never wraps a fault-free product.
  const auto at_input_width = [&array](const Int8Tensor& operand) {
    Int8Tensor narrowed = operand;
    for (std::int8_t& value : narrowed.data()) {
      value = static_cast<std::int8_t>(SignExtend(value, array.input_bits));
    }
    return narrowed;
  };
  std::optional<Int8Tensor> narrow_a;
  std::optional<Int8Tensor> narrow_b;
  if (array.input_bits < 8) {
    narrow_a = at_input_width(a);
    narrow_b = at_input_width(b);
  }
  const Int8Tensor& lhs = narrow_a ? *narrow_a : a;
  const Int8Tensor& rhs = narrow_b ? *narrow_b : b;

  // The accumulator wraps each reduction tile's sum at acc_bits (from 32
  // bits up a no-op on an int32). The tile sum itself is exact in int32: a
  // tile is at most 1024 deep and |a·b| ≤ 2^14. IS shares WS's reduction
  // block (the k dimension is not transposed).
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  const std::int64_t block = dataflow == Dataflow::kOutputStationary
                                 ? array.cols
                                 : std::min(array.rows, array.cols);
  Int32Tensor c({m, n});
  std::vector<std::int32_t> tile(static_cast<std::size_t>(n));
  const std::int8_t* a_row = lhs.data().data();
  std::int32_t* c_row = c.data().data();
  for (std::int64_t i = 0; i < m; ++i, a_row += k, c_row += n) {
    for (std::int64_t k0 = 0; k0 < k; k0 += block) {
      std::fill(tile.begin(), tile.end(), 0);
      const std::int8_t* b_row = rhs.data().data() + k0 * n;
      for (std::int64_t p = k0; p < std::min(k, k0 + block);
           ++p, b_row += n) {
        const std::int32_t a_ip = a_row[p];
        for (std::int64_t j = 0; j < n; ++j) {
          tile[static_cast<std::size_t>(j)] += a_ip * b_row[j];
        }
      }
      for (std::int64_t j = 0; j < n; ++j) {
        c_row[j] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(c_row[j]) +
            static_cast<std::uint32_t>(SignExtend(
                tile[static_cast<std::size_t>(j)], array.acc_bits)));
      }
    }
  }
  return c;
}

std::int64_t Driver::RunTiledGemm(const Int8Tensor& a, const Int8Tensor& b,
                                  const ExecOptions& options, bool quantized) {
  SAFFIRE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
                    "A " << a.ShapeString() << " B " << b.ShapeString());
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  const AccelConfig& config = accel_.config();
  const TileGrid grid = PlanTiles(m, n, k, config, options.dataflow);

  HostMemory& dram = accel_.dram();
  dram.FreeAll();
  const std::int64_t a_addr = dram.Allocate(m * k);
  dram.WriteMatrix(a_addr, a);
  const std::int64_t b_addr = dram.Allocate(k * n);
  dram.WriteMatrix(b_addr, b);
  const std::int64_t c_addr =
      dram.Allocate(quantized ? m * n : m * n * 4);

  const std::int32_t spad_a_row = 0;
  const auto spad_b_row = config.max_compute_rows;

  Program program;
  program.Push(
      ConfigOp{options.dataflow, options.activation, options.output_shift});
  for (std::int64_t mi = 0; mi < grid.m_tiles(); ++mi) {
    const std::int64_t m0 = grid.RowStart(mi);
    const auto me = static_cast<std::int32_t>(grid.TileRows(mi));
    for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
      const std::int64_t n0 = grid.ColStart(ni);
      const auto ne = static_cast<std::int32_t>(grid.TileCols(ni));
      for (std::int64_t ki = 0; ki < grid.k_tiles(); ++ki) {
        const std::int64_t k0 = grid.DepthStart(ki);
        const auto ke = static_cast<std::int32_t>(grid.TileDepth(ki));
        program.Push(
            MvinOp{b_addr + k0 * n + n0, n, spad_b_row, ke, ne});
        if (options.dataflow == Dataflow::kWeightStationary) {
          program.Push(PreloadOp{spad_b_row, ke, ne});
        }
        program.Push(MvinOp{a_addr + m0 * k + k0, k, spad_a_row, me, ke});
        ComputeOp compute;
        compute.a_spad_row = spad_a_row;
        compute.a_rows = me;
        compute.a_cols = ke;
        compute.acc_row = 0;
        compute.accumulate = ki > 0;
        if (options.dataflow == Dataflow::kOutputStationary) {
          compute.b_spad_row = spad_b_row;
          compute.b_rows = ke;
          compute.b_cols = ne;
        }
        program.Push(compute);
      }
      if (quantized) {
        program.Push(Mvout8Op{c_addr + m0 * n + n0, n, 0, me, ne});
      } else {
        program.Push(Mvout32Op{c_addr + (m0 * n + n0) * 4, n, 0, me, ne});
      }
    }
  }

  accel_.Execute(program);
  last_program_ = std::move(program);
  return c_addr;
}

Int32Tensor Driver::Gemm(const Int8Tensor& a, const Int8Tensor& b,
                         const ExecOptions& options) {
  if (options.dataflow == Dataflow::kInputStationary) {
    // IS = the WS program of the transposed problem (Cᵀ = Bᵀ·Aᵀ); the
    // host stages transposed operands and un-transposes the result.
    ExecOptions ws = options;
    ws.dataflow = Dataflow::kWeightStationary;
    return Transpose(Gemm(Transpose(b), Transpose(a), ws));
  }
  const std::int64_t c_addr =
      RunTiledGemm(a, b, options, /*quantized=*/false);
  return accel_.dram().ReadInt32Matrix(c_addr, a.dim(0), b.dim(1));
}

Int8Tensor Driver::GemmQuantized(const Int8Tensor& a, const Int8Tensor& b,
                                 const ExecOptions& options) {
  if (options.dataflow == Dataflow::kInputStationary) {
    ExecOptions ws = options;
    ws.dataflow = Dataflow::kWeightStationary;
    return Transpose(GemmQuantized(Transpose(b), Transpose(a), ws));
  }
  const std::int64_t c_addr = RunTiledGemm(a, b, options, /*quantized=*/true);
  return accel_.dram().ReadInt8Matrix(c_addr, a.dim(0), b.dim(1));
}

Int32Tensor Driver::Conv(const Int8Tensor& input, const Int8Tensor& kernel,
                         const ConvParams& params,
                         const ExecOptions& options) {
  if (options.conv_lowering == ConvLowering::kShiftGemm) {
    const auto a2 = ShiftGemmLowerInput(input, params);
    const auto w2 = ShiftGemmLowerKernel(kernel, params);
    return ShiftGemmFold(Gemm(a2, w2, options), params);
  }
  const auto patches = Im2Col(input, params);
  const auto weights = FlattenKernel(kernel, params);
  return FoldGemmOutput(Gemm(patches, weights, options), params);
}

Int8Tensor Driver::ConvQuantized(const Int8Tensor& input,
                                 const Int8Tensor& kernel,
                                 const ConvParams& params,
                                 const ExecOptions& options) {
  // Requantization must see the fully-accumulated INT32 result, which for
  // the shift-GEMM lowering only exists after the fold; apply the same
  // Requantize stage the MVOUT8 path uses, post-fold.
  ExecOptions raw = options;
  raw.activation = Activation::kNone;
  raw.output_shift = 0;
  const auto folded = Conv(input, kernel, params, raw);
  Int8Tensor out(folded.shape());
  for (std::int64_t i = 0; i < folded.size(); ++i) {
    out.flat(i) =
        Requantize(folded.flat(i), options.activation, options.output_shift);
  }
  return out;
}

}  // namespace saffire
