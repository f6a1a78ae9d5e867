// FiRunner::RunFaultyPredicted: the algebraic short circuit under the
// campaign layer's kPredicted rung and the network cycle rung's PE-local
// faults — per-fault results bit-identical to RunFaultyBatch, computed in
// closed form instead of stepping the array.
//
// Why this is exact (the FLARE observation, PAPERS.md): a permanent
// stuck-at on one of the PE-local signals (weight operand, multiplier
// output, adder output) perturbs the datapath only at its own MAC stage,
// and every value between that stage and a tile output flows through
// nothing but width-wrapped additions. A wrapped addition propagates an
// additive delta unchanged modulo 2^acc_bits, so the faulty tile output is
// the golden output plus a delta that depends only on the fault, the
// operands, and the schedule — no cycle-accurate stepping and no golden
// trace required, for any operands.
//
// Weight-stationary (including IS, which the driver lowers onto the WS
// datapath with transposed operands): output wave i of fault column c is
// the partial-sum chain g_r(i) = wrap(g_{r−1}(i) + m_r(i)) down the column,
// with m_r(i) the product-wrapped a(i,r)·w(r,c). A fault at row R turns the
// collected value g_{rows−1}(i) into wrap(g_{rows−1}(i) + d(i)) with
//   d(i) = force(g_R(i)) − g_R(i)        (adder output),
//   d(i) = force(m_R(i)) − m_R(i)        (multiplier output),
//   d(i) = wrap_p(a·force(w)) − m_R(i)   (weight operand).
// The golden chain is computed once per (tile, column) and shared by every
// fault in that column. Activations count every step the masked value
// differs from the clean one: each row sees exactly its tile's me data
// waves plus (steps − me) idle steps whose chain and product values are 0.
//
// Output-stationary: the fault corrupts only the in-place accumulator of
// PE (R, c), whose per-step inputs are known analytically (the west value
// a(R, kk) and the north weight b(kk, c) meet at step t = kk + R + c), so
// one O(steps) scalar recurrence per (fault, tile) reproduces the drained
// value and the per-step activation count exactly — including the idle
// steps, where a stuck adder keeps re-forcing the accumulator.
//
// Per-(mi, ni) outputs accumulate across reduction tiles with the same
// uint32 wrap-add as AccumulatorMem::WriteBlock, mirroring fi/batch.cc.
// Sums that can leave the int64 range at an accumulator width of 64 bits
// (a forced adder output near ±2^63) are taken modulo 2^64 in uint64
// before the sign-extension at acc width, which is exact for any width up
// to 64.
#include <algorithm>
#include <vector>

#include "common/check.h"
#include "fi/cone.h"
#include "fi/runner.h"
#include "obs/trace.h"
#include "systolic/timing.h"
#include "tensor/tiling.h"
#include "tensor/transpose.h"

namespace saffire {
namespace {

// SignExtend without the width checks (see lane_grid.cc): `shift` is
// 64 − width for a validated ArrayConfig width.
inline std::int64_t SxWide(std::int64_t value, int shift) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(value)
                                   << shift) >>
         shift;
}

// a + b modulo 2^64, without signed overflow.
inline std::int64_t WrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

// One fault's stuck-at masking, pre-lowered exactly like the lane kernel's
// LaneFaultParams: force(v) = SxWide((v & and) | or, 64 − signal width).
struct ForceSpec {
  std::int64_t and_mask = -1;
  std::int64_t or_mask = 0;
  int sx_shift = 0;

  std::int64_t operator()(std::int64_t v) const {
    return SxWide((v & and_mask) | or_mask, sx_shift);
  }
};

// Loads one tile's operand block into a flat row-major copy, sign-extended
// once at the operand width: block[r * cols + c] is
// SignExtend(source(row0 + r, col0 + c), width). The region is bounds-checked
// here, once per tile, so the closed-form loops below index the copy
// unchecked instead of paying an accessor check and a SignExtend call per
// element read.
void LoadTile(const Int8Tensor& source, std::int64_t row0, std::int64_t col0,
              std::int64_t rows, std::int64_t cols, int width,
              std::vector<std::int32_t>& block) {
  SAFFIRE_CHECK_MSG(source.rank() == 2 && rows > 0 && cols > 0 && row0 >= 0 &&
                        col0 >= 0 && row0 + rows <= source.dim(0) &&
                        col0 + cols <= source.dim(1),
                    "tile (" << row0 << "," << col0 << ")+" << rows << "x"
                             << cols << " out of " << source.ShapeString());
  const std::int64_t stride = source.dim(1);
  const std::int8_t* src = source.data().data() + row0 * stride + col0;
  const int shift = 64 - width;
  block.resize(static_cast<std::size_t>(rows * cols));
  std::int32_t* dst = block.data();
  for (std::int64_t r = 0; r < rows; ++r, src += stride) {
    for (std::int64_t c = 0; c < cols; ++c) {
      *dst++ = static_cast<std::int32_t>(SxWide(src[c], shift));
    }
  }
}

// Folds one tile's faulty collected value (golden chain output `out` plus
// the delta forced − clean, re-wrapped at acc width) into the per-(mi, ni)
// accumulation cell with the same uint32 wrap-add as
// AccumulatorMem::WriteBlock / fi/batch.cc.
inline std::int32_t Accumulate(std::int32_t cell, std::int64_t out,
                               std::int64_t forced, std::int64_t clean,
                               std::int64_t ki, int sx_acc) {
  const auto faulty_wide = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(out) + static_cast<std::uint64_t>(forced) -
      static_cast<std::uint64_t>(clean));
  const auto value = static_cast<std::int32_t>(SxWide(faulty_wide, sx_acc));
  return ki > 0 ? static_cast<std::int32_t>(static_cast<std::uint32_t>(cell) +
                                            static_cast<std::uint32_t>(value))
                : value;
}

}  // namespace

std::vector<ConeRunResult> FiRunner::RunFaultyPredicted(
    const WorkloadSpec& workload, Dataflow dataflow,
    std::span<const FaultSpec> faults, const GoldenTrace& trace,
    const RunResult& golden) {
  const MaterializedWorkload operands = Materialize(workload);
  const bool transposed = dataflow == Dataflow::kInputStationary;
  const Dataflow lowered = LoweredDataflow(dataflow);
  CheckTraceMatchesSchedule(
      trace,
      Driver::PlanTiles(transposed ? operands.b.dim(1) : operands.a.dim(0),
                        transposed ? operands.a.dim(0) : operands.b.dim(1),
                        operands.a.dim(1), accel_.config(), lowered),
      lowered, accel_.config().array);
  std::vector<ConeRunResult> results =
      RunFaultyPredicted(operands, dataflow, faults, golden.output);
  for (ConeRunResult& result : results) result.cycles = golden.cycles;
  return results;
}

std::vector<ConeRunResult> FiRunner::RunFaultyPredicted(
    const MaterializedWorkload& operands, Dataflow dataflow,
    std::span<const FaultSpec> faults, const Int32Tensor& golden) {
  SAFFIRE_CHECK_MSG(!faults.empty(), "at least one fault required");
  const AccelConfig& config = accel_.config();
  const ArrayConfig& array = config.array;

  const Dataflow lowered = LoweredDataflow(dataflow);
  const bool ws = lowered == Dataflow::kWeightStationary;
  const bool transposed = dataflow == Dataflow::kInputStationary;

  const Int8Tensor a = transposed ? Transpose(operands.b) : operands.a;
  const Int8Tensor b = transposed ? Transpose(operands.a) : operands.b;
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  const TileGrid grid = Driver::PlanTiles(m, n, k, config, lowered);
  SAFFIRE_CHECK_MSG(golden.rank() == 2 &&
                        golden.dim(0) == (transposed ? n : m) &&
                        golden.dim(1) == (transposed ? m : n),
                    "golden output " << golden.ShapeString());

  // Lower each fault, rejecting anything outside the provably-exact set.
  std::vector<ForceSpec> forces(faults.size());
  std::vector<std::uint64_t> activations(faults.size(), 0);
  std::vector<ConeRunResult> results(faults.size());
  for (std::size_t l = 0; l < faults.size(); ++l) {
    const FaultSpec& fault = faults[l];
    fault.Validate(array);
    SAFFIRE_CHECK_MSG(fault.kind == FaultKind::kStuckAt,
                      "predicted engine covers permanent stuck-at faults "
                      "only; transient faults are lane-grid residue");
    SAFFIRE_CHECK_MSG(fault.signal == MacSignal::kWeightOperand ||
                          fault.signal == MacSignal::kMulOut ||
                          fault.signal == MacSignal::kAdderOut,
                      "predicted engine covers PE-local signals only, got "
                          << ToString(fault.signal));
    const ColumnCone cone =
        FaultCone(std::span<const FaultSpec>(&fault, 1), lowered, array);
    SAFFIRE_CHECK_MSG(cone.width() == 1 && cone.lo == fault.pe.col,
                      "PE-local fault must cone to its own column");
    // Cone column ni is the fault column of n-tile ni. WS writes every cell
    // of it below; OS writes only the fault's own cell per output tile, so
    // the rest of the column starts golden.
    ConeOutput& out = results[l].output;
    out = MakeConeOutput(cone, grid, transposed);
    if (!ws) {
      const std::span<const std::int32_t> g = golden.data();
      for (std::size_t j = 0; j < out.columns.size(); ++j) {
        for (std::int64_t i = 0; i < m; ++i) {
          out.values[j * static_cast<std::size_t>(m) +
                     static_cast<std::size_t>(i)] =
              g[static_cast<std::size_t>(i * n + out.columns[j])];
        }
      }
    }
    const std::int64_t bit = std::int64_t{1} << fault.bit;
    if (fault.polarity == StuckPolarity::kStuckAt0) {
      forces[l].and_mask = ~bit;
    } else {
      forces[l].or_mask = bit;
    }
    forces[l].sx_shift = 64 - SignalWidth(fault.signal, array);
  }

  SAFFIRE_SPAN("fi.predict.closed_form");
  const int input_bits = array.input_bits;
  const int sx_prod = 64 - array.product_bits();
  const int sx_acc = 64 - array.acc_bits;
  const auto rows = static_cast<std::int64_t>(array.rows);

  std::int64_t step0 = 0;
  // Per-(mi, ni) accumulation across ki: WS tracks the fault column's me
  // values per fault, OS the single owned cell.
  std::vector<std::int32_t> acc_ws;
  std::vector<std::int32_t> acc_os;
  // The current tile's operand blocks (LoadTile): a_tile is me×ke, b_tile
  // ke×ne.
  std::vector<std::int32_t> a_tile;
  std::vector<std::int32_t> b_tile;
  // Per-tile golden partial-sum chains, one per fault column, shared by
  // every fault in that column (g[r * me + i]); rebuilt lazily per tile.
  std::vector<std::vector<std::int64_t>> col_chain(
      static_cast<std::size_t>(array.cols));

  for (std::int64_t mi = 0; mi < grid.m_tiles(); ++mi) {
    const std::int64_t m0 = grid.RowStart(mi);
    const std::int64_t me = grid.TileRows(mi);
    for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
      const std::int64_t n0 = grid.ColStart(ni);
      const std::int64_t ne = grid.TileCols(ni);
      acc_ws.assign(ws ? faults.size() * static_cast<std::size_t>(me) : 0, 0);
      acc_os.assign(ws ? 0 : faults.size(), 0);
      for (std::int64_t ki = 0; ki < grid.k_tiles(); ++ki) {
        const std::int64_t k0 = grid.DepthStart(ki);
        const std::int64_t ke = grid.TileDepth(ki);
        const std::int64_t steps = TileSteps(grid, mi, ki, lowered, array);
        LoadTile(a, m0, k0, me, ke, input_bits, a_tile);
        LoadTile(b, k0, n0, ke, ne, input_bits, b_tile);

        if (ws) {
          for (auto& chain : col_chain) chain.clear();
          for (std::size_t l = 0; l < faults.size(); ++l) {
            const FaultSpec& fault = faults[l];
            const ForceSpec& force = forces[l];
            const std::int64_t c = fault.pe.col;
            const std::int64_t rf = fault.pe.row;
            const bool in_col = c < ne;
            // Preloaded weight of the fault PE (0 outside the ke×ne block,
            // exactly like the scheduler's cleared preload).
            const std::int64_t w_val =
                (rf < ke && in_col)
                    ? b_tile[static_cast<std::size_t>(rf * ne + c)]
                    : 0;
            // The golden chain for this fault column, shared per tile. A
            // column outside the block holds cleared weights, so its chain
            // stays 0.
            std::vector<std::int64_t>& chain =
                col_chain[static_cast<std::size_t>(c)];
            if (chain.empty()) {
              chain.assign(static_cast<std::size_t>(rows * me), 0);
              if (in_col) {
                for (std::int64_t i = 0; i < me; ++i) {
                  const std::int32_t* a_row =
                      a_tile.data() + static_cast<std::size_t>(i * ke);
                  std::int64_t g = 0;
                  for (std::int64_t r = 0; r < rows; ++r) {
                    if (r < ke) {
                      const std::int64_t mul = SxWide(
                          std::int64_t{a_row[r]} *
                              b_tile[static_cast<std::size_t>(r * ne + c)],
                          sx_prod);
                      g = SxWide(g + mul, sx_acc);
                    }
                    chain[static_cast<std::size_t>(r * me + i)] = g;
                  }
                }
              }
            }
            const std::int64_t* g_fault =
                chain.data() + static_cast<std::size_t>(rf * me);
            const std::int64_t* g_out =
                chain.data() + static_cast<std::size_t>((rows - 1) * me);
            // The fault row's activation of wave i (0 past the block).
            const auto a_at = [&](std::int64_t i) -> std::int64_t {
              return rf < ke ? a_tile[static_cast<std::size_t>(i * ke + rf)]
                             : 0;
            };

            std::int32_t* cell = acc_ws.data() + l * static_cast<std::size_t>(me);
            std::uint64_t activ = 0;
            switch (fault.signal) {
              case MacSignal::kWeightOperand: {
                const std::int64_t w_forced = force(w_val);
                // The weight operand is consumed every step, data or idle.
                activ += static_cast<std::uint64_t>(steps) *
                         static_cast<std::uint64_t>(w_forced != w_val);
                for (std::int64_t i = 0; i < me; ++i) {
                  const std::int64_t a_in = a_at(i);
                  cell[i] = Accumulate(cell[i], g_out[i],
                                       SxWide(a_in * w_forced, sx_prod),
                                       SxWide(a_in * w_val, sx_prod), ki,
                                       sx_acc);
                }
                break;
              }
              case MacSignal::kMulOut: {
                const std::int64_t idle_forced = force(0);
                activ += static_cast<std::uint64_t>(steps - me) *
                         static_cast<std::uint64_t>(idle_forced != 0);
                for (std::int64_t i = 0; i < me; ++i) {
                  const std::int64_t mul = SxWide(a_at(i) * w_val, sx_prod);
                  const std::int64_t forced = force(mul);
                  activ += static_cast<std::uint64_t>(forced != mul);
                  cell[i] =
                      Accumulate(cell[i], g_out[i], forced, mul, ki, sx_acc);
                }
                break;
              }
              default: {  // kAdderOut (the constructor rejected the rest)
                const std::int64_t idle_forced = force(0);
                activ += static_cast<std::uint64_t>(steps - me) *
                         static_cast<std::uint64_t>(idle_forced != 0);
                for (std::int64_t i = 0; i < me; ++i) {
                  const std::int64_t g = g_fault[i];
                  const std::int64_t forced = force(g);
                  activ += static_cast<std::uint64_t>(forced != g);
                  cell[i] =
                      Accumulate(cell[i], g_out[i], forced, g, ki, sx_acc);
                }
                break;
              }
            }
            activations[l] += activ;
          }
        } else {
          for (std::size_t l = 0; l < faults.size(); ++l) {
            const FaultSpec& fault = faults[l];
            const ForceSpec& force = forces[l];
            const std::int64_t c = fault.pe.col;
            const std::int64_t rf = fault.pe.row;
            const bool in_col = c < ne;
            // The fault PE's west operands (its row of the A block), absent
            // past the block's rows.
            const std::int32_t* a_row =
                rf < me ? a_tile.data() + static_cast<std::size_t>(rf * ke)
                        : nullptr;
            std::uint64_t activ = 0;
            std::int64_t acc = 0;
            for (std::int64_t t = 0; t < steps; ++t) {
              const std::int64_t kk = t - rf - c;
              const bool valid = kk >= 0 && kk < ke;
              const std::int64_t a_in =
                  (a_row != nullptr && valid) ? a_row[kk] : 0;
              std::int64_t wop =
                  (in_col && valid)
                      ? b_tile[static_cast<std::size_t>(kk * ne + c)]
                      : 0;
              if (fault.signal == MacSignal::kWeightOperand) {
                const std::int64_t forced = force(wop);
                activ += static_cast<std::uint64_t>(forced != wop);
                wop = forced;
              }
              std::int64_t mul = SxWide(a_in * wop, sx_prod);
              if (fault.signal == MacSignal::kMulOut) {
                const std::int64_t forced = force(mul);
                activ += static_cast<std::uint64_t>(forced != mul);
                mul = forced;
              }
              std::int64_t adder = SxWide(WrapAdd(acc, mul), sx_acc);
              if (fault.signal == MacSignal::kAdderOut) {
                const std::int64_t forced = force(adder);
                activ += static_cast<std::uint64_t>(forced != adder);
                adder = forced;
              }
              acc = adder;
            }
            activations[l] += activ;
            if (rf < me && in_col) {
              std::int32_t& cell = acc_os[l];
              const auto value = static_cast<std::int32_t>(acc);
              cell = ki > 0 ? static_cast<std::int32_t>(
                                  static_cast<std::uint32_t>(cell) +
                                  static_cast<std::uint32_t>(value))
                            : value;
            }
          }
        }

        step0 += steps;
      }

      // Write the accumulated faulty values back into cone column ni, rows
      // [m0, m0 + me), as fi/batch.cc does.
      for (std::size_t l = 0; l < faults.size(); ++l) {
        const std::int64_t c = faults[l].pe.col;
        const std::int64_t rf = faults[l].pe.row;
        if (c >= ne) continue;
        ConeOutput& out = results[l].output;
        SAFFIRE_ASSERT(static_cast<std::size_t>(ni) < out.columns.size() &&
                       out.columns[static_cast<std::size_t>(ni)] == n0 + c);
        std::int32_t* column = out.values.data() +
                               static_cast<std::size_t>(ni * m + m0);
        if (ws) {
          std::copy_n(acc_ws.data() + l * static_cast<std::size_t>(me), me,
                      column);
        } else if (rf < me) {
          column[rf] = acc_os[l];
        }
      }
    }
  }
  // The lane grid's counter split, reproduced exactly (cone width 1).
  const auto num_pes = static_cast<std::uint64_t>(array.num_pes());
  const auto total_steps = static_cast<std::uint64_t>(step0);
  const auto active = static_cast<std::uint64_t>(array.rows);
  for (std::size_t l = 0; l < results.size(); ++l) {
    results[l].pe_steps = total_steps * active;
    results[l].pe_steps_skipped = total_steps * (num_pes - active);
    results[l].fault_activations = activations[l];
  }
  return results;
}

}  // namespace saffire
