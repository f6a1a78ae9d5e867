// FiRunner::RunFaultyBatch: lane-parallel batched faulty execution.
//
// One recorded golden run (fi/runner.h RunGoldenRecorded) is replayed once
// for W faults at a time: the driver's tile schedule is re-derived from the
// workload (Driver::PlanTiles — cross-checked against the trace's
// checkpoint structure), each tile's stimulus is computed once, and the
// lane-parallel grid (systolic/lane_grid.h) steps all W faulty machines
// through it. Everything the accelerator contributes around the array —
// DMA timing, scratchpad staging, accumulator read-modify-write, DRAM
// round-trips — is data-independent, so the replay reproduces it
// analytically: cycles are the golden run's, and the per-tile accumulation
// across reduction steps mirrors AccumulatorMem::WriteBlock's uint32
// wrap-add bit-for-bit.
#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.h"
#include "fi/cone.h"
#include "fi/runner.h"
#include "obs/trace.h"
#include "systolic/lane_grid.h"
#include "systolic/timing.h"
#include "tensor/tiling.h"
#include "tensor/transpose.h"

namespace saffire {

std::vector<ConeRunResult> FiRunner::RunFaultyBatch(
    const WorkloadSpec& workload, Dataflow dataflow,
    std::span<const FaultSpec> faults, const GoldenTrace& trace,
    const RunResult& golden) {
  SAFFIRE_CHECK_MSG(!faults.empty(), "at least one fault required");
  const AccelConfig& config = accel_.config();
  const ArrayConfig& array = config.array;

  const Dataflow lowered = LoweredDataflow(dataflow);
  const bool ws = lowered == Dataflow::kWeightStationary;
  const bool transposed = dataflow == Dataflow::kInputStationary;

  // The physical GEMM the accelerator executed (driver.cc).
  const MaterializedWorkload operands = Materialize(workload);
  const Int8Tensor a = transposed ? Transpose(operands.b) : operands.a;
  const Int8Tensor b = transposed ? Transpose(operands.a) : operands.b;
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  const TileGrid grid = Driver::PlanTiles(m, n, k, config, lowered);
  CheckTraceMatchesSchedule(trace, grid, lowered, array);
  SAFFIRE_CHECK_MSG(golden.output.rank() == 2 &&
                        golden.output.dim(0) == (transposed ? n : m) &&
                        golden.output.dim(1) == (transposed ? m : n),
                    "golden output " << golden.output.ShapeString());

  // Lower each fault into the lane representation the kernel consumes.
  std::vector<LaneFaultParams> lanes;
  lanes.reserve(faults.size());
  std::vector<std::size_t> acc_base(faults.size(), 0);
  std::size_t total_width = 0;
  std::optional<LaneGrid> lane_grid;
  {
    SAFFIRE_SPAN("fi.batch.pack");
    for (const FaultSpec& fault : faults) {
      fault.Validate(array);
      LaneFaultParams lane;
      lane.pe = fault.pe;
      lane.signal = fault.signal;
      lane.cone =
          FaultCone(std::span<const FaultSpec>(&fault, 1), lowered, array);
      const std::int64_t bit = std::int64_t{1} << fault.bit;
      if (fault.kind == FaultKind::kStuckAt) {
        if (fault.polarity == StuckPolarity::kStuckAt0) {
          lane.and_mask = ~bit;
        } else {
          lane.or_mask = bit;
        }
      } else {
        SAFFIRE_CHECK_MSG(
            fault.at_cycle >= 0,
            "batched transient needs a relative strike offset, got "
                << fault.at_cycle);
        lane.xor_mask = bit;
        lane.strike_cycle = fault.at_cycle;
      }
      acc_base[lanes.size()] = total_width;
      total_width += static_cast<std::size_t>(lane.cone.width());
      lanes.push_back(lane);
    }
    lane_grid.emplace(array, lanes);
  }

  // Per-lane outputs cover only the lane's cone, every cell of which the
  // write-back below fills: everything outside it provably matches the
  // fault-free run.
  std::vector<ConeRunResult> results(faults.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    results[l].output = MakeConeOutput(lanes[l].cone, grid, transposed);
    results[l].cycles = golden.cycles;
  }

  SAFFIRE_SPAN("fi.batch.replay");
  std::int64_t step0 = 0;
  std::vector<std::int64_t> rel_cycles;
  // Per-(mi, ni) accumulator planes over each lane's cone columns,
  // total_width × me, mirroring AccumulatorMem::WriteBlock across ki.
  std::vector<std::int32_t> acc;
  for (std::int64_t mi = 0; mi < grid.m_tiles(); ++mi) {
    const std::int64_t m0 = grid.RowStart(mi);
    const std::int64_t me = grid.TileRows(mi);
    for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
      const std::int64_t n0 = grid.ColStart(ni);
      const std::int64_t ne = grid.TileCols(ni);
      acc.assign(total_width * static_cast<std::size_t>(me), 0);
      for (std::int64_t ki = 0; ki < grid.k_tiles(); ++ki) {
        const std::int64_t k0 = grid.DepthStart(ki);
        const std::int64_t ke = grid.TileDepth(ki);
        const std::int64_t steps = TileSteps(grid, mi, ki, lowered, array);
        rel_cycles.resize(static_cast<std::size_t>(steps));
        for (std::int64_t t = 0; t < steps; ++t) {
          rel_cycles[static_cast<std::size_t>(t)] =
              trace.StepRelCycle(step0 + t);
        }
        const Int8Tensor a_blk = ExtractTilePadded(a, m0, k0, me, ke, me, ke);
        const Int8Tensor b_blk = ExtractTilePadded(b, k0, n0, ke, ne, ke, ne);
        if (ws) {
          lane_grid->RunTileWs(a_blk, b_blk, rel_cycles);
        } else {
          lane_grid->RunTileOs(a_blk, b_blk, rel_cycles);
        }
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          const std::int64_t lo = lanes[l].cone.lo;
          const std::int64_t hi =
              std::min<std::int64_t>(lanes[l].cone.hi, ne - 1);
          for (std::int64_t c = lo; c <= hi; ++c) {
            const std::size_t col_base =
                (acc_base[l] + static_cast<std::size_t>(c - lo)) *
                static_cast<std::size_t>(me);
            for (std::int64_t i = 0; i < me; ++i) {
              const auto value = static_cast<std::int32_t>(
                  lane_grid->OutputAt(l, i, static_cast<std::int32_t>(c)));
              std::int32_t& cell = acc[col_base + static_cast<std::size_t>(i)];
              cell = ki > 0 ? static_cast<std::int32_t>(
                                  static_cast<std::uint32_t>(cell) +
                                  static_cast<std::uint32_t>(value))
                            : value;
            }
          }
        }
        step0 += steps;
      }
      // Each accumulator column is rows [m0, m0 + me) of one cone column
      // (ConeOutput's layout: index ni·width + (c − lo), `m` values each).
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        const std::int64_t lo = lanes[l].cone.lo;
        const std::int64_t hi =
            std::min<std::int64_t>(lanes[l].cone.hi, ne - 1);
        ConeOutput& out = results[l].output;
        for (std::int64_t c = lo; c <= hi; ++c) {
          const std::size_t col_base =
              (acc_base[l] + static_cast<std::size_t>(c - lo)) *
              static_cast<std::size_t>(me);
          const auto index = static_cast<std::size_t>(
              ni * lanes[l].cone.width() + (c - lo));
          SAFFIRE_ASSERT(index < out.columns.size() &&
                         out.columns[index] == n0 + c);
          std::copy_n(acc.data() + col_base, me,
                      out.values.data() +
                          index * static_cast<std::size_t>(m) +
                          static_cast<std::size_t>(m0));
        }
      }
    }
  }
  // The differential engine's counter split, reproduced exactly: every
  // recorded Step evaluates rows × cone-width PEs and skips the rest.
  const auto num_pes = static_cast<std::uint64_t>(array.num_pes());
  const auto total_steps = static_cast<std::uint64_t>(trace.steps());
  for (std::size_t l = 0; l < results.size(); ++l) {
    const auto active = static_cast<std::uint64_t>(array.rows) *
                        static_cast<std::uint64_t>(lanes[l].cone.width());
    results[l].pe_steps = total_steps * active;
    results[l].pe_steps_skipped = total_steps * (num_pes - active);
    results[l].fault_activations = lane_grid->activations(l);
  }
  return results;
}

}  // namespace saffire
