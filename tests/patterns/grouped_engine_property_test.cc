// Randomized property test for the grouped runners (FiRunner::RunFaultyBatch,
// the lane grid, and FiRunner::RunFaultyPredicted, the closed form) on tile
// layouts the fixed matrices do not reach. Small non-square arrays with
// max_compute_rows between rows and 2·rows make ragged workloads span
// several m-tiles under WS, and — once N > max_compute_rows — under IS,
// where a cone column is an output row.
//
// For every site of every drawn campaign, stuck-at or transient, on any of
// the five signals:
//   - the kPredicted record from RunPreparedBatch (in randomly sized groups
//     of shuffled experiments) equals the kDifferential record of the same
//     experiment;
//   - the lane grid's result on the same groups, its cone output expanded
//     over the golden result, equals the differential run's dense output,
//     counters included, so the lane grid keeps its oracle on PE-local
//     stuck-at faults the predicted engine serves in closed form;
//   - where the closed form serves, its result equals the lane grid's in
//     every field;
//   - the kReference record, the bottom of the demotion ladder run on the
//     same prepared campaign and simulator, equals the differential record
//     in every field but the pe_steps split: reference simulates every PE,
//     so it skips none and its pe_steps is the differential sum.
// The first test draws stuck-at campaigns, the second transients.
// A third test drives the closed form's trace-free operand form on what
// no fill recipe makes — raw int8 tensors over the full range, operand
// widths of 4 to 8 bits and accumulator widths up to 64 — against
// FiRunner::RunFaulty on the same operands. A fourth holds the lane-grid
// replay to FiRunner::RunFaulty at those widths, with stuck-at faults on
// the adder output's top bit.
// A fifth is the folding oracle: all-ones campaigns of PE-local stuck-at
// faults, on GEMMs and on padded or unpadded convolutions, fold their sites
// unless they run IS on a padded convolution, and every way of running one
// (RunCampaignSerial, RunSweep at 1 and 4 threads, two shards run alone and
// merged, a resume from a checkpoint holding a random subset of the
// records, a fully self-checked run at 4 threads, a warm result cache) must
// deliver the records of simulating every site directly
// (RunPreparedExperimentWithEngine); the site partition must equal the one
// walked from the tile grid.
// Every iteration draws from its own seed, which the failure names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "accel/driver.h"
#include "common/rng.h"
#include "patterns/campaign.h"
#include "patterns/symmetry.h"
#include "service/checkpoint.h"
#include "service/result_cache.h"
#include "service/run.h"
#include "service/sink.h"

namespace saffire {
namespace {

// A small non-square array whose compute-row budget lies between rows and
// 2·rows, so ragged workloads span several m-tiles.
AccelConfig DrawAccel(Rng& rng) {
  AccelConfig accel;
  ArrayConfig& array = accel.array;
  array.rows = static_cast<std::int32_t>(rng.UniformInt(2, 8));
  array.cols = static_cast<std::int32_t>(rng.UniformInt(2, 8));
  accel.max_compute_rows =
      static_cast<std::int32_t>(rng.UniformInt(array.rows, 2 * array.rows));
  accel.acc_rows = accel.max_compute_rows;
  accel.spad_rows = accel.max_compute_rows + std::max(array.rows, array.cols);
  accel.dram_bytes = 1 << 20;
  return accel;
}

const Dataflow kDataflows[] = {Dataflow::kWeightStationary,
                               Dataflow::kOutputStationary,
                               Dataflow::kInputStationary};

CampaignConfig DrawCampaign(Rng& rng, FaultKind kind) {
  CampaignConfig config;
  config.accel = DrawAccel(rng);
  const ArrayConfig& array = config.accel.array;

  config.workload.name = "grouped-property";
  config.workload.m = rng.UniformInt(1, 40);
  config.workload.k = rng.UniformInt(1, 40);
  config.workload.n = rng.UniformInt(1, 40);
  config.workload.input_fill = OperandFill::kRandom;
  config.workload.weight_fill = OperandFill::kRandom;
  config.workload.data_seed = rng();

  config.dataflow = kDataflows[rng.UniformInt(0, 2)];
  const MacSignal signals[] = {MacSignal::kWeightOperand, MacSignal::kMulOut,
                               MacSignal::kAdderOut, MacSignal::kActForward,
                               MacSignal::kSouthForward};
  config.signal = signals[rng.UniformInt(0, 4)];
  config.bit =
      static_cast<int>(rng.UniformInt(0, SignalWidth(config.signal, array) - 1));
  config.polarity = rng.Bernoulli(0.5) ? StuckPolarity::kStuckAt1
                                       : StuckPolarity::kStuckAt0;
  config.kind = kind;
  config.engine = CampaignEngine::kPredicted;
  return config;
}

// Draws `iterations` campaigns of `kind` from consecutive seeds and checks
// every site of each on the predicted engine, the lane grid, the closed
// form where it serves, and the reference engine against the differential
// engine (the file comment lists the properties).
void CheckRandomTiledCampaigns(FaultKind kind, std::uint64_t first_seed,
                               int iterations) {
  for (int iteration = 0; iteration < iterations; ++iteration) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(iteration);
    Rng rng(seed);
    const CampaignConfig config = DrawCampaign(rng, kind);
    SCOPED_TRACE("iteration seed " + std::to_string(seed) + ": " +
                 config.ToString() + ", max_compute_rows " +
                 std::to_string(config.accel.max_compute_rows));

    const PreparedCampaign prepared = PrepareCampaign(config);
    const GoldenTrace& trace = *prepared.trace();
    const RunResult& golden = prepared.golden();
    const std::size_t sites = prepared.faults.size();
    const auto lanes = static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<std::int64_t>(sites)));
    FiRunner runner(config.accel);

    // Consecutive groups of `lanes` experiments of a seeded shuffle of the
    // sites, each run on the predicted engine and on the lane grid.
    std::vector<std::size_t> order(sites);
    for (std::size_t i = 0; i < sites; ++i) order[i] = i;
    rng.Shuffle(order);
    std::vector<ExperimentRecord> records(sites);
    std::vector<ConeRunResult> lane_grid(sites);
    for (std::size_t begin = 0; begin < sites; begin += lanes) {
      const std::span<const std::size_t> group(
          order.data() + begin, std::min(lanes, sites - begin));
      std::vector<FaultSpec> faults;
      for (const std::size_t index : group) {
        faults.push_back(prepared.faults[index]);
      }
      std::vector<ExperimentRecord> got_records =
          RunPreparedBatch(prepared, runner, group);
      std::vector<ConeRunResult> got_cones = runner.RunFaultyBatch(
          config.workload, config.dataflow, faults, trace, golden);
      for (std::size_t i = 0; i < group.size(); ++i) {
        records[group[i]] = std::move(got_records[i]);
        lane_grid[group[i]] = std::move(got_cones[i]);
      }
    }
    const bool closed_form = PredictedEngineExact(config);
    const std::vector<ConeRunResult> closed_form_cones =
        closed_form ? runner.RunFaultyPredicted(config.workload,
                                                config.dataflow,
                                                prepared.faults, trace, golden)
                    : std::vector<ConeRunResult>{};

    for (std::size_t i = 0; i < sites; ++i) {
      const FaultSpec& fault = prepared.faults[i];
      SCOPED_TRACE(fault.ToString());
      const ExperimentRecord want = RunPreparedExperimentWithEngine(
          prepared, runner, i, CampaignEngine::kDifferential);
      ASSERT_TRUE(records[i] == want) << "predicted record differs";

      // The per-experiment runner takes a transient's strike on its own
      // clock; the campaign's fault holds the offset into the run.
      FaultSpec injected = fault;
      if (injected.kind == FaultKind::kTransientFlip) {
        injected.at_cycle += runner.accel().cycles();
      }
      const RunResult dense = runner.RunFaultyDifferential(
          config.workload, config.dataflow, {&injected, 1}, trace);
      const ConeRunResult& cone = lane_grid[i];
      ASSERT_TRUE(ExpandCone(cone.output, golden.output) == dense.output)
          << "lane-grid cone differs";
      ASSERT_EQ(cone.cycles, dense.cycles);
      ASSERT_EQ(cone.pe_steps, dense.pe_steps);
      ASSERT_EQ(cone.pe_steps_skipped, dense.pe_steps_skipped);
      ASSERT_EQ(cone.fault_activations, dense.fault_activations);
      if (closed_form) {
        ASSERT_TRUE(closed_form_cones[i] == cone)
            << "closed form and lane grid differ";
      }

      ExperimentRecord reference = RunPreparedExperimentWithEngine(
          prepared, runner, i, CampaignEngine::kReference);
      ASSERT_EQ(reference.pe_steps_skipped, 0u);
      ASSERT_EQ(reference.pe_steps, want.pe_steps + want.pe_steps_skipped)
          << "reference pe_steps differ from the differential sum";
      reference.pe_steps = want.pe_steps;
      reference.pe_steps_skipped = want.pe_steps_skipped;
      ASSERT_TRUE(reference == want) << "reference record differs";
    }
  }
}

TEST(GroupedEnginePropertyTest, MatchesDifferentialOnRandomTiledCampaigns) {
  CheckRandomTiledCampaigns(FaultKind::kStuckAt, 20231017, 60);
}

// Transients on all five signals, which the predicted engine replays on the
// lane grid.
TEST(GroupedEnginePropertyTest, TransientsMatchDifferentialOnRandomTiledCampaigns) {
  CheckRandomTiledCampaigns(FaultKind::kTransientFlip, 20261020, 60);
}

// The closed form's operand form on raw operands, operand and accumulator
// widths off INT8/ACC32, and PE-local faults on every dataflow, one per
// draw on the adder output's top bit: expanded over RunGolden(operands) it
// must equal RunFaulty(operands) in output and fault_activations, and its
// pe_steps split must sum to RunFaulty's pe_steps.
TEST(GroupedEnginePropertyTest, ClosedFormOnRawOperandsMatchesTheArray) {
  constexpr std::uint64_t kFirstSeed = 20261019;
  constexpr int kIterations = 300;
  constexpr int kFaultsPerDraw = 6;
  const MacSignal signals[] = {MacSignal::kWeightOperand, MacSignal::kMulOut,
                               MacSignal::kAdderOut};
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(iteration);
    Rng rng(seed);
    AccelConfig accel = DrawAccel(rng);
    ArrayConfig& array = accel.array;
    array.input_bits = static_cast<std::int32_t>(rng.UniformInt(4, 8));
    array.acc_bits =
        static_cast<std::int32_t>(rng.UniformInt(2 * array.input_bits, 64));
    const Dataflow dataflow = kDataflows[rng.UniformInt(0, 2)];
    const std::int64_t m = rng.UniformInt(1, 40);
    const std::int64_t k = rng.UniformInt(1, 40);
    const std::int64_t n = rng.UniformInt(1, 40);
    const auto raw = [&rng](std::int64_t rows, std::int64_t cols) {
      Int8Tensor t({rows, cols});
      for (std::int8_t& value : t.data()) {
        value = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
      }
      return t;
    };
    const MaterializedWorkload operands{raw(m, k), raw(k, n)};
    std::vector<FaultSpec> faults(kFaultsPerDraw);
    for (FaultSpec& fault : faults) {
      fault.pe = {static_cast<std::int32_t>(rng.UniformInt(0, array.rows - 1)),
                  static_cast<std::int32_t>(rng.UniformInt(0, array.cols - 1))};
      fault.signal = signals[rng.UniformInt(0, 2)];
      fault.bit = static_cast<int>(
          rng.UniformInt(0, SignalWidth(fault.signal, array) - 1));
      fault.polarity = rng.Bernoulli(0.5) ? StuckPolarity::kStuckAt1
                                          : StuckPolarity::kStuckAt0;
    }
    // The adder output's top bit, where a forced value wraps the
    // accumulator (near ±2^63 at 64 bits).
    faults.back().signal = MacSignal::kAdderOut;
    faults.back().bit = array.acc_bits - 1;
    SCOPED_TRACE("iteration seed " + std::to_string(seed) + ": " +
                 array.ToString() + " " + ToString(dataflow) + ", GEMM " +
                 std::to_string(m) + "x" + std::to_string(k) + "x" +
                 std::to_string(n) + ", max_compute_rows " +
                 std::to_string(accel.max_compute_rows));

    FiRunner runner(accel);
    const RunResult golden = runner.RunGolden(operands, dataflow);
    const std::vector<ConeRunResult> predicted =
        runner.RunFaultyPredicted(operands, dataflow, faults, golden.output);
    ASSERT_EQ(predicted.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      SCOPED_TRACE(faults[i].ToString());
      const RunResult want =
          runner.RunFaulty(operands, dataflow, {&faults[i], 1});
      ASSERT_TRUE(ExpandCone(predicted[i].output, golden.output) ==
                  want.output)
          << "closed-form output differs from the array's";
      ASSERT_EQ(predicted[i].fault_activations, want.fault_activations);
      ASSERT_EQ(predicted[i].pe_steps + predicted[i].pe_steps_skipped,
                want.pe_steps);
    }
  }
}

// The lane-grid replay at operand widths of 4 to 8 bits and accumulator
// widths up to 64, with SA0 and SA1 on the adder output's top bit, where a
// forced value wraps the accumulator (near ±2^63 at 64 bits): expanded over
// the golden result each cone must equal RunFaulty's output, with the same
// fault_activations.
TEST(GroupedEnginePropertyTest, LaneGridMatchesTheArrayAtAnyWidth) {
  constexpr std::uint64_t kFirstSeed = 20261102;
  constexpr int kIterations = 100;
  constexpr int kFaultsPerPolarity = 2;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(iteration);
    Rng rng(seed);
    CampaignConfig config;
    config.accel = DrawAccel(rng);
    ArrayConfig& array = config.accel.array;
    array.input_bits = static_cast<std::int32_t>(rng.UniformInt(4, 8));
    array.acc_bits =
        static_cast<std::int32_t>(rng.UniformInt(2 * array.input_bits, 64));
    config.workload.name = "lane-grid-widths";
    config.workload.m = rng.UniformInt(1, 40);
    config.workload.k = rng.UniformInt(1, 40);
    config.workload.n = rng.UniformInt(1, 40);
    config.workload.input_fill = OperandFill::kRandom;
    config.workload.weight_fill = OperandFill::kRandom;
    config.workload.data_seed = rng();
    config.dataflow = kDataflows[rng.UniformInt(0, 2)];
    std::vector<FaultSpec> faults;
    for (const StuckPolarity polarity :
         {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
      for (int i = 0; i < kFaultsPerPolarity; ++i) {
        FaultSpec fault;
        fault.pe = {
            static_cast<std::int32_t>(rng.UniformInt(0, array.rows - 1)),
            static_cast<std::int32_t>(rng.UniformInt(0, array.cols - 1))};
        fault.signal = MacSignal::kAdderOut;
        fault.bit = array.acc_bits - 1;
        fault.polarity = polarity;
        faults.push_back(fault);
      }
    }
    SCOPED_TRACE("iteration seed " + std::to_string(seed) + ": " +
                 config.ToString() + ", max_compute_rows " +
                 std::to_string(config.accel.max_compute_rows));

    const PreparedCampaign prepared = PrepareCampaign(config);
    FiRunner runner(config.accel);
    const std::vector<ConeRunResult> cones =
        runner.RunFaultyBatch(config.workload, config.dataflow, faults,
                              *prepared.trace(), prepared.golden());
    ASSERT_EQ(cones.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      SCOPED_TRACE(faults[i].ToString());
      const RunResult want =
          runner.RunFaulty(config.workload, config.dataflow, {&faults[i], 1});
      ASSERT_TRUE(ExpandCone(cones[i].output, prepared.golden().output) ==
                  want.output)
          << "lane-grid output differs from the array's";
      ASSERT_EQ(cones[i].fault_activations, want.fault_activations);
    }
  }
}

// The partition a folding campaign must use, walked tile by tile: a
// site's key is its array row, the output rows and columns its operand
// streams cross (translated to start at 0), and under OS whether it is
// PE(0,0), the one PE whose accumulator adds no idle cycle before its
// operands arrive. The rows × columns product must be the predicted reach.
// A class's first site in campaign order represents it.
std::vector<std::size_t> StreamPartition(const PreparedCampaign& prepared) {
  const CampaignConfig& config = prepared.config;
  const WorkloadSpec& workload = config.workload;
  const TileGrid grid =
      Driver::PlanTiles(workload.GemmM(), workload.GemmN(), workload.GemmK(),
                        config.accel, config.dataflow);
  std::map<std::tuple<std::int32_t, std::vector<std::int64_t>,
                      std::vector<std::int64_t>, bool>,
           std::size_t>
      rep_by_key;
  std::vector<std::size_t> rep_of;
  for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
    const PeCoord pe = prepared.sites[i];
    // The PE's line inside each tile, or -1 where the partial-sum stream
    // crosses it and it reaches every line of the tile.
    std::int64_t row_in_tile = pe.row;
    std::int64_t col_in_tile = pe.col;
    if (config.dataflow == Dataflow::kWeightStationary) row_in_tile = -1;
    if (config.dataflow == Dataflow::kInputStationary) {
      row_in_tile = pe.col;
      col_in_tile = -1;
    }
    std::vector<std::int64_t> rows;
    for (std::int64_t mi = 0; mi < grid.m_tiles(); ++mi) {
      for (std::int64_t row = 0; row < grid.TileRows(mi); ++row) {
        if (row_in_tile < 0 || row == row_in_tile) {
          rows.push_back(grid.RowStart(mi) + row);
        }
      }
    }
    std::vector<std::int64_t> cols;
    for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
      for (std::int64_t col = 0; col < grid.TileCols(ni); ++col) {
        if (col_in_tile < 0 || col == col_in_tile) {
          cols.push_back(grid.ColStart(ni) + col);
        }
      }
    }
    std::vector<MatrixCoord> reach;
    for (const std::int64_t row : rows) {
      for (const std::int64_t col : cols) reach.push_back({row, col});
    }
    EXPECT_TRUE(reach == PredictPattern(workload, config.accel,
                                        config.dataflow, prepared.faults[i])
                             .coords)
        << "predicted reach of PE(" << pe.row << "," << pe.col
        << ") is not its streams' product";
    for (std::vector<std::int64_t>* lines : {&rows, &cols}) {
      if (lines->empty()) continue;
      const std::int64_t first = lines->front();
      for (std::int64_t& line : *lines) line -= first;
    }
    const bool origin_under_os =
        config.dataflow == Dataflow::kOutputStationary && pe == PeCoord{0, 0};
    const auto key = std::tuple(pe.row, std::move(rows), std::move(cols),
                                origin_under_os);
    rep_of.push_back(rep_by_key.try_emplace(key, i).first->second);
  }
  return rep_of;
}

// A small convolution under either lowering, padded in two draws of three:
// padding zeroes border entries of the lowered input, which an IS array
// column holds as its stationary operand.
void DrawConv(Rng& rng, WorkloadSpec& workload) {
  workload.op = OpType::kConv;
  workload.lowering = rng.Bernoulli(0.5) ? ConvLowering::kShiftGemm
                                         : ConvLowering::kIm2Col;
  ConvParams& conv = workload.conv;
  conv.in_channels = rng.UniformInt(1, 3);
  conv.height = rng.UniformInt(1, 6);
  conv.width = rng.UniformInt(1, 6);
  conv.out_channels = rng.UniformInt(1, 4);
  conv.pad = rng.UniformInt(0, 2);
  conv.kernel_h = rng.UniformInt(
      1, std::min<std::int64_t>(3, conv.height + 2 * conv.pad));
  conv.kernel_w = rng.UniformInt(
      1, std::min<std::int64_t>(4, conv.width + 2 * conv.pad));
  conv.stride = rng.UniformInt(1, 2);
}

// The one campaign of `plan` as RunSweep delivers it.
std::vector<ExperimentRecord> SweepRecords(const CampaignPlan& plan,
                                           const RunOptions& options,
                                           SweepOutcome* outcome = nullptr) {
  CollectorSink collector;
  const SweepOutcome result = RunSweep(plan, options, collector);
  if (outcome != nullptr) *outcome = result;
  std::vector<CampaignResult> results = collector.TakeResults();
  if (results.size() != 1) {
    ADD_FAILURE() << results.size() << " campaigns delivered";
    return {};
  }
  return std::move(results.front().records);
}

TEST(GroupedEnginePropertyTest, FoldedCampaignsMatchDirectRunsOnEveryPath) {
  constexpr std::uint64_t kFirstSeed = 20261103;
  constexpr int kIterations = 100;
  const MacSignal signals[] = {MacSignal::kWeightOperand, MacSignal::kMulOut,
                               MacSignal::kAdderOut};
  const CampaignEngine engines[] = {CampaignEngine::kDifferential,
                                    CampaignEngine::kReference,
                                    CampaignEngine::kPredicted};
  const std::filesystem::path cache_dir =
      std::filesystem::path(::testing::TempDir()) /
      "saffire_folding_oracle_cache";
  int folded = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(iteration);
    Rng rng(seed);
    CampaignConfig config;
    config.accel = DrawAccel(rng);
    const ArrayConfig& array = config.accel.array;
    config.workload.name = "folding-property";
    if (rng.UniformInt(0, 2) == 0) {
      DrawConv(rng, config.workload);
    } else {
      // Half the GEMMs fit inside the array, which leaves PEs in no tile.
      const std::int64_t dim = rng.Bernoulli(0.5) ? 8 : 40;
      config.workload.m = rng.UniformInt(1, dim);
      config.workload.k = rng.UniformInt(1, dim);
      config.workload.n = rng.UniformInt(1, dim);
    }
    config.dataflow = kDataflows[rng.UniformInt(0, 2)];
    config.signal = signals[rng.UniformInt(0, 2)];
    // Half the draws stuck a low bit, which small partial sums toggle.
    const int width = SignalWidth(config.signal, array);
    config.bit = static_cast<int>(
        rng.UniformInt(0, rng.Bernoulli(0.5) ? std::min(width, 3) - 1
                                             : width - 1));
    config.polarity = rng.Bernoulli(0.5) ? StuckPolarity::kStuckAt1
                                         : StuckPolarity::kStuckAt0;
    config.engine = engines[rng.UniformInt(0, 2)];
    config.max_sites =
        rng.Bernoulli(0.5) ? 0 : rng.UniformInt(2, array.num_pes() - 1);
    config.seed = rng();
    config.batch_lanes = rng.UniformInt(1, 64);
    SCOPED_TRACE("iteration seed " + std::to_string(seed) + ": " +
                 config.ToString() + ", " + ToString(config.engine) +
                 ", batch_lanes " + std::to_string(config.batch_lanes) +
                 ", max_compute_rows " +
                 std::to_string(config.accel.max_compute_rows));
    const bool padded_input_stationary =
        config.dataflow == Dataflow::kInputStationary &&
        config.workload.op == OpType::kConv && config.workload.conv.pad > 0;
    ASSERT_EQ(SymmetryEligibleCampaign(config), !padded_input_stationary);

    const PreparedCampaign prepared = PrepareCampaign(config);
    ASSERT_TRUE(PartitionFaultSites(prepared.sites, config.workload,
                                    config.accel, config.dataflow) ==
                StreamPartition(prepared))
        << "site partition differs from the stream partition";
    if (prepared.symmetry_classes < prepared.sites.size()) ++folded;

    FiRunner runner(config.accel);
    std::vector<ExperimentRecord> direct;
    for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
      direct.push_back(
          RunPreparedExperimentWithEngine(prepared, runner, i, config.engine));
    }
    ASSERT_TRUE(RunCampaignSerial(config).records == direct)
        << "RunCampaignSerial records differ";

    CampaignPlan plan = SingleCampaignPlan(config);
    std::filesystem::remove_all(cache_dir);
    ResultCache cache(cache_dir.string());
    for (const int threads : {1, 4}) {
      RunOptions options;
      options.max_parallelism = threads;
      // The 1-thread run also stores the campaign in the cache.
      if (threads == 1) options.result_cache = &cache;
      ASSERT_TRUE(SweepRecords(plan, options) == direct)
          << "RunSweep records differ at " << threads << " threads";
    }

    // Two shards, each run on its own, concatenate to the campaign.
    const std::int64_t sites = plan.site_counts.front();
    plan.shards = {{0, 0, 0, sites / 2}, {0, 1, sites / 2, sites}};
    std::vector<ExperimentRecord> merged;
    for (const int shard : {0, 1}) {
      RunOptions options;
      options.only_shard = shard;
      const std::vector<ExperimentRecord> part = SweepRecords(plan, options);
      merged.insert(merged.end(), part.begin(), part.end());
    }
    ASSERT_TRUE(merged == direct) << "merged shard records differ";

    // A resume from a checkpoint holding a seeded random subset of the
    // records: some members find their representative checkpointed, and
    // some simulated representatives are not delivered.
    SweepCheckpoint checkpoint;
    CheckpointCampaign& held = checkpoint.campaigns[0];
    held.key = CampaignKey(config);
    held.total_experiments = sites;
    held.golden_cycles = prepared.golden().cycles;
    held.golden_pe_steps = prepared.golden().pe_steps;
    for (std::int64_t i = 0; i < sites; ++i) {
      if (rng.Bernoulli(0.5)) {
        held.records.emplace(i, direct[static_cast<std::size_t>(i)]);
      }
    }
    RunOptions resume;
    resume.checkpoint = &checkpoint;
    ASSERT_TRUE(SweepRecords(SingleCampaignPlan(config), resume) == direct)
        << "records resumed from " << held.records.size()
        << " checkpointed ones differ";

    // Every record self-checked at 4 threads: representatives of grouped
    // rungs against the differential engine, copies against direct runs.
    RunOptions checked;
    checked.max_parallelism = 4;
    checked.resilience.selfcheck_rate = 1.0;
    SweepOutcome checked_outcome;
    ASSERT_TRUE(SweepRecords(SingleCampaignPlan(config), checked,
                             &checked_outcome) == direct)
        << "self-checked records differ";
    ASSERT_EQ(checked_outcome.selfcheck_mismatches, 0);

    RunOptions warm;
    warm.result_cache = &cache;
    SweepOutcome outcome;
    ASSERT_TRUE(SweepRecords(SingleCampaignPlan(config), warm, &outcome) ==
                direct)
        << "records replayed from the result cache differ";
    ASSERT_EQ(outcome.cache_hits, 1);
    ASSERT_EQ(outcome.cache_misses, 0);
  }
  std::filesystem::remove_all(cache_dir);
  // Most draws must fold, or the oracle compares unfolded runs only.
  EXPECT_GT(folded, kIterations / 2);
}

}  // namespace
}  // namespace saffire
