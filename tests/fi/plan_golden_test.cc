// PlanGolden is the closed-form campaigns' golden run, so it must be the
// array's fault-free run in every field a campaign reads: output, cycles and
// pe_steps. The property test holds it to FiRunner::RunGolden on seeded,
// replayable draws over array shapes, operand and accumulator widths, the
// controller's buffers and weight buffering, all three dataflows, and GEMM
// and convolution workloads. The campaign-level tests hold GoldenRunCache to
// its contract: a closed-form sweep steps no array and records no trace,
// while a self-check or a demotion records each key once (a demotion
// outside every experiment's attempt) and delivers the plain run's records;
// a differential campaign asks the cache for its golden run once.
#include "fi/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "fi/golden_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/chaos.h"
#include "service/run.h"
#include "service/sink.h"

namespace saffire {
namespace {

const Dataflow kDataflows[] = {Dataflow::kWeightStationary,
                               Dataflow::kOutputStationary,
                               Dataflow::kInputStationary};

// Random fills twice as often as the others: they are what makes a narrow
// accumulator wrap inside a reduction tile.
const OperandFill kFills[] = {OperandFill::kRandom, OperandFill::kRandom,
                              OperandFill::kOnes, OperandFill::kNearZero};

// Any configuration AccelConfig::Validate accepts on an array of 1–9 rows
// and columns, with the buffers drawn close to their lower bounds so the
// drawn GEMMs span several m-tiles. Half the draws put the accumulator
// within 6 bits of its floor, where tile sums wrap.
AccelConfig DrawAccel(Rng& rng) {
  AccelConfig accel;
  ArrayConfig& array = accel.array;
  array.rows = static_cast<std::int32_t>(rng.UniformInt(1, 9));
  array.cols = static_cast<std::int32_t>(rng.UniformInt(1, 9));
  array.input_bits = static_cast<std::int32_t>(rng.UniformInt(2, 16));
  const std::int32_t acc_floor = 2 * array.input_bits;
  array.acc_bits = static_cast<std::int32_t>(rng.UniformInt(
      acc_floor, rng.Bernoulli(0.5) ? std::min(acc_floor + 6, 64) : 64));
  accel.max_compute_rows = static_cast<std::int32_t>(
      rng.UniformInt(array.rows, 3 * array.rows + 8));
  accel.acc_rows = static_cast<std::int32_t>(
      rng.UniformInt(accel.max_compute_rows, accel.max_compute_rows + 8));
  const std::int32_t spad_floor =
      std::max(2 * array.rows,
               accel.max_compute_rows + std::max(array.rows, array.cols));
  accel.spad_rows =
      static_cast<std::int32_t>(rng.UniformInt(spad_floor, spad_floor + 8));
  accel.double_buffered_weights = rng.Bernoulli(0.5);
  accel.dram_bytes = 1 << 20;
  accel.Validate();
  return accel;
}

// GEMMs up to 120×70×40, or padded and unpadded convolutions under either
// lowering, with each operand filled randomly, with ones or near-zero.
WorkloadSpec DrawWorkload(Rng& rng) {
  WorkloadSpec workload;
  workload.name = "plan-golden";
  if (rng.Bernoulli(0.6)) {
    workload.op = OpType::kGemm;
    workload.m = rng.UniformInt(1, 120);
    workload.k = rng.UniformInt(1, 70);
    workload.n = rng.UniformInt(1, 40);
  } else {
    workload.op = OpType::kConv;
    ConvParams& conv = workload.conv;
    conv.batch = rng.UniformInt(1, 2);
    conv.in_channels = rng.UniformInt(1, 3);
    conv.height = rng.UniformInt(2, 10);
    conv.width = rng.UniformInt(2, 10);
    conv.out_channels = rng.UniformInt(1, 6);
    conv.pad = rng.UniformInt(0, 1);
    conv.kernel_h = rng.UniformInt(1, std::min<std::int64_t>(
                                          3, conv.height + 2 * conv.pad));
    conv.kernel_w = rng.UniformInt(1, std::min<std::int64_t>(
                                          3, conv.width + 2 * conv.pad));
    conv.stride = rng.UniformInt(1, 2);
    workload.lowering = rng.Bernoulli(0.5) ? ConvLowering::kIm2Col
                                           : ConvLowering::kShiftGemm;
  }
  workload.input_fill = kFills[rng.UniformInt(0, 3)];
  workload.weight_fill = kFills[rng.UniformInt(0, 3)];
  workload.data_seed = rng();
  workload.Validate();
  return workload;
}

void ExpectSameRun(const RunResult& plan, const RunResult& array) {
  EXPECT_TRUE(plan.output == array.output);
  EXPECT_EQ(plan.cycles, array.cycles);
  EXPECT_EQ(plan.pe_steps, array.pe_steps);
  EXPECT_EQ(plan.pe_steps_skipped, 0u);
  EXPECT_EQ(plan.fault_activations, 0u);
}

// 1,200 draws from consecutive seeds; a failure names its seed, and
// drawing from that seed alone replays it. Each draw runs on a fresh
// runner and again on the same runner once it has run.
TEST(PlanGoldenPropertyTest, EqualsTheArraysGoldenRun) {
  constexpr std::uint64_t kFirstSeed = 20261020;
  constexpr int kDraws = 1200;
  for (int draw = 0; draw < kDraws; ++draw) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(draw);
    Rng rng(seed);
    const AccelConfig accel = DrawAccel(rng);
    const WorkloadSpec workload = DrawWorkload(rng);
    const Dataflow dataflow = kDataflows[rng.UniformInt(0, 2)];
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + workload.ToString() +
                 " " + ToString(dataflow) + " on " + accel.ToString() +
                 (accel.double_buffered_weights ? ", double-buffered"
                                                : ", single-bank"));
    const MaterializedWorkload operands = Materialize(workload);
    const RunResult plan = PlanGolden(operands, dataflow, accel);

    FiRunner runner(accel);
    ExpectSameRun(plan, runner.RunGolden(operands, dataflow));
    ExpectSameRun(plan, runner.RunGolden(operands, dataflow));
    if (HasFailure()) return;
  }
}

// The schedule sum is the driver's program, instruction by instruction: a
// single-bank WS GEMM pays the preload on every COMPUTE, a double-buffered
// one only on the first.
TEST(PlanGoldenPropertyTest, WeightBufferingSetsThePreloadCharge) {
  AccelConfig accel;
  accel.array.rows = accel.array.cols = 4;
  accel.max_compute_rows = 4;
  accel.acc_rows = 4;
  accel.spad_rows = 8;
  // 8×8×8 under WS: 2 m-tiles × 2 n-tiles × 2 k-tiles of 4×4×4.
  const std::int64_t tiles = 8;
  const std::int64_t stream = 4 + 4 + 4 - 2;
  const std::int64_t moves = tiles * (4 + 4) + 4 * 4;  // MVINs, then MVOUTs
  const Driver::Schedule buffered =
      Driver::PlanSchedule(8, 8, 8, accel, Dataflow::kWeightStationary);
  EXPECT_EQ(buffered.steps, tiles * stream);
  EXPECT_EQ(buffered.cycles, moves + tiles * stream + 4);
  accel.double_buffered_weights = false;
  const Driver::Schedule single =
      Driver::PlanSchedule(8, 8, 8, accel, Dataflow::kWeightStationary);
  EXPECT_EQ(single.steps, buffered.steps);
  EXPECT_EQ(single.cycles, moves + tiles * (stream + 4));
}

// --- Campaign level ---------------------------------------------------------

AccelConfig SmallAccel() {
  AccelConfig config;
  config.array.rows = 8;
  config.array.cols = 8;
  config.max_compute_rows = 16;
  config.spad_rows = 32;
  config.acc_rows = 16;
  config.dram_bytes = 1 << 20;
  return config;
}

// Two workloads × three dataflows: six golden keys, every campaign closed
// form on the predicted engine. Random inputs keep every site simulated.
SweepSpec ClosedFormSpec() {
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec gemm;
  gemm.name = "gemm-20";
  gemm.m = 20;
  gemm.k = 12;
  gemm.n = 18;
  gemm.input_fill = OperandFill::kRandom;
  WorkloadSpec conv;
  conv.name = "conv-6";
  conv.op = OpType::kConv;
  conv.conv.in_channels = 2;
  conv.conv.height = conv.conv.width = 6;
  conv.conv.out_channels = 5;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  conv.conv.pad = 1;
  conv.input_fill = OperandFill::kRandom;
  spec.workloads = {gemm, conv};
  spec.dataflows = {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
                    Dataflow::kInputStationary};
  spec.signals = {MacSignal::kAdderOut, MacSignal::kMulOut};
  spec.bits = {3};
  spec.max_sites = 10;
  spec.engine = CampaignEngine::kPredicted;
  return spec;
}
constexpr int kGoldenKeys = 6;

struct Sweep {
  std::string csv;
  SweepOutcome outcome;
  std::string trace;
};

// One sweep at 4 threads on a cold golden cache, traced.
Sweep RunTraced(const SweepSpec& spec, const ResilienceOptions& resilience) {
  GoldenRunCache::Instance().Clear();
  CampaignExecutor executor(ExecutorOptions{.threads = 4});
  RunOptions options;
  options.executor = &executor;
  options.resilience = resilience;
  options.resilience.backoff_base_ms = 0;
  std::ostringstream csv;
  CsvRecordSink sink(csv);
  obs::TraceSession& session = obs::TraceSession::Instance();
  session.Start();
  Sweep sweep;
  sweep.outcome = RunSweep(spec, options, sink);
  session.Stop();
  std::ostringstream trace;
  session.WriteChromeTrace(trace);
  session.Clear();
  sweep.csv = csv.str();
  sweep.trace = trace.str();
  return sweep;
}

int SpanCount(const std::string& trace, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  int count = 0;
  for (std::size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

// How many `inner` spans lie within an `outer` span on the same thread.
int SpansWithin(const std::string& trace, const std::string& inner,
                const std::string& outer) {
  const JsonValue doc = JsonValue::Parse(trace);
  const std::vector<JsonValue>& events = doc.At("traceEvents").AsArray();
  int count = 0;
  for (const JsonValue& in : events) {
    if (in.At("name").AsString() != inner) continue;
    const std::int64_t begin = in.At("ts").AsInt();
    const std::int64_t end = begin + in.At("dur").AsInt();
    for (const JsonValue& out : events) {
      if (out.At("name").AsString() != outer ||
          out.At("tid").AsInt() != in.At("tid").AsInt()) {
        continue;
      }
      const std::int64_t out_begin = out.At("ts").AsInt();
      if (out_begin <= begin && end <= out_begin + out.At("dur").AsInt()) {
        ++count;
        break;
      }
    }
  }
  return count;
}

TEST(ClosedFormGoldenTest, SweepStepsNoArrayAndRecordsNoTrace) {
  const obs::Counter& runs = obs::MetricsRegistry::Default().GetCounter(
      "saffire.fi.runs", "simulator runs (golden + faulty)");
  const std::int64_t runs_before = runs.value();
  const Sweep sweep = RunTraced(ClosedFormSpec(), ResilienceOptions{});
  EXPECT_TRUE(sweep.outcome.ok());
  EXPECT_EQ(sweep.outcome.records, 12 * 10);
  EXPECT_EQ(runs.value(), runs_before);
  EXPECT_EQ(SpanCount(sweep.trace, "fi.golden_plan"), kGoldenKeys);
  EXPECT_EQ(SpanCount(sweep.trace, "fi.golden_record"), 0);
  EXPECT_EQ(GoldenRunCache::Instance().entries(),
            static_cast<std::size_t>(kGoldenKeys));
}

TEST(ClosedFormGoldenTest, SelfCheckRecordsEachKeyOnceAndKeepsTheRecords) {
  const Sweep plain = RunTraced(ClosedFormSpec(), ResilienceOptions{});
  ResilienceOptions resilience;
  resilience.selfcheck_rate = 1.0;
  const Sweep checked = RunTraced(ClosedFormSpec(), resilience);
  EXPECT_TRUE(checked.outcome.ok());
  EXPECT_EQ(checked.outcome.selfchecks, 12 * 10);
  EXPECT_EQ(checked.outcome.selfcheck_mismatches, 0);
  EXPECT_EQ(checked.csv, plain.csv);
  EXPECT_EQ(SpanCount(checked.trace, "fi.golden_plan"), kGoldenKeys);
  EXPECT_EQ(SpanCount(checked.trace, "fi.golden_record"), kGoldenKeys);
}

// The demoted campaigns record before their experiments' attempts, never
// inside one: an attempt's body (RunPreparedExperimentWithEngine) is a
// campaign.experiment span, and a recording within it would count against
// the attempt's deadline.
TEST(ClosedFormGoldenTest, DemotionRecordsEachKeyOnceAndKeepsTheRecords) {
  const Sweep plain = RunTraced(ClosedFormSpec(), ResilienceOptions{});
  chaos::ChaosSpec chaos_spec;
  chaos_spec.batch_fail_every = 1;  // every campaign demotes to differential
  chaos::Install(chaos_spec);
  ResilienceOptions resilience;
  resilience.on_failure = OnFailure::kQuarantine;
  const Sweep demoted = RunTraced(ClosedFormSpec(), resilience);
  chaos::Clear();
  EXPECT_TRUE(demoted.outcome.ok());
  EXPECT_EQ(demoted.outcome.fallbacks, 12);
  EXPECT_EQ(demoted.csv, plain.csv);
  EXPECT_EQ(SpanCount(demoted.trace, "fi.golden_record"), kGoldenKeys);
  EXPECT_GT(SpanCount(demoted.trace, "campaign.experiment"), 0);
  EXPECT_EQ(
      SpansWithin(demoted.trace, "fi.golden_record", "campaign.experiment"),
      0);
}

// A campaign that took the recorded half at preparation reads its trace
// from it: its experiments request nothing more from the cache.
TEST(ClosedFormGoldenTest, DifferentialCampaignRequestsItsHalfOnce) {
  SweepSpec spec = ClosedFormSpec();
  spec.engine = CampaignEngine::kDifferential;
  const Sweep sweep = RunTraced(spec, ResilienceOptions{});
  EXPECT_TRUE(sweep.outcome.ok());
  const GoldenRunCache& cache = GoldenRunCache::Instance();
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(kGoldenKeys));
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(12 - kGoldenKeys));
}

// Both halves of one key must agree; the recorded half joining a planned
// one (as a demotion does) is checked, and the key stays usable.
TEST(ClosedFormGoldenTest, CacheHalvesAgreeOnEveryField) {
  GoldenRunCache& cache = GoldenRunCache::Instance();
  cache.Clear();
  const SweepSpec spec = ClosedFormSpec();
  for (const WorkloadSpec& workload : spec.workloads) {
    for (const Dataflow dataflow : spec.dataflows) {
      const std::shared_ptr<GoldenRun> run =
          cache.Get(spec.accel, workload, dataflow);
      bool hit = true;
      const auto planned = run->planned(&hit);
      EXPECT_FALSE(hit);
      const auto recorded = run->recorded(&hit);
      EXPECT_FALSE(hit);
      EXPECT_TRUE(planned->result.output == recorded->result.output);
      EXPECT_EQ(planned->result.cycles, recorded->result.cycles);
      EXPECT_EQ(planned->result.pe_steps, recorded->result.pe_steps);
      EXPECT_EQ(run->planned(&hit).get(), planned.get());
      EXPECT_TRUE(hit);
    }
  }
  EXPECT_EQ(cache.misses(), 2u * kGoldenKeys);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kGoldenKeys));
  cache.Clear();
}

}  // namespace
}  // namespace saffire
