// FI cost model (google-benchmark): the per-experiment cost structure
// behind the paper's scalability discussion — each FPGA experiment took
// ~45 s for GEMM and ~130 s for convolution (≈2.9×), 49 h for the full
// campaigns, which is why application-level injection matters.
//
// We reproduce the *shape*: per-experiment simulation cost for every
// Table I workload (conv costs a small multiple of GEMM; 112×112 costs a
// large multiple of 16×16), raw datapath throughput, and the analytical
// app-level path that replaces simulation entirely.
#include <benchmark/benchmark.h>

#include "appfi/appfi.h"
#include "bench_util.h"
#include "fi/runner.h"
#include "systolic/simd_ops.h"

namespace {

using namespace saffire;
using namespace saffire::bench;

WorkloadSpec WorkloadByIndex(int index) {
  switch (index) {
    case 0:
      return Gemm16x16();
    case 1:
      return Conv16Kernel3x3x3x3();
    case 2:
      return Conv16Kernel3x3x3x8();
    case 3:
      return Gemm112x112();
    default:
      return Conv112Kernel3x3x3x8();
  }
}

Dataflow DataflowByIndex(int index) {
  return index == 0 ? Dataflow::kWeightStationary
                    : Dataflow::kOutputStationary;
}

// One complete FI experiment: faulty run + diff + classification (the
// golden run is amortized across a campaign, as in a campaign sweep).
void BM_FiExperiment(benchmark::State& state) {
  const WorkloadSpec workload =
      WorkloadByIndex(static_cast<int>(state.range(0)));
  const Dataflow dataflow =
      DataflowByIndex(static_cast<int>(state.range(1)));
  if (workload.op == OpType::kConv &&
      dataflow == Dataflow::kOutputStationary) {
    state.SkipWithError("Table I runs convolutions under WS only");
    return;
  }
  const AccelConfig config = PaperAccel();
  FiRunner runner(config);
  const RunResult golden = runner.RunGolden(workload, dataflow);
  const ClassifyContext context =
      MakeClassifyContext(workload, config, dataflow);
  const FaultSpec fault =
      StuckAtAdder(PeCoord{4, 9}, 8, StuckPolarity::kStuckAt1);

  std::uint64_t pe_steps = 0;
  for (auto _ : state) {
    const RunResult faulty = runner.RunFaulty(workload, dataflow, {&fault, 1});
    const CorruptionMap map = ExtractCorruption(golden.output, faulty.output);
    benchmark::DoNotOptimize(Classify(map, context));
    pe_steps += faulty.pe_steps;
  }
  state.SetLabel(workload.name + "/" + ToString(dataflow));
  state.counters["pe_steps_per_expt"] = benchmark::Counter(
      static_cast<double>(pe_steps) /
      static_cast<double>(state.iterations()));
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(golden.cycles));
}

// The same experiment on the differential engine: faulty execution
// restricted to the fault cone, outside reads replayed from the recorded
// golden trace. Contrast pe_steps_per_expt / pe_steps_skipped_per_expt with
// BM_FiExperiment to see the cone saving.
void BM_FiExperimentDifferential(benchmark::State& state) {
  const WorkloadSpec workload =
      WorkloadByIndex(static_cast<int>(state.range(0)));
  const Dataflow dataflow =
      DataflowByIndex(static_cast<int>(state.range(1)));
  if (workload.op == OpType::kConv &&
      dataflow == Dataflow::kOutputStationary) {
    state.SkipWithError("Table I runs convolutions under WS only");
    return;
  }
  const AccelConfig config = PaperAccel();
  FiRunner runner(config);
  GoldenTrace trace;
  const RunResult golden =
      runner.RunGoldenRecorded(workload, dataflow, &trace);
  const ClassifyContext context =
      MakeClassifyContext(workload, config, dataflow);
  const FaultSpec fault =
      StuckAtAdder(PeCoord{4, 9}, 8, StuckPolarity::kStuckAt1);

  std::uint64_t pe_steps = 0;
  std::uint64_t pe_steps_skipped = 0;
  for (auto _ : state) {
    const RunResult faulty =
        runner.RunFaultyDifferential(workload, dataflow, {&fault, 1}, trace);
    const CorruptionMap map = ExtractCorruption(golden.output, faulty.output);
    benchmark::DoNotOptimize(Classify(map, context));
    pe_steps += faulty.pe_steps;
    pe_steps_skipped += faulty.pe_steps_skipped;
  }
  state.SetLabel(workload.name + "/" + ToString(dataflow));
  state.counters["pe_steps_per_expt"] = benchmark::Counter(
      static_cast<double>(pe_steps) /
      static_cast<double>(state.iterations()));
  state.counters["pe_steps_skipped_per_expt"] = benchmark::Counter(
      static_cast<double>(pe_steps_skipped) /
      static_cast<double>(state.iterations()));
}

// The analytical app-level alternative for the same experiment.
void BM_AppFiExperiment(benchmark::State& state) {
  const WorkloadSpec workload =
      WorkloadByIndex(static_cast<int>(state.range(0)));
  const Dataflow dataflow =
      DataflowByIndex(static_cast<int>(state.range(1)));
  if (workload.op == OpType::kConv &&
      dataflow == Dataflow::kOutputStationary) {
    state.SkipWithError("Table I runs convolutions under WS only");
    return;
  }
  const AccelConfig config = PaperAccel();
  FiRunner runner(config);
  const RunResult golden = runner.RunGolden(workload, dataflow);
  const FaultSpec fault =
      StuckAtAdder(PeCoord{4, 9}, 8, StuckPolarity::kStuckAt1);
  AppFiSpec fi_spec;
  fi_spec.accel = config;
  fi_spec.dataflow = dataflow;
  const NetworkFi injector(fi_spec);

  for (auto _ : state) {
    benchmark::DoNotOptimize(
        injector.EmulateExtraction(golden.output, workload, fault));
  }
  state.SetLabel(workload.name + "/" + ToString(dataflow));
}

// Raw datapath throughput: PE evaluations per second of the cycle-accurate
// model (the quantity that fixes campaign wall-clock). range(1) selects the
// execution tier: 0 = fast-path kernel, 1 = forced reference loop — the
// recorded series behind the fast-path speedup claim.
void BM_ArrayStepThroughput(benchmark::State& state) {
  ArrayConfig config;
  SystolicArray array(config);
  const auto dataflow = DataflowByIndex(static_cast<int>(state.range(0)));
  const bool reference = state.range(1) != 0;
  array.set_force_reference_step(reference);
  for (std::int32_t r = 0; r < 16; ++r) {
    array.SetWestInput(r, 1);
  }
  for (auto _ : state) {
    array.Step(dataflow);
  }
  state.SetLabel(ToString(dataflow) +
                 (reference ? "/reference" : "/fast-path"));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * config.num_pes());
}

// A whole campaign batch through the persistent executor pool: four small
// campaigns (SA1/SA0 × bits 4/8) on a 16-site sample, one plan. The reuse
// counters show the service amortization — simulators constructed once per
// worker and then reused across every campaign in the batch.
void BM_CampaignBatch(benchmark::State& state) {
  SweepSpec spec;
  spec.accel = PaperAccel();
  spec.workloads = {Gemm16x16()};
  spec.polarities = {StuckPolarity::kStuckAt1, StuckPolarity::kStuckAt0};
  spec.bits = {4, 8};
  spec.max_sites = 16;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  CampaignExecutor& executor = CampaignExecutor::Shared();
  const ExecutorStats before = executor.stats();
  std::int64_t experiments = 0;
  for (auto _ : state) {
    CollectorSink collector;
    saffire::RunSweep(plan, RunOptions{}, collector);
    for (const CampaignResult& result : collector.results()) {
      experiments += static_cast<std::int64_t>(result.records.size());
    }
  }
  const ExecutorStats after = executor.stats();
  const auto iterations = static_cast<double>(state.iterations());
  state.SetLabel("campaigns=" + std::to_string(plan.campaigns.size()) +
                 "/threads=" + std::to_string(executor.threads()));
  state.counters["experiments_per_batch"] =
      benchmark::Counter(static_cast<double>(experiments) / iterations);
  state.counters["simulators_constructed"] = benchmark::Counter(
      static_cast<double>(after.simulators_constructed -
                          before.simulators_constructed));
  state.counters["simulators_reused_per_batch"] = benchmark::Counter(
      static_cast<double>(after.simulators_reused -
                          before.simulators_reused) /
      iterations);
  state.counters["golden_cache_hits_per_batch"] = benchmark::Counter(
      static_cast<double>(after.golden_cache_hits -
                          before.golden_cache_hits) /
      iterations);
}

// SIMD-kernel isolation: the lane-parallel batch replay alone (no
// classification, no campaign plumbing) on a 64-fault batch, so the scalar
// and AVX2 datapaths can be compared directly. range(0) selects the
// dataflow, range(1) the dispatched backend (0 = scalar, 1 = avx2; the
// avx2 rows are skipped on CPUs without it), and range(2) the fault cone:
// 0 = stuck-at adder faults (width-1 cones, the narrow int32 lane path),
// 1 = act-forward faults (wide cones, always on the generic path — the
// SIMD-invariant control).
void BM_BatchLaneKernel(benchmark::State& state) {
  const Dataflow dataflow = DataflowByIndex(static_cast<int>(state.range(0)));
  const SimdMode mode =
      state.range(1) != 0 ? SimdMode::kAvx2 : SimdMode::kScalar;
  if (mode == SimdMode::kAvx2 && !CpuSupportsAvx2()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const bool wide = state.range(2) != 0;
  SetSimdMode(mode);

  const WorkloadSpec workload = Gemm16x16();
  const AccelConfig config = PaperAccel();
  FiRunner runner(config);
  GoldenTrace trace;
  const RunResult golden =
      runner.RunGoldenRecorded(workload, dataflow, &trace);
  std::vector<FaultSpec> faults;
  for (std::int32_t r = 0; r < 16; ++r) {
    for (std::int32_t c = 0; c < 4; ++c) {
      FaultSpec fault = StuckAtAdder(PeCoord{r, c}, 8, StuckPolarity::kStuckAt1);
      if (wide) {
        fault.signal = MacSignal::kActForward;
        fault.bit = 3;
      }
      faults.push_back(fault);
    }
  }

  std::uint64_t pe_steps = 0;
  for (auto _ : state) {
    const std::vector<ConeRunResult> results =
        runner.RunFaultyBatch(workload, dataflow, faults, trace, golden);
    benchmark::DoNotOptimize(results.data());
    for (const ConeRunResult& result : results) pe_steps += result.pe_steps;
  }
  SetSimdMode(SimdMode::kAuto);
  state.SetLabel(ToString(dataflow) + "/" + ToString(mode) +
                 (wide ? "/wide-cone" : "/narrow-cone"));
  state.counters["lanes_per_batch"] =
      benchmark::Counter(static_cast<double>(faults.size()));
  state.counters["pe_steps_per_batch"] = benchmark::Counter(
      static_cast<double>(pe_steps) /
      static_cast<double>(state.iterations()));
}

// The closed-form predicted engine on the same 64-fault batch: what the
// campaign layer's kPredicted rung pays when the predictor is exact.
void BM_PredictedKernel(benchmark::State& state) {
  const Dataflow dataflow = DataflowByIndex(static_cast<int>(state.range(0)));
  const WorkloadSpec workload = Gemm16x16();
  const AccelConfig config = PaperAccel();
  FiRunner runner(config);
  GoldenTrace trace;
  const RunResult golden =
      runner.RunGoldenRecorded(workload, dataflow, &trace);
  std::vector<FaultSpec> faults;
  for (std::int32_t r = 0; r < 16; ++r) {
    for (std::int32_t c = 0; c < 4; ++c) {
      faults.push_back(
          StuckAtAdder(PeCoord{r, c}, 8, StuckPolarity::kStuckAt1));
    }
  }
  for (auto _ : state) {
    const std::vector<ConeRunResult> results =
        runner.RunFaultyPredicted(workload, dataflow, faults, trace, golden);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetLabel(ToString(dataflow) + "/closed-form");
  state.counters["lanes_per_batch"] =
      benchmark::Counter(static_cast<double>(faults.size()));
}

// Same, with a fault hook installed on one PE (the campaign configuration).
void BM_ArrayStepWithHook(benchmark::State& state) {
  ArrayConfig config;
  SystolicArray array(config);
  FaultInjector injector(
      {StuckAtAdder(PeCoord{4, 9}, 8, StuckPolarity::kStuckAt1)}, config);
  array.InstallFaultHook(&injector);
  for (auto _ : state) {
    array.Step(Dataflow::kWeightStationary);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * config.num_pes());
}

}  // namespace

// Convolutions run under WS only, matching Table I.
BENCHMARK(BM_FiExperiment)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FiExperimentDifferential)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AppFiExperiment)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArrayStepThroughput)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});
BENCHMARK(BM_BatchLaneKernel)
    ->Args({0, 0, 0})
    ->Args({0, 1, 0})
    ->Args({1, 0, 0})
    ->Args({1, 1, 0})
    ->Args({0, 0, 1})
    ->Args({0, 1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictedKernel)
    ->Args({0})
    ->Args({1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArrayStepWithHook);
BENCHMARK(BM_CampaignBatch)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
