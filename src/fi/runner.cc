#include "fi/runner.h"

#include "fi/cone.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace saffire {

RunResult PlanGolden(const MaterializedWorkload& operands, Dataflow dataflow,
                     const AccelConfig& accel) {
  SAFFIRE_SPAN("fi.golden_plan");
  const Driver::Schedule schedule =
      Driver::PlanSchedule(operands.a.dim(0), operands.b.dim(1),
                           operands.a.dim(1), accel, dataflow);
  RunResult result;
  result.output = Driver::PlanProduct(operands.a, operands.b, accel, dataflow);
  result.cycles = schedule.cycles;
  result.pe_steps = static_cast<std::uint64_t>(schedule.steps) *
                    static_cast<std::uint64_t>(accel.array.num_pes());
  return result;
}

RunResult FiRunner::RunGolden(const WorkloadSpec& workload,
                              Dataflow dataflow) {
  return RunGolden(Materialize(workload), dataflow);
}

RunResult FiRunner::RunGolden(const MaterializedWorkload& operands,
                              Dataflow dataflow) {
  return Run(operands, dataflow, nullptr);
}

RunResult FiRunner::RunFaulty(const WorkloadSpec& workload, Dataflow dataflow,
                              std::span<const FaultSpec> faults) {
  return RunFaulty(Materialize(workload), dataflow, faults);
}

RunResult FiRunner::RunFaulty(const MaterializedWorkload& operands,
                              Dataflow dataflow,
                              std::span<const FaultSpec> faults) {
  SAFFIRE_SPAN("fi.faulty_run");
  FaultInjector injector(std::vector<FaultSpec>(faults.begin(), faults.end()),
                         accel_.config().array);
  return Run(operands, dataflow, &injector);
}

RunResult FiRunner::RunGoldenRecorded(const WorkloadSpec& workload,
                                      Dataflow dataflow, GoldenTrace* trace) {
  const MaterializedWorkload operands = Materialize(workload);
  SAFFIRE_SPAN("fi.golden_record");
  SystolicArray& array = accel_.array();
  array.BeginGoldenRecording(trace);
  RunResult result;
  try {
    trace->Reserve(Driver::PlanSchedule(operands.a.dim(0), operands.b.dim(1),
                                        operands.a.dim(1), accel_.config(),
                                        dataflow)
                       .steps);
    result = Run(operands, dataflow, nullptr);
  } catch (...) {
    array.EndGoldenRecording();
    throw;
  }
  array.EndGoldenRecording();
  return result;
}

RunResult FiRunner::RunFaultyDifferential(const WorkloadSpec& workload,
                                          Dataflow dataflow,
                                          std::span<const FaultSpec> faults,
                                          const GoldenTrace& trace) {
  SAFFIRE_SPAN("fi.differential_run");
  FaultInjector injector(std::vector<FaultSpec>(faults.begin(), faults.end()),
                         accel_.config().array);
  ColumnCone cone;
  {
    SAFFIRE_SPAN("fi.cone_derive");
    cone = FaultCone(faults, LoweredDataflow(dataflow), accel_.config().array);
  }
  SystolicArray& array = accel_.array();
  array.BeginDifferential(cone, &trace);
  RunResult result;
  try {
    result = Run(Materialize(workload), dataflow, &injector);
  } catch (...) {
    array.EndDifferential();
    throw;
  }
  array.EndDifferential();
  return result;
}

RunResult FiRunner::Run(const MaterializedWorkload& operands,
                        Dataflow dataflow, FaultInjector* injector) {
  ExecOptions options;
  options.dataflow = dataflow;

  SystolicArray& array = accel_.array();
  const std::int64_t cycles_before = array.cycle();
  const std::uint64_t steps_before = array.total_pe_steps();
  const std::uint64_t skipped_before = array.pe_steps_skipped();

  array.InstallFaultHook(injector);
  RunResult result;
  try {
    result.output = driver_.Gemm(operands.a, operands.b, options);
  } catch (...) {
    array.ClearFaultHook();
    throw;
  }
  array.ClearFaultHook();

  result.cycles = array.cycle() - cycles_before;
  result.pe_steps = array.total_pe_steps() - steps_before;
  result.pe_steps_skipped = array.pe_steps_skipped() - skipped_before;
  result.fault_activations =
      injector == nullptr ? 0 : injector->activations();

  // Aggregate per-run PE activity into the default registry at the run
  // boundary — the inner per-PE loops stay uninstrumented (see obs/trace.h
  // cost model). Handles resolve once per process.
  static obs::Counter& fi_runs = obs::MetricsRegistry::Default().GetCounter(
      "saffire.fi.runs", "simulator runs (golden + faulty)");
  static obs::Counter& fi_pe_steps =
      obs::MetricsRegistry::Default().GetCounter(
          "saffire.fi.pe_steps", "PE step evaluations across runs");
  static obs::Counter& fi_pe_steps_skipped =
      obs::MetricsRegistry::Default().GetCounter(
          "saffire.fi.pe_steps_skipped",
          "PE steps elided by the fault-cone differential engine");
  fi_runs.Increment();
  fi_pe_steps.Increment(static_cast<std::int64_t>(result.pe_steps));
  fi_pe_steps_skipped.Increment(
      static_cast<std::int64_t>(result.pe_steps_skipped));
  return result;
}

}  // namespace saffire
