// RunNetworkSweep: the network-level facade beside RunSweep (service/run.h)
// — expands a NetworkSweepSpec into campaigns, executes every experiment on
// the configured rung, streams NetworkRecords to a sink, and returns the
// shared SweepOutcome health summary.
//
// Rung semantics:
//   kAppFi          — golden host inference + predicted-reach perturbation
//                     per in-scope layer (appfi/appfi.h). Orders of
//                     magnitude faster than simulation; the paper's
//                     application-level-injector use case.
//   kCycleAccurate  — every in-scope layer is computed exactly as the
//                     simulated array computes it with the fault installed,
//                     and the real corrupted tensors propagate through the
//                     network. A PE-local fault's in-scope GEMM is the host
//                     product of whatever operands reach it, perturbed by
//                     the closed form (FiRunner::RunFaultyPredicted). Any
//                     other fault's in-scope GEMM steps the array
//                     (FiRunner::RunFaulty) on the campaign's one FiRunner.
//                     Before that runner serves an experiment, the array's
//                     fault-free output on the first in-scope layer
//                     (PlanGolden, no array stepped) is checked against the
//                     host's.
//
// Cross-validation (ResilienceOptions::selfcheck_rate): a seed-deterministic
// sample of appfi-rung experiments is re-run on the cycle-accurate rung.
// A mismatch — observed corruption escaping the predicted reach, or, where
// the analytical path is provably bit-exact (NetworkFi::ExtractionExact),
// any record difference — counts in SweepOutcome::selfcheck_mismatches,
// demotes the campaign's remaining experiments to the cycle-accurate rung
// (SweepOutcome::fallbacks), and keeps the trusted cycle-accurate record.
// Top-1 disagreement on trained networks within the reach contract is
// quantization-model tolerance, not a mismatch; it is still visible in
// records because a demoted record carries the cycle-accurate outcome.
#pragma once

#include <atomic>

#include "service/network_sweep.h"

namespace saffire {

struct NetworkRunOptions {
  // The shared resilience ladder (RunResilient, service/resilience.h) over
  // the network's two rungs: max_retries capped-backoff attempts per rung,
  // cooperative experiment_timeout_ms deadlines, demotion appfi →
  // cycle-accurate on an exhausted rung, and on_failure routing exhausted
  // experiments to quarantine (OnExperimentFailed + a re-simulatable
  // "network-failed" checkpoint line) or abort. Validated before training.
  ResilienceOptions resilience;
  // Completed records replayed to the sink instead of re-executed. Must
  // have passed ValidateNetworkCheckpoint for this spec (RunNetworkSweep
  // re-validates).
  const NetworkCheckpoint* resume = nullptr;
  // Cooperative stop: checked between experiments; a drained run returns
  // outcome.stopped = true.
  const std::atomic<bool>* stop = nullptr;
};

SweepOutcome RunNetworkSweep(const NetworkSweepSpec& spec,
                             const NetworkRunOptions& options,
                             NetworkRecordSink& sink);

inline SweepOutcome RunNetworkSweep(const NetworkSweepSpec& spec,
                                    NetworkRecordSink& sink) {
  return RunNetworkSweep(spec, NetworkRunOptions{}, sink);
}

}  // namespace saffire
