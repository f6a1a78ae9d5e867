// The determinism claim (Sec. IV, Discussion): "given the hardware
// configurations, type of operation and its properties, and the location
// of the stuck-at fault, we can predict the fault patterns" — validated by
// exhaustive cross-validation of the analytical predictor (and the
// app-level injector built on it) against the cycle-accurate simulator.
//
// This is the contract that lets TensorFI/LLTFI-style tools model systolic
// arrays without RTL simulation; the final column shows the per-experiment
// simulation work the analytical path avoids.
#include <iostream>

#include "appfi/appfi.h"
#include "bench_util.h"

int main() {
  using namespace saffire;
  using namespace saffire::bench;

  std::cout << "=== Predictor & app-level injector vs cycle-accurate "
               "simulation ===\n\n";
  const std::vector<std::size_t> widths = {24, 3, 6, 10, 10, 11, 16};
  PrintRow({"workload", "DF", "sites", "class", "coords", "bit-exact",
            "PE-steps/expt"},
           widths);
  PrintRule(widths);

  struct Case {
    WorkloadSpec workload;
    Dataflow dataflow;
    std::int64_t sites;  // 0 = exhaustive
  };
  const Case cases[] = {
      {Gemm16x16(), Dataflow::kWeightStationary, 0},
      {Gemm16x16(), Dataflow::kOutputStationary, 0},
      {Conv16Kernel3x3x3x3(), Dataflow::kWeightStationary, 0},
      {Conv16Kernel3x3x3x8(), Dataflow::kWeightStationary, 0},
      {Gemm112x112(), Dataflow::kWeightStationary, 48},
      {Gemm112x112(), Dataflow::kOutputStationary, 48},
      {Conv112Kernel3x3x3x8(), Dataflow::kWeightStationary, 48},
  };

  bool all_exact = true;
  for (const Case& bench_case : cases) {
    // Class/coordinate agreement from the campaign machinery.
    CampaignConfig config;
    config.accel = PaperAccel();
    config.workload = bench_case.workload;
    config.dataflow = bench_case.dataflow;
    config.bit = 8;
    config.max_sites = bench_case.sites;
    const CampaignResult result = bench::RunCampaignForBench(config, 1);

    // Bit-exact value agreement via the app-level emulator on a site
    // subsample (the campaign already covers coordinates exhaustively).
    std::int64_t value_matches = 0;
    std::int64_t value_checks = 0;
    std::uint64_t pe_steps = 0;
    AppFiSpec fi_spec;
    fi_spec.accel = config.accel;
    fi_spec.dataflow = bench_case.dataflow;
    const NetworkFi injector(fi_spec);
    const auto sites = CampaignSites(config);
    for (std::size_t i = 0; i < sites.size();
         i += std::max<std::size_t>(1, sites.size() / 8)) {
      const FaultSpec fault =
          StuckAtAdder(sites[i], 8, StuckPolarity::kStuckAt1);
      const CrossValidation validation =
          injector.CrossValidate(bench_case.workload, fault);
      ++value_checks;
      if (validation.values_match) ++value_matches;
      pe_steps = validation.simulated_pe_steps;
    }

    const bool exact = result.ExactAgreement() == 1.0 &&
                       value_matches == value_checks;
    all_exact = all_exact && exact;
    PrintRow({bench_case.workload.name, ToString(bench_case.dataflow),
              std::to_string(result.records.size()),
              Percent(result.ClassAgreement()),
              Percent(result.ExactAgreement()),
              std::to_string(value_matches) + "/" +
                  std::to_string(value_checks),
              std::to_string(pe_steps)},
             widths);
  }

  // The predicted rung's coverage: which share of a full-signal stuck-at
  // sweep the closed form serves (saffire.predict.hits) vs routes to the
  // lane-grid residue (saffire.predict.residue), per dataflow. The rates are
  // structural — they depend only on the signal mix, so they hold for the
  // paper-scale campaigns too.
  std::cout << "\n=== Predicted-engine coverage: GEMM 16x16, stuck-at, "
               "all signals ===\n\n";
  const std::vector<std::size_t> cover_widths = {3, 12, 12, 10};
  PrintRow({"DF", "closed-form", "residue", "hit rate"}, cover_widths);
  PrintRule(cover_widths);
  obs::Counter& hits =
      obs::MetricsRegistry::Default().GetCounter("saffire.predict.hits");
  obs::Counter& residue =
      obs::MetricsRegistry::Default().GetCounter("saffire.predict.residue");
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary}) {
    const std::int64_t hits_before = hits.value();
    const std::int64_t residue_before = residue.value();
    SweepSpec spec;
    spec.accel = PaperAccel();
    spec.workloads = {Gemm16x16()};
    spec.dataflows = {dataflow};
    spec.signals = {MacSignal::kWeightOperand, MacSignal::kMulOut,
                    MacSignal::kAdderOut, MacSignal::kActForward,
                    MacSignal::kSouthForward};
    spec.bits = {4};  // in-width for every signal (weight_operand is 8-bit)
    spec.max_sites = 16;
    spec.engine = CampaignEngine::kPredicted;
    bench::RunSweep(spec);
    const std::int64_t closed_form = hits.value() - hits_before;
    const std::int64_t routed = residue.value() - residue_before;
    PrintRow({ToString(dataflow), std::to_string(closed_form),
              std::to_string(routed),
              Percent(static_cast<double>(closed_form) /
                      static_cast<double>(closed_form + routed))},
             cover_widths);
  }

  std::cout << "\n"
            << (all_exact
                    ? "Every prediction matched the simulation exactly — the "
                      "paper's determinism claim\nholds across the full "
                      "configuration matrix."
                    : "DEVIATION: some predictions did not match the "
                      "simulation.")
            << "\nThe app-level path replaces the per-experiment PE-step "
               "counts above with a\ncoordinate-set computation — the "
               "scalability gap (45 s/experiment on the\npaper's FPGA) that "
               "motivates pattern-based injection.\n";
  return 0;
}
