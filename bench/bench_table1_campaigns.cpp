// Table I reproduction: the full campaign matrix of the paper's
// evaluation. One row per (workload, dataflow) configuration with an
// exhaustive 256-site stuck-at campaign (Sec. III-B), reporting the
// dominant fault-pattern class, the masked-site count, the single-class
// property, and predictor agreement.
//
// Paper reference points:
//   RQ1 rows: GEMM 16×16 under OS vs WS (Fig. 3a/3b).
//   RQ2 rows: GEMM vs conv kernels 3×3×3×3 and 3×3×3×8 under WS.
//   RQ3 rows: 16×16 vs 112×112 operand sizes.
//
// The matrix runs as one CampaignPlan batch through the shared executor.
// The trailing engine-comparison section re-runs the 16×16 WS GEMM campaign
// under all three execution engines (reference / differential / predicted)
// and checks their results are bit-identical, recording the PE-step saving
// and the predicted engine's speedup over differential; those run as
// separate plans so each engine gets its own wall clock. Like every
// all-ones stuck-at campaign it folds its fault sites
// (patterns/symmetry.h), so each arm simulates 16 representatives of the
// 256 sites; a serial pass then simulates all 256 directly, reported
// as the ungated unfolded/differential entry, and must give the
// differential arm's records. Under --engine every matrix campaign gets
// that check on its own engine, so the record CSVs compared across engines
// stand for every site, not only the simulated ones.
//
// Flags (bench_util.h ParseBenchArgs):
//   --engine NAME             run the matrix under this engine (default
//                             differential) and skip the engine comparison
//   --records-csv PATH        stream every matrix record to a CSV — CI
//                             diffs this file across engines
//   --benchmark_out PATH      google-benchmark-compatible JSON timings
//   --benchmark_out_format F  only "json"
//   --benchmark_min_time T    repeat each measurement until T seconds have
//                             elapsed; any non-zero value also selects the
//                             smoke matrix (the 16×16 rows only) so CI runs
//                             stay fast
//   --trace-out PATH          Chrome trace_event JSON of the measured work
//   --metrics-out PATH        metrics exposition after the run ('-'=stdout);
//                             also adds phase_*_ms keys to --benchmark_out
//   --metrics-format F        prom (default) or json
// Enabling --trace-out/--metrics-out perturbs the measured times; the CI
// regression gate runs without them and a second run records the artifacts.
#include <chrono>
#include <iostream>
#include <memory>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace saffire;
  using namespace saffire::bench;

  BenchOptions options;
  try {
    options = ParseBenchArgs(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const CampaignEngine matrix_engine =
      options.engine.empty() ? CampaignEngine::kDifferential
                             : ParseCampaignEngine(options.engine);
  const bool smoke = options.min_time > 0;
  EnableBenchObservability(options);
  BenchJsonReport report;
  const auto seconds_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Whether any record of `result` differs from its site simulated directly
  // on the campaign's engine, bypassing site folding.
  const auto folded_records_diverge = [](const CampaignResult& result) {
    const PreparedCampaign prepared = PrepareCampaign(result.config);
    if (prepared.faults.size() != result.records.size()) return true;
    FiRunner runner(result.config.accel);
    for (std::size_t i = 0; i < prepared.faults.size(); ++i) {
      if (!(RunPreparedExperimentWithEngine(prepared, runner, i,
                                            result.config.engine) ==
            result.records[i])) {
        return true;
      }
    }
    return false;
  };

  struct Row {
    const char* rq;
    WorkloadSpec workload;
    Dataflow dataflow;
  };
  std::vector<Row> rows = {
      {"RQ1", Gemm16x16(), Dataflow::kWeightStationary},
      {"RQ1", Gemm16x16(), Dataflow::kOutputStationary},
      {"RQ2", Conv16Kernel3x3x3x3(), Dataflow::kWeightStationary},
      {"RQ2", Conv16Kernel3x3x3x8(), Dataflow::kWeightStationary},
  };
  if (!smoke) {
    rows.push_back({"RQ3", Gemm112x112(), Dataflow::kWeightStationary});
    rows.push_back({"RQ3", Gemm112x112(), Dataflow::kOutputStationary});
    rows.push_back({"RQ3", Conv112Kernel3x3x3x8(),
                    Dataflow::kWeightStationary});
  }

  std::cout << "=== Table I campaign matrix: exhaustive 256-site stuck-at "
               "campaigns (SA1, adder_out bit 8, "
            << ToString(matrix_engine) << " engine"
            << (smoke ? ", smoke" : "") << ") ===\n\n";
  const std::vector<std::size_t> widths = {4, 22, 3, 26, 7, 13, 10, 10};
  PrintRow({"RQ", "workload", "DF", "dominant class", "masked",
            "single-class", "cls-agree", "exact"},
           widths);
  PrintRule(widths);

  std::vector<SweepSpec> specs;
  for (const Row& row : rows) {
    SweepSpec spec;
    spec.accel = PaperAccel();
    spec.workloads = {row.workload};
    spec.dataflows = {row.dataflow};
    spec.engine = matrix_engine;
    specs.push_back(std::move(spec));
  }
  const ExecutorStats before = CampaignExecutor::Shared().stats();

  // First iteration streams the record CSV; timing repetitions (to reach
  // --benchmark_min_time) rerun the sweep without re-writing it.
  std::ofstream csv_out;
  std::unique_ptr<CsvRecordSink> csv_sink;
  std::vector<RecordSink*> extra_sinks;
  if (!options.records_csv.empty()) {
    csv_out.open(options.records_csv);
    if (!csv_out) {
      std::cerr << "cannot open '" << options.records_csv << "'\n";
      return 1;
    }
    csv_sink = std::make_unique<CsvRecordSink>(csv_out);
    extra_sinks.push_back(csv_sink.get());
  }
  const auto matrix_start = std::chrono::steady_clock::now();
  const std::vector<CampaignResult> results = RunSweep(specs, extra_sinks);
  std::int64_t matrix_iterations = 1;
  while (seconds_since(matrix_start) < options.min_time) {
    RunSweep(specs);
    ++matrix_iterations;
  }
  // Phase keys cover every iteration of the matrix sweep (cumulative span
  // time), alongside the per-iteration real_time mean.
  report.Add("table1_matrix/" + ToString(matrix_engine),
             seconds_since(matrix_start), matrix_iterations,
             PhaseBreakdownMs());

  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    const CampaignResult& result = results[r];
    PrintRow({row.rq, row.workload.name, ToString(row.dataflow),
              ToString(result.DominantClass()),
              std::to_string(result.MaskedCount()),
              result.SingleClassProperty() ? "holds" : "violated",
              Percent(result.ClassAgreement()),
              Percent(result.ExactAgreement())},
             widths);
  }

  if (!smoke) {
    std::cout
        << "\nPaper expectations: WS GEMM -> single-column (Fig. 3a), OS "
           "GEMM -> single-element\n(Fig. 3b); 112x112 adds the multi-tile "
           "variants (Fig. 3c/3d); conv 3x3x3x3 ->\nsingle-channel (Fig. "
           "3e), conv 3x3x3x8 -> multi-channel (Fig. 3f/3g).\n"
           "Deviation note: under the shift-GEMM conv mapping the 3x3x3x8 "
           "kernel yields\nmulti-channel for fault columns reused across "
           "column-tiles (c < 8) and\nsingle-channel for the rest — the "
           "paper reports one class per configuration\nfrom representative "
           "sites; masked sites for 3x3x3x3 sit in array columns the\n"
           "9-column operand never reaches.\n";
  }
  std::cout << "\n" << ExecutorStatsLine(before) << "\n";
  if (!options.records_csv.empty()) {
    std::cout << "wrote record CSV to " << options.records_csv << "\n";
  }

  // Under an explicit --engine the bench is being used as one arm of a
  // cross-engine comparison driven from outside (CI runs it once per engine
  // and diffs the CSVs), so the built-in comparison is skipped.
  if (!options.engine.empty()) {
    for (const CampaignResult& result : results) {
      if (folded_records_diverge(result)) {
        std::cout << "\nERROR: folded records of " << result.config.ToString()
                  << " differ from direct runs of its sites\n";
        return 1;
      }
    }
    std::cout << "every folded record equals its site's direct run\n";
  } else {
    std::cout << "\n=== Execution-engine comparison: GEMM 16x16 WS, "
                 "exhaustive 256 sites ===\n\n";
    const std::vector<std::size_t> engine_widths = {14, 10, 14, 14, 9};
    PrintRow(
        {"engine", "wall [s]", "faulty PE-steps", "skipped", "identical"},
        engine_widths);
    PrintRule(engine_widths);

    CampaignResult baseline;
    CampaignResult differential;
    double differential_seconds = 0;
    double predicted_seconds = 0;
    for (const CampaignEngine engine :
         {CampaignEngine::kReference, CampaignEngine::kDifferential,
          CampaignEngine::kPredicted}) {
      CampaignConfig config;
      config.accel = PaperAccel();
      config.workload = Gemm16x16();
      config.dataflow = Dataflow::kWeightStationary;
      config.bit = 8;
      config.polarity = StuckPolarity::kStuckAt1;
      config.engine = engine;
      const auto start = std::chrono::steady_clock::now();
      CampaignResult result;
      std::int64_t iterations = 0;
      do {
        CollectorSink collector;
        saffire::RunSweep(SingleCampaignPlan(config), RunOptions{}, collector);
        result = collector.TakeResults().front();
        ++iterations;
      } while (seconds_since(start) < options.min_time);
      const double seconds =
          seconds_since(start) / static_cast<double>(iterations);
      report.Add("engine_comparison/" + ToString(engine),
                 seconds_since(start), iterations);
      if (engine == CampaignEngine::kDifferential) {
        differential_seconds = seconds;
        differential = result;
      }
      if (engine == CampaignEngine::kPredicted) predicted_seconds = seconds;

      bool identical = true;
      if (engine == CampaignEngine::kReference) {
        baseline = result;
      } else {
        identical = result.Histogram() == baseline.Histogram() &&
                    result.ClassAgreement() == baseline.ClassAgreement() &&
                    result.ContainmentRate() == baseline.ContainmentRate();
        for (std::size_t i = 0; i < result.records.size(); ++i) {
          identical = identical &&
                      result.records[i].observed ==
                          baseline.records[i].observed &&
                      result.records[i].corrupted_count ==
                          baseline.records[i].corrupted_count &&
                      result.records[i].cycles == baseline.records[i].cycles;
        }
      }
      PrintRow({ToString(engine), FormatDouble(seconds, 2),
                std::to_string(result.FaultyPeSteps()),
                std::to_string(result.FaultyPeStepsSkipped()),
                identical ? "yes" : "NO"},
               engine_widths);
      if (!identical) {
        std::cout << "\nERROR: " << ToString(engine)
                  << " engine diverged from the reference results\n";
        return 1;
      }
    }
    if (predicted_seconds > 0) {
      std::cout << "\npredicted speedup over differential: "
                << FormatDouble(differential_seconds / predicted_seconds, 2)
                << "x\n";
    }

    const auto unfolded_start = std::chrono::steady_clock::now();
    const bool diverged = folded_records_diverge(differential);
    report.Add("unfolded/differential", seconds_since(unfolded_start), 1);
    std::cout << "all 256 sites simulated directly (serial): "
              << FormatDouble(1000 * seconds_since(unfolded_start), 1)
              << " ms, "
              << (diverged ? "DIVERGED from" : "identical to")
              << " the folded differential records\n";
    if (diverged) return 1;
  }

  if (!ExportBenchObservability(options)) return 1;
  return report.Write(options, "bench_table1_campaigns") ? 0 : 1;
}
