// saffire_perfbench: runs one benchmark workload and writes its result
// document (manifest, metrics, per-sweep samples, sink digests, check
// failures). perfbench/run.py builds this binary, runs it, checks the
// pinned digests and prints the result line.
//
//   saffire_perfbench --workload NAME --seed N --seconds S --trace 0|1
//       --out PATH [--trace-out PATH] [--specs DIR] [--smoke]
//       [--engine ENGINE]
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

perfbench::Options ParseArgs(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " expects a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_path = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--specs") {
      options.specs_dir = value;
    } else if (flag == "--engine") {
      options.engine_override = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.out_path.empty()) throw std::invalid_argument("--out is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = ParseArgs(argc, argv);
    perfbench::Report report;
    report.manifest = perfbench::BaseManifest(options);
    if (perfbench::IsOperatorWorkload(options.workload)) {
      perfbench::RunOperatorWorkload(options, report);
    } else if (perfbench::IsNetworkWorkload(options.workload)) {
      perfbench::RunNetworkWorkload(options, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    std::ofstream out(options.out_path);
    perfbench::WriteResult(report, out);
    if (!out) throw std::runtime_error("cannot write " + options.out_path);
  } catch (const std::exception& error) {
    std::cerr << "saffire_perfbench: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
