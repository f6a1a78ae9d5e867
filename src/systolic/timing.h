// Analytical cycle-count formulas for the two dataflows.
//
// These closed forms are the contract the schedulers are tested against and
// the basis of the FI-cost model benchmarked in bench_fi_cost (the paper's
// 45 s GEMM vs 130 s convolution observation, Sec. IV).
#pragma once

#include <cstdint>

#include "systolic/config.h"

namespace saffire {

// Datapath cycles to stream an M-row operand through a weight-stationary
// array: the last output C[M−1][N−1] leaves the south edge of the last
// column after cycle (M−1) + (rows−1) + (cols−1), so M + rows + cols − 2
// steps are required.
std::int64_t WeightStationaryStreamCycles(std::int64_t m,
                                          const ArrayConfig& config);

// Total cycles for one WS tile invocation including the weight-preload
// latency (rows idle cycles).
std::int64_t WeightStationaryTileCycles(std::int64_t m,
                                        const ArrayConfig& config);

// Idle cycles a WS COMPUTE is billed for shifting its preloaded weights
// in: all `rows` on single-bank hardware; with double-buffered weights only
// the part the previous COMPUTE's stream (`overlap_budget` cycles, 0 after
// CONFIG) could not hide.
std::int64_t WeightStationaryPreloadCycles(const ArrayConfig& config,
                                           bool double_buffered,
                                           std::int64_t overlap_budget);

// Datapath cycles for an output-stationary reduction of depth K: the last
// product reaches PE(rows−1, cols−1) on cycle (K−1) + (rows−1) + (cols−1).
std::int64_t OutputStationaryStreamCycles(std::int64_t k,
                                          const ArrayConfig& config);

// Total cycles for one OS tile invocation including the drain latency
// (rows idle cycles).
std::int64_t OutputStationaryTileCycles(std::int64_t k,
                                        const ArrayConfig& config);

}  // namespace saffire
