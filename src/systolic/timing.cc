#include "systolic/timing.h"

#include <algorithm>

namespace saffire {

std::int64_t WeightStationaryStreamCycles(std::int64_t m,
                                          const ArrayConfig& config) {
  SAFFIRE_CHECK_MSG(m > 0, "m=" << m);
  config.Validate();
  return m + config.rows + config.cols - 2;
}

std::int64_t WeightStationaryTileCycles(std::int64_t m,
                                        const ArrayConfig& config) {
  return WeightStationaryStreamCycles(m, config) + config.rows;
}

std::int64_t WeightStationaryPreloadCycles(const ArrayConfig& config,
                                           bool double_buffered,
                                           std::int64_t overlap_budget) {
  if (!double_buffered) return config.rows;
  return std::max<std::int64_t>(0, config.rows - overlap_budget);
}

std::int64_t OutputStationaryStreamCycles(std::int64_t k,
                                          const ArrayConfig& config) {
  SAFFIRE_CHECK_MSG(k > 0, "k=" << k);
  config.Validate();
  return k + config.rows + config.cols - 2;
}

std::int64_t OutputStationaryTileCycles(std::int64_t k,
                                        const ArrayConfig& config) {
  return OutputStationaryStreamCycles(k, config) + config.rows;
}

}  // namespace saffire
