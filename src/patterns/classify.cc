#include "patterns/classify.h"

#include <vector>

#include "common/check.h"
#include "tensor/shift_gemm.h"

namespace saffire {

namespace {

constexpr const char* kPatternClassNames[] = {
    "masked",
    "single-element",
    "single-element-multi-tile",
    "single-row",
    "single-row-multi-tile",
    "single-column",
    "single-column-multi-tile",
    "single-channel",
    "multi-channel",
    "other"};
static_assert(std::size(kPatternClassNames) == kNumPatternClasses);

}  // namespace

std::string ToString(PatternClass pattern) {
  const auto index = static_cast<std::size_t>(pattern);
  SAFFIRE_ASSERT_MSG(index < std::size(kPatternClassNames),
                     "pattern class " << static_cast<int>(index));
  return kPatternClassNames[index];
}

PatternClass ParsePatternClass(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kPatternClassNames); ++i) {
    if (name == kPatternClassNames[i]) return static_cast<PatternClass>(i);
  }
  SAFFIRE_CHECK_MSG(false,
                    "unknown pattern class '"
                        << name
                        << "' (expected masked|single-element|"
                           "single-element-multi-tile|single-row|"
                           "single-row-multi-tile|single-column|"
                           "single-column-multi-tile|single-channel|"
                           "multi-channel|other)");
}

ClassifyContext MakeClassifyContext(const WorkloadSpec& workload,
                                    const AccelConfig& accel,
                                    Dataflow dataflow) {
  workload.Validate();
  const TileGrid grid = Driver::PlanTiles(
      workload.GemmM(), workload.GemmN(), workload.GemmK(), accel, dataflow);
  ClassifyContext context;
  context.op = workload.op;
  context.rows = workload.GemmM();
  context.cols = workload.GemmN();
  context.tile_rows = grid.tile_m();
  context.tile_cols = grid.tile_n();
  context.conv = workload.conv;
  context.lowering = workload.lowering;
  return context;
}

std::int64_t ColumnToChannel(std::int64_t col,
                             const ClassifyContext& context) {
  SAFFIRE_CHECK_MSG(context.op == OpType::kConv, "not a convolution context");
  if (context.lowering == ConvLowering::kShiftGemm) {
    return ShiftGemmColToChannel(col, context.conv);
  }
  SAFFIRE_CHECK_MSG(col >= 0 && col < context.conv.out_channels,
                    "col=" << col);
  return col;  // im2col: one column per output channel
}

PatternClass Classify(const CorruptionMap& map,
                      const ClassifyContext& context) {
  SAFFIRE_CHECK_MSG(context.rows > 0 && context.cols > 0 &&
                        context.tile_rows > 0 && context.tile_cols > 0,
                    "uninitialized ClassifyContext");
  SAFFIRE_CHECK_MSG(map.rows == context.rows && map.cols == context.cols,
                    "map " << map.rows << "x" << map.cols << " vs context "
                           << context.rows << "x" << context.cols);
  if (map.empty()) return PatternClass::kMasked;

  // One pass over the map, which is sorted row-major with unique
  // coordinates (checked here: the counters below are indexed by column,
  // and the row runs are only runs if the order holds). Rows arrive as
  // contiguous runs, so row fullness and row offsets are read per run;
  // columns arrive interleaved, so they are counted per column and read
  // after the pass.
  const std::int64_t tile_rows = context.tile_rows;
  const std::int64_t tile_cols = context.tile_cols;
  std::vector<std::int64_t> col_hits(static_cast<std::size_t>(map.cols), 0);
  const MatrixCoord first = map.corrupted.front();
  const std::int64_t first_row_offset = first.row % tile_rows;
  const std::int64_t first_row_tile = first.row / tile_rows;
  bool all_rows_full = true;
  bool one_row_offset = true;
  bool one_row_tile = true;
  MatrixCoord previous{first.row, -1};
  std::int64_t run_length = 0;
  for (const MatrixCoord& coord : map.corrupted) {
    SAFFIRE_CHECK_MSG(coord.row >= 0 && coord.row < map.rows &&
                          coord.col >= 0 && coord.col < map.cols,
                      "corrupted element (" << coord.row << ", " << coord.col
                                            << ") outside " << map.rows << "x"
                                            << map.cols);
    SAFFIRE_CHECK_MSG(previous < coord,
                      "corrupted elements not sorted row-major and unique at ("
                          << coord.row << ", " << coord.col << ")");
    if (coord.row != previous.row) {
      all_rows_full = all_rows_full && run_length == map.cols;
      one_row_offset =
          one_row_offset && coord.row % tile_rows == first_row_offset;
      one_row_tile = one_row_tile && coord.row / tile_rows == first_row_tile;
      run_length = 0;
    }
    ++run_length;
    ++col_hits[static_cast<std::size_t>(coord.col)];
    previous = coord;
  }
  all_rows_full = all_rows_full && run_length == map.cols;

  // The corrupted columns in increasing order. A convolution's channels are
  // mapped only while every column so far is full: they matter only then.
  const bool conv = context.op == OpType::kConv;
  const std::int64_t first_col_offset = first.col % tile_cols;
  const std::int64_t first_col_tile = first.col / tile_cols;
  bool all_cols_full = true;
  bool one_col_offset = true;
  bool one_col_tile = true;
  bool one_channel = true;
  std::int64_t channel = -1;
  for (std::int64_t col = 0; col < map.cols; ++col) {
    const std::int64_t hits = col_hits[static_cast<std::size_t>(col)];
    if (hits == 0) continue;
    all_cols_full = all_cols_full && hits == map.rows;
    one_col_offset = one_col_offset && col % tile_cols == first_col_offset;
    one_col_tile = one_col_tile && col / tile_cols == first_col_tile;
    if (conv && all_cols_full) {
      const std::int64_t col_channel = ColumnToChannel(col, context);
      one_channel = one_channel && (channel < 0 || col_channel == channel);
      channel = col_channel;
    }
  }

  // Convolutions first: every corrupted column fully corrupted means whole
  // output channels are affected (a partially corrupted column cannot be a
  // channel pattern and falls through to the generic rules).
  if (conv && all_cols_full) {
    return one_channel ? PatternClass::kSingleChannel
                       : PatternClass::kMultiChannel;
  }

  // Every element in the tile of the first: row tile and column tile alike.
  const bool single_tile = one_row_tile && one_col_tile;

  // Single element, possibly replicated once per tile at the same offset.
  // With unique coordinates, one shared offset puts each element in its own
  // tile, so the tile count is the element count.
  if (one_row_offset && one_col_offset) {
    return single_tile ? PatternClass::kSingleElement
                       : PatternClass::kSingleElementMultiTile;
  }

  // Fully corrupted columns sharing one within-tile column offset.
  if (all_cols_full && one_col_offset) {
    return single_tile ? PatternClass::kSingleColumn
                       : PatternClass::kSingleColumnMultiTile;
  }

  // Fully corrupted rows sharing one within-tile row offset.
  if (all_rows_full && one_row_offset) {
    return single_tile ? PatternClass::kSingleRow
                       : PatternClass::kSingleRowMultiTile;
  }

  return PatternClass::kOther;
}

}  // namespace saffire
