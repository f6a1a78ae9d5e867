#include "patterns/classify.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/shift_gemm.h"

namespace saffire {
namespace {

// Builds a corruption map directly from coordinates.
CorruptionMap MakeMap(std::int64_t rows, std::int64_t cols,
                      std::vector<MatrixCoord> coords) {
  CorruptionMap map;
  map.rows = rows;
  map.cols = cols;
  map.corrupted = std::move(coords);
  map.max_abs_delta = map.corrupted.empty() ? 0 : 256;
  map.min_abs_delta = map.max_abs_delta;
  return map;
}

ClassifyContext GemmContext(std::int64_t rows, std::int64_t cols,
                            std::int64_t tile_rows, std::int64_t tile_cols) {
  ClassifyContext context;
  context.op = OpType::kGemm;
  context.rows = rows;
  context.cols = cols;
  context.tile_rows = tile_rows;
  context.tile_cols = tile_cols;
  return context;
}

std::vector<MatrixCoord> FullColumn(std::int64_t rows, std::int64_t col) {
  std::vector<MatrixCoord> coords;
  for (std::int64_t r = 0; r < rows; ++r) coords.push_back({r, col});
  return coords;
}

TEST(ClassifyTest, EmptyIsMasked) {
  EXPECT_EQ(Classify(MakeMap(16, 16, {}), GemmContext(16, 16, 16, 16)),
            PatternClass::kMasked);
}

TEST(ClassifyTest, SingleElement) {
  EXPECT_EQ(
      Classify(MakeMap(16, 16, {{4, 9}}), GemmContext(16, 16, 16, 16)),
      PatternClass::kSingleElement);
}

TEST(ClassifyTest, SingleElementMultiTile) {
  // The Fig. 3d shape: the same (4, 9) offset in each 16×16 tile of a
  // 32×32 output.
  const auto map =
      MakeMap(32, 32, {{4, 9}, {4, 25}, {20, 9}, {20, 25}});
  EXPECT_EQ(Classify(map, GemmContext(32, 32, 16, 16)),
            PatternClass::kSingleElementMultiTile);
}

TEST(ClassifyTest, ElementsAtDifferentOffsetsAreOther) {
  const auto map = MakeMap(32, 32, {{4, 9}, {5, 25}});
  EXPECT_EQ(Classify(map, GemmContext(32, 32, 16, 16)),
            PatternClass::kOther);
}

TEST(ClassifyTest, TwoElementsSameTileAreOther) {
  const auto map = MakeMap(16, 16, {{4, 9}, {5, 9}});
  EXPECT_EQ(Classify(map, GemmContext(16, 16, 16, 16)),
            PatternClass::kOther);
}

TEST(ClassifyTest, SingleColumn) {
  EXPECT_EQ(Classify(MakeMap(16, 16, FullColumn(16, 9)),
                     GemmContext(16, 16, 16, 16)),
            PatternClass::kSingleColumn);
}

TEST(ClassifyTest, SingleColumnMultiTile) {
  // Fig. 3c: the same column offset fully corrupted in every column-tile.
  std::vector<MatrixCoord> coords;
  for (std::int64_t c : {9ll, 25ll}) {
    const auto col = FullColumn(32, c);
    coords.insert(coords.end(), col.begin(), col.end());
  }
  std::sort(coords.begin(), coords.end());
  EXPECT_EQ(Classify(MakeMap(32, 32, coords), GemmContext(32, 32, 16, 16)),
            PatternClass::kSingleColumnMultiTile);
}

TEST(ClassifyTest, ColumnSpanningVerticalTilesIsMultiTile) {
  // One full column of a 32-row output tiled 16×16: the corruption crosses
  // two tiles vertically.
  EXPECT_EQ(Classify(MakeMap(32, 16, FullColumn(32, 3)),
                     GemmContext(32, 16, 16, 16)),
            PatternClass::kSingleColumnMultiTile);
}

TEST(ClassifyTest, PartialColumnIsOther) {
  auto coords = FullColumn(16, 9);
  coords.pop_back();
  EXPECT_EQ(Classify(MakeMap(16, 16, coords), GemmContext(16, 16, 16, 16)),
            PatternClass::kOther);
}

TEST(ClassifyTest, ColumnsAtDifferentOffsetsAreOther) {
  std::vector<MatrixCoord> coords = FullColumn(32, 9);
  const auto second = FullColumn(32, 26);  // offset 10, not 9
  coords.insert(coords.end(), second.begin(), second.end());
  std::sort(coords.begin(), coords.end());
  EXPECT_EQ(Classify(MakeMap(32, 32, coords), GemmContext(32, 32, 16, 16)),
            PatternClass::kOther);
}

TEST(ClassifyTest, SingleRow) {
  std::vector<MatrixCoord> coords;
  for (std::int64_t c = 0; c < 16; ++c) coords.push_back({5, c});
  EXPECT_EQ(Classify(MakeMap(16, 16, coords), GemmContext(16, 16, 16, 16)),
            PatternClass::kSingleRow);
}

TEST(ClassifyTest, SingleRowMultiTile) {
  std::vector<MatrixCoord> coords;
  for (std::int64_t r : {5ll, 21ll}) {
    for (std::int64_t c = 0; c < 32; ++c) coords.push_back({r, c});
  }
  std::sort(coords.begin(), coords.end());
  EXPECT_EQ(Classify(MakeMap(32, 32, coords), GemmContext(32, 32, 16, 16)),
            PatternClass::kSingleRowMultiTile);
}

TEST(ClassifyTest, FullMatrixIsOther) {
  std::vector<MatrixCoord> coords;
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 4; ++c) coords.push_back({r, c});
  }
  // Both "all rows full" and "all columns full" hold, but at multiple
  // offsets → other.
  EXPECT_EQ(Classify(MakeMap(4, 4, coords), GemmContext(4, 4, 4, 4)),
            PatternClass::kOther);
}

// --- Convolution contexts --------------------------------------------------

ClassifyContext ConvContext(ConvLowering lowering) {
  ClassifyContext context;
  context.op = OpType::kConv;
  context.lowering = lowering;
  context.conv.in_channels = 3;
  context.conv.height = 16;
  context.conv.width = 16;
  context.conv.out_channels = 8;
  context.conv.kernel_h = 3;
  context.conv.kernel_w = 3;
  if (lowering == ConvLowering::kShiftGemm) {
    context.rows = 14 * 16;  // N·P·W
    context.cols = 24;       // S·K
  } else {
    context.rows = 14 * 14;  // NPQ
    context.cols = 8;        // K
  }
  context.tile_rows = 1024;
  context.tile_cols = 16;
  return context;
}

TEST(ClassifyTest, ConvSingleChannelShiftGemm) {
  const auto context = ConvContext(ConvLowering::kShiftGemm);
  // Columns 3, 4, 5 all belong to channel 1 (k·S + s, S = 3).
  std::vector<MatrixCoord> coords = FullColumn(context.rows, 4);
  EXPECT_EQ(Classify(MakeMap(context.rows, context.cols, coords), context),
            PatternClass::kSingleChannel);
}

TEST(ClassifyTest, ConvMultiChannelShiftGemm) {
  const auto context = ConvContext(ConvLowering::kShiftGemm);
  // Columns 2 and 18: channels 0 and 6 — the Fig. 3f mechanism.
  auto coords = FullColumn(context.rows, 2);
  const auto second = FullColumn(context.rows, 18);
  coords.insert(coords.end(), second.begin(), second.end());
  std::sort(coords.begin(), coords.end());
  EXPECT_EQ(Classify(MakeMap(context.rows, context.cols, coords), context),
            PatternClass::kMultiChannel);
}

TEST(ClassifyTest, ConvTwoColumnsSameChannelIsSingleChannel) {
  const auto context = ConvContext(ConvLowering::kShiftGemm);
  auto coords = FullColumn(context.rows, 3);
  const auto second = FullColumn(context.rows, 5);  // both channel 1
  coords.insert(coords.end(), second.begin(), second.end());
  std::sort(coords.begin(), coords.end());
  EXPECT_EQ(Classify(MakeMap(context.rows, context.cols, coords), context),
            PatternClass::kSingleChannel);
}

TEST(ClassifyTest, ConvSingleChannelIm2Col) {
  const auto context = ConvContext(ConvLowering::kIm2Col);
  EXPECT_EQ(Classify(MakeMap(context.rows, context.cols,
                             FullColumn(context.rows, 5)),
                     context),
            PatternClass::kSingleChannel);
}

TEST(ClassifyTest, ConvPartialColumnFallsThroughToGemmRules) {
  const auto context = ConvContext(ConvLowering::kIm2Col);
  // A single corrupted element in a conv output is not a channel pattern;
  // the generic rules classify it (OS-style conv faults land here).
  EXPECT_EQ(Classify(MakeMap(context.rows, context.cols, {{7, 3}}), context),
            PatternClass::kSingleElement);
}

TEST(ClassifyTest, ColumnToChannelMappings) {
  const auto shift = ConvContext(ConvLowering::kShiftGemm);
  EXPECT_EQ(ColumnToChannel(0, shift), 0);
  EXPECT_EQ(ColumnToChannel(5, shift), 1);
  EXPECT_EQ(ColumnToChannel(23, shift), 7);
  const auto im2col = ConvContext(ConvLowering::kIm2Col);
  EXPECT_EQ(ColumnToChannel(5, im2col), 5);
  EXPECT_THROW(ColumnToChannel(8, im2col), std::invalid_argument);
}

TEST(ClassifyTest, RejectsMismatchedMapAndContext) {
  EXPECT_THROW(
      Classify(MakeMap(8, 8, {}), GemmContext(16, 16, 16, 16)),
      std::invalid_argument);
  ClassifyContext uninitialized;
  EXPECT_THROW(Classify(MakeMap(8, 8, {}), uninitialized),
               std::invalid_argument);
}

TEST(ClassifyTest, RejectsOutOfRangeCoordinates) {
  // The classifier indexes per-column counters by coordinate, so a
  // coordinate outside the map must be refused, not counted.
  const auto context = GemmContext(16, 16, 8, 8);
  for (const MatrixCoord bad : {MatrixCoord{16, 0}, MatrixCoord{-1, 0},
                                MatrixCoord{0, 16}, MatrixCoord{0, -1},
                                MatrixCoord{3, 1000000}}) {
    SCOPED_TRACE(std::to_string(bad.row) + ", " + std::to_string(bad.col));
    EXPECT_THROW(Classify(MakeMap(16, 16, {bad}), context),
                 std::invalid_argument);
    EXPECT_THROW(Classify(MakeMap(16, 16, {{0, 0}, bad}), context),
                 std::invalid_argument);
  }
  const auto conv = ConvContext(ConvLowering::kShiftGemm);
  EXPECT_THROW(
      Classify(MakeMap(conv.rows, conv.cols, {{0, conv.cols}}), conv),
      std::invalid_argument);
}

TEST(ClassifyTest, RejectsUnsortedOrDuplicateCoordinates) {
  const auto context = GemmContext(16, 16, 16, 16);
  EXPECT_THROW(Classify(MakeMap(16, 16, {{2, 3}, {1, 3}}), context),
               std::invalid_argument);
  EXPECT_THROW(Classify(MakeMap(16, 16, {{2, 3}, {2, 1}}), context),
               std::invalid_argument);
  EXPECT_THROW(Classify(MakeMap(16, 16, {{2, 3}, {2, 3}}), context),
               std::invalid_argument);
}

// --- Oracle: the sort-based classifier the one-pass version replaced -------

// Sorted vector -> number of distinct values, in place.
template <typename T>
std::int64_t CountDistinct(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return static_cast<std::int64_t>(values.size());
}

struct Run {
  std::int64_t value = 0;
  std::int64_t hits = 0;
};

// Per-value run lengths of a sorted vector: (value, hits) pairs.
std::vector<Run> RunLengths(std::vector<std::int64_t>& values) {
  std::sort(values.begin(), values.end());
  std::vector<Run> runs;
  for (std::size_t i = 0; i < values.size();) {
    std::size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    runs.push_back(Run{values[i], static_cast<std::int64_t>(j - i)});
    i = j;
  }
  return runs;
}

PatternClass OracleClassifyGemm(const CorruptionMap& map,
                                const ClassifyContext& context) {
  std::vector<MatrixCoord> tiles;
  std::vector<MatrixCoord> offsets;
  std::vector<std::int64_t> cols;
  std::vector<std::int64_t> rows_hit;
  for (const MatrixCoord& coord : map.corrupted) {
    tiles.push_back(MatrixCoord{coord.row / context.tile_rows,
                                coord.col / context.tile_cols});
    offsets.push_back(MatrixCoord{coord.row % context.tile_rows,
                                  coord.col % context.tile_cols});
    cols.push_back(coord.col);
    rows_hit.push_back(coord.row);
  }
  const std::int64_t distinct_tiles = CountDistinct(tiles);
  const std::int64_t distinct_offsets = CountDistinct(offsets);
  if (distinct_offsets == 1 && map.count() == distinct_tiles) {
    return distinct_tiles == 1 ? PatternClass::kSingleElement
                               : PatternClass::kSingleElementMultiTile;
  }

  const std::vector<Run> col_runs = RunLengths(cols);
  bool all_columns_full = true;
  bool one_col_offset = true;
  std::int64_t col_offset = -1;
  for (const Run& run : col_runs) {
    if (run.hits != map.rows) {
      all_columns_full = false;
      break;
    }
    const std::int64_t offset = run.value % context.tile_cols;
    if (col_offset < 0) {
      col_offset = offset;
    } else if (offset != col_offset) {
      one_col_offset = false;
    }
  }
  if (all_columns_full &&
      map.count() == map.rows * static_cast<std::int64_t>(col_runs.size()) &&
      one_col_offset) {
    return distinct_tiles == 1 ? PatternClass::kSingleColumn
                               : PatternClass::kSingleColumnMultiTile;
  }

  const std::vector<Run> row_runs = RunLengths(rows_hit);
  bool all_rows_full = true;
  bool one_row_offset = true;
  std::int64_t row_offset = -1;
  for (const Run& run : row_runs) {
    if (run.hits != map.cols) {
      all_rows_full = false;
      break;
    }
    const std::int64_t offset = run.value % context.tile_rows;
    if (row_offset < 0) {
      row_offset = offset;
    } else if (offset != row_offset) {
      one_row_offset = false;
    }
  }
  if (all_rows_full &&
      map.count() == map.cols * static_cast<std::int64_t>(row_runs.size()) &&
      one_row_offset) {
    return distinct_tiles == 1 ? PatternClass::kSingleRow
                               : PatternClass::kSingleRowMultiTile;
  }
  return PatternClass::kOther;
}

PatternClass OracleClassify(const CorruptionMap& map,
                            const ClassifyContext& context) {
  if (map.empty()) return PatternClass::kMasked;
  if (context.op == OpType::kConv) {
    std::vector<std::int64_t> cols;
    for (const MatrixCoord& coord : map.corrupted) cols.push_back(coord.col);
    bool all_full = true;
    std::vector<std::int64_t> channels;
    for (const Run& run : RunLengths(cols)) {
      if (run.hits != map.rows) {
        all_full = false;
        break;
      }
      channels.push_back(ColumnToChannel(run.value, context));
    }
    if (all_full) {
      return CountDistinct(channels) == 1 ? PatternClass::kSingleChannel
                                          : PatternClass::kMultiChannel;
    }
  }
  return OracleClassifyGemm(map, context);
}

// A random context: GEMM, shift-GEMM conv or im2col conv, tiled or not.
ClassifyContext DrawContext(Rng& rng) {
  ClassifyContext context;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      context.op = OpType::kGemm;
      context.rows = rng.UniformInt(1, 40);
      context.cols = rng.UniformInt(1, 40);
      break;
    default: {
      context.op = OpType::kConv;
      context.lowering = rng.Bernoulli(0.5) ? ConvLowering::kShiftGemm
                                            : ConvLowering::kIm2Col;
      ConvParams& conv = context.conv;
      conv.in_channels = rng.UniformInt(1, 3);
      conv.kernel_h = rng.UniformInt(1, 3);
      conv.kernel_w = rng.UniformInt(1, 3);
      conv.height = rng.UniformInt(conv.kernel_h, 7);
      conv.width = rng.UniformInt(conv.kernel_w, 7);
      conv.out_channels = rng.UniformInt(1, 6);
      const bool shift = context.lowering == ConvLowering::kShiftGemm;
      context.rows = shift ? ShiftGemmRows(conv) : conv.gemm_rows();
      context.cols = shift ? ShiftGemmCols(conv) : conv.gemm_cols();
      break;
    }
  }
  if (rng.Bernoulli(0.5)) {
    context.tile_rows = context.rows + rng.UniformInt(0, 8);
    context.tile_cols = context.cols + rng.UniformInt(0, 8);
  } else {
    context.tile_rows = rng.UniformInt(1, std::max<std::int64_t>(
                                              1, context.rows - 1));
    context.tile_cols = rng.UniformInt(1, std::max<std::int64_t>(
                                              1, context.cols - 1));
  }
  return context;
}

// A random valid map (sorted row-major, unique, in range) of one of the
// shapes the taxonomy distinguishes, sometimes perturbed by one element.
CorruptionMap DrawMap(Rng& rng, const ClassifyContext& context) {
  const std::int64_t rows = context.rows;
  const std::int64_t cols = context.cols;
  std::set<MatrixCoord> coords;
  const auto full_column = [&](std::int64_t col) {
    for (std::int64_t r = 0; r < rows; ++r) coords.insert({r, col});
  };
  const auto full_row = [&](std::int64_t row) {
    for (std::int64_t c = 0; c < cols; ++c) coords.insert({row, c});
  };
  // Every column (row) at `offset` within its tile, each kept with p = 1/2
  // and the first always.
  const auto columns_at = [&](std::int64_t offset) {
    for (std::int64_t col = offset % context.tile_cols; col < cols;
         col += context.tile_cols) {
      if (coords.empty() || rng.Bernoulli(0.5)) full_column(col);
    }
  };
  const auto rows_at = [&](std::int64_t offset) {
    for (std::int64_t row = offset % context.tile_rows; row < rows;
         row += context.tile_rows) {
      if (coords.empty() || rng.Bernoulli(0.5)) full_row(row);
    }
  };
  const auto random_col = [&] { return rng.UniformInt(0, cols - 1); };
  const auto random_row = [&] { return rng.UniformInt(0, rows - 1); };
  switch (rng.UniformInt(0, 7)) {
    case 0:  // full columns at one offset
      columns_at(random_col());
      break;
    case 1:  // full columns at two offsets
      columns_at(random_col());
      columns_at(random_col());
      break;
    case 2:  // full rows at one or two offsets
      rows_at(random_row());
      if (rng.Bernoulli(0.3)) rows_at(random_row());
      break;
    case 3: {  // one element per tile, at one shared offset
      const std::int64_t r0 = random_row() % context.tile_rows;
      const std::int64_t c0 = random_col() % context.tile_cols;
      for (std::int64_t r = r0; r < rows; r += context.tile_rows) {
        for (std::int64_t c = c0; c < cols; c += context.tile_cols) {
          if (coords.empty() || rng.Bernoulli(0.6)) coords.insert({r, c});
        }
      }
      break;
    }
    case 4: {  // partial columns
      const std::int64_t count = rng.UniformInt(1, 3);
      for (std::int64_t i = 0; i < count; ++i) full_column(random_col());
      const std::int64_t drops = rng.UniformInt(1, rows);
      for (std::int64_t i = 0; i < drops && coords.size() > 1; ++i) {
        auto it = coords.begin();
        std::advance(it, rng.UniformInt(
                             0, static_cast<std::int64_t>(coords.size()) - 1));
        coords.erase(it);
      }
      break;
    }
    case 5: {  // arbitrary full columns (channel patterns under conv)
      const std::int64_t count = rng.UniformInt(1, std::min<std::int64_t>(4, cols));
      for (std::int64_t i = 0; i < count; ++i) full_column(random_col());
      break;
    }
    case 6: {  // sparse noise, possibly empty
      const double p = rng.UniformDouble() * 0.2;
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          if (rng.Bernoulli(p)) coords.insert({r, c});
        }
      }
      break;
    }
    default:  // the whole matrix
      for (std::int64_t r = 0; r < rows; ++r) full_row(r);
      break;
  }
  if (rng.Bernoulli(0.15)) coords.insert({random_row(), random_col()});
  return MakeMap(rows, cols, {coords.begin(), coords.end()});
}

TEST(ClassifyTest, OnePassMatchesSortBasedOracleOnRandomMaps) {
  constexpr std::uint64_t kSeed = 20231017;
  constexpr int kMaps = 12000;
  Rng rng(kSeed);
  std::vector<int> seen(kNumPatternClasses, 0);
  for (int i = 0; i < kMaps; ++i) {
    const ClassifyContext context = DrawContext(rng);
    const CorruptionMap map = DrawMap(rng, context);
    const PatternClass want = OracleClassify(map, context);
    ASSERT_EQ(ToString(Classify(map, context)), ToString(want))
        << "map " << i << " (seed " << kSeed << "): " << map.count()
        << " elements of " << map.rows << "x" << map.cols << ", tiles "
        << context.tile_rows << "x" << context.tile_cols << ", "
        << (context.op == OpType::kGemm ? "gemm"
            : context.lowering == ConvLowering::kShiftGemm ? "shift-gemm"
                                                           : "im2col");
    ++seen[static_cast<std::size_t>(want)];
  }
  // The draw reaches every class, so no branch goes unchecked.
  for (int c = 0; c < kNumPatternClasses; ++c) {
    EXPECT_GT(seen[static_cast<std::size_t>(c)], 0)
        << ToString(static_cast<PatternClass>(c));
  }
}

TEST(MakeClassifyContextTest, FollowsDriverPlan) {
  AccelConfig accel;
  accel.max_compute_rows = 1024;
  accel.spad_rows = 2048;
  accel.acc_rows = 1024;
  const auto ws_context = MakeClassifyContext(
      Gemm112x112(), accel, Dataflow::kWeightStationary);
  EXPECT_EQ(ws_context.rows, 112);
  EXPECT_EQ(ws_context.tile_rows, 1024);  // M streams in one chunk
  EXPECT_EQ(ws_context.tile_cols, 16);
  const auto os_context = MakeClassifyContext(
      Gemm112x112(), accel, Dataflow::kOutputStationary);
  EXPECT_EQ(os_context.tile_rows, 16);
  EXPECT_EQ(os_context.tile_cols, 16);
}

TEST(PatternClassTest, AllNamesDistinct) {
  std::set<std::string> names;
  for (int i = 0; i < kNumPatternClasses; ++i) {
    names.insert(ToString(static_cast<PatternClass>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumPatternClasses));
}

}  // namespace
}  // namespace saffire
