#include "patterns/symmetry.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "fi/runner.h"

namespace saffire {
namespace {

AccelConfig TestConfig() {
  AccelConfig config;
  config.max_compute_rows = 1024;
  config.spad_rows = 2048;
  config.acc_rows = 1024;
  config.dram_bytes = 8 << 20;
  return config;
}

std::int64_t TotalMembers(const std::vector<SiteEquivalenceClass>& classes) {
  std::int64_t total = 0;
  for (const auto& equivalence : classes) {
    total += static_cast<std::int64_t>(equivalence.members.size());
  }
  return total;
}

TEST(SymmetryTest, WsCollapsesColumns) {
  // Under WS every PE in an array column produces the same reach: 256
  // sites → 16 classes of 16 members (one per column).
  const auto classes = PartitionFaultSites(Gemm16x16(), TestConfig(),
                                           Dataflow::kWeightStationary);
  ASSERT_EQ(classes.size(), 16u);
  EXPECT_EQ(TotalMembers(classes), 256);
  for (const auto& equivalence : classes) {
    EXPECT_EQ(equivalence.members.size(), 16u);
    // All members share the representative's column.
    for (const PeCoord member : equivalence.members) {
      EXPECT_EQ(member.col, equivalence.representative.col);
    }
    EXPECT_EQ(equivalence.prediction.pattern, PatternClass::kSingleColumn);
  }
  EXPECT_DOUBLE_EQ(SymmetryReductionFactor(Gemm16x16(), TestConfig(),
                                           Dataflow::kWeightStationary),
                   (256.0 - 16.0) / 256.0);
}

TEST(SymmetryTest, IsCollapsesColumnsIntoRows) {
  const auto classes = PartitionFaultSites(Gemm16x16(), TestConfig(),
                                           Dataflow::kInputStationary);
  EXPECT_EQ(classes.size(), 16u);
  EXPECT_EQ(TotalMembers(classes), 256);
}

TEST(SymmetryTest, OsKeepsEverySiteDistinct) {
  // Each OS site owns a different output element: no reduction.
  const auto classes = PartitionFaultSites(Gemm16x16(), TestConfig(),
                                           Dataflow::kOutputStationary);
  EXPECT_EQ(classes.size(), 256u);
  EXPECT_DOUBLE_EQ(SymmetryReductionFactor(Gemm16x16(), TestConfig(),
                                           Dataflow::kOutputStationary),
                   0.0);
}

TEST(SymmetryTest, MaskedSitesFormOneClass) {
  // Conv 3×3×3×3 under WS uses 9 of 16 array columns; the 7 unused columns
  // (7 × 16 sites) share the empty reach.
  const auto classes = PartitionFaultSites(
      Conv16Kernel3x3x3x3(), TestConfig(), Dataflow::kWeightStationary);
  ASSERT_EQ(classes.size(), 10u);  // 9 used columns + 1 masked class
  std::int64_t masked_members = 0;
  for (const auto& equivalence : classes) {
    if (equivalence.prediction.pattern == PatternClass::kMasked) {
      masked_members += static_cast<std::int64_t>(equivalence.members.size());
    }
  }
  EXPECT_EQ(masked_members, 7 * 16);
}

TEST(SymmetryTest, RepresentativesValidatedBySimulation) {
  // The point of the reduction: simulating one representative per class
  // reproduces the exhaustive campaign. Validate a few members of each WS
  // class against their representative's simulated corruption.
  const AccelConfig config = TestConfig();
  const WorkloadSpec workload = Gemm16x16();
  FiRunner runner(config);
  const auto golden =
      runner.RunGolden(workload, Dataflow::kWeightStationary);
  const auto classes =
      PartitionFaultSites(workload, config, Dataflow::kWeightStationary);
  for (std::size_t i = 0; i < classes.size(); i += 4) {
    const auto& equivalence = classes[i];
    const FaultSpec representative_fault = StuckAtAdder(
        equivalence.representative, 8, StuckPolarity::kStuckAt1);
    const auto representative_run = runner.RunFaulty(
        workload, Dataflow::kWeightStationary, {&representative_fault, 1});
    const auto representative_map =
        ExtractCorruption(golden.output, representative_run.output);
    // Last member (farthest from the representative).
    const FaultSpec member_fault = StuckAtAdder(
        equivalence.members.back(), 8, StuckPolarity::kStuckAt1);
    const auto member_run = runner.RunFaulty(
        workload, Dataflow::kWeightStationary, {&member_fault, 1});
    const auto member_map =
        ExtractCorruption(golden.output, member_run.output);
    EXPECT_EQ(member_map.corrupted, representative_map.corrupted);
  }
}

TEST(SymmetryTest, TiledOsStillDistinct) {
  const auto classes = PartitionFaultSites(Gemm112x112(), TestConfig(),
                                           Dataflow::kOutputStationary);
  EXPECT_EQ(classes.size(), 256u);
}

TEST(SymmetryTest, ClassesPartitionAllSites) {
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    const auto classes =
        PartitionFaultSites(Gemm112x112(), TestConfig(), dataflow);
    EXPECT_EQ(TotalMembers(classes), 256) << ToString(dataflow);
    std::set<std::pair<int, int>> seen;
    for (const auto& equivalence : classes) {
      for (const PeCoord member : equivalence.members) {
        EXPECT_TRUE(seen.insert({member.row, member.col}).second);
      }
    }
  }
}

TEST(SymmetryTest, ReductionFactorAcrossDataflows) {
  EXPECT_DOUBLE_EQ(SymmetryReductionFactor(Gemm16x16(), TestConfig(),
                                           Dataflow::kInputStationary),
                   (256.0 - 16.0) / 256.0);
  EXPECT_GE(SymmetryReductionFactor(Conv16Kernel3x3x3x3(), TestConfig(),
                                    Dataflow::kWeightStationary),
            (256.0 - 16.0) / 256.0);
}

// --- the record-identity overload (campaign dedup) ---------------------

// The classes of a representative-index partition: each representative's
// index mapped to its members' indices, in site order.
std::map<std::size_t, std::vector<std::size_t>> Classes(
    const std::vector<std::size_t>& rep_of) {
  std::map<std::size_t, std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < rep_of.size(); ++i) {
    classes[rep_of[i]].push_back(i);
  }
  return classes;
}

TEST(SitePartitionTest, GroupsSameRowSitesAcrossDataflows) {
  // The dedup key is (row, tiles the PE's streams cross): members always
  // share their representative's row, and on the uniform GEMM each row
  // collapses to one class — for every dataflow, OS included (the raw
  // reaches differ per column, but they are congruent) — except that under
  // OS PE(0,0) is a class of its own: its accumulator adds no idle cycle
  // before its operands arrive.
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    const bool os = dataflow == Dataflow::kOutputStationary;
    const auto sites = AllPeCoords(TestConfig().array);
    const auto rep_of =
        PartitionFaultSites(sites, Gemm16x16(), TestConfig(), dataflow);
    ASSERT_EQ(rep_of.size(), 256u) << ToString(dataflow);
    const auto classes = Classes(rep_of);
    ASSERT_EQ(classes.size(), os ? 17u : 16u) << ToString(dataflow);
    for (const auto& [rep, members] : classes) {
      std::size_t want = 16;
      if (os && sites[rep].row == 0) want = sites[rep].col == 0 ? 1 : 15;
      EXPECT_EQ(members.size(), want) << ToString(dataflow);
      for (const std::size_t member : members) {
        EXPECT_EQ(sites[member].row, sites[rep].row) << ToString(dataflow);
      }
    }
  }
}

TEST(SitePartitionTest, OutputStationaryPesOutsideTheOutputSplitByColumn) {
  // GEMM 1x4x1 under OS: only PE(0,0) owns an output. A PE in a lower row
  // reaches nothing, yet the weight stream of column 0 still crosses
  // PE(r,0) and no stream crosses the columns right of it, so each row
  // splits into column 0 and the rest (and in row 0, PE(0,0) is alone
  // anyway).
  WorkloadSpec gemm = Gemm16x16();
  gemm.m = 1;
  gemm.k = 4;
  gemm.n = 1;
  const auto sites = AllPeCoords(TestConfig().array);
  const auto rep_of = PartitionFaultSites(sites, gemm, TestConfig(),
                                          Dataflow::kOutputStationary);
  const auto classes = Classes(rep_of);
  ASSERT_EQ(classes.size(), 32u);
  for (const auto& [rep, members] : classes) {
    EXPECT_EQ(members.size(), sites[rep].col == 0 ? 1u : 15u);
    for (const std::size_t member : members) {
      EXPECT_EQ(sites[member].row, sites[rep].row);
      EXPECT_EQ(sites[member].col == 0, sites[rep].col == 0);
    }
  }
}

TEST(SitePartitionTest, NonSquareArrayGroupsByRow) {
  AccelConfig config = TestConfig();
  config.array.rows = 4;
  config.array.cols = 8;
  const auto sites = AllPeCoords(config.array);
  const auto rep_of = PartitionFaultSites(sites, Gemm16x16(), config,
                                          Dataflow::kWeightStationary);
  EXPECT_EQ(rep_of.size(), 32u);
  const auto classes = Classes(rep_of);
  std::set<std::int32_t> rows;
  for (const auto& [rep, members] : classes) {
    rows.insert(sites[rep].row);
    for (const std::size_t member : members) {
      EXPECT_EQ(sites[member].row, sites[rep].row);
    }
  }
  // Every array row contributes at least one class; classes never span rows.
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_GE(classes.size(), 4u);
}

TEST(SitePartitionTest, SingleColumnArrayHasNoReduction) {
  // W=1: one site per row, so every class is a singleton — symmetry
  // degenerates gracefully instead of merging rows.
  AccelConfig config = TestConfig();
  config.array.rows = 8;
  config.array.cols = 1;
  const auto sites = AllPeCoords(config.array);
  const auto rep_of = PartitionFaultSites(sites, Gemm16x16(), config,
                                          Dataflow::kWeightStationary);
  ASSERT_EQ(Classes(rep_of).size(), 8u);
  for (std::size_t i = 0; i < rep_of.size(); ++i) {
    EXPECT_EQ(rep_of[i], i);
  }
}

TEST(SitePartitionTest, RepresentativeIsFirstInSiteOrder) {
  // A sampled campaign hands the partition its sites in campaign order;
  // each class's representative must be the earliest member in that order
  // (the campaign maps members onto already-finished experiments).
  const std::vector<PeCoord> sites = {
      {3, 5}, {7, 1}, {3, 2}, {0, 0}, {7, 9}, {3, 5}};
  const auto rep_of = PartitionFaultSites(sites, Gemm16x16(), TestConfig(),
                                          Dataflow::kWeightStationary);
  const auto classes = Classes(rep_of);
  ASSERT_GE(classes.size(), 3u);
  EXPECT_EQ(rep_of[0], 0u);
  EXPECT_EQ(rep_of[1], 1u);
  for (std::size_t i = 0; i < rep_of.size(); ++i) EXPECT_LE(rep_of[i], i);
  // Members keep list order; the duplicate site lands in its class twice
  // (the partition mirrors the experiment list, index for index).
  EXPECT_EQ(rep_of.size(), 6u);
  EXPECT_EQ(classes.at(0).front(), 0u);
  EXPECT_EQ(classes.at(0).back(), 5u);
}

}  // namespace
}  // namespace saffire
