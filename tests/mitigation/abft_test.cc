#include "mitigation/abft.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "fi/injector.h"
#include "tensor/gemm.h"

namespace saffire {
namespace {

AccelConfig TestConfig() {
  AccelConfig config;
  config.max_compute_rows = 256;
  config.spad_rows = 512;
  config.acc_rows = 256;
  config.dram_bytes = 8 << 20;
  return config;
}

Int8Tensor RandomInt8(Rng& rng, std::int64_t rows, std::int64_t cols) {
  Int8Tensor t({rows, cols});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-40, 40));
  }
  return t;
}

// Strictly positive operands guarantee positive outputs, so a stuck-at-1
// on a high clear bit corrupts every reached element (no value masking).
Int8Tensor RandomPositive(Rng& rng, std::int64_t rows, std::int64_t cols) {
  Int8Tensor t({rows, cols});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.flat(i) = static_cast<std::int8_t>(rng.UniformInt(1, 40));
  }
  return t;
}

TEST(VerifyAndCorrectTest, CleanResultVerifies) {
  Rng rng(1);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  auto c = GemmRef(a, b);
  const AbftReport report = VerifyAndCorrect(a, b, c);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kClean);
  EXPECT_TRUE(report.verified_after_correction);
  EXPECT_EQ(report.corrections, 0);
}

TEST(VerifyAndCorrectTest, SingleElementCorrected) {
  Rng rng(2);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  const auto golden = GemmRef(a, b);
  auto c = golden;
  c(3, 5) += 777;
  const AbftReport report = VerifyAndCorrect(a, b, c);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kSingleElement);
  EXPECT_EQ(report.corrections, 1);
  EXPECT_TRUE(report.verified_after_correction);
  EXPECT_EQ(c, golden);
}

TEST(VerifyAndCorrectTest, SingleColumnCorrected) {
  Rng rng(3);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  const auto golden = GemmRef(a, b);
  auto c = golden;
  for (std::int64_t r = 0; r < 8; ++r) {
    c(r, 5) += 256 + static_cast<std::int32_t>(r);  // non-uniform deltas
  }
  const AbftReport report = VerifyAndCorrect(a, b, c);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kSingleColumn);
  EXPECT_EQ(report.corrections, 8);
  EXPECT_TRUE(report.verified_after_correction);
  EXPECT_EQ(c, golden);
}

TEST(VerifyAndCorrectTest, SingleRowCorrected) {
  Rng rng(4);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  const auto golden = GemmRef(a, b);
  auto c = golden;
  for (std::int64_t j = 0; j < 8; ++j) {
    c(2, j) -= 100 + static_cast<std::int32_t>(j);
  }
  const AbftReport report = VerifyAndCorrect(a, b, c);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kSingleRow);
  EXPECT_TRUE(report.verified_after_correction);
  EXPECT_EQ(c, golden);
}

TEST(VerifyAndCorrectTest, MultiColumnDetectedNotCorrected) {
  Rng rng(5);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  const auto golden = GemmRef(a, b);
  auto c = golden;
  for (std::int64_t r = 0; r < 8; ++r) {
    c(r, 2) += 256;
    c(r, 6) += 512;
  }
  const AbftReport report = VerifyAndCorrect(a, b, c);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kComplex);
  EXPECT_FALSE(report.verified_after_correction);
  EXPECT_EQ(report.corrections, 0);
  EXPECT_EQ(report.flagged_cols.size(), 2u);
}

TEST(VerifyAndCorrectTest, CancellingDeltasEscapeRowChecksumButNotColumn) {
  // Classic ABFT limitation probe: +d and −d in the same row cancel in the
  // row checksum but both columns still flag.
  Rng rng(6);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  auto c = GemmRef(a, b);
  c(3, 1) += 500;
  c(3, 6) -= 500;
  const AbftReport report = VerifyAndCorrect(a, b, c);
  EXPECT_TRUE(report.flagged_rows.empty());
  EXPECT_EQ(report.flagged_cols.size(), 2u);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kComplex);
}

// Seeded property on non-square shapes (m, k and n pairwise distinct), so
// the residuals cannot mix up their row, column and inner indices: a clean
// product verifies, and a single-element, single-column or single-row
// perturbation is diagnosed as such, flags exactly the perturbed rows and
// columns, and is corrected back to GemmRef.
TEST(VerifyAndCorrectTest, CorrectsPerturbationsOnRandomNonSquareShapes) {
  Rng rng(15);
  const auto nonzero_delta = [&rng] {
    const auto magnitude = static_cast<std::int32_t>(rng.UniformInt(1, 5000));
    return rng.Bernoulli(0.5) ? magnitude : -magnitude;
  };
  for (int iteration = 0; iteration < 40; ++iteration) {
    std::int64_t m = 0;
    std::int64_t k = 0;
    std::int64_t n = 0;
    while (m == k || k == n || m == n) {
      m = rng.UniformInt(2, 40);
      k = rng.UniformInt(1, 40);
      n = rng.UniformInt(2, 40);
    }
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration << ": "
                                      << m << "x" << k << "x" << n);
    const auto a = RandomInt8(rng, m, k);
    const auto b = RandomInt8(rng, k, n);
    const auto golden = GemmRef(a, b);

    auto clean = golden;
    EXPECT_EQ(VerifyAndCorrect(a, b, clean).diagnosis, AbftDiagnosis::kClean);
    EXPECT_EQ(clean, golden);

    const std::int64_t row = rng.UniformInt(0, m - 1);
    const std::int64_t col = rng.UniformInt(0, n - 1);
    auto element = golden;
    element(row, col) += nonzero_delta();
    const AbftReport element_report = VerifyAndCorrect(a, b, element);
    EXPECT_EQ(element_report.diagnosis, AbftDiagnosis::kSingleElement);
    EXPECT_EQ(element_report.flagged_rows, std::vector<std::int64_t>{row});
    EXPECT_EQ(element_report.flagged_cols, std::vector<std::int64_t>{col});
    EXPECT_TRUE(element_report.corrected());
    EXPECT_EQ(element, golden);

    const std::vector<std::int64_t> rows =
        rng.SampleWithoutReplacement(m, rng.UniformInt(2, m));
    auto column = golden;
    for (const std::int64_t r : rows) column(r, col) += nonzero_delta();
    const AbftReport column_report = VerifyAndCorrect(a, b, column);
    EXPECT_EQ(column_report.diagnosis, AbftDiagnosis::kSingleColumn);
    EXPECT_EQ(column_report.flagged_rows, rows);
    EXPECT_EQ(column_report.flagged_cols, std::vector<std::int64_t>{col});
    EXPECT_TRUE(column_report.corrected());
    EXPECT_EQ(column, golden);

    const std::vector<std::int64_t> cols =
        rng.SampleWithoutReplacement(n, rng.UniformInt(2, n));
    auto row_hit = golden;
    for (const std::int64_t c : cols) row_hit(row, c) += nonzero_delta();
    const AbftReport row_report = VerifyAndCorrect(a, b, row_hit);
    EXPECT_EQ(row_report.diagnosis, AbftDiagnosis::kSingleRow);
    EXPECT_EQ(row_report.flagged_rows, std::vector<std::int64_t>{row});
    EXPECT_EQ(row_report.flagged_cols, cols);
    EXPECT_TRUE(row_report.corrected());
    EXPECT_EQ(row_hit, golden);
  }
}

void ExpectSameReport(const AbftReport& got, const AbftReport& want) {
  EXPECT_EQ(got.diagnosis, want.diagnosis);
  EXPECT_EQ(got.flagged_rows, want.flagged_rows);
  EXPECT_EQ(got.flagged_cols, want.flagged_cols);
  EXPECT_EQ(got.corrections, want.corrections);
  EXPECT_EQ(got.verified_after_correction, want.verified_after_correction);
}

// The checksum form, with one set of checksums reused across many outputs
// of the same operands, must behave exactly like the operand form: same
// report field by field, same corrected C. The checksums themselves are
// checked against the row and column sums of the golden product.
TEST(VerifyAndCorrectTest, ReusedChecksumsMatchTheOperandForm) {
  Rng rng(31);
  int diagnoses_seen[5] = {0, 0, 0, 0, 0};
  for (int iteration = 0; iteration < 40; ++iteration) {
    const std::int64_t m = rng.UniformInt(1, 30);
    const std::int64_t k = rng.UniformInt(1, 30);
    const std::int64_t n = rng.UniformInt(1, 30);
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration << ": "
                                      << m << "x" << k << "x" << n);
    const auto a = RandomInt8(rng, m, k);
    const auto b = RandomInt8(rng, k, n);
    const auto golden = GemmRef(a, b);
    const AbftChecksums checksums = ComputeAbftChecksums(a, b);
    ASSERT_EQ(checksums.row.size(), static_cast<std::size_t>(m));
    ASSERT_EQ(checksums.col.size(), static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < m; ++i) {
      std::int64_t sum = 0;
      for (std::int64_t j = 0; j < n; ++j) sum += golden(i, j);
      EXPECT_EQ(checksums.row[static_cast<std::size_t>(i)], sum);
    }
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t sum = 0;
      for (std::int64_t i = 0; i < m; ++i) sum += golden(i, j);
      EXPECT_EQ(checksums.col[static_cast<std::size_t>(j)], sum);
    }

    // Clean, one element, part of one column, part of one row, and
    // scattered elements (complex, or whatever their rows and columns
    // diagnose).
    for (int shape = 0; shape < 5; ++shape) {
      auto corrupted = golden;
      const std::int64_t row = rng.UniformInt(0, m - 1);
      const std::int64_t col = rng.UniformInt(0, n - 1);
      const auto hit = [&](std::int64_t r, std::int64_t c) {
        corrupted(r, c) += static_cast<std::int32_t>(
            rng.Bernoulli(0.5) ? rng.UniformInt(1, 9000)
                               : -rng.UniformInt(1, 9000));
      };
      if (shape == 1) hit(row, col);
      if (shape == 2) {
        for (const std::int64_t r :
             rng.SampleWithoutReplacement(m, rng.UniformInt(1, m))) {
          hit(r, col);
        }
      }
      if (shape == 3) {
        for (const std::int64_t c :
             rng.SampleWithoutReplacement(n, rng.UniformInt(1, n))) {
          hit(row, c);
        }
      }
      if (shape == 4) {
        for (int hits = 0; hits < 4; ++hits) {
          hit(rng.UniformInt(0, m - 1), rng.UniformInt(0, n - 1));
        }
      }
      auto by_operands = corrupted;
      auto by_checksums = corrupted;
      const AbftReport want = VerifyAndCorrect(a, b, by_operands);
      const AbftReport got = VerifyAndCorrect(checksums, by_checksums);
      ExpectSameReport(got, want);
      EXPECT_EQ(by_checksums, by_operands);
      ++diagnoses_seen[static_cast<int>(got.diagnosis)];
    }
  }
  for (int diagnosis = 0; diagnosis < 5; ++diagnosis) {
    EXPECT_GT(diagnoses_seen[diagnosis], 0)
        << ToString(static_cast<AbftDiagnosis>(diagnosis));
  }
}

TEST(VerifyAndCorrectTest, ChecksumFormRejectsShapeMismatch) {
  const AbftChecksums checksums =
      ComputeAbftChecksums(Int8Tensor({2, 3}), Int8Tensor({3, 4}));
  auto wide = Int32Tensor({2, 5});
  auto tall = Int32Tensor({3, 4});
  auto cube = Int32Tensor({2, 4, 1});
  EXPECT_THROW(VerifyAndCorrect(checksums, wide), std::invalid_argument);
  EXPECT_THROW(VerifyAndCorrect(checksums, tall), std::invalid_argument);
  EXPECT_THROW(VerifyAndCorrect(checksums, cube), std::invalid_argument);
  EXPECT_THROW(ComputeAbftChecksums(Int8Tensor({2, 3}), Int8Tensor({2, 3})),
               std::invalid_argument);
}

TEST(VerifyAndCorrectTest, RejectsShapeMismatch) {
  auto c = Int32Tensor({2, 2});
  EXPECT_THROW(
      VerifyAndCorrect(Int8Tensor({2, 3}), Int8Tensor({3, 3}), c),
      std::invalid_argument);
}

// --- End-to-end against real hardware faults -------------------------------

TEST(AbftGemmTest, CorrectsWsColumnFault) {
  Accelerator accel(TestConfig());
  Driver driver(accel);
  AbftGemm abft(driver);
  Rng rng(7);
  const auto a = RandomPositive(rng, 16, 16);
  const auto b = RandomPositive(rng, 16, 16);
  const auto golden = GemmRef(a, b);

  // High stuck bit so every element of the column is visibly corrupted.
  FaultInjector injector(
      {StuckAtAdder(PeCoord{4, 9}, 24, StuckPolarity::kStuckAt1)},
      accel.config().array);
  accel.array().InstallFaultHook(&injector);
  AbftReport report;
  const auto corrected = abft.Multiply(a, b, ExecOptions{}, &report);
  accel.array().ClearFaultHook();

  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kSingleColumn);
  EXPECT_TRUE(report.verified_after_correction);
  EXPECT_EQ(corrected, golden);
}

TEST(AbftGemmTest, CorrectsOsElementFault) {
  Accelerator accel(TestConfig());
  Driver driver(accel);
  AbftGemm abft(driver);
  Rng rng(8);
  const auto a = RandomPositive(rng, 16, 16);
  const auto b = RandomPositive(rng, 16, 16);
  const auto golden = GemmRef(a, b);

  FaultInjector injector(
      {StuckAtAdder(PeCoord{4, 9}, 24, StuckPolarity::kStuckAt1)},
      accel.config().array);
  accel.array().InstallFaultHook(&injector);
  ExecOptions options;
  options.dataflow = Dataflow::kOutputStationary;
  AbftReport report;
  const auto corrected = abft.Multiply(a, b, options, &report);
  accel.array().ClearFaultHook();

  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kSingleElement);
  EXPECT_EQ(corrected, golden);
}

TEST(AbftGemmTest, CorrectsIsRowFault) {
  Accelerator accel(TestConfig());
  Driver driver(accel);
  AbftGemm abft(driver);
  Rng rng(9);
  const auto a = RandomPositive(rng, 16, 16);
  const auto b = RandomPositive(rng, 16, 16);
  const auto golden = GemmRef(a, b);

  FaultInjector injector(
      {StuckAtAdder(PeCoord{4, 9}, 24, StuckPolarity::kStuckAt1)},
      accel.config().array);
  accel.array().InstallFaultHook(&injector);
  ExecOptions options;
  options.dataflow = Dataflow::kInputStationary;
  AbftReport report;
  const auto corrected = abft.Multiply(a, b, options, &report);
  accel.array().ClearFaultHook();

  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kSingleRow);
  EXPECT_EQ(corrected, golden);
}

TEST(AbftGemmTest, DetectsMultiTileFault) {
  Accelerator accel(TestConfig());
  Driver driver(accel);
  AbftGemm abft(driver);
  Rng rng(10);
  const auto a = RandomPositive(rng, 48, 48);
  const auto b = RandomPositive(rng, 48, 48);

  FaultInjector injector(
      {StuckAtAdder(PeCoord{4, 9}, 24, StuckPolarity::kStuckAt1)},
      accel.config().array);
  accel.array().InstallFaultHook(&injector);
  AbftReport report;
  (void)abft.Multiply(a, b, ExecOptions{}, &report);
  accel.array().ClearFaultHook();

  // Three corrupted columns (9, 25, 41) under WS: detected, uncorrectable.
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kComplex);
  EXPECT_EQ(report.flagged_cols.size(), 3u);
}

TEST(AbftGemmTest, CleanHardwarePassesThrough) {
  Accelerator accel(TestConfig());
  Driver driver(accel);
  AbftGemm abft(driver);
  Rng rng(11);
  const auto a = RandomInt8(rng, 20, 20);
  const auto b = RandomInt8(rng, 20, 20);
  AbftReport report;
  const auto c = abft.Multiply(a, b, ExecOptions{}, &report);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kClean);
  EXPECT_EQ(c, GemmRef(a, b));
}

TEST(AbftDiagnosisTest, RoundTripsEveryName) {
  EXPECT_EQ(ToString(AbftDiagnosis::kClean), "clean");
  EXPECT_EQ(ToString(AbftDiagnosis::kSingleColumn), "single-column");
  EXPECT_EQ(ToString(AbftDiagnosis::kComplex), "complex");
  for (const AbftDiagnosis diagnosis :
       {AbftDiagnosis::kClean, AbftDiagnosis::kSingleElement,
        AbftDiagnosis::kSingleColumn, AbftDiagnosis::kSingleRow,
        AbftDiagnosis::kComplex}) {
    EXPECT_EQ(ParseAbftDiagnosis(ToString(diagnosis)), diagnosis);
  }
}

TEST(AbftDiagnosisTest, ParseRejectsUnknownNamesNamingTheChoices) {
  try {
    ParseAbftDiagnosis("corrected");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("corrected"), std::string::npos) << message;
    EXPECT_NE(
        message.find("clean|single-element|single-column|single-row|complex"),
        std::string::npos)
        << message;
  }
}

// Multi-row-AND-column corruption — the underdetermined case: both checksum
// families flag, nothing is correctable, and the tensor is left untouched.
TEST(VerifyAndCorrectTest, ComplexPatternDetectedNotCorrected) {
  Rng rng(12);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  const auto golden = GemmRef(a, b);
  auto c = golden;
  for (std::int64_t j = 0; j < 8; ++j) c(1, j) += 300;  // full row
  for (std::int64_t r = 0; r < 8; ++r) c(r, 4) += 700;  // full column
  const auto tampered = c;
  const AbftReport report = VerifyAndCorrect(a, b, c);
  EXPECT_EQ(report.diagnosis, AbftDiagnosis::kComplex);
  EXPECT_TRUE(report.detected());
  EXPECT_FALSE(report.corrected());
  EXPECT_FALSE(report.verified_after_correction);
  EXPECT_EQ(report.corrections, 0);
  EXPECT_GT(report.flagged_rows.size(), 1u);
  EXPECT_GT(report.flagged_cols.size(), 1u);
  EXPECT_EQ(c, tampered);  // no partial repairs on an undiagnosable shape
}

// Re-verify semantics: a correction that lands must flip
// verified_after_correction back on, and the corrected()/detected()
// accessors summarize the report consistently across outcomes.
TEST(AbftReportTest, DetectedAndCorrectedAccessors) {
  Rng rng(13);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);

  auto clean = GemmRef(a, b);
  const AbftReport clean_report = VerifyAndCorrect(a, b, clean);
  EXPECT_FALSE(clean_report.detected());
  EXPECT_FALSE(clean_report.corrected());

  auto repairable = GemmRef(a, b);
  repairable(2, 6) -= 1234;
  const AbftReport repaired = VerifyAndCorrect(a, b, repairable);
  EXPECT_TRUE(repaired.detected());
  EXPECT_TRUE(repaired.corrected());
  EXPECT_TRUE(repaired.verified_after_correction);
}

TEST(AbftReportTest, ToJsonEmitsDiagnosisAndFlags) {
  Rng rng(14);
  const auto a = RandomInt8(rng, 8, 8);
  const auto b = RandomInt8(rng, 8, 8);
  auto c = GemmRef(a, b);
  for (std::int64_t r = 0; r < 8; ++r) c(r, 5) += 256;
  const AbftReport report = VerifyAndCorrect(a, b, c);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"diagnosis\":\"single-column\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"flagged_cols\":[5]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"corrections\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"verified_after_correction\":true"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace saffire
