#include "mitigation/abft.h"

#include <sstream>

#include "common/check.h"
#include "common/json.h"

namespace saffire {

namespace {

constexpr const char* kDiagnosisNames[] = {"clean", "single-element",
                                           "single-column", "single-row",
                                           "complex"};

}  // namespace

std::string ToString(AbftDiagnosis diagnosis) {
  const auto index = static_cast<std::size_t>(diagnosis);
  SAFFIRE_ASSERT_MSG(index < std::size(kDiagnosisNames),
                     "diagnosis " << static_cast<int>(index));
  return kDiagnosisNames[index];
}

AbftDiagnosis ParseAbftDiagnosis(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kDiagnosisNames); ++i) {
    if (name == kDiagnosisNames[i]) return static_cast<AbftDiagnosis>(i);
  }
  SAFFIRE_CHECK_MSG(false, "unknown abft diagnosis '"
                               << name
                               << "' (expected clean|single-element|"
                                  "single-column|single-row|complex)");
}

std::string AbftReport::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("diagnosis").String(ToString(diagnosis));
  w.Key("flagged_rows").BeginArray();
  for (const std::int64_t row : flagged_rows) w.Int(row);
  w.EndArray();
  w.Key("flagged_cols").BeginArray();
  for (const std::int64_t col : flagged_cols) w.Int(col);
  w.EndArray();
  w.Key("corrections").Int(corrections)
      .Key("verified_after_correction").Bool(verified_after_correction)
      .EndObject();
  return os.str();
}

namespace {

struct Residuals {
  std::vector<std::int64_t> row;  // Σ_j C[i][j] − expected
  std::vector<std::int64_t> col;  // Σ_i C[i][j] − expected
};

// Shapes are checked by VerifyAndCorrect, the only caller. C is read once,
// row by row.
Residuals ComputeResiduals(const AbftChecksums& checksums,
                           const Int32Tensor& c) {
  const std::int64_t m = c.dim(0);
  const std::int64_t n = c.dim(1);
  const std::int32_t* c_row = c.data().data();
  Residuals residuals;
  residuals.row.assign(static_cast<std::size_t>(m), 0);
  residuals.col.assign(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < m; ++i, c_row += n) {
    std::int64_t actual = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      actual += c_row[j];
      residuals.col[static_cast<std::size_t>(j)] += c_row[j];
    }
    residuals.row[static_cast<std::size_t>(i)] =
        actual - checksums.row[static_cast<std::size_t>(i)];
  }
  for (std::int64_t j = 0; j < n; ++j) {
    residuals.col[static_cast<std::size_t>(j)] -=
        checksums.col[static_cast<std::size_t>(j)];
  }
  return residuals;
}

bool AllZero(const std::vector<std::int64_t>& values) {
  for (const std::int64_t value : values) {
    if (value != 0) return false;
  }
  return true;
}

std::vector<std::int64_t> NonZeroIndices(
    const std::vector<std::int64_t>& values) {
  std::vector<std::int64_t> indices;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0) indices.push_back(static_cast<std::int64_t>(i));
  }
  return indices;
}

}  // namespace

AbftChecksums ComputeAbftChecksums(const Int8Tensor& a,
                                   const Int8Tensor& b) {
  SAFFIRE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
                    "A " << a.ShapeString() << " B " << b.ShapeString());
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  const std::int8_t* a_data = a.data().data();
  const std::int8_t* b_data = b.data().data();

  // Host-side checksums in INT64: O(M·K + K·N) work versus the array's
  // O(M·K·N). Every loop walks rows.
  std::vector<std::int64_t> b_rowsum(static_cast<std::size_t>(k), 0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* b_row = b_data + kk * n;
    std::int64_t sum = 0;
    for (std::int64_t j = 0; j < n; ++j) sum += b_row[j];
    b_rowsum[static_cast<std::size_t>(kk)] = sum;
  }
  AbftChecksums checksums;
  checksums.row.assign(static_cast<std::size_t>(m), 0);
  std::vector<std::int64_t> a_colsum(static_cast<std::size_t>(k), 0);
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* a_row = a_data + i * k;
    std::int64_t expected = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      expected += static_cast<std::int64_t>(a_row[kk]) *
                  b_rowsum[static_cast<std::size_t>(kk)];
      a_colsum[static_cast<std::size_t>(kk)] += a_row[kk];
    }
    checksums.row[static_cast<std::size_t>(i)] = expected;
  }
  // Column j's expected sum is Σ_kk (1ᵀ·A)[kk] · B[kk][j].
  checksums.col.assign(static_cast<std::size_t>(n), 0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* b_row = b_data + kk * n;
    const std::int64_t a_sum = a_colsum[static_cast<std::size_t>(kk)];
    for (std::int64_t j = 0; j < n; ++j) {
      checksums.col[static_cast<std::size_t>(j)] +=
          a_sum * static_cast<std::int64_t>(b_row[j]);
    }
  }
  return checksums;
}

AbftReport VerifyAndCorrect(const Int8Tensor& a, const Int8Tensor& b,
                            Int32Tensor& c) {
  SAFFIRE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && c.rank() == 2 &&
                        a.dim(1) == b.dim(0) && c.dim(0) == a.dim(0) &&
                        c.dim(1) == b.dim(1),
                    "A " << a.ShapeString() << " B " << b.ShapeString()
                         << " C " << c.ShapeString());
  return VerifyAndCorrect(ComputeAbftChecksums(a, b), c);
}

AbftReport VerifyAndCorrect(const AbftChecksums& checksums, Int32Tensor& c) {
  SAFFIRE_CHECK_MSG(c.rank() == 2 &&
                        c.dim(0) == static_cast<std::int64_t>(
                                        checksums.row.size()) &&
                        c.dim(1) == static_cast<std::int64_t>(
                                        checksums.col.size()),
                    "C " << c.ShapeString() << " for checksums of "
                         << checksums.row.size() << " rows and "
                         << checksums.col.size() << " columns");
  const Residuals residuals = ComputeResiduals(checksums, c);

  AbftReport report;
  report.flagged_rows = NonZeroIndices(residuals.row);
  report.flagged_cols = NonZeroIndices(residuals.col);

  if (report.flagged_rows.empty() && report.flagged_cols.empty()) {
    report.diagnosis = AbftDiagnosis::kClean;
    report.verified_after_correction = true;
    return report;
  }

  const auto correct = [&](std::int64_t row, std::int64_t col,
                           std::int64_t residual) {
    c(row, col) = static_cast<std::int32_t>(
        static_cast<std::int64_t>(c(row, col)) - residual);
    ++report.corrections;
  };

  if (report.flagged_rows.size() == 1 && report.flagged_cols.size() == 1) {
    report.diagnosis = AbftDiagnosis::kSingleElement;
    const std::int64_t row = report.flagged_rows.front();
    correct(row, report.flagged_cols.front(),
            residuals.row[static_cast<std::size_t>(row)]);
  } else if (report.flagged_cols.size() == 1) {
    // One bad element per flagged row, all in the same column — the
    // weight-stationary fault pattern.
    report.diagnosis = AbftDiagnosis::kSingleColumn;
    const std::int64_t col = report.flagged_cols.front();
    for (const std::int64_t row : report.flagged_rows) {
      correct(row, col, residuals.row[static_cast<std::size_t>(row)]);
    }
  } else if (report.flagged_rows.size() == 1) {
    // The input-stationary fault pattern: one bad element per column.
    report.diagnosis = AbftDiagnosis::kSingleRow;
    const std::int64_t row = report.flagged_rows.front();
    for (const std::int64_t col : report.flagged_cols) {
      correct(row, col, residuals.col[static_cast<std::size_t>(col)]);
    }
  } else {
    // Multiple rows and columns (multi-tile patterns): per-element deltas
    // are underdetermined by one checksum pair.
    report.diagnosis = AbftDiagnosis::kComplex;
    report.verified_after_correction = false;
    return report;
  }

  const Residuals recheck = ComputeResiduals(checksums, c);
  report.verified_after_correction =
      AllZero(recheck.row) && AllZero(recheck.col);
  return report;
}

Int32Tensor AbftGemm::Multiply(const Int8Tensor& a, const Int8Tensor& b,
                               const ExecOptions& options,
                               AbftReport* report) {
  Int32Tensor c = driver_.Gemm(a, b, options);
  AbftReport local = VerifyAndCorrect(a, b, c);
  if (report != nullptr) *report = local;
  return c;
}

}  // namespace saffire
