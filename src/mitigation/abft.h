// Algorithm-based fault tolerance (ABFT) for accelerated GEMM — the
// "generic software resilience solutions ... that can be easily integrated
// with existing applications irrespective of the DNN accelerator" the
// paper calls for in its fault-mitigation discussion (Sec. V).
//
// Huang–Abraham style checksums: the O(M·N·K) product runs on the
// (possibly faulty) array; the host computes O(M·K + K·N + M·N) INT64
// checksums — r = B·1 and c = 1ᵀ·A, then A·r per row and c·B per column —
// and verifies every row/column sum of the array's result. The flagged
// row/column sets diagnose the corruption shape, directly mirroring the
// paper's pattern classes:
//
//   one row & one column flagged  → single-element (OS faults): corrected
//   one column, many rows         → single-column  (WS faults): corrected
//   one row, many columns         → single-row     (IS faults): corrected
//   several rows AND columns      → complex (multi-tile patterns):
//                                    detected, not correctable from one
//                                    checksum pair (underdetermined)
//
// Corrections subtract the per-row (or per-column) checksum residual from
// the unique flagged element of that row/column, then re-verify.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/driver.h"
#include "tensor/tensor.h"

namespace saffire {

enum class AbftDiagnosis : std::uint8_t {
  kClean = 0,          // all checksums verified
  kSingleElement = 1,  // corrected
  kSingleColumn = 2,   // corrected
  kSingleRow = 3,      // corrected
  kComplex = 4,        // detected; not correctable from these checksums
};

std::string ToString(AbftDiagnosis diagnosis);

// Parses exactly the ToString names; throws std::invalid_argument naming
// the accepted values ("clean|single-element|single-column|single-row|"
// "complex") otherwise.
AbftDiagnosis ParseAbftDiagnosis(const std::string& name);

struct AbftReport {
  AbftDiagnosis diagnosis = AbftDiagnosis::kClean;
  std::vector<std::int64_t> flagged_rows;
  std::vector<std::int64_t> flagged_cols;
  std::int64_t corrections = 0;  // elements repaired
  bool verified_after_correction = false;  // re-check passed (or was clean)

  // True when any checksum flagged (the fault was visible to ABFT).
  bool detected() const { return diagnosis != AbftDiagnosis::kClean; }
  // True when the corruption was repaired and the re-check passed.
  bool corrected() const {
    return detected() && verified_after_correction;
  }

  // One JSON object per report, consistent with the record sinks'
  // conventions (enum names via ToString, arrays for the flag sets) so
  // network-campaign records can embed mitigation outcomes verbatim.
  std::string ToJson() const;
};

class AbftGemm {
 public:
  explicit AbftGemm(Driver& driver) : driver_(driver) {}

  // C = A·B on the accelerator, verified and (where possible) corrected.
  // The returned tensor is the corrected result; `report` (optional)
  // receives the diagnosis.
  Int32Tensor Multiply(const Int8Tensor& a, const Int8Tensor& b,
                       const ExecOptions& options,
                       AbftReport* report = nullptr);

 private:
  Driver& driver_;
};

// The fault-free half of the check: every row's and every column's expected
// sum of C = A·B in INT64, ΣA(i, k)·(B·1)[k] per row i and
// Σ(1ᵀ·A)[k]·B(k, j) per column j. O(M·K + K·N) work that depends on the
// operands only, so a caller that verifies many outputs of the same A and B
// computes it once.
struct AbftChecksums {
  std::vector<std::int64_t> row;  // size M
  std::vector<std::int64_t> col;  // size N
};
AbftChecksums ComputeAbftChecksums(const Int8Tensor& a, const Int8Tensor& b);

// Verification core: flags every row i with Σ_j C[i][j] ≠ checksums.row[i]
// and every column j with Σ_i C[i][j] ≠ checksums.col[j]; diagnoses,
// corrects in place and re-verifies against the same checksums. Throws
// std::invalid_argument unless C is checksums.row.size() ×
// checksums.col.size().
AbftReport VerifyAndCorrect(const AbftChecksums& checksums, Int32Tensor& c);

// The operand form, for tests and externally produced results:
// VerifyAndCorrect(ComputeAbftChecksums(a, b), c) after checking that C is
// A's rows × B's columns.
AbftReport VerifyAndCorrect(const Int8Tensor& a, const Int8Tensor& b,
                            Int32Tensor& c);

}  // namespace saffire
