// Workload specifications for fault-injection campaigns: the operations of
// Table I plus the operand-fill policies used to address the paper's
// Challenge 2 (near-zero weights masking fault patterns, Sec. III-A).
#pragma once

#include <cstdint>
#include <string>

#include "accel/driver.h"
#include "common/rng.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace saffire {

enum class OpType : std::uint8_t { kGemm = 0, kConv = 1 };

std::string ToString(OpType op);

// Parses "GEMM"/"Conv" (or lowercase); throws std::invalid_argument on
// unknown names.
OpType OpTypeFromString(const std::string& name);

// Operand contents.
//   kOnes:     the paper's pattern-extraction workload — uniform all-ones
//              matrices so no fault is masked by zero products.
//   kRandom:   uniform INT8 values (a realistic quantized layer).
//   kNearZero: 90% zeros, the rest ±1 — the adversarial case of Challenge 2.
enum class OperandFill : std::uint8_t {
  kOnes = 0,
  kRandom = 1,
  kNearZero = 2,
};

std::string ToString(OperandFill fill);

// Parses "ones"/"random"/"near-zero" (plus the CLI shorthand "nearzero");
// throws std::invalid_argument on unknown names.
OperandFill OperandFillFromString(const std::string& name);

struct WorkloadSpec {
  std::string name;
  OpType op = OpType::kGemm;

  // GEMM dimensions (op == kGemm): C[m×n] = A[m×k]·B[k×n].
  std::int64_t m = 16;
  std::int64_t k = 16;
  std::int64_t n = 16;

  // Convolution parameters and lowering (op == kConv).
  ConvParams conv;
  ConvLowering lowering = ConvLowering::kShiftGemm;

  OperandFill input_fill = OperandFill::kOnes;
  OperandFill weight_fill = OperandFill::kOnes;
  std::uint64_t data_seed = 2023;

  void Validate() const;
  std::string ToString() const;
  // Every field that feeds the operands, in the fixed text the persisted
  // identities embed (CampaignKey, GoldenRunCache keys). `name` is left out:
  // it does not affect the data. ToString is a display string and omits
  // data_seed, among others.
  std::string Key() const;

  // Dimensions of the GEMM actually executed (after lowering for conv) —
  // the space in which fault patterns are extracted and classified.
  std::int64_t GemmM() const;
  std::int64_t GemmK() const;
  std::int64_t GemmN() const;
};

// The GEMM operands the accelerator streams for this workload (lowered, for
// convolutions). Deterministic in spec.data_seed.
struct MaterializedWorkload {
  Int8Tensor a;
  Int8Tensor b;
};
MaterializedWorkload Materialize(const WorkloadSpec& spec);

// Fills a tensor per policy; deterministic in rng state.
Int8Tensor MakeOperand(std::vector<std::int64_t> shape, OperandFill fill,
                       Rng& rng);

// --- Table I presets -------------------------------------------------------
// RQ1/RQ2/RQ3 operation configurations on the 16×16 INT8 array.
WorkloadSpec Gemm16x16();                 // GEMM, 16×16 (untiled)
WorkloadSpec Gemm112x112();               // GEMM, 112×112 (tiled, RQ3)
WorkloadSpec Conv16Kernel3x3x3x3();       // conv, 16×16 input, K=3 (untiled)
WorkloadSpec Conv16Kernel3x3x3x8();       // conv, 16×16 input, K=8 (tiled)
WorkloadSpec Conv112Kernel3x3x3x8();      // conv, 112×112 input, K=8 (RQ3)

}  // namespace saffire
