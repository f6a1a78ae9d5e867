#include "fi/workload.h"

#include <sstream>

#include "tensor/im2col.h"
#include "tensor/shift_gemm.h"

namespace saffire {

std::string ToString(OpType op) {
  return op == OpType::kGemm ? "GEMM" : "Conv";
}

OpType OpTypeFromString(const std::string& name) {
  if (name == "GEMM" || name == "gemm") return OpType::kGemm;
  if (name == "Conv" || name == "conv") return OpType::kConv;
  SAFFIRE_CHECK_MSG(false, "unknown op type '" << name << "'");
}

std::string ToString(OperandFill fill) {
  switch (fill) {
    case OperandFill::kOnes:
      return "ones";
    case OperandFill::kRandom:
      return "random";
    case OperandFill::kNearZero:
      return "near-zero";
  }
  return "unknown";
}

OperandFill OperandFillFromString(const std::string& name) {
  if (name == "ones") return OperandFill::kOnes;
  if (name == "random") return OperandFill::kRandom;
  if (name == "near-zero" || name == "nearzero") return OperandFill::kNearZero;
  SAFFIRE_CHECK_MSG(false, "unknown operand fill '" << name << "'");
}

void WorkloadSpec::Validate() const {
  if (op == OpType::kGemm) {
    SAFFIRE_CHECK_MSG(m > 0 && k > 0 && n > 0,
                      "GEMM dims " << m << "x" << k << "x" << n);
  } else {
    conv.Validate();
  }
}

std::string WorkloadSpec::Key() const {
  std::ostringstream key;
  key << static_cast<int>(op) << ',' << m << ',' << k << ',' << n << ';'
      << conv.batch << ',' << conv.in_channels << ',' << conv.height << ','
      << conv.width << ',' << conv.out_channels << ',' << conv.kernel_h
      << ',' << conv.kernel_w << ',' << conv.stride << ',' << conv.pad << ';'
      << static_cast<int>(lowering) << ',' << static_cast<int>(input_fill)
      << ',' << static_cast<int>(weight_fill) << ',' << data_seed;
  return key.str();
}

std::string WorkloadSpec::ToString() const {
  std::ostringstream os;
  if (!name.empty()) os << name << ": ";
  if (op == OpType::kGemm) {
    os << "GEMM " << m << "x" << k << "x" << n;
  } else {
    os << conv.ToString() << " via " << saffire::ToString(lowering);
  }
  os << ", input=" << saffire::ToString(input_fill)
     << ", weights=" << saffire::ToString(weight_fill);
  return os.str();
}

std::int64_t WorkloadSpec::GemmM() const {
  if (op == OpType::kGemm) return m;
  return lowering == ConvLowering::kShiftGemm ? ShiftGemmRows(conv)
                                              : conv.gemm_rows();
}

std::int64_t WorkloadSpec::GemmK() const {
  if (op == OpType::kGemm) return k;
  return lowering == ConvLowering::kShiftGemm ? ShiftGemmInner(conv)
                                              : conv.gemm_inner();
}

std::int64_t WorkloadSpec::GemmN() const {
  if (op == OpType::kGemm) return n;
  return lowering == ConvLowering::kShiftGemm ? ShiftGemmCols(conv)
                                              : conv.gemm_cols();
}

Int8Tensor MakeOperand(std::vector<std::int64_t> shape, OperandFill fill,
                       Rng& rng) {
  Int8Tensor t(std::move(shape));
  switch (fill) {
    case OperandFill::kOnes:
      for (std::int64_t i = 0; i < t.size(); ++i) t.flat(i) = 1;
      break;
    case OperandFill::kRandom:
      for (std::int64_t i = 0; i < t.size(); ++i) {
        t.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
      }
      break;
    case OperandFill::kNearZero:
      for (std::int64_t i = 0; i < t.size(); ++i) {
        t.flat(i) = rng.Bernoulli(0.1)
                        ? static_cast<std::int8_t>(rng.Bernoulli(0.5) ? 1 : -1)
                        : std::int8_t{0};
      }
      break;
  }
  return t;
}

MaterializedWorkload Materialize(const WorkloadSpec& spec) {
  spec.Validate();
  Rng rng(spec.data_seed);
  if (spec.op == OpType::kGemm) {
    auto a = MakeOperand({spec.m, spec.k}, spec.input_fill, rng);
    auto b = MakeOperand({spec.k, spec.n}, spec.weight_fill, rng);
    return MaterializedWorkload{std::move(a), std::move(b)};
  }
  const ConvParams& p = spec.conv;
  const auto input = MakeOperand({p.batch, p.in_channels, p.height, p.width},
                                 spec.input_fill, rng);
  const auto kernel =
      MakeOperand({p.out_channels, p.in_channels, p.kernel_h, p.kernel_w},
                  spec.weight_fill, rng);
  if (spec.lowering == ConvLowering::kShiftGemm) {
    return MaterializedWorkload{ShiftGemmLowerInput(input, p),
                                ShiftGemmLowerKernel(kernel, p)};
  }
  return MaterializedWorkload{Im2Col(input, p), FlattenKernel(kernel, p)};
}

namespace {

ConvParams PaperConv(std::int64_t hw, std::int64_t out_channels) {
  ConvParams p;
  p.batch = 1;
  p.in_channels = 3;
  p.height = hw;
  p.width = hw;
  p.out_channels = out_channels;
  p.kernel_h = 3;
  p.kernel_w = 3;
  p.stride = 1;
  p.pad = 0;
  return p;
}

}  // namespace

WorkloadSpec Gemm16x16() {
  WorkloadSpec spec;
  spec.name = "gemm-16x16";
  spec.op = OpType::kGemm;
  spec.m = spec.k = spec.n = 16;
  return spec;
}

WorkloadSpec Gemm112x112() {
  WorkloadSpec spec;
  spec.name = "gemm-112x112";
  spec.op = OpType::kGemm;
  spec.m = spec.k = spec.n = 112;
  return spec;
}

WorkloadSpec Conv16Kernel3x3x3x3() {
  WorkloadSpec spec;
  spec.name = "conv-16x16-3x3x3x3";
  spec.op = OpType::kConv;
  spec.conv = PaperConv(16, 3);
  return spec;
}

WorkloadSpec Conv16Kernel3x3x3x8() {
  WorkloadSpec spec;
  spec.name = "conv-16x16-3x3x3x8";
  spec.op = OpType::kConv;
  spec.conv = PaperConv(16, 8);
  return spec;
}

WorkloadSpec Conv112Kernel3x3x3x8() {
  WorkloadSpec spec;
  spec.name = "conv-112x112-3x3x3x8";
  spec.op = OpType::kConv;
  spec.conv = PaperConv(112, 8);
  return spec;
}

}  // namespace saffire
