#include "dnn/quantize.h"

#include <algorithm>
#include <cmath>

#include "accel/scratchpad.h"
#include "common/check.h"
#include "tensor/gemm.h"

namespace saffire {

Int8Tensor QuantizeSymmetric(const FloatTensor& tensor, float& scale) {
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < tensor.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(tensor.flat(i)));
  }
  scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  Int8Tensor out(tensor.shape());
  for (std::int64_t i = 0; i < tensor.size(); ++i) {
    const float scaled = tensor.flat(i) / scale;
    const float rounded = std::nearbyint(scaled);
    out.flat(i) = static_cast<std::int8_t>(
        std::clamp(rounded, -128.0f, 127.0f));
  }
  return out;
}

std::int32_t ChooseRequantShift(std::int64_t max_magnitude) {
  SAFFIRE_CHECK_MSG(max_magnitude >= 0, "max_magnitude=" << max_magnitude);
  std::int32_t shift = 0;
  while (shift < 31 && (max_magnitude >> shift) > 127) ++shift;
  return shift;
}

QuantizedMlp::QuantizedMlp(const Mlp& mlp, const Dataset& calibration)
    : inputs_(mlp.inputs()), hidden_(mlp.hidden()), outputs_(mlp.outputs()) {
  SAFFIRE_CHECK_MSG(calibration.size() > 0, "empty calibration set");
  (void)QuantizeSymmetric(calibration.inputs, input_scale_);
  w1q_ = QuantizeSymmetric(mlp.w1(), w1_scale_);
  w2q_ = QuantizeSymmetric(mlp.w2(), w2_scale_);

  // Layer-1 bias in accumulator units (input_scale · w1_scale).
  b1q_ = Int32Tensor({1, hidden_});
  for (std::int64_t c = 0; c < hidden_; ++c) {
    b1q_(0, c) = static_cast<std::int32_t>(std::nearbyint(
        mlp.b1()(0, c) / (input_scale_ * w1_scale_)));
  }

  // Calibrate the inter-layer shift on the real INT32 accumulators.
  const Int8Tensor xq = QuantizeInputs(calibration.inputs);
  const Int32Tensor a1 = AddBias(GemmRef(xq, w1q_), b1q_);
  std::int64_t max_magnitude = 0;
  for (std::int64_t i = 0; i < a1.size(); ++i) {
    max_magnitude = std::max<std::int64_t>(max_magnitude,
                                           std::max(0, a1.flat(i)));
  }
  layer1_shift_ = ChooseRequantShift(max_magnitude);

  // Layer-2 bias in layer-2 accumulator units (hidden_scale · w2_scale),
  // hidden_scale = input_scale · w1_scale · 2^shift.
  const float hidden_scale = input_scale_ * w1_scale_ *
                             static_cast<float>(1 << layer1_shift_);
  b2q_ = Int32Tensor({1, outputs_});
  for (std::int64_t c = 0; c < outputs_; ++c) {
    b2q_(0, c) = static_cast<std::int32_t>(
        std::nearbyint(mlp.b2()(0, c) / (hidden_scale * w2_scale_)));
  }
}

Int8Tensor QuantizedMlp::QuantizeInputs(const FloatTensor& batch) const {
  SAFFIRE_CHECK_MSG(batch.rank() == 2 && batch.dim(1) == inputs_,
                    "batch " << batch.ShapeString());
  Int8Tensor out(batch.shape());
  for (std::int64_t i = 0; i < batch.size(); ++i) {
    const float rounded = std::nearbyint(batch.flat(i) / input_scale_);
    out.flat(i) =
        static_cast<std::int8_t>(std::clamp(rounded, -128.0f, 127.0f));
  }
  return out;
}

Int32Tensor QuantizedMlp::AddBias(const Int32Tensor& accum,
                                  const Int32Tensor& bias) const {
  SAFFIRE_CHECK(accum.rank() == 2 && bias.rank() == 2 &&
                bias.dim(1) == accum.dim(1));
  // Shapes are checked above; the bias row is added along raw rows, wrapping
  // mod 2^32 like the accumulator (a stuck high bit can sit near INT32_MAX).
  Int32Tensor out = accum;
  const std::int64_t cols = out.dim(1);
  const std::int32_t* b = bias.data().data();
  std::int32_t* row = out.data().data();
  for (std::int64_t r = 0; r < out.dim(0); ++r, row += cols) {
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = static_cast<std::int32_t>(static_cast<std::uint32_t>(row[c]) +
                                         static_cast<std::uint32_t>(b[c]));
    }
  }
  return out;
}

Int8Tensor QuantizedMlp::RequantizeHidden(const Int32Tensor& accum) const {
  // Locals, not members: the int8 stores below may alias any object, so a
  // member would be reloaded and re-checked per element.
  const std::int64_t size = accum.size();
  const std::int32_t shift = layer1_shift_;
  CheckRequantShift(shift);
  Int8Tensor out(accum.shape());
  const std::int32_t* in = accum.data().data();
  std::int8_t* hidden = out.data().data();
  for (std::int64_t i = 0; i < size; ++i) {
    // Identical arithmetic to the accelerator's MVOUT8 stage.
    hidden[i] = Requantize(in[i], Activation::kRelu, shift);
  }
  return out;
}

Int32Tensor QuantizedMlp::LogitsWith(const FloatTensor& batch,
                                     const LayerGemm& gemm) const {
  return LogitsWith(QuantizeInputs(batch), gemm);
}

Int32Tensor QuantizedMlp::LogitsWith(const Int8Tensor& quantized_batch,
                                     const LayerGemm& gemm) const {
  SAFFIRE_CHECK_MSG(
      quantized_batch.rank() == 2 && quantized_batch.dim(1) == inputs_,
      "batch " << quantized_batch.ShapeString());
  const Int8Tensor hq =
      RequantizeHidden(AddBias(gemm(0, quantized_batch, w1q_), b1q_));
  return AddBias(gemm(1, hq, w2q_), b2q_);
}

std::vector<int> QuantizedMlp::PredictWith(const FloatTensor& batch,
                                           const LayerGemm& gemm) const {
  return ArgmaxRows(LogitsWith(batch, gemm));
}

std::vector<int> QuantizedMlp::PredictCpu(const FloatTensor& batch) const {
  return PredictWith(batch, [](int, const Int8Tensor& a, const Int8Tensor& b) {
    return GemmRef(a, b);
  });
}

std::vector<int> QuantizedMlp::PredictAccel(const FloatTensor& batch,
                                            Driver& driver,
                                            Dataflow dataflow) const {
  ExecOptions options;
  options.dataflow = dataflow;
  return PredictWith(
      batch, [&](int, const Int8Tensor& a, const Int8Tensor& b) {
        return driver.Gemm(a, b, options);
      });
}

std::vector<int> QuantizedMlp::PredictAppFi(
    const FloatTensor& batch, const AccelConfig& accel, Dataflow dataflow,
    std::span<const FaultSpec> faults) const {
  AppFiSpec spec;
  spec.accel = accel;
  spec.dataflow = dataflow;
  const NetworkFi injector(spec);
  return PredictWith(
      batch, [&](int layer, const Int8Tensor& a, const Int8Tensor& b) {
        WorkloadSpec workload;
        workload.op = OpType::kGemm;
        workload.m = a.dim(0);
        workload.k = a.dim(1);
        workload.n = b.dim(1);
        (void)layer;
        Int32Tensor out = GemmRef(a, b);
        for (const FaultSpec& fault : faults) {
          out = injector.InjectForFault(out, workload, fault);
        }
        return out;
      });
}

namespace {

double AccuracyOf(const std::vector<int>& predictions,
                  const std::vector<int>& labels) {
  SAFFIRE_ASSERT(predictions.size() == labels.size());
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(predictions.size());
}

}  // namespace

double QuantizedMlp::AccuracyCpu(const Dataset& dataset) const {
  return AccuracyOf(PredictCpu(dataset.inputs), dataset.labels);
}

double QuantizedMlp::AccuracyAccel(const Dataset& dataset, Driver& driver,
                                   Dataflow dataflow) const {
  return AccuracyOf(PredictAccel(dataset.inputs, driver, dataflow),
                    dataset.labels);
}

double QuantizedMlp::AccuracyAppFi(const Dataset& dataset,
                                   const AccelConfig& accel, Dataflow dataflow,
                                   std::span<const FaultSpec> faults) const {
  return AccuracyOf(PredictAppFi(dataset.inputs, accel, dataflow, faults),
                    dataset.labels);
}

}  // namespace saffire
