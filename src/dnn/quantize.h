// Post-training symmetric INT8 quantization and the three inference paths
// of the accuracy-degradation study:
//   1. CPU reference (bit-identical arithmetic to the accelerator),
//   2. the simulated accelerator (optionally with hardware faults on the
//      array — RTL-style FI), and
//   3. application-level FI: clean GEMMs perturbed with predicted fault
//      patterns (the TensorFI/LLTFI-style fast path).
//
// Scheme: per-tensor symmetric scales (zero-point 0, as in Gemmini's INT8
// flow). Activations are requantized between layers with a power-of-two
// rounding right-shift — the only rescaling the modeled MVOUT8 hardware
// supports — chosen from calibration data.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "accel/driver.h"
#include "appfi/appfi.h"
#include "dnn/mlp.h"
#include "dnn/synthetic.h"
#include "fi/fault.h"

namespace saffire {

// Per-layer GEMM executor — the seam through which a network's inference is
// bound to an execution rung (CPU reference, simulated accelerator, or
// application-level FI on either): returns the INT32 GEMM-view product a·b
// of layer `layer` (0-based in network order). Host epilogue stages (bias,
// activation, requantization, pooling) stay with the network; only the
// accelerated operator is swappable.
using LayerGemm = std::function<Int32Tensor(
    int layer, const Int8Tensor& a, const Int8Tensor& b)>;

// Quantizes to INT8 with the symmetric per-tensor scale max|x|/127.
// Returns the quantized tensor; `scale` receives the dequantization factor
// (x ≈ scale · x_q).
Int8Tensor QuantizeSymmetric(const FloatTensor& tensor, float& scale);

// Smallest right-shift that brings `max_magnitude` under the INT8 ceiling.
std::int32_t ChooseRequantShift(std::int64_t max_magnitude);

class QuantizedMlp {
 public:
  // Quantizes a trained float MLP; `calibration` fixes the inter-layer
  // requantization shift.
  QuantizedMlp(const Mlp& mlp, const Dataset& calibration);

  // Quantizes an input batch with the input scale fixed at construction.
  Int8Tensor QuantizeInputs(const FloatTensor& batch) const;

  // Inference parameterized over the per-layer GEMM executor (layer 0 =
  // input·w1, layer 1 = hidden·w2); every Predict* path below is this with
  // a specific rung bound. LogitsWith returns the INT32 output logits; the
  // Int8Tensor overload takes a batch already quantized by QuantizeInputs.
  Int32Tensor LogitsWith(const FloatTensor& batch,
                         const LayerGemm& gemm) const;
  Int32Tensor LogitsWith(const Int8Tensor& quantized_batch,
                         const LayerGemm& gemm) const;
  std::vector<int> PredictWith(const FloatTensor& batch,
                               const LayerGemm& gemm) const;

  // CPU reference inference (INT8 GEMM + bias + ReLU + shift, INT32
  // logits); returns per-sample predicted classes.
  std::vector<int> PredictCpu(const FloatTensor& batch) const;

  // Inference with both dense layers executed on the simulated accelerator.
  // Any fault hook already installed on `driver`'s array stays active for
  // every tile of both layers (RTL-style FI).
  std::vector<int> PredictAccel(const FloatTensor& batch, Driver& driver,
                                Dataflow dataflow) const;

  // Application-level FI: clean CPU GEMMs, then the predicted pattern of
  // each fault perturbed into the corresponding layer outputs (set/clear
  // bit per polarity). No simulation.
  std::vector<int> PredictAppFi(const FloatTensor& batch,
                                const AccelConfig& accel, Dataflow dataflow,
                                std::span<const FaultSpec> faults) const;

  double AccuracyCpu(const Dataset& dataset) const;
  double AccuracyAccel(const Dataset& dataset, Driver& driver,
                       Dataflow dataflow) const;
  double AccuracyAppFi(const Dataset& dataset, const AccelConfig& accel,
                       Dataflow dataflow,
                       std::span<const FaultSpec> faults) const;

  const Int8Tensor& w1q() const { return w1q_; }
  const Int8Tensor& w2q() const { return w2q_; }
  std::int32_t layer1_shift() const { return layer1_shift_; }

 private:
  // Bias add (broadcast row) and the inter-layer ReLU/shift/saturate stage.
  Int32Tensor AddBias(const Int32Tensor& accum, const Int32Tensor& bias) const;
  Int8Tensor RequantizeHidden(const Int32Tensor& accum) const;

  std::int64_t inputs_;
  std::int64_t hidden_;
  std::int64_t outputs_;
  float input_scale_ = 1.0f;
  float w1_scale_ = 1.0f;
  float w2_scale_ = 1.0f;
  Int8Tensor w1q_{{1, 1}};
  Int8Tensor w2q_{{1, 1}};
  Int32Tensor b1q_{{1, 1}};  // bias in layer-1 accumulator units
  Int32Tensor b2q_{{1, 1}};  // bias in layer-2 accumulator units
  std::int32_t layer1_shift_ = 0;
};

}  // namespace saffire
