// A small quantized CNN with per-layer observation taps, for studying how
// systolic-array fault patterns manifest at the intermediate layers of a
// DNN — the gap the paper's introduction calls out: "it is not clear how
// these faults manifest at the intermediate layers of the DNNs", which is
// "important because understanding fault manifestation at the intermediate
// layers ... provides insights into building more resilient DNN
// architectures" (Sec. I).
//
// Pipeline (INT8 operands, INT32 accumulation, matching the array):
//
//   input 1×C×H×W ─conv K×C×3×3─ relu/shift ─maxpool 2×2─ flatten ─dense─ logits
//
// The convolution and the dense layer run on the simulated accelerator
// (or on the bit-identical CPU reference); pooling and requantization are
// host stages. Weights are fixed pseudo-random INT8 — propagation analysis
// compares golden and faulty activations layer by layer, which does not
// require a trained network.
#pragma once

#include <cstdint>

#include "accel/driver.h"
#include "common/rng.h"
#include "dnn/quantize.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace saffire {

class SmallCnn {
 public:
  // `conv` fixes the convolution geometry (e.g. the paper's 16×16 input
  // with a 3×3×3×8 kernel); `classes` sizes the dense head. Weights are
  // deterministic in `seed`.
  SmallCnn(const ConvParams& conv, std::int64_t classes, std::uint64_t seed);

  const ConvParams& conv_params() const { return conv_; }
  std::int64_t classes() const { return classes_; }
  // Dense-head weights [K·(P/2)·(Q/2) × classes] — row k·(P/2)·(Q/2) + p·(Q/2)
  // + q consumes pooled position (p, q) of conv channel k (the flatten
  // order of ForwardLowered), which is what channel-salience analysis needs.
  const Int8Tensor& dense_weights() const { return dense_; }

  // Activations captured after every stage of one forward pass.
  struct LayerTaps {
    Int32Tensor conv_raw{{1, 1}};   // N×K×P×Q accumulators
    Int8Tensor conv_act{{1, 1}};    // after ReLU + rounding shift
    Int8Tensor pooled{{1, 1}};      // after 2×2 max-pooling
    Int32Tensor logits{{1, 1}};     // dense head accumulators [N × classes]
  };

  // Runs one image batch. With `driver` non-null the convolution and the
  // dense layer execute on the accelerator under `options` (any installed
  // fault hook applies); with nullptr the bit-identical CPU reference runs.
  LayerTaps Forward(const Int8Tensor& input, Driver* driver,
                    const ExecOptions& options) const;

  // Forward pass parameterized over the per-layer GEMM executor
  // (dnn/quantize.h), on an input batch already lowered by Im2Col: layer 0
  // is the convolution GEMM patches[NPQ×CRS]·W[CRS×K] (W flattened once at
  // construction; the product is folded back to N×K×P×Q on the host),
  // layer 1 the dense head. A caller that runs one batch many times lowers
  // it once. Bit-identical to Forward on the unlowered batch for every
  // executor that computes the exact product (convolution is exact integer
  // math, so the lowering choice cannot change values).
  LayerTaps ForwardLowered(const Int8Tensor& patches,
                           const LayerGemm& gemm) const;

  // Fraction of elements in `faulty` differing from `golden` (same shape).
  template <typename T>
  static double CorruptedFraction(const Tensor<T>& golden,
                                  const Tensor<T>& faulty) {
    SAFFIRE_CHECK_MSG(golden.shape() == faulty.shape(),
                      golden.ShapeString() << " vs " << faulty.ShapeString());
    std::int64_t corrupted = 0;
    for (std::int64_t i = 0; i < golden.size(); ++i) {
      if (golden.flat(i) != faulty.flat(i)) ++corrupted;
    }
    return static_cast<double>(corrupted) /
           static_cast<double>(golden.size());
  }

 private:
  // The host epilogue of both forward paths: ReLU + rounding shift, 2×2
  // max-pooling and the dense head, from the N×K×P×Q conv accumulators.
  void FinishForward(LayerTaps& taps, const LayerGemm& gemm) const;

  ConvParams conv_;
  std::int64_t classes_;
  std::int32_t conv_shift_;
  Int8Tensor kernel_{{1, 1, 1, 1}};   // K×C×R×S
  Int8Tensor weights_{{1, 1}};        // FlattenKernel(kernel_): [CRS × K]
  Int8Tensor dense_{{1, 1}};          // [K·(P/2)·(Q/2) × classes]
};

// 2×2 max-pooling with stride 2 over N×K×P×Q (odd trailing row/col
// dropped, standard floor semantics).
Int8Tensor MaxPool2x2(const Int8Tensor& input);

}  // namespace saffire
