#include "dnn/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/gemm.h"

namespace saffire {

Mlp::Mlp(std::int64_t inputs, std::int64_t hidden, std::int64_t outputs,
         std::uint64_t seed)
    : inputs_(inputs),
      hidden_(hidden),
      outputs_(outputs),
      w1_({std::max<std::int64_t>(inputs, 1),
           std::max<std::int64_t>(hidden, 1)}),
      b1_({1, std::max<std::int64_t>(hidden, 1)}),
      w2_({std::max<std::int64_t>(hidden, 1),
           std::max<std::int64_t>(outputs, 1)}),
      b2_({1, std::max<std::int64_t>(outputs, 1)}) {
  SAFFIRE_CHECK_MSG(inputs > 0 && hidden > 0 && outputs > 0,
                    inputs << "/" << hidden << "/" << outputs);
  Rng rng(seed);
  const double scale1 = std::sqrt(2.0 / static_cast<double>(inputs));
  for (std::int64_t i = 0; i < w1_.size(); ++i) {
    w1_.flat(i) = static_cast<float>(rng.Normal(0.0, scale1));
  }
  const double scale2 = std::sqrt(2.0 / static_cast<double>(hidden));
  for (std::int64_t i = 0; i < w2_.size(); ++i) {
    w2_.flat(i) = static_cast<float>(rng.Normal(0.0, scale2));
  }
}

namespace {

// Adds the [1 × cols] bias row to every row of `t` (then ReLU when `relu`).
void AddBiasRows(FloatTensor& t, const FloatTensor& bias, bool relu) {
  const std::int64_t cols = t.dim(1);
  SAFFIRE_ASSERT_MSG(bias.size() == cols, "bias " << bias.ShapeString());
  const float* b = bias.data().data();
  float* row = t.data().data();
  for (std::int64_t r = 0; r < t.dim(0); ++r, row += cols) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const float v = row[c] + b[c];
      row[c] = relu ? std::max(0.0f, v) : v;
    }
  }
}

}  // namespace

FloatTensor Mlp::Forward(const FloatTensor& batch) const {
  SAFFIRE_CHECK_MSG(batch.rank() == 2 && batch.dim(1) == inputs_,
                    "batch " << batch.ShapeString());
  FloatTensor z1 = GemmRef(batch, w1_);
  AddBiasRows(z1, b1_, /*relu=*/true);
  FloatTensor z2 = GemmRef(z1, w2_);
  AddBiasRows(z2, b2_, /*relu=*/false);
  return z2;
}

double Mlp::TrainEpoch(const Dataset& dataset, double learning_rate,
                       std::int64_t batch_size, Rng& rng) {
  SAFFIRE_CHECK_MSG(batch_size > 0, "batch_size=" << batch_size);
  SAFFIRE_CHECK_MSG(dataset.inputs.rank() == 2 &&
                        dataset.inputs.dim(1) == inputs_ &&
                        dataset.inputs.dim(0) >= dataset.size(),
                    "dataset inputs " << dataset.inputs.ShapeString()
                                      << " for " << dataset.size()
                                      << " labels");
  std::vector<std::int64_t> order(static_cast<std::size_t>(dataset.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }
  rng.Shuffle(order);

  double total_loss = 0.0;
  for (std::int64_t start = 0; start < dataset.size(); start += batch_size) {
    const std::int64_t size =
        std::min(batch_size, dataset.size() - start);

    FloatTensor x({size, inputs_});
    std::vector<int> labels(static_cast<std::size_t>(size));
    for (std::int64_t i = 0; i < size; ++i) {
      const std::int64_t src = order[static_cast<std::size_t>(start + i)];
      std::copy_n(dataset.inputs.data().data() + src * inputs_, inputs_,
                  x.data().data() + i * inputs_);
      labels[static_cast<std::size_t>(i)] =
          dataset.labels[static_cast<std::size_t>(src)];
    }

    // Forward with cached activations.
    FloatTensor h = GemmRef(x, w1_);
    AddBiasRows(h, b1_, /*relu=*/true);
    FloatTensor logits = GemmRef(h, w2_);
    AddBiasRows(logits, b2_, /*relu=*/false);

    // Softmax + cross-entropy; dlogits = softmax − onehot.
    FloatTensor dlogits({size, outputs_});
    for (std::int64_t r = 0; r < size; ++r) {
      const float* logit = logits.data().data() + r * outputs_;
      float* dlogit = dlogits.data().data() + r * outputs_;
      float max_logit = logit[0];
      for (std::int64_t c = 1; c < outputs_; ++c) {
        max_logit = std::max(max_logit, logit[c]);
      }
      double denom = 0.0;
      for (std::int64_t c = 0; c < outputs_; ++c) {
        denom += std::exp(static_cast<double>(logit[c] - max_logit));
      }
      const int label = labels[static_cast<std::size_t>(r)];
      for (std::int64_t c = 0; c < outputs_; ++c) {
        const double p =
            std::exp(static_cast<double>(logit[c] - max_logit)) / denom;
        dlogit[c] = static_cast<float>(p) - (c == label ? 1.0f : 0.0f);
        if (c == label) total_loss += -std::log(std::max(p, 1e-12));
      }
    }

    const float step =
        static_cast<float>(learning_rate / static_cast<double>(size));

    // Gradients: dW2 = hᵀ·dlogits, db2 = Σrows dlogits,
    // dh = dlogits·W2ᵀ (gated by ReLU), dW1 = xᵀ·dh, db1 = Σrows dh.
    // They accumulate row by row of the batch, yet each gradient element
    // still sums over r in ascending order from 0, so training is
    // bit-identical to per-element dot products.
    FloatTensor dh({size, hidden_});
    FloatTensor grad_w1(w1_.shape());
    FloatTensor grad_b1(b1_.shape());
    FloatTensor grad_w2(w2_.shape());
    FloatTensor grad_b2(b2_.shape());
    float* g_b1 = grad_b1.data().data();
    float* g_b2 = grad_b2.data().data();
    for (std::int64_t r = 0; r < size; ++r) {
      const float* x_row = x.data().data() + r * inputs_;
      const float* h_row = h.data().data() + r * hidden_;
      const float* dlogit = dlogits.data().data() + r * outputs_;
      float* dh_row = dh.data().data() + r * hidden_;
      for (std::int64_t c = 0; c < hidden_; ++c) {
        const float* w2_row = w2_.data().data() + c * outputs_;
        float grad = 0.0f;
        for (std::int64_t o = 0; o < outputs_; ++o) {
          grad += dlogit[o] * w2_row[o];
        }
        dh_row[c] = h_row[c] > 0.0f ? grad : 0.0f;

        float* g_w2 = grad_w2.data().data() + c * outputs_;
        for (std::int64_t o = 0; o < outputs_; ++o) {
          g_w2[o] += h_row[c] * dlogit[o];
        }
      }
      for (std::int64_t o = 0; o < outputs_; ++o) g_b2[o] += dlogit[o];
      for (std::int64_t i = 0; i < inputs_; ++i) {
        float* g_w1 = grad_w1.data().data() + i * hidden_;
        for (std::int64_t c = 0; c < hidden_; ++c) {
          g_w1[c] += x_row[i] * dh_row[c];
        }
      }
      for (std::int64_t c = 0; c < hidden_; ++c) g_b1[c] += dh_row[c];
    }

    const auto descend = [step](FloatTensor& param, const FloatTensor& grad) {
      const std::span<float> value = param.data();
      const std::span<const float> delta = grad.data();
      for (std::size_t i = 0; i < value.size(); ++i) {
        value[i] -= step * delta[i];
      }
    };
    descend(w2_, grad_w2);
    descend(b2_, grad_b2);
    descend(w1_, grad_w1);
    descend(b1_, grad_b1);
  }
  return total_loss / static_cast<double>(dataset.size());
}

double Mlp::Accuracy(const Dataset& dataset) const {
  const auto predictions = ArgmaxRows(Forward(dataset.inputs));
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == dataset.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

double Mlp::TrainUntil(const Dataset& dataset, double target,
                       std::int64_t max_epochs, double learning_rate,
                       Rng& rng) {
  double accuracy = Accuracy(dataset);
  for (std::int64_t epoch = 0; epoch < max_epochs && accuracy < target;
       ++epoch) {
    TrainEpoch(dataset, learning_rate, 32, rng);
    accuracy = Accuracy(dataset);
  }
  return accuracy;
}

namespace {

template <typename T>
std::vector<int> ArgmaxRowsImpl(const Tensor<T>& logits) {
  SAFFIRE_CHECK(logits.rank() == 2);
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  std::vector<int> out(static_cast<std::size_t>(rows));
  const T* row = logits.data().data();
  for (std::int64_t r = 0; r < rows; ++r, row += cols) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = static_cast<int>(best);
  }
  return out;
}

}  // namespace

std::vector<int> ArgmaxRows(const FloatTensor& logits) {
  return ArgmaxRowsImpl(logits);
}

std::vector<int> ArgmaxRows(const Int32Tensor& logits) {
  return ArgmaxRowsImpl(logits);
}

}  // namespace saffire
