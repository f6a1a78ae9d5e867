#include "dnn/mlp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace saffire {
namespace {

TEST(MlpTest, ConstructionAndShapes) {
  const Mlp mlp(64, 32, 10, 1);
  EXPECT_EQ(mlp.w1().ShapeString(), "(64, 32)");
  EXPECT_EQ(mlp.b1().ShapeString(), "(1, 32)");
  EXPECT_EQ(mlp.w2().ShapeString(), "(32, 10)");
  EXPECT_EQ(mlp.b2().ShapeString(), "(1, 10)");
  EXPECT_THROW(Mlp(0, 4, 2, 1), std::invalid_argument);
}

TEST(MlpTest, ForwardShapeAndDeterminism) {
  const Mlp mlp(8, 4, 3, 2);
  FloatTensor batch({5, 8});
  for (std::int64_t i = 0; i < batch.size(); ++i) {
    batch.flat(i) = static_cast<float>(i % 7) * 0.1f;
  }
  const auto logits = mlp.Forward(batch);
  EXPECT_EQ(logits.dim(0), 5);
  EXPECT_EQ(logits.dim(1), 3);
  EXPECT_EQ(mlp.Forward(batch), logits);
  EXPECT_THROW(mlp.Forward(FloatTensor({5, 9})), std::invalid_argument);
}

TEST(MlpTest, SameSeedSameNetwork) {
  const Mlp a(8, 4, 3, 7);
  const Mlp b(8, 4, 3, 7);
  EXPECT_EQ(a.w1(), b.w1());
  EXPECT_EQ(a.w2(), b.w2());
}

TEST(MlpTest, TrainingReducesLoss) {
  const auto dataset = MakeSyntheticDigits(300, 0.02, 11);
  Mlp mlp(kDigitPixels, 32, kDigitClasses, 5);
  Rng rng(6);
  const double first_loss = mlp.TrainEpoch(dataset, 0.1, 32, rng);
  double last_loss = first_loss;
  for (int epoch = 0; epoch < 5; ++epoch) {
    last_loss = mlp.TrainEpoch(dataset, 0.1, 32, rng);
  }
  EXPECT_LT(last_loss, first_loss);
}

TEST(MlpTest, LearnsSyntheticDigits) {
  const auto train = MakeSyntheticDigits(600, 0.02, 21);
  const auto test = MakeSyntheticDigits(200, 0.02, 22);
  Mlp mlp(kDigitPixels, 32, kDigitClasses, 5);
  Rng rng(6);
  const double train_accuracy = mlp.TrainUntil(train, 0.97, 60, 0.1, rng);
  EXPECT_GE(train_accuracy, 0.97);
  EXPECT_GE(mlp.Accuracy(test), 0.90);
}

TEST(ArgmaxRowsTest, FloatAndInt32) {
  const auto f = FloatTensor::FromRows({{0.1f, 0.9f, 0.2f}, {5.0f, 1.0f, 2.0f}});
  EXPECT_EQ(ArgmaxRows(f), (std::vector<int>{1, 0}));
  const auto i = Int32Tensor::FromRows({{-5, -1, -9}, {0, 0, 1}});
  EXPECT_EQ(ArgmaxRows(i), (std::vector<int>{1, 2}));
}

// Reference training loops: per-element dot products through the checked
// accessors, with the same per-element summation orders Mlp must keep.
struct ReferenceMlp {
  FloatTensor w1;
  FloatTensor b1;
  FloatTensor w2;
  FloatTensor b2;
};

FloatTensor NaiveGemm(const FloatTensor& a, const FloatTensor& b) {
  FloatTensor c({a.dim(0), b.dim(1)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < b.dim(1); ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < a.dim(1); ++p) acc += a(i, p) * b(p, j);
      c(i, j) = acc;
    }
  }
  return c;
}

FloatTensor ReferenceForward(const ReferenceMlp& net, const FloatTensor& x) {
  FloatTensor z1 = NaiveGemm(x, net.w1);
  for (std::int64_t r = 0; r < z1.dim(0); ++r) {
    for (std::int64_t c = 0; c < z1.dim(1); ++c) {
      z1(r, c) = std::max(0.0f, z1(r, c) + net.b1(0, c));
    }
  }
  FloatTensor z2 = NaiveGemm(z1, net.w2);
  for (std::int64_t r = 0; r < z2.dim(0); ++r) {
    for (std::int64_t c = 0; c < z2.dim(1); ++c) z2(r, c) += net.b2(0, c);
  }
  return z2;
}

double ReferenceTrainEpoch(ReferenceMlp& net, const Dataset& dataset,
                           double learning_rate, std::int64_t batch_size,
                           Rng& rng) {
  const std::int64_t inputs = net.w1.dim(0);
  const std::int64_t hidden = net.w1.dim(1);
  const std::int64_t outputs = net.w2.dim(1);
  std::vector<std::int64_t> order(static_cast<std::size_t>(dataset.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }
  rng.Shuffle(order);

  double total_loss = 0.0;
  for (std::int64_t start = 0; start < dataset.size(); start += batch_size) {
    const std::int64_t size = std::min(batch_size, dataset.size() - start);
    FloatTensor x({size, inputs});
    std::vector<int> labels(static_cast<std::size_t>(size));
    for (std::int64_t i = 0; i < size; ++i) {
      const std::int64_t src = order[static_cast<std::size_t>(start + i)];
      for (std::int64_t c = 0; c < inputs; ++c) {
        x(i, c) = dataset.inputs(src, c);
      }
      labels[static_cast<std::size_t>(i)] =
          dataset.labels[static_cast<std::size_t>(src)];
    }

    const FloatTensor z1 = NaiveGemm(x, net.w1);
    FloatTensor h = z1;
    for (std::int64_t r = 0; r < h.dim(0); ++r) {
      for (std::int64_t c = 0; c < h.dim(1); ++c) {
        h(r, c) = std::max(0.0f, z1(r, c) + net.b1(0, c));
      }
    }
    FloatTensor logits = NaiveGemm(h, net.w2);
    for (std::int64_t r = 0; r < logits.dim(0); ++r) {
      for (std::int64_t c = 0; c < logits.dim(1); ++c) {
        logits(r, c) += net.b2(0, c);
      }
    }

    FloatTensor dlogits({size, outputs});
    for (std::int64_t r = 0; r < size; ++r) {
      float max_logit = logits(r, 0);
      for (std::int64_t c = 1; c < outputs; ++c) {
        max_logit = std::max(max_logit, logits(r, c));
      }
      double denom = 0.0;
      for (std::int64_t c = 0; c < outputs; ++c) {
        denom += std::exp(static_cast<double>(logits(r, c) - max_logit));
      }
      const int label = labels[static_cast<std::size_t>(r)];
      for (std::int64_t c = 0; c < outputs; ++c) {
        const double p =
            std::exp(static_cast<double>(logits(r, c) - max_logit)) / denom;
        dlogits(r, c) = static_cast<float>(p) - (c == label ? 1.0f : 0.0f);
        if (c == label) total_loss += -std::log(std::max(p, 1e-12));
      }
    }

    const float step =
        static_cast<float>(learning_rate / static_cast<double>(size));
    FloatTensor dh({size, hidden});
    for (std::int64_t r = 0; r < size; ++r) {
      for (std::int64_t c = 0; c < hidden; ++c) {
        float grad = 0.0f;
        for (std::int64_t o = 0; o < outputs; ++o) {
          grad += dlogits(r, o) * net.w2(c, o);
        }
        dh(r, c) = h(r, c) > 0.0f ? grad : 0.0f;
      }
    }
    for (std::int64_t c = 0; c < hidden; ++c) {
      for (std::int64_t o = 0; o < outputs; ++o) {
        float grad = 0.0f;
        for (std::int64_t r = 0; r < size; ++r) grad += h(r, c) * dlogits(r, o);
        net.w2(c, o) -= step * grad;
      }
    }
    for (std::int64_t o = 0; o < outputs; ++o) {
      float grad = 0.0f;
      for (std::int64_t r = 0; r < size; ++r) grad += dlogits(r, o);
      net.b2(0, o) -= step * grad;
    }
    for (std::int64_t i = 0; i < inputs; ++i) {
      for (std::int64_t c = 0; c < hidden; ++c) {
        float grad = 0.0f;
        for (std::int64_t r = 0; r < size; ++r) grad += x(r, i) * dh(r, c);
        net.w1(i, c) -= step * grad;
      }
    }
    for (std::int64_t c = 0; c < hidden; ++c) {
      float grad = 0.0f;
      for (std::int64_t r = 0; r < size; ++r) grad += dh(r, c);
      net.b1(0, c) -= step * grad;
    }
  }
  return total_loss / static_cast<double>(dataset.size());
}

bool SameBytes(const FloatTensor& x, const FloatTensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.data().size_bytes()) == 0;
}

// 100 samples in batches of 32 leave a ragged last batch of 4.
TEST(MlpTest, TrainEpochMatchesReferenceLoopsBitForBit) {
  const auto dataset = MakeSyntheticDigits(100, 0.05, 31);
  for (const std::int64_t hidden : {7, 32}) {
    SCOPED_TRACE(::testing::Message() << "hidden " << hidden);
    Mlp mlp(kDigitPixels, hidden, kDigitClasses, 8);
    ReferenceMlp reference{mlp.w1(), mlp.b1(), mlp.w2(), mlp.b2()};
    Rng rng(9);
    Rng reference_rng(9);
    for (int epoch = 0; epoch < 4; ++epoch) {
      const double loss = mlp.TrainEpoch(dataset, 0.1, 32, rng);
      const double reference_loss =
          ReferenceTrainEpoch(reference, dataset, 0.1, 32, reference_rng);
      EXPECT_EQ(std::memcmp(&loss, &reference_loss, sizeof loss), 0)
          << "epoch " << epoch << ": " << loss << " vs " << reference_loss;
    }
    EXPECT_TRUE(SameBytes(mlp.w1(), reference.w1));
    EXPECT_TRUE(SameBytes(mlp.b1(), reference.b1));
    EXPECT_TRUE(SameBytes(mlp.w2(), reference.w2));
    EXPECT_TRUE(SameBytes(mlp.b2(), reference.b2));
    EXPECT_TRUE(SameBytes(mlp.Forward(dataset.inputs),
                          ReferenceForward(reference, dataset.inputs)));
  }
}

TEST(MlpTest, TrainEpochValidatesArguments) {
  const auto dataset = MakeSyntheticDigits(10, 0.0, 1);
  Mlp mlp(kDigitPixels, 8, kDigitClasses, 1);
  Rng rng(1);
  EXPECT_THROW(mlp.TrainEpoch(dataset, 0.1, 0, rng), std::invalid_argument);
  // More labels than input rows is refused before any weight moves.
  Dataset short_inputs = dataset;
  short_inputs.labels.push_back(0);
  const FloatTensor w1_before = mlp.w1();
  EXPECT_THROW(mlp.TrainEpoch(short_inputs, 0.1, 4, rng),
               std::invalid_argument);
  EXPECT_EQ(mlp.w1(), w1_before);
}

}  // namespace
}  // namespace saffire
