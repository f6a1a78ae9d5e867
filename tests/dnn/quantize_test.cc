#include "dnn/quantize.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fi/injector.h"
#include "tensor/gemm.h"

namespace saffire {
namespace {

AccelConfig TestAccel() {
  AccelConfig config;  // 16×16 array
  config.max_compute_rows = 256;
  config.spad_rows = 512;
  config.acc_rows = 256;
  config.dram_bytes = 8 << 20;
  return config;
}

// Shared trained network for the expensive tests.
class QuantizedMlpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_ = new Dataset(MakeSyntheticDigits(600, 0.02, 21));
    test_ = new Dataset(MakeSyntheticDigits(200, 0.02, 22));
    mlp_ = new Mlp(kDigitPixels, 32, kDigitClasses, 5);
    Rng rng(6);
    mlp_->TrainUntil(*train_, 0.97, 60, 0.1, rng);
    quantized_ = new QuantizedMlp(*mlp_, *train_);
  }
  static void TearDownTestSuite() {
    delete quantized_;
    delete mlp_;
    delete test_;
    delete train_;
    quantized_ = nullptr;
    mlp_ = nullptr;
    test_ = nullptr;
    train_ = nullptr;
  }

  static Dataset* train_;
  static Dataset* test_;
  static Mlp* mlp_;
  static QuantizedMlp* quantized_;
};

Dataset* QuantizedMlpTest::train_ = nullptr;
Dataset* QuantizedMlpTest::test_ = nullptr;
Mlp* QuantizedMlpTest::mlp_ = nullptr;
QuantizedMlp* QuantizedMlpTest::quantized_ = nullptr;

TEST(QuantizeSymmetricTest, RoundTripAccuracy) {
  auto tensor = FloatTensor({1, 5});
  tensor.flat(0) = 1.27f;
  tensor.flat(1) = -1.27f;
  tensor.flat(2) = 0.0f;
  tensor.flat(3) = 0.635f;
  tensor.flat(4) = 0.01f;
  float scale = 0.0f;
  const auto q = QuantizeSymmetric(tensor, scale);
  EXPECT_FLOAT_EQ(scale, 0.01f);
  EXPECT_EQ(q.flat(0), 127);
  EXPECT_EQ(q.flat(1), -127);
  EXPECT_EQ(q.flat(2), 0);
  EXPECT_EQ(q.flat(3), 64);  // 63.5 rounds to even
  EXPECT_EQ(q.flat(4), 1);
}

TEST(QuantizeSymmetricTest, AllZerosUseUnitScale) {
  auto tensor = FloatTensor({2, 2});
  float scale = 0.0f;
  const auto q = QuantizeSymmetric(tensor, scale);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  for (std::int64_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q.flat(i), 0);
  }
}

TEST(QuantizeSymmetricTest, SaturatesExactlyAtTheInt8Extremes) {
  // The scale is max|x|/127, so the extreme magnitudes land exactly on
  // ±127 — never beyond — and near-boundary values round to even.
  auto tensor = FloatTensor({1, 4});
  tensor.flat(0) = 254.0f;
  tensor.flat(1) = -254.0f;
  tensor.flat(2) = 253.0f;   // 126.5 in quantized units
  tensor.flat(3) = -253.0f;
  float scale = 0.0f;
  const auto q = QuantizeSymmetric(tensor, scale);
  EXPECT_FLOAT_EQ(scale, 2.0f);
  EXPECT_EQ(q.flat(0), 127);
  EXPECT_EQ(q.flat(1), -127);
  EXPECT_EQ(q.flat(2), 126);  // round half to even
  EXPECT_EQ(q.flat(3), -126);
  for (std::int64_t i = 0; i < q.size(); ++i) {
    EXPECT_GE(q.flat(i), -127);
    EXPECT_LE(q.flat(i), 127);
  }
}

TEST(QuantizeSymmetricTest, ZeroPointStaysAtZeroForSkewedData) {
  // Symmetric scheme: even an all-positive tensor keeps zero-point 0, so
  // real zeros quantize to exactly 0 and the negative range goes unused.
  auto tensor = FloatTensor({1, 3});
  tensor.flat(0) = 0.0f;
  tensor.flat(1) = 50.8f;
  tensor.flat(2) = 101.6f;
  float scale = 0.0f;
  const auto q = QuantizeSymmetric(tensor, scale);
  EXPECT_FLOAT_EQ(scale, 0.8f);
  EXPECT_EQ(q.flat(0), 0);
  EXPECT_EQ(q.flat(1), 64);  // 63.5 rounds to even
  EXPECT_EQ(q.flat(2), 127);
  for (std::int64_t i = 0; i < q.size(); ++i) {
    EXPECT_GE(q.flat(i), 0);  // nothing maps below the zero-point
  }
}

TEST(QuantizeSymmetricTest, TinyMagnitudesRoundTripThroughTheScale) {
  auto tensor = FloatTensor({1, 2});
  tensor.flat(0) = 1e-6f;
  tensor.flat(1) = -1e-6f;
  float scale = 0.0f;
  const auto q = QuantizeSymmetric(tensor, scale);
  EXPECT_EQ(q.flat(0), 127);
  EXPECT_EQ(q.flat(1), -127);
  EXPECT_NEAR(static_cast<float>(q.flat(0)) * scale, 1e-6f, 1e-9f);
}

TEST(ChooseRequantShiftTest, SmallestSufficientShift) {
  EXPECT_EQ(ChooseRequantShift(0), 0);
  EXPECT_EQ(ChooseRequantShift(127), 0);
  EXPECT_EQ(ChooseRequantShift(128), 1);
  EXPECT_EQ(ChooseRequantShift(255), 1);
  EXPECT_EQ(ChooseRequantShift(256), 2);
  EXPECT_EQ(ChooseRequantShift(1 << 20), 20 - 6);
  // The shift saturates at 31 — the widest rescale the modeled MVOUT8
  // hardware supports — even when the magnitude would need more.
  EXPECT_EQ(ChooseRequantShift((std::int64_t{1} << 37) - 1), 30);
  EXPECT_EQ(ChooseRequantShift(std::int64_t{1} << 62), 31);
}

TEST_F(QuantizedMlpTest, QuantizationPreservesAccuracy) {
  const double float_accuracy = mlp_->Accuracy(*test_);
  const double int8_accuracy = quantized_->AccuracyCpu(*test_);
  EXPECT_GE(int8_accuracy, float_accuracy - 0.05);
  EXPECT_GE(int8_accuracy, 0.85);
}

TEST_F(QuantizedMlpTest, AccelInferenceMatchesCpuBitExactly) {
  Accelerator accel(TestAccel());
  Driver driver(accel);
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary}) {
    const auto cpu = quantized_->PredictCpu(test_->inputs);
    const auto hw = quantized_->PredictAccel(test_->inputs, driver, dataflow);
    EXPECT_EQ(cpu, hw) << ToString(dataflow);
  }
}

TEST_F(QuantizedMlpTest, HardwareFaultDegradesOrPreservesAccuracy) {
  Accelerator accel(TestAccel());
  Driver driver(accel);
  const double clean =
      quantized_->AccuracyAccel(*test_, driver, Dataflow::kWeightStationary);
  // A high-bit stuck-at-1 in WS corrupts a full column of every layer's
  // output — accuracy should drop visibly.
  FaultInjector injector(
      {StuckAtAdder(PeCoord{3, 5}, 20, StuckPolarity::kStuckAt1)},
      accel.config().array);
  accel.array().InstallFaultHook(&injector);
  const double faulty =
      quantized_->AccuracyAccel(*test_, driver, Dataflow::kWeightStationary);
  accel.array().ClearFaultHook();
  EXPECT_LT(faulty, clean);
  EXPECT_GT(injector.activations(), 0u);
}

TEST_F(QuantizedMlpTest, AppFiShowsDegradationLikeHardwareFault) {
  // The LLTFI-style path perturbs the same coordinates as the hardware
  // fault. Magnitudes differ on K-tiled layers with real data (the
  // hardware reapplies the stuck bit on every tile pass, the app-level
  // model sets it once — bit-exact agreement is only guaranteed on the
  // extraction workload, proven in the appfi cross-validation tests), so
  // the contract here is qualitative: both paths degrade accuracy well
  // below clean inference.
  Accelerator accel(TestAccel());
  Driver driver(accel);
  const double clean =
      quantized_->AccuracyAccel(*test_, driver, Dataflow::kWeightStationary);
  const FaultSpec fault =
      StuckAtAdder(PeCoord{3, 5}, 24, StuckPolarity::kStuckAt1);
  FaultInjector injector({fault}, accel.config().array);
  accel.array().InstallFaultHook(&injector);
  const double hw_accuracy =
      quantized_->AccuracyAccel(*test_, driver, Dataflow::kWeightStationary);
  accel.array().ClearFaultHook();
  const double appfi_accuracy = quantized_->AccuracyAppFi(
      *test_, TestAccel(), Dataflow::kWeightStationary, {&fault, 1});
  EXPECT_LT(hw_accuracy, clean - 0.1);
  EXPECT_LT(appfi_accuracy, clean - 0.1);
}

TEST_F(QuantizedMlpTest, NoFaultAppFiEqualsCpu) {
  const auto cpu = quantized_->PredictCpu(test_->inputs);
  const auto appfi = quantized_->PredictAppFi(
      test_->inputs, TestAccel(), Dataflow::kWeightStationary, {});
  EXPECT_EQ(cpu, appfi);
}

TEST_F(QuantizedMlpTest, QuantizeInputsBounded) {
  const auto xq = quantized_->QuantizeInputs(test_->inputs);
  EXPECT_EQ(xq.dim(0), test_->size());
  EXPECT_EQ(xq.dim(1), kDigitPixels);
}

// A batch quantized once up front gives the same logits as quantizing it
// inside every inference; a batch of the wrong width is refused.
TEST_F(QuantizedMlpTest, LogitsWithQuantizedBatchMatchesFloatBatch) {
  const LayerGemm host = [](int, const Int8Tensor& a, const Int8Tensor& b) {
    return GemmRef(a, b);
  };
  const Int8Tensor xq = quantized_->QuantizeInputs(test_->inputs);
  EXPECT_EQ(quantized_->LogitsWith(xq, host),
            quantized_->LogitsWith(test_->inputs, host));
  EXPECT_THROW(quantized_->LogitsWith(Int8Tensor({4, kDigitPixels + 1}), host),
               std::invalid_argument);
}

}  // namespace
}  // namespace saffire
