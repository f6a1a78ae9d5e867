#include "dnn/cnn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fi/injector.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/shift_gemm.h"

namespace saffire {
namespace {

AccelConfig TestConfig() {
  AccelConfig config;
  config.max_compute_rows = 512;
  config.spad_rows = 1024;
  config.acc_rows = 512;
  config.dram_bytes = 8 << 20;
  return config;
}

ConvParams PaperConv() {
  ConvParams p;
  p.in_channels = 3;
  p.height = 16;
  p.width = 16;
  p.out_channels = 8;
  p.kernel_h = 3;
  p.kernel_w = 3;
  return p;
}

Int8Tensor TestImage(std::uint64_t seed) {
  Rng rng(seed);
  Int8Tensor image({1, 3, 16, 16});
  for (std::int64_t i = 0; i < image.size(); ++i) {
    image.flat(i) = static_cast<std::int8_t>(rng.UniformInt(0, 60));
  }
  return image;
}

TEST(MaxPool2x2Test, PicksMaxima) {
  Int8Tensor input({1, 1, 2, 4});
  input(0, 0, 0, 0) = 1;
  input(0, 0, 0, 1) = 5;
  input(0, 0, 1, 0) = -3;
  input(0, 0, 1, 1) = 2;
  input(0, 0, 0, 2) = -8;
  input(0, 0, 0, 3) = -1;
  input(0, 0, 1, 2) = -2;
  input(0, 0, 1, 3) = -9;
  const auto out = MaxPool2x2(input);
  EXPECT_EQ(out.ShapeString(), "(1, 1, 1, 2)");
  EXPECT_EQ(out(0, 0, 0, 0), 5);
  EXPECT_EQ(out(0, 0, 0, 1), -1);
}

TEST(MaxPool2x2Test, DropsOddEdges) {
  const auto out = MaxPool2x2(Int8Tensor({1, 2, 5, 7}));
  EXPECT_EQ(out.ShapeString(), "(1, 2, 2, 3)");
  EXPECT_THROW(MaxPool2x2(Int8Tensor({1, 1, 1, 4})), std::invalid_argument);
  EXPECT_THROW(MaxPool2x2(Int8Tensor({2, 4})), std::invalid_argument);
}

TEST(MaxPool2x2Test, MatchesPerElementMaximaOnRandomShapes) {
  Rng rng(5);
  for (int iteration = 0; iteration < 30; ++iteration) {
    Int8Tensor input({rng.UniformInt(1, 3), rng.UniformInt(1, 4),
                      rng.UniformInt(2, 9), rng.UniformInt(2, 9)});
    for (std::int64_t i = 0; i < input.size(); ++i) {
      input.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
    }
    const Int8Tensor out = MaxPool2x2(input);
    ASSERT_EQ(out.shape(),
              (std::vector<std::int64_t>{input.dim(0), input.dim(1),
                                         input.dim(2) / 2, input.dim(3) / 2}));
    for (std::int64_t n = 0; n < out.dim(0); ++n) {
      for (std::int64_t k = 0; k < out.dim(1); ++k) {
        for (std::int64_t y = 0; y < out.dim(2); ++y) {
          for (std::int64_t x = 0; x < out.dim(3); ++x) {
            const std::int8_t expected = std::max(
                {input(n, k, 2 * y, 2 * x), input(n, k, 2 * y, 2 * x + 1),
                 input(n, k, 2 * y + 1, 2 * x),
                 input(n, k, 2 * y + 1, 2 * x + 1)});
            EXPECT_EQ(out(n, k, y, x), expected);
          }
        }
      }
    }
  }
}

// The lowered forward (Im2Col once, the flattened kernel, the host folding,
// requantization and pooling loops) against Forward without a driver, whose
// convolution is the direct ConvRef loop and never lowers: every tap must
// match on random geometries and images over the whole int8 range.
TEST(SmallCnnTest, LoweredForwardMatchesDirectConvolutionOnEveryTap) {
  Rng rng(77);
  const LayerGemm host = [](int /*layer*/, const Int8Tensor& a,
                            const Int8Tensor& b) { return GemmRef(a, b); };
  for (int iteration = 0; iteration < 12; ++iteration) {
    ConvParams conv;
    conv.batch = rng.UniformInt(1, 3);
    conv.in_channels = rng.UniformInt(1, 3);
    conv.height = rng.UniformInt(5, 12);
    conv.width = rng.UniformInt(5, 12);
    conv.out_channels = rng.UniformInt(1, 6);
    conv.kernel_h = rng.UniformInt(1, 3);
    conv.kernel_w = rng.UniformInt(1, 3);
    conv.stride = rng.UniformInt(1, 2);
    conv.pad = rng.UniformInt(0, 1);
    SCOPED_TRACE(conv.ToString());
    const SmallCnn cnn(conv, rng.UniformInt(2, 10), rng());
    Int8Tensor image(
        {conv.batch, conv.in_channels, conv.height, conv.width});
    for (std::int64_t i = 0; i < image.size(); ++i) {
      image.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
    }
    const SmallCnn::LayerTaps direct =
        cnn.Forward(image, nullptr, ExecOptions{});
    const SmallCnn::LayerTaps lowered =
        cnn.ForwardLowered(Im2Col(image, conv), host);
    EXPECT_EQ(lowered.conv_raw, direct.conv_raw);
    EXPECT_EQ(lowered.conv_act, direct.conv_act);
    EXPECT_EQ(lowered.pooled, direct.pooled);
    EXPECT_EQ(lowered.logits, direct.logits);
  }
}

TEST(SmallCnnTest, ForwardLoweredRejectsMalformedPatches) {
  ConvParams conv = PaperConv();
  const SmallCnn cnn(conv, 10, 7);
  const LayerGemm host = [](int /*layer*/, const Int8Tensor& a,
                            const Int8Tensor& b) { return GemmRef(a, b); };
  const std::int64_t rows = conv.gemm_rows();
  const std::int64_t inner = conv.gemm_inner();
  EXPECT_NO_THROW(cnn.ForwardLowered(Int8Tensor({rows, inner}), host));
  EXPECT_THROW(cnn.ForwardLowered(Int8Tensor({rows, inner + 1}), host),
               std::invalid_argument);
  EXPECT_THROW(cnn.ForwardLowered(Int8Tensor({rows + 1, inner}), host),
               std::invalid_argument);
  EXPECT_THROW(cnn.ForwardLowered(TestImage(1), host), std::invalid_argument);
}

TEST(SmallCnnTest, ShapesAndDeterminism) {
  const SmallCnn cnn(PaperConv(), 10, 7);
  const auto image = TestImage(1);
  const auto taps = cnn.Forward(image, nullptr, ExecOptions{});
  EXPECT_EQ(taps.conv_raw.ShapeString(), "(1, 8, 14, 14)");
  EXPECT_EQ(taps.conv_act.ShapeString(), "(1, 8, 14, 14)");
  EXPECT_EQ(taps.pooled.ShapeString(), "(1, 8, 7, 7)");
  EXPECT_EQ(taps.logits.ShapeString(), "(1, 10)");
  const auto replay = cnn.Forward(image, nullptr, ExecOptions{});
  EXPECT_EQ(replay.logits, taps.logits);
}

TEST(SmallCnnTest, AccelMatchesCpuBitExactly) {
  const SmallCnn cnn(PaperConv(), 10, 7);
  const auto image = TestImage(2);
  const auto cpu = cnn.Forward(image, nullptr, ExecOptions{});
  Accelerator accel(TestConfig());
  Driver driver(accel);
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary}) {
    ExecOptions options;
    options.dataflow = dataflow;
    const auto hw = cnn.Forward(image, &driver, options);
    EXPECT_EQ(hw.conv_raw, cpu.conv_raw) << ToString(dataflow);
    EXPECT_EQ(hw.pooled, cpu.pooled) << ToString(dataflow);
    EXPECT_EQ(hw.logits, cpu.logits) << ToString(dataflow);
  }
}

TEST(SmallCnnTest, BothConvLoweringsAgree) {
  const SmallCnn cnn(PaperConv(), 10, 7);
  const auto image = TestImage(3);
  Accelerator accel(TestConfig());
  Driver driver(accel);
  ExecOptions shift;
  shift.conv_lowering = ConvLowering::kShiftGemm;
  ExecOptions im2col;
  im2col.conv_lowering = ConvLowering::kIm2Col;
  EXPECT_EQ(cnn.Forward(image, &driver, shift).logits,
            cnn.Forward(image, &driver, im2col).logits);
}

TEST(SmallCnnTest, WsFaultCorruptsWholeChannelThenAttenuates) {
  const SmallCnn cnn(PaperConv(), 10, 7);
  const auto image = TestImage(4);
  Accelerator accel(TestConfig());
  Driver driver(accel);
  const auto golden = cnn.Forward(image, &driver, ExecOptions{});

  // Column 4 of the shift-GEMM stationary matrix feeds channel 1 (and,
  // via the second column tile, channel 6): a high stuck bit corrupts the
  // full channels at conv_raw, then ReLU/shift/pool attenuate.
  FaultInjector injector(
      {StuckAtAdder(PeCoord{2, 4}, 20, StuckPolarity::kStuckAt1)},
      accel.config().array);
  accel.array().InstallFaultHook(&injector);
  const auto faulty = cnn.Forward(image, &driver, ExecOptions{});
  accel.array().ClearFaultHook();

  // The fault can only reach channels 1 and 6 (Fig. 3f mechanism: the
  // faulty column serves (k=1, s=1) and, via the second column tile,
  // (k=6, s=2)); within them, value masking (negative partial sums already
  // carry the stuck bit) keeps the corruption partial.
  for (std::int64_t k = 0; k < 8; ++k) {
    std::int64_t corrupted = 0;
    for (std::int64_t p = 0; p < 14; ++p) {
      for (std::int64_t q = 0; q < 14; ++q) {
        if (faulty.conv_raw(0, k, p, q) != golden.conv_raw(0, k, p, q)) {
          ++corrupted;
        }
      }
    }
    if (k == 1 || k == 6) continue;
    EXPECT_EQ(corrupted, 0) << "channel " << k;
  }
  const double raw_fraction =
      SmallCnn::CorruptedFraction(golden.conv_raw, faulty.conv_raw);
  const double act_fraction =
      SmallCnn::CorruptedFraction(golden.conv_act, faulty.conv_act);
  const double pooled_fraction =
      SmallCnn::CorruptedFraction(golden.pooled, faulty.pooled);
  EXPECT_GT(raw_fraction, 0.0);
  EXPECT_LE(raw_fraction, 2.0 / 8.0);
  EXPECT_LE(act_fraction, raw_fraction + 1e-12);
  EXPECT_GT(pooled_fraction, 0.0);
  // The dense head mixes every pooled value into every logit.
  EXPECT_GT(SmallCnn::CorruptedFraction(golden.logits, faulty.logits), 0.5);
}

TEST(SmallCnnTest, MaskedFaultLeavesAllTapsClean) {
  // With the 3×3×3×3 kernel, S·K = 9: array columns 9..15 never touch the
  // conv — and a dense-layer fault is the only way those columns matter.
  ConvParams conv = PaperConv();
  conv.out_channels = 3;
  const SmallCnn cnn(conv, 10, 7);
  const auto image = TestImage(5);
  Accelerator accel(TestConfig());
  Driver driver(accel);
  const auto golden = cnn.Forward(image, &driver, ExecOptions{});

  FaultInjector injector(
      {StuckAtAdder(PeCoord{2, 12}, 20, StuckPolarity::kStuckAt1)},
      accel.config().array);
  accel.array().InstallFaultHook(&injector);
  const auto faulty = cnn.Forward(image, &driver, ExecOptions{});
  accel.array().ClearFaultHook();

  EXPECT_EQ(faulty.conv_raw, golden.conv_raw);
  // The dense GEMM (147×10) does not use column 12 either — fully masked.
  EXPECT_EQ(faulty.logits, golden.logits);
}

TEST(SmallCnnTest, RejectsBadConfigs) {
  ConvParams conv = PaperConv();
  EXPECT_THROW(SmallCnn(conv, 1, 1), std::invalid_argument);
  conv.height = 3;
  conv.width = 3;
  EXPECT_THROW(SmallCnn(conv, 10, 1), std::invalid_argument);
}

TEST(SmallCnnTest, RejectsWrongInputShape) {
  const SmallCnn cnn(PaperConv(), 10, 7);
  EXPECT_THROW(cnn.Forward(Int8Tensor({1, 3, 16, 15}), nullptr,
                           ExecOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace saffire
