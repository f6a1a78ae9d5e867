#include "dnn/cnn.h"

#include <algorithm>

#include "accel/scratchpad.h"
#include "dnn/quantize.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace saffire {

SmallCnn::SmallCnn(const ConvParams& conv, std::int64_t classes,
                   std::uint64_t seed)
    : conv_(conv), classes_(classes) {
  conv_.Validate();
  SAFFIRE_CHECK_MSG(classes > 1, "classes=" << classes);
  SAFFIRE_CHECK_MSG(conv_.out_height() >= 2 && conv_.out_width() >= 2,
                    "conv output too small to pool: " << conv_.ToString());
  Rng rng(seed);
  kernel_ = Int8Tensor({conv_.out_channels, conv_.in_channels, conv_.kernel_h,
                        conv_.kernel_w});
  for (std::int64_t i = 0; i < kernel_.size(); ++i) {
    kernel_.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-6, 6));
  }
  const std::int64_t pooled_h = conv_.out_height() / 2;
  const std::int64_t pooled_w = conv_.out_width() / 2;
  dense_ = Int8Tensor({conv_.out_channels * pooled_h * pooled_w, classes_});
  for (std::int64_t i = 0; i < dense_.size(); ++i) {
    dense_.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-6, 6));
  }
  weights_ = FlattenKernel(kernel_, conv_);
  // Worst-case conv accumulator magnitude: CRS × |in|max × |w|max.
  const std::int64_t worst =
      conv_.gemm_inner() * 127 * 6;
  conv_shift_ = ChooseRequantShift(worst);
}

Int8Tensor MaxPool2x2(const Int8Tensor& input) {
  SAFFIRE_CHECK_MSG(input.rank() == 4, "input " << input.ShapeString());
  const std::int64_t planes = input.dim(0) * input.dim(1);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t h = in_h / 2;
  const std::int64_t w = in_w / 2;
  SAFFIRE_CHECK_MSG(h > 0 && w > 0, "input too small " << input.ShapeString());
  // Shapes are checked above; each output row reads two raw input rows.
  Int8Tensor out({input.dim(0), input.dim(1), h, w});
  const std::int8_t* plane = input.data().data();
  std::int8_t* row = out.data().data();
  for (std::int64_t i = 0; i < planes; ++i, plane += in_h * in_w) {
    for (std::int64_t y = 0; y < h; ++y, row += w) {
      const std::int8_t* top = plane + 2 * y * in_w;
      const std::int8_t* bottom = top + in_w;
      for (std::int64_t x = 0; x < w; ++x) {
        row[x] = std::max(std::max(top[2 * x], top[2 * x + 1]),
                          std::max(bottom[2 * x], bottom[2 * x + 1]));
      }
    }
  }
  return out;
}

void SmallCnn::FinishForward(LayerTaps& taps, const LayerGemm& gemm) const {
  // Locals, not members: the int8 stores below may alias any object, so a
  // member would be reloaded and re-checked per element.
  const std::int64_t size = taps.conv_raw.size();
  const std::int32_t shift = conv_shift_;
  CheckRequantShift(shift);
  taps.conv_act = Int8Tensor(taps.conv_raw.shape());
  const std::int32_t* raw = taps.conv_raw.data().data();
  std::int8_t* act = taps.conv_act.data().data();
  for (std::int64_t i = 0; i < size; ++i) {
    act[i] = Requantize(raw[i], Activation::kRelu, shift);
  }

  taps.pooled = MaxPool2x2(taps.conv_act);

  const Int8Tensor flat =
      taps.pooled.Reshape({taps.conv_raw.dim(0), dense_.dim(0)});
  taps.logits = gemm(1, flat, dense_);
}

SmallCnn::LayerTaps SmallCnn::ForwardLowered(const Int8Tensor& patches,
                                             const LayerGemm& gemm) const {
  const std::int64_t pixels = conv_.out_height() * conv_.out_width();
  SAFFIRE_CHECK_MSG(patches.rank() == 2 && patches.dim(0) % pixels == 0 &&
                        patches.dim(1) == conv_.gemm_inner(),
                    "patches " << patches.ShapeString() << " vs "
                               << conv_.ToString());
  ConvParams batch_params = conv_;
  batch_params.batch = patches.dim(0) / pixels;

  LayerTaps taps;
  taps.conv_raw = FoldGemmOutput(gemm(0, patches, weights_), batch_params);
  FinishForward(taps, gemm);
  return taps;
}

SmallCnn::LayerTaps SmallCnn::Forward(const Int8Tensor& input, Driver* driver,
                                      const ExecOptions& options) const {
  SAFFIRE_CHECK_MSG(input.rank() == 4 && input.dim(1) == conv_.in_channels &&
                        input.dim(2) == conv_.height &&
                        input.dim(3) == conv_.width,
                    "input " << input.ShapeString() << " vs "
                             << conv_.ToString());
  ConvParams batch_params = conv_;
  batch_params.batch = input.dim(0);

  LayerTaps taps;
  if (driver != nullptr) {
    taps.conv_raw = driver->Conv(input, kernel_, batch_params, options);
  } else {
    taps.conv_raw = ConvRef(input, kernel_, batch_params);
  }
  FinishForward(taps, [driver, &options](int /*layer*/, const Int8Tensor& a,
                                         const Int8Tensor& b) {
    return driver != nullptr ? driver->Gemm(a, b, options) : GemmRef(a, b);
  });
  return taps;
}

}  // namespace saffire
