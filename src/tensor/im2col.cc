#include "tensor/im2col.h"

namespace saffire {

Int8Tensor Im2Col(const Int8Tensor& input, const ConvParams& params) {
  params.Validate();
  SAFFIRE_CHECK_MSG(input.rank() == 4 && input.dim(0) == params.batch &&
                        input.dim(1) == params.in_channels &&
                        input.dim(2) == params.height &&
                        input.dim(3) == params.width,
                    "input shape " << input.ShapeString() << " vs "
                                   << params.ToString());
  const std::int64_t out_h = params.out_height();
  const std::int64_t out_w = params.out_width();
  const std::int64_t plane = params.height * params.width;
  // Shapes are checked above; the loops walk raw rows. Padding positions
  // keep the zero the tensor was created with.
  Int8Tensor patches({params.gemm_rows(), params.gemm_inner()});
  const std::int8_t* image = input.data().data();
  std::int8_t* row = patches.data().data();
  for (std::int64_t n = 0; n < params.batch; ++n) {
    for (std::int64_t p = 0; p < out_h; ++p) {
      for (std::int64_t q = 0; q < out_w; ++q) {
        for (std::int64_t c = 0; c < params.in_channels; ++c) {
          const std::int8_t* channel =
              image + (n * params.in_channels + c) * plane;
          for (std::int64_t r = 0; r < params.kernel_h; ++r) {
            const std::int64_t h = p * params.stride + r - params.pad;
            if (h >= 0 && h < params.height) {
              const std::int8_t* line = channel + h * params.width;
              for (std::int64_t s = 0; s < params.kernel_w; ++s) {
                const std::int64_t w = q * params.stride + s - params.pad;
                if (w >= 0 && w < params.width) row[s] = line[w];
              }
            }
            row += params.kernel_w;
          }
        }
      }
    }
  }
  return patches;
}

Int8Tensor FlattenKernel(const Int8Tensor& kernel, const ConvParams& params) {
  params.Validate();
  SAFFIRE_CHECK_MSG(kernel.rank() == 4 && kernel.dim(0) == params.out_channels &&
                        kernel.dim(1) == params.in_channels &&
                        kernel.dim(2) == params.kernel_h &&
                        kernel.dim(3) == params.kernel_w,
                    "kernel shape " << kernel.ShapeString() << " vs "
                                    << params.ToString());
  Int8Tensor flat({params.gemm_inner(), params.gemm_cols()});
  for (std::int64_t k = 0; k < params.out_channels; ++k) {
    std::int64_t row = 0;
    for (std::int64_t c = 0; c < params.in_channels; ++c) {
      for (std::int64_t r = 0; r < params.kernel_h; ++r) {
        for (std::int64_t s = 0; s < params.kernel_w; ++s, ++row) {
          flat(row, k) = kernel(k, c, r, s);
        }
      }
    }
  }
  return flat;
}

Int32Tensor FoldGemmOutput(const Int32Tensor& gemm_out,
                           const ConvParams& params) {
  params.Validate();
  SAFFIRE_CHECK_MSG(gemm_out.rank() == 2 &&
                        gemm_out.dim(0) == params.gemm_rows() &&
                        gemm_out.dim(1) == params.gemm_cols(),
                    "gemm output shape " << gemm_out.ShapeString() << " vs "
                                         << params.ToString());
  const std::int64_t out_h = params.out_height();
  const std::int64_t out_w = params.out_width();
  const std::int64_t channels = params.out_channels;
  const std::int64_t pixels = out_h * out_w;
  // Per image, a (P·Q)×K to K×(P·Q) transpose over raw rows.
  Int32Tensor output({params.batch, channels, out_h, out_w});
  const std::int32_t* in = gemm_out.data().data();
  std::int32_t* out = output.data().data();
  for (std::int64_t n = 0; n < params.batch; ++n) {
    for (std::int64_t pq = 0; pq < pixels; ++pq, in += channels) {
      for (std::int64_t k = 0; k < channels; ++k) {
        out[k * pixels + pq] = in[k];
      }
    }
    out += channels * pixels;
  }
  return output;
}

ConvOutputCoord GemmCoordToConvCoord(std::int64_t row, std::int64_t col,
                                     const ConvParams& params) {
  params.Validate();
  SAFFIRE_CHECK_MSG(row >= 0 && row < params.gemm_rows(), "row=" << row);
  SAFFIRE_CHECK_MSG(col >= 0 && col < params.gemm_cols(), "col=" << col);
  const std::int64_t out_h = params.out_height();
  const std::int64_t out_w = params.out_width();
  ConvOutputCoord coord;
  coord.k = col;
  coord.q = row % out_w;
  coord.p = (row / out_w) % out_h;
  coord.n = row / (out_w * out_h);
  return coord;
}

}  // namespace saffire
