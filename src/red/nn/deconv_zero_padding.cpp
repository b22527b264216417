#include "red/nn/deconv_zero_padding.h"

#include "red/common/contracts.h"
#include "red/nn/conv.h"
#include "red/nn/redundancy.h"

namespace red::nn {

Tensor<std::int32_t> zero_pad_input(const DeconvLayerSpec& spec,
                                    const Tensor<std::int32_t>& input) {
  RED_EXPECTS_MSG(input.shape() == spec.input_shape(), "input shape mismatch");
  const PaddedGeometry g = padded_geometry(spec);
  Tensor<std::int32_t> padded(Shape4{1, spec.c, g.padded_h, g.padded_w});
  for (int c = 0; c < spec.c; ++c)
    for (int h = 0; h < spec.ih; ++h) {
      const std::int32_t* src = input.ptr(0, c) + std::int64_t{h} * spec.iw;
      std::int32_t* dst = padded.ptr(0, c) +
                          std::int64_t{g.offset_top + h * spec.stride} * g.padded_w +
                          g.offset_left;
      for (int w = 0; w < spec.iw; ++w) dst[std::int64_t{w} * spec.stride] = src[w];
    }
  return padded;
}

ZeroPaddingResult deconv_zero_padding(const DeconvLayerSpec& spec,
                                      const Tensor<std::int32_t>& input,
                                      const Tensor<std::int32_t>& kernel) {
  RED_EXPECTS_MSG(kernel.shape() == spec.kernel_shape(), "kernel shape mismatch");
  const Tensor<std::int32_t> padded = zero_pad_input(spec, input);
  const Tensor<std::int32_t> rotated = rotate180(kernel);

  ZeroPaddingResult result{conv2d_valid(padded, rotated), {}};
  result.stats.geometry = padded_geometry(spec);
  const std::int64_t windows = std::int64_t{spec.oh()} * spec.ow();
  result.stats.total_macs = windows * spec.kh * spec.kw * spec.c * spec.m;
  result.stats.structural_macs = structural_window_hits(spec) * spec.c * spec.m;
  RED_ENSURES(result.output.shape() == spec.output_shape());
  return result;
}

}  // namespace red::nn
