// Algorithm 1 — zero-padding deconvolution.
//
// Step a) Padding: insert (stride-1) zeros between input pixels and pad the
//         edges so a stride-1 valid convolution produces the output size.
// Step b) Convolution: convolve the padded input with the 180°-rotated
//         kernel.
//
// This is the formulation a conventional ReRAM CNN accelerator (e.g. ReGAN)
// executes, and the baseline all paper results are normalized to. The stats
// expose the structural redundancy the paper analyzes in Fig. 4.
#pragma once

#include <cstdint>

#include "red/nn/layer.h"
#include "red/tensor/tensor.h"

namespace red::nn {

struct ZeroPaddingStats {
  PaddedGeometry geometry;
  std::int64_t total_macs = 0;       ///< MACs the hardware performs (all window pixels)
  std::int64_t structural_macs = 0;  ///< MACs on structurally non-zero pixels
  /// Fraction of MACs wasted on structurally zero (inserted/padded) pixels.
  [[nodiscard]] double redundancy_ratio() const {
    return total_macs == 0
               ? 0.0
               : 1.0 - static_cast<double>(structural_macs) / static_cast<double>(total_macs);
  }
};

struct ZeroPaddingResult {
  Tensor<std::int32_t> output;
  ZeroPaddingStats stats;
};

/// Build the padded input tensor (1, C, padded_h, padded_w) of Algorithm 1 step a).
[[nodiscard]] Tensor<std::int32_t> zero_pad_input(const DeconvLayerSpec& spec,
                                                  const Tensor<std::int32_t>& input);

/// Run the full zero-padding deconvolution (steps a + b).
[[nodiscard]] ZeroPaddingResult deconv_zero_padding(const DeconvLayerSpec& spec,
                                                    const Tensor<std::int32_t>& input,
                                                    const Tensor<std::int32_t>& kernel);

}  // namespace red::nn
