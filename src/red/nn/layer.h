// Deconvolution (transposed convolution) layer specification.
//
// Semantics follow the standard transposed-conv definition (identical to
// PyTorch ConvTranspose2d):
//   OH = (IH - 1) * stride - 2 * pad + KH + output_pad
// `output_pad` is needed by layers such as DCGAN's 5x5/stride-2 deconvs whose
// output size is not otherwise reachable with an integral pad.
#pragma once

#include <cstdint>
#include <string>

#include "red/common/visit_fields.h"
#include "red/tensor/shape.h"

namespace red::nn {

struct DeconvLayerSpec {
  std::string name;
  int ih = 1;          ///< input feature-map height (IH)
  int iw = 1;          ///< input feature-map width (IW)
  int c = 1;           ///< input channels (C)
  int m = 1;           ///< output channels / number of filters (M)
  int kh = 1;          ///< kernel height (KH)
  int kw = 1;          ///< kernel width (KW)
  int stride = 1;      ///< stride s (up-sampling factor)
  int pad = 0;         ///< padding p
  int output_pad = 0;  ///< extra rows/cols on the bottom/right edge

  /// Validate all fields; throws ConfigError with a description if invalid.
  void validate() const;

  [[nodiscard]] int oh() const { return (ih - 1) * stride - 2 * pad + kh + output_pad; }
  [[nodiscard]] int ow() const { return (iw - 1) * stride - 2 * pad + kw + output_pad; }

  /// Input feature-map tensor shape (1, C, IH, IW).
  [[nodiscard]] Shape4 input_shape() const { return {1, c, ih, iw}; }
  /// Kernel tensor shape (KH, KW, C, M) — the paper's layout.
  [[nodiscard]] Shape4 kernel_shape() const { return {kh, kw, c, m}; }
  /// Output feature-map tensor shape (1, M, OH, OW).
  [[nodiscard]] Shape4 output_shape() const { return {1, m, oh(), ow()}; }

  /// Number of useful multiply-accumulates (each input pixel meets each
  /// kernel weight once, per output map): IH*IW*C*KH*KW*M.
  [[nodiscard]] std::int64_t useful_macs() const;

  [[nodiscard]] std::string to_string() const;
};

/// Field list for DeconvLayerSpec. `name` is presentation-only — two specs
/// differing only in name describe the same structure, so it is excluded
/// from structural keys (structural = false) but still serialized.
template <typename S, typename F>
  requires common::FieldsOf<S, DeconvLayerSpec>
void visit_fields(S& s, F&& f) {
  static_assert(common::field_count<DeconvLayerSpec>() == 10,
                "DeconvLayerSpec changed: extend visit_fields so "
                "structural_key, JSON, and fingerprints keep covering every "
                "field");
  f("name", s.name, common::FieldInfo{.structural = false});
  f("ih", s.ih);
  f("iw", s.iw);
  f("c", s.c);
  f("m", s.m);
  f("kh", s.kh);
  f("kw", s.kw);
  f("stride", s.stride);
  f("pad", s.pad);
  f("output_pad", s.output_pad);
}

/// Geometry of the zero-padding algorithm's padded input (Algorithm 1).
///
/// Zero-insertion spreads the IHxIW grid to (IH-1)*s+1 x (IW-1)*s+1, then the
/// edges are padded with (K-1-p) zeros on the top/left and (K-1-p+output_pad)
/// on the bottom/right so that a stride-1 valid convolution yields OHxOW.
struct PaddedGeometry {
  int padded_h = 0;
  int padded_w = 0;
  int offset_top = 0;   ///< rows of zeros above the first input row
  int offset_left = 0;  ///< cols of zeros left of the first input col

  /// Fraction of zero pixels in the padded input (the paper's Fig. 4 metric).
  [[nodiscard]] double zero_fraction(int ih, int iw) const;

  friend bool operator==(const PaddedGeometry&, const PaddedGeometry&) = default;
};

[[nodiscard]] PaddedGeometry padded_geometry(const DeconvLayerSpec& spec);

}  // namespace red::nn
