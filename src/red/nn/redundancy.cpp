#include "red/nn/redundancy.h"

#include <algorithm>
#include <cstdint>

namespace red::nn {

double zero_redundancy_ratio(const DeconvLayerSpec& spec) {
  const PaddedGeometry g = padded_geometry(spec);
  return g.zero_fraction(spec.ih, spec.iw);
}

namespace {

/// 1-D factor of the 2-D count: the (window, pixel) pairs along one axis.
/// Input pixel t sits at padded position p = stride*t + offset and is covered
/// by the k-wide windows starting at y in [max(0, p-k+1), min(p, out-1)], so
/// the sum runs over the inputs in O(extent) instead of over every window tap.
std::int64_t hits_1d(int offset, int extent, int out, int k, int stride) {
  std::int64_t hits = 0;
  for (int t = 0; t < extent; ++t) {
    const int p = stride * t + offset;
    const int first = std::max(0, p - k + 1);
    const int last = std::min(p, out - 1);
    if (last >= first) hits += last - first + 1;
  }
  return hits;
}

}  // namespace

std::int64_t structural_window_hits(const DeconvLayerSpec& spec) {
  const PaddedGeometry g = padded_geometry(spec);
  // Separable: hits(y, x) = rows[y] * cols[x]; the sum over the grid
  // factorizes into the product of the per-axis sums.
  return hits_1d(g.offset_top, spec.ih, spec.oh(), spec.kh, spec.stride) *
         hits_1d(g.offset_left, spec.iw, spec.ow(), spec.kw, spec.stride);
}

std::vector<RedundancyPoint> redundancy_vs_stride(DeconvLayerSpec spec,
                                                  const std::vector<int>& strides) {
  std::vector<RedundancyPoint> out;
  out.reserve(strides.size());
  for (int s : strides) {
    spec.stride = s;
    // output_pad only selects the phase of the output size; it does not
    // change the zero structure materially, but it must stay < stride.
    if (spec.output_pad >= s) spec.output_pad = s - 1;
    out.push_back(RedundancyPoint{s, zero_redundancy_ratio(spec)});
  }
  return out;
}

}  // namespace red::nn
