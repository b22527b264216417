#include "red/core/pixel_wise_mapping.h"

#include "red/common/contracts.h"
#include "red/common/math_util.h"

namespace red::core {

std::span<const std::int32_t> sc_block(const nn::DeconvLayerSpec& spec,
                                       const Tensor<std::int32_t>& kernel, ScCoord sc) {
  RED_EXPECTS_MSG(kernel.shape() == spec.kernel_shape(), "kernel shape mismatch");
  RED_EXPECTS(sc.i >= 0 && sc.i < spec.kh && sc.j >= 0 && sc.j < spec.kw);
  return {kernel.ptr(sc.i, sc.j), static_cast<std::size_t>(spec.c) * spec.m};
}

std::int64_t folded_sc_count(const std::vector<ModeGroup>& groups, int fold) {
  RED_EXPECTS(fold >= 1);
  std::int64_t n = 0;
  for (const auto& g : groups)
    n += ceil_div<std::int64_t>(static_cast<std::int64_t>(g.scs.size()), fold);
  return n;
}

int auto_fold(const std::vector<ModeGroup>& groups, int max_subcrossbars) {
  RED_EXPECTS(max_subcrossbars >= 1);
  const std::int64_t max_group = max_group_size(groups);
  int fold = 1;
  while (folded_sc_count(groups, fold) > max_subcrossbars && fold < max_group) fold *= 2;
  return fold;
}

}  // namespace red::core
