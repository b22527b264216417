// Pixel-wise mapping (paper Eq. 1) and area-efficient folding (Eq. 2).
//
// The KHxKWxCxM kernel becomes a sub-crossbar tensor SCT of shape
// C x M x (KH*KW):  SCT[c, m, i*KW + j] = W[i, j, c, m].
// Each sub-crossbar is a CxM matrix, the kernel's contiguous block at tap
// (i, j) (sc_block), so RED programs it straight from the kernel. The
// area-efficient trade-off merges `fold` sub-crossbars of a mode group into
// one of fold*C rows; the data flow then alternates the active row band over
// `fold` cycles (Eq. 2), trading fold-times longer execution for fold-times
// fewer sub-crossbar peripheries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "red/core/mode_groups.h"
#include "red/nn/layer.h"
#include "red/tensor/tensor.h"

namespace red::core {

/// Eq. 1 slice: the row-major C x M weight block of sub-crossbar `sc`, a view
/// into `kernel` (shape spec.kernel_shape()) with no copy.
[[nodiscard]] std::span<const std::int32_t> sc_block(const nn::DeconvLayerSpec& spec,
                                                     const Tensor<std::int32_t>& kernel,
                                                     ScCoord sc);

/// Smallest power-of-two fold such that the folded sub-crossbar count
/// (sum over groups of ceil(group_size / fold)) fits `max_subcrossbars`.
/// For FCN-style 16x16 kernels at stride 8 with the paper's 128-subarray
/// budget this returns 2, reproducing Sec. III-C's "128 sub-arrays complete
/// the 64 computation modes in two cycles".
[[nodiscard]] int auto_fold(const std::vector<ModeGroup>& groups, int max_subcrossbars);

/// Folded sub-crossbar count for a given fold factor.
[[nodiscard]] std::int64_t folded_sc_count(const std::vector<ModeGroup>& groups, int fold);

}  // namespace red::core
