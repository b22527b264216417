// Computation modes of deconvolution (paper Fig. 6) and their sub-crossbar
// groups.
//
// Sliding a KHxKW kernel over the zero-inserted input repeats stride^2
// computation modes: the output pixel at phase (a, b) within an s x s output
// block only meets kernel weights whose spatial index is congruent to
// ((a + pad) mod s, (b + pad) mod s). The kernel weights are therefore
// *exclusive* across modes — the fact pixel-wise mapping exploits to run all
// modes in parallel. Sub-crossbars in one group are stacked on shared
// bitlines (the existing vertical sum-up of [8, 12]), so their partial sums
// add for free.
#pragma once

#include <cstdint>
#include <vector>

#include "red/nn/layer.h"

namespace red::core {

/// Kernel spatial position of one sub-crossbar (Eq. 1 index i*KW + j).
struct ScCoord {
  int i = 0;
  int j = 0;
  [[nodiscard]] int flat(int kw) const { return i * kw + j; }
  friend bool operator==(ScCoord, ScCoord) = default;
};

/// One computation mode: output phase (a, b) plus the sub-crossbars feeding it.
struct ModeGroup {
  int a = 0;  ///< output row phase within the s x s block
  int b = 0;  ///< output col phase
  std::vector<ScCoord> scs;  ///< lexicographically ordered kernel positions

  /// Input row offset of sub-crossbar (i, j) relative to the block base:
  /// h = block_row + row_offset(i). May be negative (edge masking).
  [[nodiscard]] static int input_offset(int phase, int pad, int k_index, int stride);

  friend bool operator==(const ModeGroup&, const ModeGroup&) = default;
};

/// All non-empty mode groups of a layer, ordered by (a, b).
[[nodiscard]] std::vector<ModeGroup> compute_mode_groups(const nn::DeconvLayerSpec& spec);

/// Largest number of sub-crossbars stacked in one group.
[[nodiscard]] std::int64_t max_group_size(const std::vector<ModeGroup>& groups);

/// Total sub-crossbars across groups (== KH*KW; the modes partition the kernel).
[[nodiscard]] std::int64_t total_sub_crossbars(const std::vector<ModeGroup>& groups);

}  // namespace red::core
