// Tests for computation modes (Fig. 6), pixel-wise mapping (Eq. 1), and
// area-efficient folding (Eq. 2 / Sec. III-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/core/mode_groups.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"

namespace red::core {
namespace {

nn::DeconvLayerSpec paper_example() {
  // The paper's running example: 3x3 kernel, stride 2 (Figs. 5 and 6).
  return nn::DeconvLayerSpec{"example", 4, 4, 2, 3, 3, 3, 2, 1, 0};
}

TEST(ModeGroups, PaperFig6Example) {
  // Fig. 6: kernel 3x3, stride 2 -> four modes with weights
  // {1,3,7,9}, {4,6}, {2,8}, {5} (1-indexed row-major). With pad 1 the
  // mode of output phase (a, b) selects taps congruent to (a+1, b+1) mod 2.
  const auto groups = compute_mode_groups(paper_example());
  ASSERT_EQ(groups.size(), 4u);  // stride^2 modes
  EXPECT_EQ(total_sub_crossbars(groups), 9);
  EXPECT_EQ(max_group_size(groups), 4);

  // Mode sizes are {4, 2, 2, 1} in some order.
  std::vector<std::size_t> sizes;
  for (const auto& g : groups) sizes.push_back(g.scs.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 2, 4}));

  // The size-4 group holds the corner+center taps {(0,0),(0,2),(2,0),(2,2)}
  // = weights 1,3,7,9; the size-1 group holds (1,1) = weight 5.
  for (const auto& g : groups) {
    if (g.scs.size() == 4) {
      EXPECT_EQ(g.scs[0], (ScCoord{0, 0}));
      EXPECT_EQ(g.scs[3], (ScCoord{2, 2}));
    }
    if (g.scs.size() == 1) {
      EXPECT_EQ(g.scs[0], (ScCoord{1, 1}));
    }
  }
}

TEST(ModeGroups, PartitionTheKernel) {
  Rng rng(10);
  for (int t = 0; t < 40; ++t) {
    const auto spec = workloads::random_layer(rng);
    const auto groups = compute_mode_groups(spec);
    // Modes partition the KH*KW taps: total count matches and no duplicates.
    EXPECT_EQ(total_sub_crossbars(groups), std::int64_t{spec.kh} * spec.kw) << spec.to_string();
    std::vector<int> seen(static_cast<std::size_t>(spec.kh * spec.kw), 0);
    for (const auto& g : groups)
      for (const auto& sc : g.scs) ++seen[static_cast<std::size_t>(sc.flat(spec.kw))];
    for (auto s : seen) EXPECT_EQ(s, 1);
    // At most stride^2 modes.
    EXPECT_LE(groups.size(), static_cast<std::size_t>(spec.stride) * spec.stride);
  }
}

TEST(ModeGroups, WeightsExclusiveAcrossModes) {
  // The paper: "the weights of the kernel filter are exclusive among these
  // modes" — same-group taps differ by multiples of the stride.
  const auto groups = compute_mode_groups(paper_example());
  for (const auto& g : groups)
    for (std::size_t u = 1; u < g.scs.size(); ++u) {
      EXPECT_EQ((g.scs[u].i - g.scs[0].i) % 2, 0);
      EXPECT_EQ((g.scs[u].j - g.scs[0].j) % 2, 0);
    }
}

TEST(ModeGroups, Stride1IsSingleGroup) {
  nn::DeconvLayerSpec spec{"s1", 4, 4, 2, 2, 3, 3, 1, 1, 0};
  const auto groups = compute_mode_groups(spec);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].scs.size(), 9u);  // whole kernel in one mode
}

TEST(ModeGroups, KernelSmallerThanStrideLeavesEmptyModes) {
  // K=2, s=4: only 4 of the 16 modes have taps; empty modes are dropped
  // (their output pixels are structurally zero).
  nn::DeconvLayerSpec spec{"gap", 3, 3, 1, 1, 2, 2, 4, 0, 0};
  const auto groups = compute_mode_groups(spec);
  EXPECT_EQ(groups.size(), 4u);
  EXPECT_EQ(total_sub_crossbars(groups), 4);
}

TEST(ModeGroups, InputOffsetExactDivision) {
  // i ≡ (a+p) mod s within a group, so the offset is an exact division.
  EXPECT_EQ(ModeGroup::input_offset(/*phase=*/1, /*pad=*/1, /*k_index=*/0, /*stride=*/2), 1);
  EXPECT_EQ(ModeGroup::input_offset(1, 1, 2, 2), 0);
  EXPECT_EQ(ModeGroup::input_offset(0, 1, 3, 2), -1);  // negative: edge masking
  EXPECT_THROW((void)ModeGroup::input_offset(0, 0, 1, 2), ContractViolation);
}

TEST(PixelWiseMapping, Eq1Layout) {
  // SCT[c, m, i*KW + j] == W[i, j, c, m] for every index.
  const auto spec = paper_example();
  Tensor<std::int32_t> kernel(spec.kernel_shape());
  Rng rng(11);
  fill_random(kernel, rng, -9, 9);
  for (int i = 0; i < spec.kh; ++i)
    for (int j = 0; j < spec.kw; ++j) {
      const auto blk = sc_block(spec, kernel, ScCoord{i, j});
      for (int c = 0; c < spec.c; ++c)
        for (int m = 0; m < spec.m; ++m)
          EXPECT_EQ(blk[static_cast<std::size_t>(c) * spec.m + m], kernel.at(i, j, c, m));
    }
  EXPECT_THROW((void)sc_block(spec, kernel, ScCoord{spec.kh, 0}), ContractViolation);
  EXPECT_THROW((void)sc_block(spec, kernel, ScCoord{0, spec.kw}), ContractViolation);
}

TEST(PixelWiseMapping, ScBlockIsRowMajorCxM) {
  const auto spec = paper_example();
  Tensor<std::int32_t> kernel(spec.kernel_shape());
  Rng rng(12);
  fill_random(kernel, rng, -9, 9);
  const auto blk = sc_block(spec, kernel, ScCoord{1, 2});
  ASSERT_EQ(blk.size(), static_cast<std::size_t>(spec.c) * spec.m);
  for (int c = 0; c < spec.c; ++c)
    for (int m = 0; m < spec.m; ++m)
      EXPECT_EQ(blk[static_cast<std::size_t>(c) * spec.m + m], kernel.at(1, 2, c, m));
  const Tensor<std::int32_t> other(Shape4{spec.kh, spec.kw, spec.c, spec.m + 1});
  EXPECT_THROW((void)sc_block(spec, other, ScCoord{0, 0}), ContractViolation);
}

TEST(Folding, PaperFcnExample) {
  // Sec. III-C: stride 8, kernel 16x16 -> 256 sub-crossbars; with the
  // 128-subarray budget the fold is 2 ("128 sub-arrays complete the 64
  // computation modes in two cycles").
  nn::DeconvLayerSpec spec{"fcn8", 70, 70, 21, 21, 16, 16, 8, 0, 0};
  const auto groups = compute_mode_groups(spec);
  EXPECT_EQ(groups.size(), 64u);
  EXPECT_EQ(total_sub_crossbars(groups), 256);
  EXPECT_EQ(folded_sc_count(groups, 1), 256);
  EXPECT_EQ(folded_sc_count(groups, 2), 128);
  EXPECT_EQ(auto_fold(groups, 128), 2);
  EXPECT_EQ(auto_fold(groups, 256), 1);
  EXPECT_EQ(auto_fold(groups, 64), 4);
}

TEST(Folding, SmallKernelsNeverFold) {
  const auto groups = compute_mode_groups(paper_example());
  EXPECT_EQ(auto_fold(groups, 128), 1);
}

TEST(Folding, FoldCappedByGroupSize) {
  // Folding cannot reduce below one sub-crossbar per group.
  const auto groups = compute_mode_groups(paper_example());  // sizes 4,2,2,1
  EXPECT_EQ(folded_sc_count(groups, 4), 1 + 1 + 1 + 1);
  EXPECT_EQ(auto_fold(groups, 1), 4);  // best effort: 4 groups remain
}

}  // namespace
}  // namespace red::core
