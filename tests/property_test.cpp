// Parameterized property suites sweeping the design space:
//   * quantization grid — functional exactness across (wbits, cell_bits,
//     abits) for all designs;
//   * cost monotonicity — latency/energy/area respond monotonically to
//     layer-geometry growth;
//   * redundancy cross-check — the analytic Fig. 4 ratio equals a brute-force
//     count on the actual padded tensor;
//   * activity conservation laws across designs.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/nn/deconv_reference.h"
#include "red/nn/deconv_zero_padding.h"
#include "red/nn/redundancy.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace red {
namespace {

// ---------------------------------------------------------------------------
// Quantization grid: wbits x cell_bits x abits
// ---------------------------------------------------------------------------

using QuantPoint = std::tuple<int, int, int>;  // wbits, cell_bits, abits

class QuantGrid : public ::testing::TestWithParam<QuantPoint> {};

TEST_P(QuantGrid, AllDesignsExactForInRangeData) {
  const auto [wbits, cell_bits, abits] = GetParam();
  arch::DesignConfig cfg;
  cfg.quant.wbits = wbits;
  cfg.quant.cell_bits = cell_bits;
  cfg.quant.abits = abits;

  const nn::DeconvLayerSpec spec{"qgrid", 3, 4, 3, 2, 3, 3, 2, 1, 0};
  Rng rng(1000 + wbits * 100 + cell_bits * 10 + abits);
  const std::int32_t wmax = static_cast<std::int32_t>((1 << (wbits - 1)) - 1);
  const std::int32_t amax = static_cast<std::int32_t>((1 << (abits - 1)) - 1);
  Tensor<std::int32_t> input(spec.input_shape());
  Tensor<std::int32_t> kernel(spec.kernel_shape());
  fill_random(input, rng, -amax, amax);
  fill_random(kernel, rng, -wmax, wmax);

  const auto golden = nn::deconv_reference(spec, input, kernel);
  for (const auto& design : core::make_all_designs(cfg))
    ASSERT_EQ(first_mismatch(golden, design->run(spec, input, kernel)), "")
        << design->name() << " w" << wbits << " c" << cell_bits << " a" << abits;
}

TEST_P(QuantGrid, BitAccuratePathAgrees) {
  const auto [wbits, cell_bits, abits] = GetParam();
  arch::DesignConfig cfg;
  cfg.quant.wbits = wbits;
  cfg.quant.cell_bits = cell_bits;
  cfg.quant.abits = abits;
  cfg.bit_accurate = true;

  const nn::DeconvLayerSpec spec{"qgrid_ba", 3, 3, 2, 2, 3, 3, 2, 1, 0};
  Rng rng(2000 + wbits * 100 + cell_bits * 10 + abits);
  const std::int32_t wmax = static_cast<std::int32_t>((1 << (wbits - 1)) - 1);
  const std::int32_t amax = static_cast<std::int32_t>((1 << (abits - 1)) - 1);
  Tensor<std::int32_t> input(spec.input_shape());
  Tensor<std::int32_t> kernel(spec.kernel_shape());
  fill_random(input, rng, -amax, amax);
  fill_random(kernel, rng, -wmax, wmax);

  const auto golden = nn::deconv_reference(spec, input, kernel);
  const auto red = core::make_design(core::DesignKind::kRed, cfg);
  ASSERT_EQ(first_mismatch(golden, red->run(spec, input, kernel)), "")
      << "w" << wbits << " c" << cell_bits << " a" << abits;
}

INSTANTIATE_TEST_SUITE_P(WidthsByCells, QuantGrid,
                         ::testing::Combine(::testing::Values(4, 6, 8, 12),   // wbits
                                            ::testing::Values(1, 2, 3),      // cell_bits
                                            ::testing::Values(4, 8, 12)),    // abits
                         [](const auto& info) {
                           return "w" + std::to_string(std::get<0>(info.param)) + "c" +
                                  std::to_string(std::get<1>(info.param)) + "a" +
                                  std::to_string(std::get<2>(info.param));
                         });

// ---------------------------------------------------------------------------
// Cost monotonicity
// ---------------------------------------------------------------------------

struct GrowthAxis {
  const char* tag;
  nn::DeconvLayerSpec (*grow)(int);
};

nn::DeconvLayerSpec grow_channels(int step) {
  return nn::DeconvLayerSpec{"gc", 4, 4, 16 << step, 16, 4, 4, 2, 1, 0};
}
nn::DeconvLayerSpec grow_maps(int step) {
  return nn::DeconvLayerSpec{"gm", 4, 4, 16, 16 << step, 4, 4, 2, 1, 0};
}
nn::DeconvLayerSpec grow_spatial(int step) {
  return nn::DeconvLayerSpec{"gs", 4 << step, 4 << step, 16, 16, 4, 4, 2, 1, 0};
}
nn::DeconvLayerSpec grow_kernel(int step) {
  const int k = 3 + 2 * step;
  return nn::DeconvLayerSpec{"gk", 4, 4, 16, 16, k, k, 2, 1, 0};
}

class CostMonotonicity : public ::testing::TestWithParam<GrowthAxis> {};

TEST_P(CostMonotonicity, EnergyAndAreaGrowWithEveryAxis) {
  const auto& axis = GetParam();
  const bool spatial = std::string(axis.tag) == "spatial";
  for (const auto& design : core::make_all_designs()) {
    double prev_energy = 0, prev_area = 0;
    for (int step = 0; step < 3; ++step) {
      const auto spec = axis.grow(step);
      spec.validate();
      const auto cost = design->cost(spec);
      EXPECT_GT(cost.total_energy().value(), prev_energy)
          << design->name() << " " << axis.tag << " step " << step;
      if (spatial) {
        // Weights are resident: more pixels mean more cycles, not more
        // crossbar — area must stay exactly flat along the spatial axis.
        if (step > 0) {
          EXPECT_DOUBLE_EQ(cost.total_area().value(), prev_area)
              << design->name() << " step " << step;
        }
      } else {
        EXPECT_GT(cost.total_area().value(), prev_area)
            << design->name() << " " << axis.tag << " step " << step;
      }
      prev_energy = cost.total_energy().value();
      prev_area = cost.total_area().value();
    }
  }
}

TEST_P(CostMonotonicity, LatencyNeverShrinksWithSpatialGrowth) {
  const auto& axis = GetParam();
  for (const auto& design : core::make_all_designs()) {
    double prev = 0;
    for (int step = 0; step < 3; ++step) {
      const auto cost = design->cost(axis.grow(step));
      EXPECT_GE(cost.total_latency().value(), prev)
          << design->name() << " " << axis.tag << " step " << step;
      prev = cost.total_latency().value();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, CostMonotonicity,
                         ::testing::Values(GrowthAxis{"channels", &grow_channels},
                                           GrowthAxis{"maps", &grow_maps},
                                           GrowthAxis{"spatial", &grow_spatial},
                                           GrowthAxis{"kernel", &grow_kernel}),
                         [](const auto& info) { return std::string(info.param.tag); });

// ---------------------------------------------------------------------------
// Redundancy brute-force cross-check
// ---------------------------------------------------------------------------

TEST(RedundancyProperty, AnalyticEqualsBruteForceOnRandomGeometries) {
  Rng rng(555);
  for (int t = 0; t < 30; ++t) {
    auto spec = workloads::random_layer(rng);
    spec.c = 1;
    spec.m = 1;
    // Brute force: build the padded tensor from an all-ones input and count.
    Tensor<std::int32_t> ones(spec.input_shape(), 1);
    const auto padded = nn::zero_pad_input(spec, ones);
    const double brute =
        static_cast<double>(count_zeros(padded)) / static_cast<double>(padded.size());
    ASSERT_NEAR(nn::zero_redundancy_ratio(spec), brute, 1e-12) << spec.to_string();
  }
}

/// The O(out*k) per-window count the production closed form replaced, kept
/// as the oracle: along one axis, the taps i of window y that land on an
/// input pixel of the zero-inserted, padded row.
std::int64_t window_hits_1d_oracle(int offset, int extent, int out, int k, int stride) {
  std::int64_t hits = 0;
  for (int y = 0; y < out; ++y)
    for (int i = 0; i < k; ++i) {
      const int rel = y + i - offset;
      if (rel >= 0 && rel % stride == 0 && rel / stride < extent) ++hits;
    }
  return hits;
}

std::int64_t window_hits_oracle(const nn::DeconvLayerSpec& spec) {
  const auto g = nn::padded_geometry(spec);
  return window_hits_1d_oracle(g.offset_top, spec.ih, spec.oh(), spec.kh, spec.stride) *
         window_hits_1d_oracle(g.offset_left, spec.iw, spec.ow(), spec.kw, spec.stride);
}

TEST(RedundancyProperty, StructuralHitsEqualBruteForceWindowCount) {
  Rng rng(556);
  for (int t = 0; t < 20; ++t) {
    auto spec = workloads::random_layer(rng);
    spec.c = 1;
    spec.m = 1;
    Tensor<std::int32_t> ones(spec.input_shape(), 1);
    const auto padded = nn::zero_pad_input(spec, ones);
    std::int64_t brute = 0;
    for (int y = 0; y < spec.oh(); ++y)
      for (int x = 0; x < spec.ow(); ++x)
        for (int i = 0; i < spec.kh; ++i)
          for (int j = 0; j < spec.kw; ++j) brute += padded.at(0, 0, y + i, x + j);
    ASSERT_EQ(nn::structural_window_hits(spec), brute) << spec.to_string();
    ASSERT_EQ(window_hits_oracle(spec), brute) << spec.to_string();
  }

  // Shapes random_layer does not reach: fcn8s' 16x16/stride-8 head
  // (70 -> 568), output_pad > 0, pad == k-1, stride > k, plus every network
  // stack the benchmarks run.
  std::vector<nn::DeconvLayerSpec> specs = {
      {"fcn8s_up8", 70, 70, 1, 1, 16, 16, 8, 0, 0},
      {"fcn8s_up8_pad", 70, 70, 1, 1, 16, 16, 8, 4, 3},
      {"output_pad", 5, 7, 1, 1, 5, 5, 2, 2, 1},
      {"output_pad_s4", 6, 3, 1, 1, 4, 6, 4, 1, 3},
      {"pad_k_minus_1", 9, 9, 1, 1, 4, 4, 2, 3, 0},
      {"pad_k_minus_1_s3", 4, 6, 1, 1, 3, 5, 3, 2, 2},
      {"stride_gt_k", 6, 6, 1, 1, 2, 2, 5, 0, 0},
      {"stride_gt_k_pad", 7, 5, 1, 1, 3, 2, 8, 1, 7},
      {"k1", 8, 8, 1, 1, 1, 1, 3, 0, 2},
  };
  for (const char* net : {"dcgan", "sngan", "fcn8s"})
    for (const auto& spec : workloads::named_stack(net)) specs.push_back(spec);
  for (const auto& spec : specs) {
    spec.validate();
    EXPECT_EQ(nn::structural_window_hits(spec), window_hits_oracle(spec)) << spec.to_string();
  }

  // Exhaustive small grid: every pad and output_pad the geometry allows.
  std::int64_t checked = 0;
  for (int ih = 1; ih <= 6; ++ih)
    for (int k = 1; k <= 6; ++k)
      for (int stride = 1; stride <= 4; ++stride)
        for (int pad = 0; pad <= k - 1; ++pad)
          for (int op = 0; op < std::max(stride, 1); ++op) {
            const nn::DeconvLayerSpec spec{"grid", ih, ih + 1, 1, 1, k, k, stride, pad, op};
            if (spec.oh() < 1 || spec.ow() < 1) continue;
            ASSERT_EQ(nn::structural_window_hits(spec), window_hits_oracle(spec))
                << spec.to_string();
            ++checked;
          }
  EXPECT_GT(checked, 1000);
}

// ---------------------------------------------------------------------------
// Conservation laws across designs
// ---------------------------------------------------------------------------

TEST(ConservationLaws, UsefulWorkIdenticalAcrossDesigns) {
  Rng rng(557);
  for (int t = 0; t < 20; ++t) {
    const auto spec = workloads::random_layer(rng);
    Rng data_rng(700 + t);
    const auto input = workloads::make_input(spec, data_rng, 1, 7);
    const auto kernel = workloads::make_kernel(spec, data_rng, -7, 7);
    std::int64_t pulses_zp = -1, pulses_red = -1;
    for (const auto& design : core::make_all_designs()) {
      arch::RunStats stats;
      (void)design->run(spec, input, kernel, &stats);
      if (design->name() == "zero-padding") pulses_zp = stats.mvm.mac_pulses;
      if (design->name() == "RED") pulses_red = stats.mvm.mac_pulses;
    }
    // Zero-skipping removes only structurally-zero work: cell-level pulse
    // counts coincide exactly between ZP (which skips zero rows electrically)
    // and RED (which never streams them).
    ASSERT_EQ(pulses_zp, pulses_red) << spec.to_string();
  }
}

TEST(ConservationLaws, CyclesOrderingAlwaysHolds) {
  Rng rng(558);
  for (int t = 0; t < 30; ++t) {
    const auto spec = workloads::random_layer(rng);
    const auto zp = core::make_design(core::DesignKind::kZeroPadding)->activity(spec);
    const auto pf = core::make_design(core::DesignKind::kPaddingFree)->activity(spec);
    const auto red = core::make_design(core::DesignKind::kRed)->activity(spec);
    ASSERT_LE(red.cycles, zp.cycles) << spec.to_string();
    // Padding-free (IH*IW cycles) beats zero-padding (OH*OW) whenever the
    // layer actually up-samples; a stride-1 layer with shrinking pad is the
    // only exception.
    if (spec.oh() * spec.ow() >= spec.ih * spec.iw) {
      ASSERT_LE(pf.cycles, zp.cycles) << spec.to_string();
    }
  }
}

}  // namespace
}  // namespace red
