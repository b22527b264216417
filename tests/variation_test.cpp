// Tests for device variation and stuck-at fault injection.
#include <gtest/gtest.h>

#include <vector>

#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/nn/deconv_reference.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/xbar/crossbar.h"

namespace red::xbar {
namespace {

LogicalXbar make_xbar(QuantConfig q, std::uint64_t data_seed = 9) {
  Rng rng(data_seed);
  std::vector<std::int32_t> w(64 * 4);
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-100, 100));
  return LogicalXbar(64, 4, w, q);
}

TEST(Variation, DisabledModelIsExact) {
  QuantConfig q;
  EXPECT_FALSE(q.variation.enabled());
  const auto xb = make_xbar(q);
  EXPECT_EQ(xb.variation_stats().perturbed_cells, 0);
  EXPECT_EQ(xb.variation_stats().stuck_cells, 0);
}

TEST(Variation, ValidationRejectsBadRates) {
  VariationModel v;
  v.stuck_at_rate = 1.5;
  EXPECT_THROW(v.validate(), ContractViolation);
  v = VariationModel{};
  v.level_sigma = -0.1;
  EXPECT_THROW(v.validate(), ContractViolation);
}

TEST(Variation, LegacyStuckRateSplitsEvenlyAcrossPolarities) {
  VariationModel v;
  v.stuck_at_rate = 0.2;
  EXPECT_DOUBLE_EQ(v.sa0(), 0.1);
  EXPECT_DOUBLE_EQ(v.sa1(), 0.1);
  EXPECT_DOUBLE_EQ(v.stuck_total(), 0.2);
  // Per-polarity fields stack on top of the alias.
  v.sa0_rate = 0.05;
  EXPECT_DOUBLE_EQ(v.sa0(), 0.15);
  EXPECT_DOUBLE_EQ(v.stuck_total(), 0.25);
  EXPECT_TRUE(v.enabled());
  // Each field can be legal on its own while the combined rate is not.
  v = VariationModel{};
  v.sa0_rate = 0.6;
  v.sa1_rate = 0.6;
  EXPECT_THROW(v.validate(), ContractViolation);
}

TEST(Variation, PolarityRatesForceTheMatchingLevel) {
  // sa0-only: every stuck cell reads level 0; sa1-only: max level. The
  // counters split accordingly.
  QuantConfig q0;
  q0.variation.sa0_rate = 0.3;
  const auto xb0 = make_xbar(q0);
  EXPECT_GT(xb0.variation_stats().sa0_cells, 0);
  EXPECT_EQ(xb0.variation_stats().sa1_cells, 0);
  EXPECT_EQ(xb0.variation_stats().stuck_cells, xb0.variation_stats().sa0_cells);

  QuantConfig q1;
  q1.variation.sa1_rate = 0.3;
  const auto xb1 = make_xbar(q1);
  EXPECT_GT(xb1.variation_stats().sa1_cells, 0);
  EXPECT_EQ(xb1.variation_stats().sa0_cells, 0);

  // The legacy alias keeps drawing both polarities.
  QuantConfig qb;
  qb.variation.stuck_at_rate = 0.5;
  const auto xbb = make_xbar(qb);
  EXPECT_GT(xbb.variation_stats().sa0_cells, 0);
  EXPECT_GT(xbb.variation_stats().sa1_cells, 0);
  EXPECT_EQ(xbb.variation_stats().stuck_cells,
            xbb.variation_stats().sa0_cells + xbb.variation_stats().sa1_cells);
}

TEST(Variation, FastDeltaReprogramCountsPolarities) {
  QuantConfig clean_q;
  const auto clean = make_xbar(clean_q);
  VariationModel var;
  var.sa0_rate = 0.15;
  var.sa1_rate = 0.05;
  var.seed = 31;
  const LogicalXbar fast(clean, var, 0);
  const auto& st = fast.variation_stats();
  EXPECT_GT(st.sa0_cells, 0);
  EXPECT_GT(st.sa1_cells, 0);
  EXPECT_EQ(st.stuck_cells, st.sa0_cells + st.sa1_cells);
  // 3x the sa1 rate on sa0: the split should lean the same way.
  EXPECT_GT(st.sa0_cells, st.sa1_cells);
}

TEST(Variation, SeedMakesPerturbationDeterministic) {
  QuantConfig q;
  q.variation.level_sigma = 0.4;
  q.variation.seed = 77;
  const auto a = make_xbar(q);
  const auto b = make_xbar(q);
  for (std::int64_t r = 0; r < 64; ++r)
    for (std::int64_t c = 0; c < 4; ++c) ASSERT_EQ(a.stored_weight(r, c), b.stored_weight(r, c));
  q.variation.seed = 78;
  const auto c2 = make_xbar(q);
  int diffs = 0;
  for (std::int64_t r = 0; r < 64; ++r)
    for (std::int64_t c = 0; c < 4; ++c) diffs += a.stored_weight(r, c) != c2.stored_weight(r, c);
  EXPECT_GT(diffs, 0);
}

TEST(Variation, FastAndBitAccuratePathsAgreeUnderNoise) {
  // The perturbation lands on the stored levels, so both paths compute with
  // the same weights and must still agree exactly.
  QuantConfig q;
  q.variation.level_sigma = 0.5;
  q.variation.stuck_at_rate = 0.05;
  const auto xb = make_xbar(q);
  Rng rng(5);
  std::vector<std::int32_t> in(64);
  for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(-50, 50));
  EXPECT_EQ(xb.mvm(in), xb.mvm_bit_accurate(in));
}

TEST(Variation, ErrorGrowsWithSigma) {
  Rng rng(6);
  std::vector<std::int32_t> in(64);
  for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(-50, 50));
  QuantConfig clean;
  const auto exact = make_xbar(clean).mvm(in);

  double prev_err = -1.0;
  for (double sigma : {0.3, 0.6, 1.5}) {
    QuantConfig q;
    q.variation.level_sigma = sigma;
    // Average |error| over several seeds to get a stable ordering.
    double err = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      q.variation.seed = seed;
      const auto noisy = make_xbar(q).mvm(in);
      for (std::size_t i = 0; i < noisy.size(); ++i)
        err += std::abs(static_cast<double>(noisy[i] - exact[i]));
    }
    EXPECT_GT(err, prev_err) << "sigma " << sigma;
    prev_err = err;
  }
}

TEST(Variation, StuckCellsAreCounted) {
  QuantConfig q;
  q.variation.stuck_at_rate = 0.25;
  const auto xb = make_xbar(q);
  const auto& st = xb.variation_stats();
  EXPECT_EQ(st.cells, 64 * 4 * 4);  // rows x cols x slices
  // ~25% of cells selected; binomial bounds with margin.
  EXPECT_GT(st.stuck_cells, st.cells / 8);
  EXPECT_LT(st.stuck_cells, st.cells / 2);
}

TEST(Variation, RedDesignDegradesGracefullyUnderNoise) {
  // Unprotected MLC slices make programming noise expensive (a +-1 level
  // error on the top slice shifts the weight by 4^3): the useful property is
  // that the error is non-zero, finite, ordered in sigma, and present for
  // every design — not that it is small.
  const nn::DeconvLayerSpec spec{"noisy", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  Rng rng(17);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -20, 20);
  const auto golden = nn::deconv_reference(spec, input, kernel);

  // Sigmas well below 0.5 level-units round back to the programmed level
  // (write-and-verify); sweep above that threshold.
  double prev = -1.0;
  for (double sigma : {0.3, 0.8}) {
    double err_red = 0, err_zp = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      arch::DesignConfig cfg;
      cfg.quant.variation.level_sigma = sigma;
      cfg.quant.variation.seed = seed;
      err_red += normalized_rmse(
          golden, core::make_design(core::DesignKind::kRed, cfg)->run(spec, input, kernel));
      err_zp += normalized_rmse(
          golden,
          core::make_design(core::DesignKind::kZeroPadding, cfg)->run(spec, input, kernel));
    }
    EXPECT_GT(err_red, 0.0) << sigma;
    EXPECT_TRUE(std::isfinite(err_red));
    EXPECT_GT(err_zp, 0.0) << sigma;
    // Same noise process on the same number of devices: the two designs'
    // seed-averaged degradation agrees within a small factor.
    EXPECT_LT(err_red / err_zp, 3.0) << sigma;
    EXPECT_GT(err_red / err_zp, 1.0 / 3.0) << sigma;
    EXPECT_GT(err_red, prev);  // ordered in sigma
    prev = err_red;
  }
}

TEST(Variation, RedGroupsDrawIndependentMasks) {
  // A constant kernel and an all-ones input give every RED mode group the
  // same clean crossbar and the same inputs at the output centre, where each
  // pixel takes all 2x2 taps of its group. Unsalted groups would draw the
  // same mask and so agree on every centre pixel of their residue class;
  // salted per group (from-weights programming and perturbed() alike), the
  // four residue classes must disagree somewhere.
  const nn::DeconvLayerSpec spec{"groups", 4, 4, 2, 2, 4, 4, 2, 1, 0};
  const Tensor<std::int32_t> input(spec.input_shape(), 1);
  const Tensor<std::int32_t> kernel(spec.kernel_shape(), 5);
  VariationModel var;
  var.level_sigma = 0.8;
  var.seed = 3;
  arch::DesignConfig cfg;
  cfg.quant.variation = var;
  const auto noisy = core::make_design(core::DesignKind::kRed, cfg);
  const auto clean = core::make_design(core::DesignKind::kRed)->program(spec, kernel);
  for (const auto& out : {noisy->run(spec, input, kernel), clean->perturbed(var)->run(input)}) {
    bool classes_differ = false;
    for (int m = 0; m < spec.m; ++m)
      for (int y = 2; y < 6; ++y)
        for (int x = 2; x < 6; ++x)
          // Residue class (y % 2, x % 2) against class (0, 0) at the same
          // block; the clean values are all equal there.
          classes_differ |= out.at(0, m, y, x) != out.at(0, m, 2 + (y - 2) / 2 * 2,
                                                         2 + (x - 2) / 2 * 2);
    EXPECT_TRUE(classes_differ);
  }
}

TEST(Variation, FaultFreeRedStillBitExact) {
  // Regression guard: adding the variation plumbing must not disturb the
  // noise-free path.
  const nn::DeconvLayerSpec spec{"clean", 3, 3, 4, 3, 3, 3, 2, 1, 0};
  Rng rng(18);
  const auto input = workloads::make_input(spec, rng, -7, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto red = core::make_design(core::DesignKind::kRed);
  EXPECT_EQ(first_mismatch(nn::deconv_reference(spec, input, kernel),
                           red->run(spec, input, kernel)),
            "");
}

}  // namespace
}  // namespace red::xbar
