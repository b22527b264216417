// Shared outside oracle for the execution-path tests: counter-RNG-drawn
// deconvolution layers checked against nn::deconv_reference and against the
// compiled plan's activity model. Case k draws from its own Rng(seed + k), so
// any single case reproduces alone; strides cycle through 1..4 and pad /
// output_pad are drawn. Odd cases keep zero activations, so zero-skipping
// and data-dependent wordline drives are exercised too.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "red/arch/design.h"
#include "red/common/rng.h"
#include "red/nn/deconv_reference.h"
#include "red/sim/engine.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"

namespace red::oracle {

struct Case {
  nn::DeconvLayerSpec spec;
  Tensor<std::int32_t> input, kernel, reference;
};

inline Case draw_case(std::uint64_t counter) {
  Rng rng(counter);
  workloads::GeneratorOptions opts;
  opts.max_spatial = 6;
  opts.max_kernel = 5;
  opts.max_channels = 3;
  const int stride = 1 + static_cast<int>(counter % 4);
  Case c;
  do {
    c.spec = workloads::random_layer(rng, opts);
  } while (c.spec.stride != stride);
  c.input = workloads::make_input(c.spec, rng, counter % 2 == 0 ? 1 : 0, 7);
  c.kernel = workloads::make_kernel(c.spec, rng, -7, 7);
  c.reference = nn::deconv_reference(c.spec, c.input, c.kernel);
  return c;
}

/// RED mapping knobs each case is swept over: fold 1/2/4 with the
/// lookahead/lookaside window off, and two windows on.
struct Knobs {
  int fold, lookahead_h, lookaside_d;
};
inline constexpr Knobs kKnobs[] = {{1, 0, 0}, {2, 0, 0}, {4, 0, 0}, {2, 1, 1}, {4, 2, 3}};

inline arch::DesignConfig config(Knobs k, bool bit_accurate, int threads) {
  arch::DesignConfig cfg;
  cfg.red_fold = k.fold;
  cfg.lookahead_h = k.lookahead_h;
  cfg.lookaside_d = k.lookaside_d;
  cfg.bit_accurate = bit_accurate;
  cfg.threads = threads;
  return cfg;
}

inline std::string label(const Case& c, const arch::DesignConfig& cfg) {
  return c.spec.name + " s=" + std::to_string(c.spec.stride) + " k=" +
         std::to_string(c.spec.kh) + "x" + std::to_string(c.spec.kw) +
         " p=" + std::to_string(c.spec.pad) + " op=" + std::to_string(c.spec.output_pad) +
         " fold=" + std::to_string(cfg.red_fold) + " h/d=" + std::to_string(cfg.lookahead_h) +
         "/" + std::to_string(cfg.lookaside_d) + " bitacc=" + std::to_string(cfg.bit_accurate) +
         " threads=" + std::to_string(cfg.threads);
}

/// `out` equals the reference and `stats` agrees with the predicted activity.
inline void expect_matches(const Case& c, const arch::LayerActivity& predicted,
                           const Tensor<std::int32_t>& out, const arch::RunStats& stats,
                           const std::string& what) {
  EXPECT_EQ(first_mismatch(c.reference, out), "") << what;
  const auto issues = sim::consistency_issues(predicted, stats, count_zeros(c.input) == 0);
  EXPECT_TRUE(issues.empty()) << what << ": " << (issues.empty() ? "" : issues.front());
}

}  // namespace red::oracle
