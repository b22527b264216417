// Batched Monte Carlo engine for device-variation sweeps.
//
// The statistical ablations (bench_ablation_noise, robustness tests) measure
// output error under programming noise and stuck-at faults by re-running a
// design once per random seed. Done naively that rebuilds the design,
// re-extracts the weights, and re-encodes every cell per trial. This engine
// programs the clean base levels once (Design::program), then derives each
// trial by reprogramming only the VariationModel deltas on the clean levels
// via the accelerated sampler (LogicalXbar's FastDeltaTag constructor):
// the same variation law as from-scratch programming, but drawn from a
// different (cheaper) RNG stream — trial outputs are deterministic in the
// seed and thread-count invariant (tests/analog_fast_path_test.cpp asserts
// both), not bit-identical to the legacy per-seed rebuild.
//
// Trials fan out across the process-wide perf::ThreadPool with a
// deterministic seed -> trial mapping (trial t always uses base_seed + t)
// and land in per-trial result slots, so any thread count produces
// bit-identical trial vectors and the post-join aggregates are merged in
// trial order. Zero-padding and RED execute every trial on their one
// execution body, the programmed layer. Padding-free, the documented design
// without a programmed layer (arch/design.h), falls back to per-trial
// construction through its own run(), with the same determinism.
#pragma once

#include <cstdint>
#include <vector>

#include "red/arch/design.h"
#include "red/core/designs.h"
#include "red/nn/layer.h"
#include "red/tensor/tensor.h"
#include "red/xbar/variation.h"

namespace red::sim {

struct MonteCarloTrial {
  std::uint64_t seed = 0;  ///< variation seed this trial programmed with
  double nrmse = 0.0;      ///< normalized RMSE of the trial output vs reference
  xbar::VariationStats variation;  ///< per-trial cell counters (zeros on the
                                   ///< per-trial-construction fallback path)
  arch::RunStats stats;
};

struct MonteCarloResult {
  std::vector<MonteCarloTrial> trials;  ///< trial t used seed base_seed + t
  bool programmed_fast_path = false;    ///< false = per-trial construction fallback

  /// Trial-averaged normalized RMSE.
  [[nodiscard]] double mean_nrmse() const;
  /// Cell counters summed over trials (cells counts every trial's cells).
  [[nodiscard]] xbar::VariationStats variation_total() const;
  /// Trial-averaged perturbed / stuck cell counts.
  [[nodiscard]] double mean_perturbed_cells() const;
  [[nodiscard]] double mean_stuck_cells() const;
};

struct MonteCarloOptions {
  int trials = 5;
  std::uint64_t base_seed = 1;  ///< trial t programs with seed base_seed + t
  int threads = 1;              ///< trial-level fan-out (inner runs stay serial)
};

/// Sweep a whole grid of variation models over one programmed design:
/// clean programming happens once for the entire grid, and the
/// grid x trials trial matrix fans out across the pool as one flat index
/// space. Returns one MonteCarloResult per grid entry, in grid order.
/// `base_cfg.quant.variation` is ignored — each grid entry's model comes in
/// via `vars` (its seed field is overwritten per trial).
[[nodiscard]] std::vector<MonteCarloResult> run_monte_carlo_grid(
    core::DesignKind kind, const arch::DesignConfig& base_cfg,
    const std::vector<xbar::VariationModel>& vars, const nn::DeconvLayerSpec& spec,
    const Tensor<std::int32_t>& input, const Tensor<std::int32_t>& kernel,
    const Tensor<std::int32_t>& reference, const MonteCarloOptions& opts = {});

/// Single-model convenience wrapper around run_monte_carlo_grid.
[[nodiscard]] MonteCarloResult run_monte_carlo(core::DesignKind kind,
                                               const arch::DesignConfig& base_cfg,
                                               const xbar::VariationModel& var,
                                               const nn::DeconvLayerSpec& spec,
                                               const Tensor<std::int32_t>& input,
                                               const Tensor<std::int32_t>& kernel,
                                               const Tensor<std::int32_t>& reference,
                                               const MonteCarloOptions& opts = {});

}  // namespace red::sim
