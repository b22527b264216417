// Deterministic fault-injection campaigns.
//
// A campaign sweeps a grid of FaultModels (typically a fault-rate axis) over
// `trials` seeds each, running every trial twice — once bare (no mitigation)
// and once under the RepairPolicy — against the fault-free oracle computed
// from the same programmed crossbars. Scores are exact integer-tensor
// comparisons (output MSE/SNR, per-pixel bit-error counts), so the zero-rate
// point is bit-identical to the oracle by construction and the repaired arm's
// quality can be gated against the unrepaired arm per swept rate.
//
// Determinism contract: trials are fanned out on the process-wide ThreadPool
// with per-slot result storage, and every fault draw comes from the counter
// RNG keyed on physical position — so campaign outputs (masks, scores,
// aggregates) are bit-identical for any opts.threads.
#pragma once

#include <cstdint>
#include <vector>

#include "red/arch/design.h"
#include "red/core/designs.h"
#include "red/fault/model.h"
#include "red/nn/layer.h"
#include "red/tensor/tensor.h"
#include "red/xbar/quant_config.h"

namespace red::fault {

/// Exact degradation of one output tensor against the fault-free oracle.
struct FaultScore {
  double mse = 0.0;          ///< mean squared pixel error
  double snr_db = 300.0;     ///< 10 log10(oracle power / mse), capped at +-300
  double nrmse = 0.0;        ///< tensor_ops::normalized_rmse vs the oracle
  double max_abs_err = 0.0;  ///< worst single pixel
  std::int64_t pixels = 0;
  std::int64_t mismatched_pixels = 0;  ///< pixels differing at all
  std::int64_t bit_errors = 0;         ///< popcount of XORed int32 pixels

  [[nodiscard]] bool exact() const { return mismatched_pixels == 0; }
};

/// Score `out` against the fault-free `oracle` (same shape). Exposed for
/// tests and for scoring paths outside the campaign drivers.
[[nodiscard]] FaultScore score_output(const Tensor<std::int32_t>& oracle,
                                      const Tensor<std::int32_t>& out);

/// One arm (unrepaired or repaired) of one trial.
struct FaultTrialArm {
  FaultScore score;
  RepairReport repair;            ///< what injection + repair did
  xbar::VariationStats variation; ///< stuck/perturbed cell counters
  arch::RunStats stats;           ///< measured activity of the faulted run
};

struct FaultTrial {
  std::uint64_t seed = 0;
  FaultTrialArm unrepaired;  ///< RepairPolicy{} — the bare fault environment
  FaultTrialArm repaired;    ///< under the campaign's policy
};

/// All trials of one grid point (one FaultModel, `seed` overridden per trial).
struct FaultCampaignPoint {
  FaultModel model;  ///< as swept; model.seed holds the grid's base value
  std::vector<FaultTrial> trials;

  [[nodiscard]] double mean_mse(bool repaired) const;
  [[nodiscard]] double mean_snr_db(bool repaired) const;
  [[nodiscard]] double mean_nrmse(bool repaired) const;
  [[nodiscard]] double mean_bit_errors(bool repaired) const;
  /// The per-PR robustness gate: mean repaired MSE <= mean unrepaired MSE.
  [[nodiscard]] bool repaired_not_worse() const;
};

struct FaultCampaignOptions {
  int trials = 3;
  std::uint64_t base_seed = 1;  ///< trial t draws with seed base_seed + t
  int threads = 1;              ///< trial fan-out lanes (results invariant)
};

/// Sweep `models` x trials over one layer. The clean layer is programmed
/// once on opts.threads lanes (variation and fault config cleared) and
/// doubles as the oracle; each trial draws its faults once
/// (ProgrammedLayer::draw_faults) and builds, runs and drops its two arms
/// from that draw in turn (ProgrammedLayer::repaired), each on one lane.
/// Throws ConfigError when the design has no programmed fast path.
[[nodiscard]] std::vector<FaultCampaignPoint> run_fault_campaign(
    core::DesignKind kind, const arch::DesignConfig& base_cfg,
    const std::vector<FaultModel>& models, const RepairPolicy& policy,
    const nn::DeconvLayerSpec& spec, const Tensor<std::int32_t>& input,
    const Tensor<std::int32_t>& kernel, const FaultCampaignOptions& opts = {});

/// Whole-stack variant: the clean stack is programmed once into a
/// StreamingExecutor, each trial draws once per stage and streams `images`
/// through each arm's faulted sibling executor (per-stage salts), and scores
/// aggregate the exact pixel errors across every image's final output. Same
/// determinism and oracle contracts.
[[nodiscard]] std::vector<FaultCampaignPoint> run_fault_campaign_stack(
    core::DesignKind kind, const arch::DesignConfig& base_cfg,
    const std::vector<FaultModel>& models, const RepairPolicy& policy,
    const std::vector<nn::DeconvLayerSpec>& stack,
    const std::vector<Tensor<std::int32_t>>& kernels,
    const std::vector<Tensor<std::int32_t>>& images,
    const FaultCampaignOptions& opts = {});

}  // namespace red::fault
