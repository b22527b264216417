#include "red/fault/campaign.h"

#include "red/telemetry/metrics.h"
#include "red/telemetry/tracer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "red/common/contracts.h"
#include "red/common/error.h"
#include "red/perf/thread_pool.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor_ops.h"

namespace red::fault {

namespace {

constexpr double kSnrCap = 300.0;

// Raw error sums so multi-image (stack) scores aggregate exactly before the
// means are finalized.
struct ScoreAccum {
  double err_sq = 0.0;
  double ref_sq = 0.0;
  double max_abs_err = 0.0;
  std::int64_t pixels = 0;
  std::int64_t mismatched = 0;
  std::int64_t bit_errors = 0;
  double nrmse_sum = 0.0;  ///< per-image normalized_rmse, averaged at the end
  std::int64_t tensors = 0;

  void add(const Tensor<std::int32_t>& oracle, const Tensor<std::int32_t>& out) {
    RED_EXPECTS(oracle.shape() == out.shape());
    const std::int64_t n = oracle.size();
    const std::int32_t* a = oracle.data();
    const std::int32_t* b = out.data();
    for (std::int64_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(b[i]) - static_cast<double>(a[i]);
      err_sq += d * d;
      ref_sq += static_cast<double>(a[i]) * static_cast<double>(a[i]);
      max_abs_err = std::max(max_abs_err, std::abs(d));
      if (a[i] != b[i]) ++mismatched;
      bit_errors += std::popcount(static_cast<std::uint32_t>(a[i]) ^
                                  static_cast<std::uint32_t>(b[i]));
    }
    pixels += n;
    nrmse_sum += normalized_rmse(oracle, out);
    ++tensors;
  }

  [[nodiscard]] FaultScore finalize() const {
    FaultScore s;
    s.pixels = pixels;
    s.mismatched_pixels = mismatched;
    s.bit_errors = bit_errors;
    s.max_abs_err = max_abs_err;
    if (pixels == 0) return s;
    s.mse = err_sq / static_cast<double>(pixels);
    s.nrmse = tensors > 0 ? nrmse_sum / static_cast<double>(tensors) : 0.0;
    const double sig = ref_sq / static_cast<double>(pixels);
    if (s.mse <= 0.0)
      s.snr_db = kSnrCap;
    else if (sig <= 0.0)
      s.snr_db = -kSnrCap;
    else
      s.snr_db = std::clamp(10.0 * std::log10(sig / s.mse), -kSnrCap, kSnrCap);
    return s;
  }
};

double trial_mean(const std::vector<FaultTrial>& trials, bool repaired,
                  double (*field)(const FaultTrialArm&)) {
  if (trials.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& t : trials) sum += field(repaired ? t.repaired : t.unrepaired);
  return sum / static_cast<double>(trials.size());
}

}  // namespace

FaultScore score_output(const Tensor<std::int32_t>& oracle, const Tensor<std::int32_t>& out) {
  ScoreAccum acc;
  acc.add(oracle, out);
  return acc.finalize();
}

double FaultCampaignPoint::mean_mse(bool repaired) const {
  return trial_mean(trials, repaired, [](const FaultTrialArm& a) { return a.score.mse; });
}

double FaultCampaignPoint::mean_snr_db(bool repaired) const {
  return trial_mean(trials, repaired, [](const FaultTrialArm& a) { return a.score.snr_db; });
}

double FaultCampaignPoint::mean_nrmse(bool repaired) const {
  return trial_mean(trials, repaired, [](const FaultTrialArm& a) { return a.score.nrmse; });
}

double FaultCampaignPoint::mean_bit_errors(bool repaired) const {
  return trial_mean(trials, repaired,
                    [](const FaultTrialArm& a) { return static_cast<double>(a.score.bit_errors); });
}

bool FaultCampaignPoint::repaired_not_worse() const {
  return mean_mse(true) <= mean_mse(false);
}

std::vector<FaultCampaignPoint> run_fault_campaign(
    core::DesignKind kind, const arch::DesignConfig& base_cfg,
    const std::vector<FaultModel>& models, const RepairPolicy& policy,
    const nn::DeconvLayerSpec& spec, const Tensor<std::int32_t>& input,
    const Tensor<std::int32_t>& kernel, const FaultCampaignOptions& opts) {
  return run_fault_campaign_stack(kind, base_cfg, models, policy, {spec}, {&kernel, 1}, {input},
                                  opts);
}

std::vector<FaultCampaignPoint> run_fault_campaign_stack(
    core::DesignKind kind, const arch::DesignConfig& base_cfg,
    const std::vector<FaultModel>& models, const RepairPolicy& policy,
    const std::vector<nn::DeconvLayerSpec>& stack,
    std::span<const Tensor<std::int32_t>> kernels,
    const std::vector<Tensor<std::int32_t>>& images, const FaultCampaignOptions& opts) {
  RED_EXPECTS(!models.empty());
  RED_EXPECTS(!images.empty());
  RED_EXPECTS(opts.trials >= 1);
  RED_EXPECTS(opts.threads >= 1);
  for (const auto& m : models) m.validate();
  policy.validate();

  // Program the clean stack once: it is both the injection substrate and the
  // fault-free oracle. Its group crossbars are built, and the oracle run, on
  // opts.threads lanes before any trial starts; after that trials are the
  // parallel axis, so every arm runs on one lane (StreamingExecutor::repaired).
  arch::DesignConfig clean_cfg = base_cfg;
  clean_cfg.quant.variation = {};
  clean_cfg.fault = {};
  clean_cfg.threads = opts.threads;
  const sim::StreamingExecutor clean(kind, clean_cfg, stack, kernels);
  if (!clean.programmed_fast_path())
    throw ConfigError("design '" + clean.design_name() +
                      "' has no programmed fast path; fault campaigns need one");
  const sim::StreamingOptions run_opts{/*threads=*/1, /*check=*/false};
  const auto oracle = clean.stream(images, run_opts);

  std::vector<FaultCampaignPoint> points(models.size());
  for (std::size_t g = 0; g < models.size(); ++g) {
    points[g].model = models[g];
    points[g].trials.resize(static_cast<std::size_t>(opts.trials));
  }
  const std::int64_t total = static_cast<std::int64_t>(models.size()) * opts.trials;
  telemetry::ScopedSpan campaign_span("fault.campaign", "fault");
  if (auto* m = telemetry::metrics()) {
    m->counter("fault.grid_points")->add(models.size());
    m->counter("fault.trials")->add(static_cast<std::uint64_t>(total));
  }
  // A flat (grid point, trial) index space over per-slot results, so the
  // pool stays busy and aggregates are bit-identical at any thread count.
  // One draw per trial serves both arms. The arms run one after the other:
  // build, stream, score, drop, so a lane never holds two faulted stacks.
  const RepairPolicy arms[] = {RepairPolicy{}, policy};
  const std::int64_t chunks = perf::chunk_count(opts.threads, total);
  perf::parallel_chunks(chunks, total, [&](std::int64_t, std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      telemetry::ScopedSpan trial_span("fault.trial", "fault");
      const std::size_t g = static_cast<std::size_t>(i / opts.trials);
      const std::int64_t t = i % opts.trials;
      FaultModel model = models[g];
      model.seed = opts.base_seed + static_cast<std::uint64_t>(t);
      FaultTrial& trial = points[g].trials[static_cast<std::size_t>(t)];
      trial.seed = model.seed;
      const auto draws = clean.draw_faults(model, arms);
      const auto run_arm = [&](const RepairPolicy& pol, FaultTrialArm& arm) {
        std::vector<RepairReport> reports;
        const auto faulted = clean.repaired(draws, pol, &reports);
        for (const auto& rep : reports) arm.repair += rep;
        const auto batch = faulted->stream(images, run_opts);
        arm.stats = batch.total;
        arm.variation = faulted->variation_stats();
        ScoreAccum acc;
        for (std::size_t k = 0; k < images.size(); ++k)
          acc.add(oracle.images[k].output, batch.images[k].output);
        arm.score = acc.finalize();
      };
      run_arm(arms[0], trial.unrepaired);
      run_arm(arms[1], trial.repaired);
    }
  });
  return points;
}

}  // namespace red::fault
