// ReRAM device non-idealities: programming variation and stuck-at faults.
//
// Applied at program time, per cell level: a write-and-verify loop leaves a
// residual Gaussian error on each stored level, and a fraction of devices is
// stuck in the high- or low-resistance state. Because the perturbation lands
// on the stored levels (not the read-out), the fast and bit-accurate MVM
// paths stay mutually consistent under noise — both compute with the same
// perturbed weights — which tests rely on.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "red/common/contracts.h"
#include "red/common/visit_fields.h"

namespace red::xbar {

struct VariationModel {
  /// Std-dev of the residual programming error, in cell-level units
  /// (levels are re-rounded and clamped to the device range).
  double level_sigma = 0.0;
  /// Back-compat combined stuck rate: contributes half to each polarity on
  /// top of sa0_rate/sa1_rate (the historical 50/50 split). Prefer the
  /// per-polarity fields; samplers only consume sa0()/sa1().
  double stuck_at_rate = 0.0;
  /// Fraction of cells stuck-at-0 (HRS: level reads as 0).
  double sa0_rate = 0.0;
  /// Fraction of cells stuck-at-1 (LRS: level reads as max_level).
  double sa1_rate = 0.0;
  /// Seed making a given crossbar's fault/noise pattern reproducible.
  std::uint64_t seed = 1;

  /// Effective per-polarity rates with the legacy alias folded in.
  [[nodiscard]] double sa0() const { return sa0_rate + 0.5 * stuck_at_rate; }
  [[nodiscard]] double sa1() const { return sa1_rate + 0.5 * stuck_at_rate; }
  [[nodiscard]] double stuck_total() const { return sa0() + sa1(); }

  [[nodiscard]] bool enabled() const { return level_sigma > 0.0 || stuck_total() > 0.0; }

  void validate() const {
    RED_EXPECTS(level_sigma >= 0.0);
    RED_EXPECTS(stuck_at_rate >= 0.0 && stuck_at_rate <= 1.0);
    RED_EXPECTS(sa0_rate >= 0.0 && sa0_rate <= 1.0);
    RED_EXPECTS(sa1_rate >= 0.0 && sa1_rate <= 1.0);
    RED_EXPECTS_MSG(stuck_total() <= 1.0, "combined stuck-at rates exceed 1");
  }
};

/// Field list consumed by plan::structural_key and the plan JSON round-trip.
/// The static_assert makes "added a field, forgot a consumer" a compile
/// error: extend this visitor and every consumer follows automatically.
template <typename Var, typename F>
  requires common::FieldsOf<Var, VariationModel>
void visit_fields(Var& v, F&& f) {
  static_assert(common::field_count<VariationModel>() == 5,
                "VariationModel changed: extend visit_fields so structural_key, "
                "JSON, and fingerprints keep covering every field");
  f("level_sigma", v.level_sigma);
  f("stuck_at_rate", v.stuck_at_rate);
  f("sa0_rate", v.sa0_rate);
  f("sa1_rate", v.sa1_rate);
  f("seed", v.seed);
}

/// Counters describing what the variation model did to one crossbar.
struct VariationStats {
  std::int64_t cells = 0;
  std::int64_t perturbed_cells = 0;  ///< level changed by programming noise
  std::int64_t stuck_cells = 0;      ///< == sa0_cells + sa1_cells
  std::int64_t sa0_cells = 0;        ///< cells forced to level 0
  std::int64_t sa1_cells = 0;        ///< cells forced to max_level

  VariationStats& operator+=(const VariationStats& o) {
    cells += o.cells;
    perturbed_cells += o.perturbed_cells;
    stuck_cells += o.stuck_cells;
    sa0_cells += o.sa0_cells;
    sa1_cells += o.sa1_cells;
    return *this;
  }
};

/// Exact discrete law of a Gaussian level perturbation: for a clean level l,
/// the stored result is clamp(lround(l + N(0, sigma)), 0, max_level), a
/// categorical distribution over levels with Gaussian-quantized bucket
/// probabilities. Tabulated once per reprogram so samplers only draw
/// uniforms. (Half-integer rounding boundaries are measure-zero, so lround's
/// away-from-zero tie rule does not affect the law.) Shared by the
/// FastDeltaTag sampler and fault drift (red/fault).
struct NoiseLaw {
  /// prob[l][k] = P(result == k | clean level l); change[l] = 1 - prob[l][l].
  std::array<std::array<double, 16>, 16> prob{};
  std::array<double, 16> change{};

  NoiseLaw(double sigma, int max_level) {
    const auto normal_cdf = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
    for (int l = 0; l <= max_level; ++l) {
      double sum = 0.0;
      for (int k = 0; k < max_level; ++k) {
        const double hi = normal_cdf((static_cast<double>(k - l) + 0.5) / sigma);
        prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)] = hi - sum;
        sum = hi;
      }
      prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(max_level)] = 1.0 - sum;
      change[static_cast<std::size_t>(l)] =
          1.0 - prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(l)];
    }
  }

  /// Sample the perturbed level given a change occurred: v uniform in
  /// [0, change[l]) walks the conditional CDF over k != l.
  [[nodiscard]] std::uint8_t sample_changed(int l, double v, int max_level) const {
    for (int k = 0; k < max_level; ++k) {
      if (k == l) continue;
      v -= prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)];
      if (v < 0.0) return static_cast<std::uint8_t>(k);
    }
    return static_cast<std::uint8_t>(max_level == l ? max_level - 1 : max_level);
  }
};

/// Tag dispatching LogicalXbar's accelerated delta-sampling reprogram
/// constructor (same variation law, fast sparse sampler — see crossbar.h).
struct FastDeltaTag {};

}  // namespace red::xbar
