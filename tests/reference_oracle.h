// Shared outside oracles for the tests.
//
// Execution path: counter-RNG-drawn deconvolution layers checked against
// nn::deconv_reference and against the compiled plan's activity model. Case
// k draws from its own Rng(seed + k), so any single case reproduces alone;
// strides cycle through 1..4 and pad / output_pad are drawn. Odd cases keep
// zero activations, so zero-skipping and data-dependent wordline drives are
// exercised too.
//
// Zero padding: zero_padding_dense_run is the dense execution (zero-inserted
// plane, one window per output pixel) its gathered run must reproduce.
//
// Write side: inject_faults_reference is the straight per-cell fault
// injector — every cell's draws hashed from scratch through fault_unit, one
// full build per row assignment — that fault::inject_faults' single draw
// pass must reproduce field by field.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "red/arch/design.h"
#include "red/common/math_util.h"
#include "red/common/rng.h"
#include "red/fault/model.h"
#include "red/xbar/crossbar.h"
#include "red/nn/conv.h"
#include "red/nn/deconv_reference.h"
#include "red/nn/deconv_zero_padding.h"
#include "red/perf/workspace.h"
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

// ---------------------------------------------------------------------------
// Zero padding's dense execution
// ---------------------------------------------------------------------------

/// The rotated-kernel macro ZeroPaddingDesign::program builds: row
/// (i*KW + j)*C + c holds the 180-degree-rotated kernel's tap (i, j, c).
inline xbar::LogicalXbar zero_padding_macro(const nn::DeconvLayerSpec& spec,
                                            const Tensor<std::int32_t>& kernel,
                                            const xbar::QuantConfig& quant) {
  const Tensor<std::int32_t> rot = nn::rotate180(kernel);
  return xbar::LogicalXbar(std::int64_t{spec.kh} * spec.kw * spec.c, spec.m,
                           {rot.data(), static_cast<std::size_t>(rot.size())}, quant);
}

/// Algorithm 1 on `macro` the dense way: the zero-inserted input, one dense
/// KH*KW*C window per output pixel, one MVM per window (a batch per output
/// row). The oracle of zero padding's gathered run.
inline Tensor<std::int32_t> zero_padding_dense_run(const nn::DeconvLayerSpec& spec,
                                                   const xbar::LogicalXbar& macro,
                                                   const Tensor<std::int32_t>& input,
                                                   bool bit_accurate, arch::RunStats* stats) {
  const Tensor<std::int32_t> plane = nn::zero_pad_input(spec, input);
  const int oh = spec.oh(), ow = spec.ow();
  const std::int64_t rows = macro.rows();
  Tensor<std::int32_t> out(spec.output_shape());
  std::vector<std::int32_t> windows(static_cast<std::size_t>(ow * rows));
  perf::MvmWorkspace ws;
  arch::RunStats local;
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x)
      for (int i = 0; i < spec.kh; ++i)
        for (int j = 0; j < spec.kw; ++j)
          for (int c = 0; c < spec.c; ++c)
            windows[static_cast<std::size_t>(x * rows + (i * spec.kw + j) * spec.c + c)] =
                plane.at(0, c, y + i, x + j);
    const auto res = macro.mvm_batch(windows, ow, bit_accurate, ws, &local.mvm);
    local.cycles += ow;
    for (int x = 0; x < ow; ++x)
      for (int m = 0; m < spec.m; ++m)
        out.at(0, m, y, x) = static_cast<std::int32_t>(res[static_cast<std::size_t>(x * spec.m + m)]);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

// ---------------------------------------------------------------------------
// Fault injection oracle
// ---------------------------------------------------------------------------

/// What injection and repair produce for one crossbar.
struct FaultedCells {
  std::vector<std::uint8_t> levels;  ///< plane-major [slice][row][col]
  std::vector<std::int32_t> weights; ///< decoded from `levels`, row-major
  xbar::VariationStats vstats;
  fault::RepairReport report;
  int lossless_adc_bits = 1;
  bool remap_rejected = false;  ///< a non-identity remap was priced and lost
};

/// Per-cell reference of fault::inject_faults: same RNG domains, spares,
/// write-verify and remap rule, with every draw made where it is used.
inline FaultedCells inject_faults_reference(const xbar::LogicalXbar& clean,
                                            const fault::FaultModel& model,
                                            const fault::RepairPolicy& policy,
                                            std::uint64_t salt) {
  enum : std::uint64_t { kWordline, kBitline, kCell, kDriftChange, kDriftLevel };
  const auto draw = [&](std::uint64_t domain, std::uint64_t counter) {
    return fault::fault_unit(model.seed, salt * 8 + domain, counter);
  };
  const std::int64_t R = clean.rows();
  const std::int64_t C = clean.cols();
  const int S = clean.config().slices();
  const int cell_bits = clean.config().cell_bits;
  const std::int64_t P = C * S;
  const std::size_t plane = static_cast<std::size_t>(R * C);
  const int max_level = clean.config().max_level();
  const std::int32_t offset = clean.config().weight_offset();

  FaultedCells out;
  out.report.cells = R * P;

  struct Lines {
    std::vector<std::uint8_t> dead;
    std::int64_t faults = 0, spares_used = 0, unrepaired = 0;
  };
  const auto lines = [&](std::uint64_t domain, double rate, std::int64_t n, int spares) {
    Lines st;
    st.dead.assign(static_cast<std::size_t>(n), 0);
    if (rate <= 0.0) return st;
    for (std::int64_t i = 0; i < n; ++i) {
      if (draw(domain, static_cast<std::uint64_t>(i)) >= rate) continue;
      ++st.faults;
      if (st.spares_used < spares) {
        ++st.spares_used;
      } else {
        st.dead[static_cast<std::size_t>(i)] = 1;
        ++st.unrepaired;
      }
    }
    return st;
  };
  const Lines wl = lines(kWordline, model.wordline_rate, R, policy.spare_rows);
  const Lines bl = lines(kBitline, model.bitline_rate, P, policy.spare_cols);
  out.report.wordline_faults = wl.faults;
  out.report.bitline_faults = bl.faults;
  out.report.spare_rows_used = wl.spares_used;
  out.report.spare_cols_used = bl.spares_used;
  out.report.unrepaired_wordlines = wl.unrepaired;
  out.report.unrepaired_bitlines = bl.unrepaired;

  const double sa0 = model.sa0_rate;
  const double stuck = model.sa0_rate + model.sa1_rate;
  const xbar::NoiseLaw law(model.drift_sigma > 0.0 ? model.drift_sigma : 1.0, max_level);
  const int attempts = 1 + policy.verify_retries;

  struct Build {
    std::vector<std::uint8_t> levels;
    xbar::VariationStats vstats;
    double err_sq = 0.0;
    std::int64_t drifted = 0, retried = 0;
  };
  // perm[logical row] = physical row.
  const auto build = [&](const std::vector<std::int32_t>& perm) {
    Build b;
    b.levels.assign(plane * static_cast<std::size_t>(S), 0);
    b.vstats.cells = out.report.cells;
    for (std::int64_t r = 0; r < R; ++r) {
      const std::int64_t q = perm[static_cast<std::size_t>(r)];
      const bool row_dead = wl.dead[static_cast<std::size_t>(q)] != 0;
      for (std::int64_t c = 0; c < C; ++c) {
        std::int64_t wdelta = 0;
        for (int s = 0; s < S; ++s) {
          const std::int64_t p = c * S + s;
          const std::uint64_t idx = static_cast<std::uint64_t>(q * P + p);
          const std::uint8_t l = clean.level(r, c, s);
          std::uint8_t lv = l;
          bool forced = row_dead || bl.dead[static_cast<std::size_t>(p)] != 0;
          if (forced) {
            lv = 0;
          } else if (stuck > 0.0) {
            const double su = draw(kCell, idx);
            if (su < stuck) {
              forced = true;
              const bool at0 = su < sa0;
              lv = at0 ? 0 : static_cast<std::uint8_t>(max_level);
              ++b.vstats.stuck_cells;
              ++(at0 ? b.vstats.sa0_cells : b.vstats.sa1_cells);
            }
          }
          if (!forced && model.drift_sigma > 0.0) {
            int best = -1;
            bool first_changed = false;
            for (int a = 0; a < attempts; ++a) {
              const std::uint64_t ctr = idx * 64 + static_cast<std::uint64_t>(a);
              const double u = draw(kDriftChange, ctr);
              if (u >= law.change[l]) {
                best = -1;
                break;
              }
              if (a == 0) first_changed = true;
              const int cand =
                  law.sample_changed(l, draw(kDriftLevel, ctr) * law.change[l], max_level);
              if (best < 0 || std::abs(cand - l) < std::abs(best - l)) best = cand;
            }
            if (best >= 0) {
              lv = static_cast<std::uint8_t>(best);
              ++b.drifted;
            } else if (first_changed) {
              ++b.retried;
            }
          }
          if (lv != l) ++b.vstats.perturbed_cells;
          b.levels[static_cast<std::size_t>(s) * plane + static_cast<std::size_t>(r * C + c)] =
              lv;
          wdelta += (static_cast<std::int64_t>(lv) - static_cast<std::int64_t>(l))
                    << (cell_bits * s);
        }
        b.err_sq += static_cast<double>(wdelta) * static_cast<double>(wdelta);
      }
    }
    return b;
  };

  std::vector<std::int32_t> identity(static_cast<std::size_t>(R));
  std::iota(identity.begin(), identity.end(), 0);
  Build chosen = build(identity);
  std::int64_t remapped = 0;
  if (policy.remap_rows && (wl.unrepaired > 0 || chosen.vstats.stuck_cells > 0) && R > 1) {
    std::vector<double> damage(static_cast<std::size_t>(R), 0.0);
    for (std::int64_t q = 0; q < R; ++q) {
      if (wl.dead[static_cast<std::size_t>(q)] != 0) {
        damage[static_cast<std::size_t>(q)] = 1e30;
        continue;
      }
      if (stuck <= 0.0) continue;
      double d = 0.0;
      for (std::int64_t p = 0; p < P; ++p) {
        if (bl.dead[static_cast<std::size_t>(p)] != 0) continue;
        if (draw(kCell, static_cast<std::uint64_t>(q * P + p)) >= stuck) continue;
        const double sig =
            static_cast<double>(std::int64_t{1} << (cell_bits * static_cast<int>(p % S)));
        d += sig * sig;
      }
      damage[static_cast<std::size_t>(q)] = d;
    }
    std::vector<double> importance(static_cast<std::size_t>(R), 0.0);
    for (std::int64_t r = 0; r < R; ++r)
      for (std::int64_t c = 0; c < C; ++c) {
        const double u = static_cast<double>(clean.stored_weight(r, c)) + offset;
        importance[static_cast<std::size_t>(r)] += u * u;
      }
    std::vector<std::int32_t> phys = identity;
    std::vector<std::int32_t> logi = identity;
    std::stable_sort(phys.begin(), phys.end(), [&](std::int32_t a, std::int32_t b) {
      return damage[static_cast<std::size_t>(a)] > damage[static_cast<std::size_t>(b)];
    });
    std::stable_sort(logi.begin(), logi.end(), [&](std::int32_t a, std::int32_t b) {
      return importance[static_cast<std::size_t>(a)] < importance[static_cast<std::size_t>(b)];
    });
    std::vector<std::int32_t> perm(static_cast<std::size_t>(R));
    for (std::int64_t i = 0; i < R; ++i)
      perm[static_cast<std::size_t>(logi[static_cast<std::size_t>(i)])] =
          phys[static_cast<std::size_t>(i)];
    if (perm != identity) {
      Build cand = build(perm);
      if (cand.err_sq < chosen.err_sq) {
        for (std::int64_t r = 0; r < R; ++r) remapped += perm[static_cast<std::size_t>(r)] != r;
        chosen = std::move(cand);
      } else {
        out.remap_rejected = true;
      }
    }
  }

  out.report.stuck_cells = chosen.vstats.stuck_cells;
  out.report.drifted_cells = chosen.drifted;
  out.report.retried_cells = chosen.retried;
  out.report.rows_remapped = remapped;
  out.vstats = chosen.vstats;
  out.levels = std::move(chosen.levels);
  out.weights.resize(plane);
  std::vector<std::int64_t> col_sums(static_cast<std::size_t>(C * S), 0);
  for (std::size_t i = 0; i < plane; ++i) {
    std::int64_t u = 0;
    for (int s = S; s-- > 0;) {
      const std::uint8_t lv = out.levels[static_cast<std::size_t>(s) * plane + i];
      u = (u << cell_bits) | lv;
      col_sums[(i % static_cast<std::size_t>(C)) * static_cast<std::size_t>(S) +
               static_cast<std::size_t>(s)] += lv;
    }
    out.weights[i] = static_cast<std::int32_t>(u - offset);
  }
  const std::int64_t worst = *std::max_element(col_sums.begin(), col_sums.end());
  out.lossless_adc_bits = worst == 0 ? 1 : ilog2_ceil(worst + 1);
  return out;
}

}  // namespace red::oracle
