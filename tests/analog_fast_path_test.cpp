// Equivalence gate for the analog/statistical fast paths:
//  * the ADI line-relaxation IR-drop solver vs the reference point-SOR,
//    across array sizes, wire resistances, and drive patterns;
//  * the variation pass: determinism, internal consistency, and
//    from-weights programming under a variation config equal to the clean
//    crossbar plus the pass;
//  * the Monte Carlo variation engine: thread-count invariance, seed
//    determinism, and trials equal to per-seed rebuilds; programmed runs
//    against deconv_reference;
//  * the sweep driver: memoized parallel results vs direct evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/explore/sweep.h"
#include "red/nn/deconv_reference.h"
#include "red/perf/analog_kernel.h"
#include "red/plan/plan.h"
#include "red/sim/montecarlo.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/xbar/analog.h"
#include "red/xbar/crossbar.h"
#include "reference_oracle.h"

namespace red {
namespace {

using xbar::AnalogConfig;
using xbar::AnalogResult;
using xbar::LogicalXbar;
using xbar::QuantConfig;
using xbar::VariationModel;

// ---------------------------------------------------------------------------
// ADI solver vs reference SOR
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> random_levels(Rng& rng, std::int64_t rows, std::int64_t cols,
                                        int max_level) {
  std::vector<std::uint8_t> levels(static_cast<std::size_t>(rows * cols));
  for (auto& l : levels) l = static_cast<std::uint8_t>(rng.uniform_int(0, max_level));
  return levels;
}

// Column currents agree within the solver tolerance: both iterations stop on
// a max-node-update criterion of tolerance_v, so their residual errors vs
// the exact network solution are small multiples of it. 1e-3 relative (with
// an absolute floor for near-zero columns) is an order of magnitude above
// the worst observed disagreement and far below any physical effect studied.
void expect_currents_match(const AnalogResult& ref, const AnalogResult& fast) {
  ASSERT_EQ(ref.column_current_a.size(), fast.column_current_a.size());
  ASSERT_EQ(ref.converged, fast.converged);
  EXPECT_EQ(ref.ideal_current_a, fast.ideal_current_a);  // same closed form
  for (std::size_t c = 0; c < ref.column_current_a.size(); ++c) {
    const double tol = std::max(1e-9, 1e-3 * std::abs(ref.column_current_a[c]));
    EXPECT_NEAR(fast.column_current_a[c], ref.column_current_a[c], tol) << "column " << c;
  }
}

TEST(AnalogFastPath, MatchesReferenceAcrossSizesWiresAndPatterns) {
  Rng rng(99);
  perf::AnalogWorkspace ws;
  const struct {
    std::int64_t rows, cols;
  } sizes[] = {{1, 1}, {8, 5}, {16, 16}, {33, 17}, {64, 48}};
  for (const auto& sz : sizes) {
    const auto levels = random_levels(rng, sz.rows, sz.cols, 3);
    for (double rw : {0.0, 0.25, 1.0, 4.0}) {
      AnalogConfig cfg;
      cfg.r_wire_ohm = rw;
      for (int pattern = 0; pattern < 3; ++pattern) {
        std::vector<std::uint8_t> inputs(static_cast<std::size_t>(sz.rows));
        for (auto& i : inputs)
          i = pattern == 0 ? 1
              : pattern == 1 ? static_cast<std::uint8_t>(rng.uniform_int(0, 1))
                             : 0;
        const auto ref = xbar::solve_crossbar_read(levels, sz.rows, sz.cols, 3, inputs, cfg);
        const auto fast =
            perf::solve_crossbar_read_fast(levels, sz.rows, sz.cols, 3, inputs, cfg, ws);
        expect_currents_match(ref, fast);
      }
    }
  }
}

TEST(AnalogFastPath, ZeroWireResistanceIsIdealExactly) {
  perf::AnalogWorkspace ws;
  const std::vector<std::uint8_t> levels(8 * 4, 2);
  const std::vector<std::uint8_t> on(8, 1);
  AnalogConfig cfg;
  cfg.r_wire_ohm = 0.0;
  const auto r = perf::solve_crossbar_read_fast(levels, 8, 4, 3, on, cfg, ws);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.column_current_a, r.ideal_current_a);
}

TEST(AnalogFastPath, ThreadCountInvariantBitExact) {
  Rng rng(7);
  const auto levels = random_levels(rng, 40, 24, 3);
  std::vector<std::uint8_t> inputs(40);
  for (auto& i : inputs) i = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  AnalogConfig cfg;
  cfg.r_wire_ohm = 1.0;
  perf::AnalogWorkspace ws1, ws4, ws9;
  const auto serial = perf::solve_crossbar_read_fast(levels, 40, 24, 3, inputs, cfg, ws1, 1);
  const auto four = perf::solve_crossbar_read_fast(levels, 40, 24, 3, inputs, cfg, ws4, 4);
  const auto nine = perf::solve_crossbar_read_fast(levels, 40, 24, 3, inputs, cfg, ws9, 9);
  EXPECT_EQ(serial.column_current_a, four.column_current_a);  // bit-exact
  EXPECT_EQ(serial.column_current_a, nine.column_current_a);
  EXPECT_EQ(serial.iterations, four.iterations);
  EXPECT_EQ(serial.iterations, nine.iterations);
}

TEST(AnalogFastPath, WorkspaceReuseAcrossGeometriesIsClean) {
  Rng rng(11);
  AnalogConfig cfg;
  cfg.r_wire_ohm = 2.0;
  perf::AnalogWorkspace reused;
  // Solve a large array first so every buffer is oversized for the later
  // calls; results must still match fresh-workspace solves bit-exactly.
  const auto big = random_levels(rng, 48, 48, 3);
  const std::vector<std::uint8_t> big_on(48, 1);
  (void)perf::solve_crossbar_read_fast(big, 48, 48, 3, big_on, cfg, reused);
  for (auto [rows, cols] : {std::pair<std::int64_t, std::int64_t>{8, 24},
                            {24, 8},
                            {16, 16}}) {
    const auto levels = random_levels(rng, rows, cols, 3);
    std::vector<std::uint8_t> inputs(static_cast<std::size_t>(rows));
    for (auto& i : inputs) i = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    perf::AnalogWorkspace fresh;
    const auto a = perf::solve_crossbar_read_fast(levels, rows, cols, 3, inputs, cfg, reused);
    const auto b = perf::solve_crossbar_read_fast(levels, rows, cols, 3, inputs, cfg, fresh);
    EXPECT_EQ(a.column_current_a, b.column_current_a);
    EXPECT_EQ(a.iterations, b.iterations);
  }
}

TEST(AnalogFastPath, ConvergesOrderOfMagnitudeFasterThanSor) {
  Rng rng(5);
  const auto levels = random_levels(rng, 64, 64, 3);
  const std::vector<std::uint8_t> on(64, 1);
  AnalogConfig cfg;
  cfg.r_wire_ohm = 1.0;
  perf::AnalogWorkspace ws;
  const auto ref = xbar::solve_crossbar_read(levels, 64, 64, 3, on, cfg);
  const auto fast = perf::solve_crossbar_read_fast(levels, 64, 64, 3, on, cfg, ws);
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(fast.converged);
  EXPECT_LT(fast.iterations * 10, ref.iterations);
}

// ---------------------------------------------------------------------------
// The variation pass
// ---------------------------------------------------------------------------

std::vector<std::int32_t> random_weights(Rng& rng, std::int64_t n, const QuantConfig& q) {
  const std::int32_t half = q.weight_offset();
  std::vector<std::int32_t> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-half, half - 1));
  return w;
}

TEST(VariationPass, DeterministicConsistentAndLawful) {
  Rng rng(43);
  QuantConfig q;
  const auto weights = random_weights(rng, 64 * 4, q);
  const LogicalXbar clean(64, 4, weights, q);
  VariationModel var;
  var.level_sigma = 0.5;
  var.stuck_at_rate = 0.1;
  var.seed = 7;

  const LogicalXbar a(clean, var, 0);
  const LogicalXbar b(clean, var, 0);
  // Deterministic in the seed...
  for (std::int64_t r = 0; r < 64; ++r)
    for (std::int64_t c = 0; c < 4; ++c) ASSERT_EQ(a.stored_weight(r, c), b.stored_weight(r, c));
  // ...and actually perturbing things.
  EXPECT_GT(a.variation_stats().perturbed_cells, 0);
  EXPECT_GT(a.variation_stats().stuck_cells, 0);

  // Internal consistency: stored weights always decode the stored levels, so
  // the exact and bit-accurate MVM paths agree on the perturbed copy.
  std::vector<std::int32_t> in(64);
  for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(-50, 50));
  EXPECT_EQ(a.mvm(in), a.mvm_bit_accurate(in));

  // The incrementally-maintained lossless-ADC cache matches a from-scratch
  // reprogram of the perturbed weights (levels are the unique digit
  // representation, so programming the stored weights reproduces them).
  const LogicalXbar reprogrammed(64, 4, std::vector<std::int32_t>(a.stored_weights().begin(),
                                                                  a.stored_weights().end()),
                                 q);
  EXPECT_EQ(a.lossless_adc_bits(), reprogrammed.lossless_adc_bits());

  // Another salt draws another mask from the same seed.
  const LogicalXbar salted(clean, var, 1);
  int diffs = 0;
  for (std::int64_t r = 0; r < 64; ++r)
    for (std::int64_t c = 0; c < 4; ++c)
      diffs += a.stored_weight(r, c) != salted.stored_weight(r, c);
  EXPECT_GT(diffs, 0);

  // Noise-only at low sigma exercises the geometric skip-sampling branch;
  // the same consistency invariants must hold there.
  VariationModel noise_only;
  noise_only.level_sigma = 0.3;
  noise_only.seed = 21;
  const LogicalXbar skip(clean, noise_only, 0);
  EXPECT_GT(skip.variation_stats().perturbed_cells, 0);
  EXPECT_EQ(skip.variation_stats().stuck_cells, 0);
  EXPECT_EQ(skip.mvm(in), skip.mvm_bit_accurate(in));
  const LogicalXbar skip_reprog(64, 4, std::vector<std::int32_t>(skip.stored_weights().begin(),
                                                                 skip.stored_weights().end()),
                                q);
  EXPECT_EQ(skip.lossless_adc_bits(), skip_reprog.lossless_adc_bits());
}

/// Every observable of a crossbar: levels, stored weights, the lossless-ADC
/// cache, the variation counters and the packed planes.
void expect_same_crossbar(const LogicalXbar& a, const LogicalXbar& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int s = 0; s < a.config().slices(); ++s)
    for (std::int64_t r = 0; r < a.rows(); ++r)
      for (std::int64_t c = 0; c < a.cols(); ++c)
        ASSERT_EQ(a.level(r, c, s), b.level(r, c, s)) << what << " cell " << r << "," << c;
  EXPECT_TRUE(std::ranges::equal(a.stored_weights(), b.stored_weights())) << what;
  EXPECT_EQ(a.lossless_adc_bits(), b.lossless_adc_bits()) << what;
  EXPECT_EQ(a.variation_stats(), b.variation_stats()) << what;
  const std::size_t col_bytes = static_cast<std::size_t>(a.packed_weight_planes()) *
                                static_cast<std::size_t>(a.packed_words()) *
                                sizeof(std::uint64_t);
  for (std::int64_t c = 0; c < a.cols(); ++c)
    ASSERT_EQ(std::memcmp(a.packed_col_planes(c), b.packed_col_planes(c), col_bytes), 0)
        << what << " column " << c;
}

TEST(VariationPass, FromWeightsEqualsCleanPlusVariation) {
  // One sampler: programming from weights under `v` is the clean encode
  // plus the variation pass, so it equals the clean crossbar's perturbed
  // copy bit for bit, whether the clean crossbar built its packed planes
  // before the copy (patched in place) or not (built from the levels after).
  struct Case {
    const char* name;
    int cell_bits;
    VariationModel var;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* name, int cell_bits, double sigma, double sa0, double sa1,
                       double alias) {
    VariationModel v;
    v.level_sigma = sigma;
    v.sa0_rate = sa0;
    v.sa1_rate = sa1;
    v.stuck_at_rate = alias;
    v.seed = 13;
    cases.push_back({name, cell_bits, v});
  };
  add("skip branch", 2, 0.3, 0.0, 0.0, 0.0);
  add("noise walk", 2, 0.8, 0.0, 0.0, 0.0);
  add("stuck walk", 2, 0.4, 0.05, 0.03, 0.0);
  add("stuck walk, partial top slice", 3, 0.0, 0.02, 0.1, 0.0);
  add("stuck_at_rate alias", 2, 0.0, 0.0, 0.0, 0.2);
  add("sigma 0.01", 2, 0.01, 0.0, 0.0, 0.0);

  Rng rng(44);
  for (const Case& k : cases) {
    QuantConfig q;
    q.cell_bits = k.cell_bits;
    const auto weights = random_weights(rng, 70 * 5, q);
    for (const std::uint64_t salt : {std::uint64_t{0}, std::uint64_t{5}}) {
      const std::string what = std::string(k.name) + " salt " + std::to_string(salt);
      QuantConfig qv = q;
      qv.variation = k.var;
      const LogicalXbar from_weights(70, 5, weights, qv, salt);

      const LogicalXbar clean(70, 5, weights, q);
      const LogicalXbar planes_after(clean, k.var, salt);
      ASSERT_TRUE(clean.ensure_packed_planes());
      const LogicalXbar planes_before(clean, k.var, salt);
      expect_same_crossbar(from_weights, planes_after, what + ", planes after the copy");
      expect_same_crossbar(from_weights, planes_before, what + ", planes before the copy");

      const auto& st = from_weights.variation_stats();
      EXPECT_EQ(st.cells, 70 * 5 * q.slices()) << what;
      if (k.var.level_sigma == 0.01) {
        EXPECT_EQ(st.perturbed_cells, 0) << what;
        expect_same_crossbar(from_weights, LogicalXbar(70, 5, weights, q), what + " vs clean");
      } else {
        EXPECT_GT(st.perturbed_cells, 0) << what;
      }
      EXPECT_EQ(st.stuck_cells > 0, k.var.stuck_total() > 0.0) << what;
      EXPECT_EQ(st.stuck_cells, st.sa0_cells + st.sa1_cells) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Monte Carlo engine
// ---------------------------------------------------------------------------

struct ProbeLayer {
  nn::DeconvLayerSpec spec{"mc_probe", 5, 5, 8, 6, 3, 3, 2, 1, 0};
  Tensor<std::int32_t> input, kernel, golden;
  ProbeLayer() {
    Rng rng(2025);
    input = workloads::make_input(spec, rng, 1, 7);
    kernel = workloads::make_kernel(spec, rng, -20, 20);
    golden = nn::deconv_reference(spec, input, kernel);
  }
};

TEST(MonteCarlo, ThreadCountInvariantBitExact) {
  const ProbeLayer probe;
  VariationModel var;
  var.level_sigma = 0.6;
  var.stuck_at_rate = 0.02;
  for (auto kind : {core::DesignKind::kRed, core::DesignKind::kZeroPadding,
                    core::DesignKind::kPaddingFree}) {
    sim::MonteCarloOptions serial;
    serial.trials = 6;
    serial.threads = 1;
    sim::MonteCarloOptions threaded = serial;
    threaded.threads = 4;
    const auto a = sim::run_monte_carlo(kind, {}, var, probe.spec, probe.input, probe.kernel,
                                        probe.golden, serial);
    const auto b = sim::run_monte_carlo(kind, {}, var, probe.spec, probe.input, probe.kernel,
                                        probe.golden, threaded);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (std::size_t t = 0; t < a.trials.size(); ++t) {
      EXPECT_EQ(a.trials[t].seed, b.trials[t].seed);
      EXPECT_EQ(a.trials[t].nrmse, b.trials[t].nrmse);  // bit-exact, not approx
      EXPECT_EQ(a.trials[t].stats, b.trials[t].stats);
      EXPECT_EQ(a.trials[t].variation.perturbed_cells, b.trials[t].variation.perturbed_cells);
      EXPECT_EQ(a.trials[t].variation.stuck_cells, b.trials[t].variation.stuck_cells);
    }
  }
}

TEST(MonteCarlo, TrialsEqualPerSeedRebuilds) {
  // One variation sampler: trial t is the per-seed rebuild at base_seed + t,
  // bit for bit — Design::run's output and RunStats under that variation
  // config, and (programmed designs) Design::program's VariationStats — on
  // both sampler branches and at any trial thread count.
  const ProbeLayer probe;
  VariationModel walk;  // stuck-at: the per-cell walk
  walk.level_sigma = 0.6;
  walk.sa0_rate = 0.01;
  walk.sa1_rate = 0.02;
  VariationModel skip;  // low-sigma noise only: the geometric skip branch
  skip.level_sigma = 0.3;
  for (const auto& var : {walk, skip}) {
    for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kRed,
                      core::DesignKind::kPaddingFree}) {
      for (const int threads : {1, 4}) {
        sim::MonteCarloOptions opts;
        opts.trials = 3;
        opts.base_seed = 40;
        opts.threads = threads;
        const auto mc = sim::run_monte_carlo(kind, {}, var, probe.spec, probe.input,
                                             probe.kernel, probe.golden, opts);
        ASSERT_EQ(mc.trials.size(), 3u);
        for (std::size_t t = 0; t < mc.trials.size(); ++t) {
          arch::DesignConfig cfg;
          cfg.quant.variation = var;
          cfg.quant.variation.seed = opts.base_seed + t;
          const auto design = core::make_design(kind, cfg);
          const std::string what = design->name() + " sigma " +
                                   std::to_string(var.level_sigma) + " threads " +
                                   std::to_string(threads) + " trial " + std::to_string(t);
          arch::RunStats stats;
          const auto out = design->run(probe.spec, probe.input, probe.kernel, &stats);
          const auto& trial = mc.trials[t];
          EXPECT_EQ(trial.seed, cfg.quant.variation.seed) << what;
          EXPECT_EQ(trial.nrmse, normalized_rmse(probe.golden, out)) << what;  // bit-exact
          EXPECT_GT(trial.nrmse, 0.0) << what;
          EXPECT_EQ(trial.stats, stats) << what;
          if (!mc.programmed_fast_path) continue;
          EXPECT_EQ(trial.variation, design->program(probe.spec, probe.kernel)->variation_stats())
              << what;
        }
      }
    }
  }
}

TEST(MonteCarlo, GridSharesProgrammingAndMatchesSingleCalls) {
  const ProbeLayer probe;
  std::vector<VariationModel> grid(3);
  grid[0].level_sigma = 0.3;
  grid[1].level_sigma = 0.8;
  grid[2].stuck_at_rate = 0.05;
  sim::MonteCarloOptions opts;
  opts.trials = 4;
  opts.threads = 3;
  const auto swept = sim::run_monte_carlo_grid(core::DesignKind::kRed, {}, grid, probe.spec,
                                               probe.input, probe.kernel, probe.golden, opts);
  ASSERT_EQ(swept.size(), grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto single = sim::run_monte_carlo(core::DesignKind::kRed, {}, grid[g], probe.spec,
                                             probe.input, probe.kernel, probe.golden, opts);
    ASSERT_EQ(swept[g].trials.size(), single.trials.size());
    for (std::size_t t = 0; t < single.trials.size(); ++t)
      EXPECT_EQ(swept[g].trials[t].nrmse, single.trials[t].nrmse);
  }
}

TEST(MonteCarlo, SeedMappingIsDeterministic) {
  const ProbeLayer probe;
  VariationModel var;
  var.level_sigma = 0.5;
  sim::MonteCarloOptions opts;
  opts.trials = 3;
  opts.base_seed = 17;
  const auto a = sim::run_monte_carlo(core::DesignKind::kRed, {}, var, probe.spec, probe.input,
                                      probe.kernel, probe.golden, opts);
  const auto b = sim::run_monte_carlo(core::DesignKind::kRed, {}, var, probe.spec, probe.input,
                                      probe.kernel, probe.golden, opts);
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    EXPECT_EQ(a.trials[t].seed, 17 + t);
    EXPECT_EQ(a.trials[t].nrmse, b.trials[t].nrmse);
  }
}

TEST(MonteCarlo, ZeroVariationTrialsAreExact) {
  const ProbeLayer probe;
  const auto mc = sim::run_monte_carlo(core::DesignKind::kRed, {}, VariationModel{},
                                       probe.spec, probe.input, probe.kernel, probe.golden);
  EXPECT_TRUE(mc.programmed_fast_path);
  for (const auto& t : mc.trials) {
    EXPECT_EQ(t.nrmse, 0.0);
    EXPECT_EQ(t.variation.perturbed_cells, 0);
  }
}

TEST(MonteCarlo, PaddingFreeFallsBackAndStaysDeterministic) {
  const ProbeLayer probe;
  VariationModel var;
  var.level_sigma = 0.5;
  sim::MonteCarloOptions serial, threaded;
  serial.trials = threaded.trials = 3;
  threaded.threads = 4;
  const auto a = sim::run_monte_carlo(core::DesignKind::kPaddingFree, {}, var, probe.spec,
                                      probe.input, probe.kernel, probe.golden, serial);
  const auto b = sim::run_monte_carlo(core::DesignKind::kPaddingFree, {}, var, probe.spec,
                                      probe.input, probe.kernel, probe.golden, threaded);
  EXPECT_FALSE(a.programmed_fast_path);
  for (std::size_t t = 0; t < a.trials.size(); ++t)
    EXPECT_EQ(a.trials[t].nrmse, b.trials[t].nrmse);
}

// ---------------------------------------------------------------------------
// ProgrammedLayer against the outside oracle
// ---------------------------------------------------------------------------

TEST(ProgrammedLayer, RepeatedRunsMatchReferenceOnFreshInputs) {
  // One programmed layer serves a sequence of different inputs (and the
  // first one again): every run must match deconv_reference, so no state
  // from an earlier run can leak into a later one.
  for (std::uint64_t k = 0; k < 6; ++k) {
    const auto c = oracle::draw_case(3300 + k);
    const oracle::Case fresh = [&] {
      Rng rng(3400 + k);
      oracle::Case f = c;
      f.input = workloads::make_input(c.spec, rng, 0, 5);
      f.reference = nn::deconv_reference(c.spec, f.input, c.kernel);
      return f;
    }();
    for (auto kind : {core::DesignKind::kRed, core::DesignKind::kZeroPadding})
      for (const auto knobs : oracle::kKnobs)
        for (const bool bit_accurate : {false, true})
          for (const int threads : {1, 4}) {
            const auto cfg = oracle::config(knobs, bit_accurate, threads);
            const auto design = core::make_design(kind, cfg);
            const auto programmed = design->program(c.spec, c.kernel);
            ASSERT_NE(programmed, nullptr);
            const auto predicted = design->activity(c.spec);
            const std::string what = design->name() + " " + oracle::label(c, cfg);
            for (const oracle::Case* run : {&c, &fresh, &c}) {
              arch::RunStats stats;
              const auto out = programmed->run(run->input, &stats);
              oracle::expect_matches(*run, predicted, out, stats, what);
            }
          }
  }
}

// ---------------------------------------------------------------------------
// Sweep driver
// ---------------------------------------------------------------------------

TEST(SweepDriver, MatchesDirectEvaluationAndMemoizes) {
  std::vector<explore::SweepPoint> grid;
  for (int fold : {1, 2}) {
    for (int mux : {4, 8}) {
      explore::SweepPoint p;
      p.cfg.red_fold = fold;
      p.cfg.mux_ratio = mux;
      p.spec = nn::DeconvLayerSpec{"sweep_probe", 8, 8, 32, 16, 4, 4, 2, 1, 0};
      grid.push_back(p);
    }
  }
  grid.push_back(grid.front());  // duplicate point: must come from the memo

  explore::SweepDriver serial(1);
  explore::SweepDriver threaded(4);
  const auto a = serial.evaluate(grid);
  const auto b = threaded.evaluate(grid);
  ASSERT_EQ(a.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto design = core::make_design(grid[i].kind, grid[i].cfg);
    const auto cost = design->cost(grid[i].spec);
    EXPECT_EQ(a[i].cost.total_latency().value(), cost.total_latency().value());
    EXPECT_EQ(a[i].cost.total_energy().value(), cost.total_energy().value());
    EXPECT_EQ(a[i].cost.total_area().value(), cost.total_area().value());
    EXPECT_EQ(a[i].activity.cycles, design->activity(grid[i].spec).cycles);
    EXPECT_EQ(b[i].cost.total_latency().value(), cost.total_latency().value());
  }
  EXPECT_FALSE(a.front().from_cache);
  EXPECT_TRUE(a.back().from_cache);  // the duplicate
  EXPECT_EQ(serial.stats().evaluated, 4);
  EXPECT_EQ(serial.stats().cache_hits, 1);

  // A second evaluate on the same driver is served entirely from the memo.
  const auto again = serial.evaluate(grid);
  EXPECT_EQ(serial.stats().evaluated, 4);
  EXPECT_EQ(serial.stats().cache_hits, 1 + static_cast<std::int64_t>(grid.size()));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(again[i].from_cache);
    EXPECT_EQ(again[i].cost.total_latency().value(), a[i].cost.total_latency().value());
  }
}

TEST(SweepDriver, KeySeparatesConfigsAndLayers) {
  // The sweep memo is keyed by the compile layer's plan::structural_key, so
  // everything this test (and the framing test below) asserts binds the plan
  // fingerprint every memo shares.
  const nn::DeconvLayerSpec spec{"k", 8, 8, 16, 8, 4, 4, 2, 1, 0};
  arch::DesignConfig cfg;
  const auto base = plan::structural_key(core::DesignKind::kRed, cfg, spec);
  EXPECT_EQ(base, plan::plan_layer(core::DesignKind::kRed, spec, cfg).key);
  EXPECT_EQ(base, plan::structural_key(core::DesignKind::kRed, cfg, spec));  // stable
  EXPECT_NE(base, plan::structural_key(core::DesignKind::kZeroPadding, cfg, spec));
  arch::DesignConfig cfg2 = cfg;
  cfg2.mux_ratio = 16;
  EXPECT_NE(base, plan::structural_key(core::DesignKind::kRed, cfg2, spec));
  arch::DesignConfig cfg3 = cfg;
  cfg3.calib.e_conv *= 2.0;
  EXPECT_NE(base, plan::structural_key(core::DesignKind::kRed, cfg3, spec));
  nn::DeconvLayerSpec spec2 = spec;
  spec2.stride = 4;
  EXPECT_NE(base, plan::structural_key(core::DesignKind::kRed, cfg, spec2));
  // threads and the layer name are presentation/execution detail, not results.
  arch::DesignConfig cfg4 = cfg;
  cfg4.threads = 8;
  nn::DeconvLayerSpec spec3 = spec;
  spec3.name = "renamed";
  EXPECT_EQ(base, plan::structural_key(core::DesignKind::kRed, cfg4, spec3));
}

TEST(SweepDriver, KeyFramesVariableWidthFieldsAgainstCollision) {
  // Crafted near-collision: cfg2's node name is cfg1's name with cfg1's raw
  // feature_nm bytes spliced onto it, so under unframed concatenation the
  // (name, feature_nm) byte streams interleave. The length prefix pins the
  // field boundary, keeping the fingerprint injective even if more
  // variable-width fields join the key later.
  const nn::DeconvLayerSpec spec{"collide", 8, 8, 16, 8, 4, 4, 2, 1, 0};
  arch::DesignConfig cfg1;
  cfg1.node.name = "n";
  cfg1.node.feature_nm = 65.0;
  arch::DesignConfig cfg2 = cfg1;
  char feature_bytes[sizeof(double)];
  std::memcpy(feature_bytes, &cfg1.node.feature_nm, sizeof(double));
  cfg2.node.name = cfg1.node.name + std::string(feature_bytes, sizeof(double));
  cfg2.node.feature_nm = 45.0;
  const auto k1 = plan::structural_key(core::DesignKind::kRed, cfg1, spec);
  const auto k2 = plan::structural_key(core::DesignKind::kRed, cfg2, spec);
  EXPECT_NE(k1, k2);
  // And the boundary shift alone must never cancel: same name bytes split
  // differently between name and the numeric tail.
  arch::DesignConfig cfg3 = cfg1;
  cfg3.node.name = "n65";
  arch::DesignConfig cfg4 = cfg1;
  cfg4.node.name = "n6";
  EXPECT_NE(plan::structural_key(core::DesignKind::kRed, cfg3, spec),
            plan::structural_key(core::DesignKind::kRed, cfg4, spec));

  // Distinct fingerprints must stay distinct through the driver's memo: the
  // crafted pair evaluates as two points, never one cached SweepOutcome.
  explore::SweepDriver driver(2);
  const auto outcomes = driver.evaluate({{core::DesignKind::kRed, cfg1, spec},
                                         {core::DesignKind::kRed, cfg2, spec}});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(driver.stats().evaluated, 2);
  EXPECT_EQ(driver.stats().cache_hits, 0);
  EXPECT_FALSE(outcomes[0].from_cache);
  EXPECT_FALSE(outcomes[1].from_cache);
  // feature_nm scales area/latency, so the two points must also disagree
  // numerically — a collision would have returned the same cached report.
  EXPECT_NE(outcomes[0].cost.total_area().value(), outcomes[1].cost.total_area().value());
}

}  // namespace
}  // namespace red
