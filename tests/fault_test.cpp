// Tests for the red::fault subsystem: deterministic injection, repair
// guarantees (spares, remap, write-verify), campaign oracle equivalence and
// thread invariance, the analytic SNR pruning signal, and the plan/opt
// surfaces (structural keys, JSON round trip, spare-lines axis,
// min_fault_snr constraint).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "red/common/error.h"
#include "red/common/math_util.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/fault/campaign.h"
#include "red/fault/inject.h"
#include "red/nn/deconv_reference.h"
#include "red/opt/space.h"
#include "red/perf/mvm_kernel.h"
#include "red/plan/plan.h"
#include "red/report/json.h"
#include "red/sim/streaming.h"
#include "red/telemetry/metrics.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"
#include "red/xbar/crossbar.h"
#include "reference_oracle.h"

namespace red::fault {
namespace {

xbar::LogicalXbar make_xbar(std::int64_t rows = 64, std::int64_t cols = 8,
                            std::uint64_t data_seed = 9) {
  Rng rng(data_seed);
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * cols));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-100, 100));
  return xbar::LogicalXbar(rows, cols, w, xbar::QuantConfig{});
}

bool same_levels(const xbar::LogicalXbar& a, const xbar::LogicalXbar& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int s = 0; s < a.config().slices(); ++s)
    for (std::int64_t r = 0; r < a.rows(); ++r)
      for (std::int64_t c = 0; c < a.cols(); ++c)
        if (a.level(r, c, s) != b.level(r, c, s)) return false;
  return true;
}

/// Every tier of the draw pass this CPU runs.
std::vector<perf::MvmIsa> supported_tiers() {
  std::vector<perf::MvmIsa> tiers;
  for (const auto t : {perf::MvmIsa::kPortable, perf::MvmIsa::kAvx2, perf::MvmIsa::kAvx512})
    if (t <= perf::mvm_active_isa()) tiers.push_back(t);
  return tiers;
}

FaultModel mixed_model(std::uint64_t seed = 3) {
  FaultModel m;
  m.sa0_rate = 0.01;
  m.sa1_rate = 0.01;
  m.wordline_rate = 0.05;
  m.bitline_rate = 0.05;
  m.drift_sigma = 0.4;
  m.seed = seed;
  return m;
}

TEST(FaultInject, DisabledModelIsBitExactCopy) {
  const auto clean = make_xbar();
  RepairReport rep;
  const auto copy = inject_faults(clean, FaultModel{}, RepairPolicy{}, 0, &rep);
  EXPECT_TRUE(same_levels(clean, copy));
  EXPECT_EQ(weight_error_sq(clean, copy), 0.0);
  EXPECT_EQ(rep.stuck_cells, 0);
  EXPECT_EQ(rep.wordline_faults, 0);
  EXPECT_GT(rep.cells, 0);
}

TEST(FaultInject, DeterministicInSeedAndSeparatedBySalt) {
  const auto clean = make_xbar();
  const auto m = mixed_model();
  const auto a = inject_faults(clean, m, RepairPolicy{}, /*salt=*/7);
  const auto b = inject_faults(clean, m, RepairPolicy{}, /*salt=*/7);
  EXPECT_TRUE(same_levels(a, b));

  // A different salt (another crossbar sharing the model) draws an
  // independent mask, and a different seed does too.
  const auto c = inject_faults(clean, m, RepairPolicy{}, /*salt=*/8);
  EXPECT_FALSE(same_levels(a, c));
  auto m2 = m;
  m2.seed = m.seed + 1;
  const auto d = inject_faults(clean, m2, RepairPolicy{}, /*salt=*/7);
  EXPECT_FALSE(same_levels(a, d));
}

TEST(FaultInject, StuckCountsFollowTheRatesPerPolarity) {
  const auto clean = make_xbar(128, 8);
  FaultModel m;
  m.sa0_rate = 0.2;
  m.seed = 5;
  RepairReport rep;
  const auto faulted = inject_faults(clean, m, RepairPolicy{}, 0, &rep);
  const auto& vs = faulted.variation_stats();
  EXPECT_EQ(vs.sa1_cells, 0);
  EXPECT_EQ(vs.sa0_cells, vs.stuck_cells);
  EXPECT_EQ(rep.stuck_cells, vs.stuck_cells);
  // ~20% of cells, binomial bounds with a wide margin.
  EXPECT_GT(vs.sa0_cells, vs.cells / 10);
  EXPECT_LT(vs.sa0_cells, (3 * vs.cells) / 10);

  FaultModel m1;
  m1.sa1_rate = 0.2;
  m1.seed = 5;
  const auto faulted1 = inject_faults(clean, m1, RepairPolicy{});
  EXPECT_EQ(faulted1.variation_stats().sa0_cells, 0);
  EXPECT_GT(faulted1.variation_stats().sa1_cells, 0);
}

TEST(FaultInject, SparesWithinBudgetFullyHealLineFaults) {
  const auto clean = make_xbar(32, 4);
  FaultModel m;
  m.wordline_rate = 0.1;
  m.bitline_rate = 0.1;
  m.seed = 11;
  RepairReport bare;
  const auto faulted = inject_faults(clean, m, RepairPolicy{}, 0, &bare);
  ASSERT_GT(bare.wordline_faults + bare.bitline_faults, 0);
  EXPECT_FALSE(same_levels(clean, faulted));

  // A spare budget covering every drawn line fault restores the clean array
  // bit-for-bit (line faults are the only fault class in this model).
  RepairPolicy spares;
  spares.spare_rows = static_cast<int>(bare.wordline_faults);
  spares.spare_cols = static_cast<int>(bare.bitline_faults);
  RepairReport rep;
  const auto healed = inject_faults(clean, m, spares, 0, &rep);
  EXPECT_TRUE(same_levels(clean, healed));
  EXPECT_EQ(rep.unrepaired_wordlines, 0);
  EXPECT_EQ(rep.unrepaired_bitlines, 0);
  EXPECT_EQ(rep.spare_rows_used, bare.wordline_faults);
  EXPECT_EQ(rep.spare_cols_used, bare.bitline_faults);
}

TEST(FaultInject, RepairNeverWorseInWeightSpace) {
  const auto clean = make_xbar(48, 6);
  RepairPolicy pol;
  pol.spare_rows = 2;
  pol.spare_cols = 2;
  pol.remap_rows = true;
  pol.verify_retries = 3;
  bool strictly_better = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto m = mixed_model(seed);
    const double bare = weight_error_sq(clean, inject_faults(clean, m, RepairPolicy{}));
    const double repaired = weight_error_sq(clean, inject_faults(clean, m, pol));
    EXPECT_LE(repaired, bare) << "seed " << seed;
    strictly_better |= repaired < bare;
  }
  EXPECT_TRUE(strictly_better);
}

TEST(FaultInject, WriteVerifyRetriesReduceDriftError) {
  const auto clean = make_xbar(64, 8);
  FaultModel m;
  m.drift_sigma = 0.8;
  m.seed = 21;
  double prev = -1.0;
  for (int retries : {0, 2, 6}) {
    RepairPolicy pol;
    pol.verify_retries = retries;
    RepairReport rep;
    const double err = weight_error_sq(clean, inject_faults(clean, m, pol, 0, &rep));
    if (prev >= 0.0) {
      EXPECT_LE(err, prev) << retries << " retries";
    }
    if (retries > 0) {
      EXPECT_GT(rep.retried_cells, 0);
    }
    prev = err;
  }
  // With a generous budget nearly every drifted cell verifies back.
  RepairPolicy big;
  big.verify_retries = 20;
  RepairReport rep;
  const double err = weight_error_sq(clean, inject_faults(clean, m, big, 0, &rep));
  const double bare = weight_error_sq(clean, inject_faults(clean, m, RepairPolicy{}));
  EXPECT_LT(err, bare / 2);
}

TEST(FaultInject, RemapMovesRowsOnlyWhenItHelps) {
  const auto clean = make_xbar(48, 6);
  FaultModel m;
  m.wordline_rate = 0.15;
  m.sa0_rate = 0.02;
  m.seed = 13;
  RepairPolicy remap;
  remap.remap_rows = true;
  RepairReport rep;
  const double repaired = weight_error_sq(clean, inject_faults(clean, m, remap, 0, &rep));
  const double bare = weight_error_sq(clean, inject_faults(clean, m, RepairPolicy{}));
  EXPECT_LE(repaired, bare);
  if (rep.rows_remapped == 0) {
    EXPECT_EQ(repaired, bare);
  }
}

// ---------------------------------------------------------------------------
// Single draw pass against the per-cell oracle
// ---------------------------------------------------------------------------

/// `faulted` equals the per-cell reference in every observable field.
void expect_matches_reference(const xbar::LogicalXbar& faulted, const RepairReport& rep,
                              const oracle::FaultedCells& ref, const std::string& what) {
  const std::int64_t cols = faulted.cols();
  const std::int64_t plane = faulted.rows() * cols;
  std::int64_t level_mismatches = 0;
  for (int s = 0; s < faulted.config().slices(); ++s)
    for (std::int64_t i = 0; i < plane; ++i)
      level_mismatches += faulted.level(i / cols, i % cols, s) !=
                          ref.levels[static_cast<std::size_t>(s * plane + i)];
  EXPECT_EQ(level_mismatches, 0) << what;
  const auto w = faulted.stored_weights();
  EXPECT_TRUE(std::equal(w.begin(), w.end(), ref.weights.begin(), ref.weights.end())) << what;
  EXPECT_EQ(faulted.lossless_adc_bits(), ref.lossless_adc_bits) << what;

  const auto& vs = faulted.variation_stats();
  EXPECT_EQ(vs.cells, ref.vstats.cells) << what;
  EXPECT_EQ(vs.perturbed_cells, ref.vstats.perturbed_cells) << what;
  EXPECT_EQ(vs.stuck_cells, ref.vstats.stuck_cells) << what;
  EXPECT_EQ(vs.sa0_cells, ref.vstats.sa0_cells) << what;
  EXPECT_EQ(vs.sa1_cells, ref.vstats.sa1_cells) << what;

  const auto& r = ref.report;
  EXPECT_EQ(rep.cells, r.cells) << what;
  EXPECT_EQ(rep.wordline_faults, r.wordline_faults) << what;
  EXPECT_EQ(rep.bitline_faults, r.bitline_faults) << what;
  EXPECT_EQ(rep.spare_rows_used, r.spare_rows_used) << what;
  EXPECT_EQ(rep.spare_cols_used, r.spare_cols_used) << what;
  EXPECT_EQ(rep.unrepaired_wordlines, r.unrepaired_wordlines) << what;
  EXPECT_EQ(rep.unrepaired_bitlines, r.unrepaired_bitlines) << what;
  EXPECT_EQ(rep.stuck_cells, r.stuck_cells) << what;
  EXPECT_EQ(rep.drifted_cells, r.drifted_cells) << what;
  EXPECT_EQ(rep.retried_cells, r.retried_cells) << what;
  EXPECT_EQ(rep.rows_remapped, r.rows_remapped) << what;
}

TEST(FaultInject, SingleDrawPassMatchesPerCellOracle) {
  struct Geometry {
    std::int64_t rows, cols;
    int wbits, cell_bits;
  };
  // 67 rows: not a multiple of 64, so the packed planes' last word is partial.
  // 7 bits over 3-bit cells leaves a partial top slice. The draw pass sweeps
  // each physical row in hit-mask words: 70x67 at 8/2 (268 physical columns)
  // spans several vectors and words and ends in a partial block; 45x2 at 6/2
  // (6 physical columns) is narrower than one vector.
  const Geometry geometries[] = {{67, 5, 8, 2}, {64, 4, 7, 3}, {40, 3, 8, 1},
                                 {70, 67, 8, 2}, {45, 2, 6, 2}};

  struct Env {
    const char* name;
    FaultModel model;
  };
  std::vector<Env> envs;
  {
    FaultModel dense;  // events are not sparse
    dense.sa0_rate = 0.15;
    dense.sa1_rate = 0.15;
    dense.drift_sigma = 0.2;
    envs.push_back({"dense", dense});
    FaultModel lines;  // more faulty lines than any spare budget below
    lines.wordline_rate = 0.12;
    lines.bitline_rate = 0.12;
    lines.sa0_rate = 0.01;
    envs.push_back({"lines", lines});
    for (const double sigma : {0.2, 1.5}) {
      FaultModel drift = mixed_model();
      drift.drift_sigma = sigma;
      envs.push_back({sigma < 1.0 ? "mixed-drift-0.2" : "mixed-drift-1.5", drift});
    }
    FaultModel sa1_only;  // stuck-at-max defeats the magnitude proxy: remaps lose
    sa1_only.sa1_rate = 0.03;
    sa1_only.drift_sigma = 0.3;
    envs.push_back({"sa1", sa1_only});
    envs.push_back({"disabled", FaultModel{}});
  }

  std::vector<RepairPolicy> policies;
  for (const int retries : {0, 2, 63})
    for (const bool remap : {false, true}) {
      RepairPolicy pol;
      pol.spare_rows = 2;
      pol.spare_cols = 1;
      pol.remap_rows = remap;
      pol.verify_retries = retries;
      policies.push_back(pol);
    }

  int accepted = 0, rejected = 0;
  for (const Geometry& g : geometries) {
    xbar::QuantConfig q;
    q.wbits = g.wbits;
    q.cell_bits = g.cell_bits;
    Rng rng(static_cast<std::uint64_t>(g.rows * 31 + g.cols));
    const std::int32_t half = q.weight_offset();
    std::vector<std::int32_t> w(static_cast<std::size_t>(g.rows * g.cols));
    for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-half, half - 1));
    const xbar::LogicalXbar clean(g.rows, g.cols, w, q);
    // A second clean crossbar whose packed planes exist before injection, so
    // the faulted copies patch them in place instead of building them later.
    // Packed planes serve only the clipped-ADC kernel; this resolution holds
    // any column of levels (rows * max_level), so it never clips.
    xbar::QuantConfig q_packed = q;
    q_packed.adc = {xbar::AdcMode::kClipped, ilog2_ceil(g.rows * q.max_level() + 1)};
    const xbar::LogicalXbar clean_packed(g.rows, g.cols, w, q_packed);
    EXPECT_TRUE(clean_packed.ensure_packed_planes());
    std::vector<std::int32_t> x(static_cast<std::size_t>(g.rows));
    for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));

    for (const Env& env : envs)
      for (const RepairPolicy& pol : policies)
        for (const std::uint64_t salt : {std::uint64_t{0}, std::uint64_t{4097}}) {
          const std::string what = std::string(env.name) + " rows=" + std::to_string(g.rows) +
                                   " cell_bits=" + std::to_string(g.cell_bits) +
                                   " retries=" + std::to_string(pol.verify_retries) +
                                   " remap=" + std::to_string(pol.remap_rows) +
                                   " salt=" + std::to_string(salt);
          const auto ref = oracle::inject_faults_reference(clean, env.model, pol, salt);
          accepted += ref.report.rows_remapped > 0;
          rejected += ref.remap_rejected;
          for (const perf::MvmIsa tier : supported_tiers()) {
            RepairReport rep;
            expect_matches_reference(
                detail::inject_faults_on(tier, clean, env.model, pol, salt, &rep), rep, ref,
                what + " tier=" + perf::mvm_isa_name(tier));
          }
          RepairReport rep_packed;
          const auto patched = inject_faults(clean_packed, env.model, pol, salt, &rep_packed);
          expect_matches_reference(patched, rep_packed, ref, what + " (patched planes)");
          EXPECT_EQ(patched.mvm_bit_accurate(x), patched.mvm_bit_accurate_reference(x)) << what;
        }
  }
  // The grid prices remaps both ways.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FaultInject, OneDrawPassPerCall) {
  // Counter-RNG draws of one inject_faults call: the line draws, then one
  // stuck and one drift-change draw per live cell (a stuck cell skips the
  // drift draw), plus the verify-attempt draws of drift candidates — cells
  // whose attempt-0 change draw lies below the largest change probability.
  // Physical rows of 20, 268 (several hit-mask words, a partial last block)
  // and 4 columns (narrower than one vector), at every tier.
  for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{67, 5}, {70, 67},
                                   {300, 1}}) {
    const auto clean = make_xbar(rows, cols);
    FaultModel m = mixed_model();
    m.drift_sigma = 0.3;
    RepairPolicy pol;
    pol.spare_rows = 1;
    pol.spare_cols = 1;
    pol.remap_rows = true;
    pol.verify_retries = 2;
    const std::uint64_t salt = 1;

    const std::int64_t R = clean.rows();
    const std::int64_t P = clean.phys_cols();
    const auto draw = [&](std::uint64_t domain, std::uint64_t counter) {
      return fault_unit(m.seed, salt * 8 + domain, counter);
    };
    const auto dead_lines = [&](std::uint64_t domain, double rate, std::int64_t n, int spares) {
      std::vector<bool> dead(static_cast<std::size_t>(n));
      int faults = 0;
      for (std::int64_t i = 0; i < n; ++i)
        if (draw(domain, static_cast<std::uint64_t>(i)) < rate && ++faults > spares)
          dead[static_cast<std::size_t>(i)] = true;
      return dead;
    };
    const auto dead_rows = dead_lines(0, m.wordline_rate, R, pol.spare_rows);
    const auto dead_cols = dead_lines(1, m.bitline_rate, P, pol.spare_cols);
    const xbar::NoiseLaw law(m.drift_sigma, clean.config().max_level());
    double p_star = 0.0;
    for (int l = 0; l <= clean.config().max_level(); ++l)
      p_star = std::max(p_star, law.change[static_cast<std::size_t>(l)]);

    std::int64_t live = 0, stuck = 0, retry_draws = 0;
    for (std::int64_t q = 0; q < R; ++q)
      for (std::int64_t p = 0; p < P; ++p) {
        if (dead_rows[static_cast<std::size_t>(q)] || dead_cols[static_cast<std::size_t>(p)])
          continue;
        ++live;
        const std::uint64_t idx = static_cast<std::uint64_t>(q * P + p);
        if (draw(2, idx) < m.sa0_rate + m.sa1_rate) {
          ++stuck;
          continue;
        }
        for (int a = 0; a <= pol.verify_retries; ++a) {
          if (a > 0) ++retry_draws;  // the attempt's change draw
          if (draw(3, idx * 64 + static_cast<std::uint64_t>(a)) >= p_star) break;
          ++retry_draws;  // the attempt's level draw
        }
      }
    const std::string what = std::to_string(R) + "x" + std::to_string(P);
    ASSERT_GT(retry_draws, 0) << what;
    ASSERT_GT(stuck, 0) << what;

    for (const perf::MvmIsa tier : supported_tiers()) {
      telemetry::MetricsRegistry registry;
      telemetry::install_metrics(&registry);
      RepairReport rep;
      (void)detail::inject_faults_on(tier, clean, m, pol, salt, &rep);
      telemetry::install_metrics(nullptr);
      const std::uint64_t draws = registry.counter("fault.rng_draws")->value();
      EXPECT_EQ(static_cast<std::int64_t>(draws), R + P + 2 * live - stuck + retry_draws)
          << what << " tier=" << perf::mvm_isa_name(tier);
      EXPECT_EQ(rep.stuck_cells, stuck) << what << " tier=" << perf::mvm_isa_name(tier);
      // The remap was priced without drawing again.
      EXPECT_GT(rep.rows_remapped, 0) << what << " tier=" << perf::mvm_isa_name(tier);
    }
  }
}

TEST(FaultInject, SharedDrawMatchesPerArmInjection) {
  // One draw serving two repair policies builds each arm bit-identical to
  // that policy's own injection: levels, RepairReport, VariationStats and
  // the arm's fault.rng_draws, against the separate call and the per-cell
  // oracle. The pairs differ in spares (0 vs 4), retries (0 vs 5) and
  // remapping, each in both orders, so the draw's cover is set by either
  // arm. Random geometries, at every tier.
  Rng geo(2026);
  FaultModel m = mixed_model(11);
  for (int g = 0; g < 3; ++g) {
    xbar::QuantConfig q;
    q.wbits = static_cast<int>(geo.uniform_int(5, 8));
    q.cell_bits = static_cast<int>(geo.uniform_int(1, 3));
    const std::int64_t rows = geo.uniform_int(20, 90);
    const std::int64_t cols = geo.uniform_int(2, 40);
    const std::int32_t half = q.weight_offset();
    std::vector<std::int32_t> w(static_cast<std::size_t>(rows * cols));
    for (auto& v : w) v = static_cast<std::int32_t>(geo.uniform_int(-half, half - 1));
    const xbar::LogicalXbar clean(rows, cols, w, q);
    const std::uint64_t salt = static_cast<std::uint64_t>(g);
    m.seed = 11 + static_cast<std::uint64_t>(g);

    for (const bool remap : {false, true})
      for (const auto& [spares_a, spares_b] : {std::pair{0, 4}, {4, 0}})
        for (const auto& [retries_a, retries_b] : {std::pair{0, 5}, {5, 0}}) {
          RepairPolicy arms[2];
          arms[0].spare_rows = arms[0].spare_cols = spares_a;
          arms[0].verify_retries = retries_a;
          arms[0].remap_rows = remap;
          arms[1].spare_rows = arms[1].spare_cols = spares_b;
          arms[1].verify_retries = retries_b;
          arms[1].remap_rows = !remap;
          for (const perf::MvmIsa tier : supported_tiers()) {
            const FaultDraw draw = detail::draw_faults_on(tier, clean, m, arms, salt);
            for (const RepairPolicy& pol : arms) {
              const std::string what =
                  std::to_string(rows) + "x" + std::to_string(cols) + " wbits=" +
                  std::to_string(q.wbits) + " cell_bits=" + std::to_string(q.cell_bits) +
                  " spares=" + std::to_string(pol.spare_rows) + " retries=" +
                  std::to_string(pol.verify_retries) + " remap=" +
                  std::to_string(pol.remap_rows) + " tier=" + perf::mvm_isa_name(tier);
              const auto counted = [](auto&& inject) {
                telemetry::MetricsRegistry registry;
                telemetry::install_metrics(&registry);
                RepairReport rep;
                auto faulted = inject(&rep);
                telemetry::install_metrics(nullptr);
                return std::tuple{std::move(faulted), rep,
                                  registry.counter("fault.rng_draws")->value()};
              };
              const auto [shared, shared_rep, shared_draws] =
                  counted([&](RepairReport* r) { return repair_faults(clean, draw, pol, r); });
              const auto [alone, alone_rep, alone_draws] = counted([&](RepairReport* r) {
                return detail::inject_faults_on(tier, clean, m, pol, salt, r);
              });
              EXPECT_TRUE(same_levels(shared, alone)) << what;
              EXPECT_EQ(shared_draws, alone_draws) << what;
              expect_matches_reference(alone, alone_rep, oracle::inject_faults_reference(
                                                              clean, m, pol, salt),
                                       what + " (alone)");
              expect_matches_reference(
                  shared, shared_rep, oracle::inject_faults_reference(clean, m, pol, salt),
                  what + " (shared)");
            }
          }
        }
  }
}

TEST(FaultInject, SharedDrawLayersMatchFaulted) {
  // ProgrammedLayer level, RED and zero padding: a sibling repaired from one
  // shared draw runs bit-identical to faulted() under its own policy.
  const nn::DeconvLayerSpec spec{"fshared", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  Rng rng(5);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const FaultModel m = mixed_model(13);
  RepairPolicy arms[2];
  arms[1].spare_rows = arms[1].spare_cols = 2;
  arms[1].remap_rows = true;
  arms[1].verify_retries = 3;
  for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kRed}) {
    const auto clean = core::make_design(kind, arch::DesignConfig{})->program(spec, kernel);
    ASSERT_NE(clean, nullptr);
    const auto draws = clean->draw_faults(m, arms, /*salt=*/3);
    for (const RepairPolicy& pol : arms) {
      RepairReport shared_rep, alone_rep;
      arch::RunStats shared_stats, alone_stats;
      const auto shared = clean->repaired(draws, pol, &shared_rep, /*threads=*/1);
      const auto alone = clean->faulted(m, pol, /*salt=*/3, &alone_rep);
      EXPECT_EQ(first_mismatch(alone->run(input, &alone_stats),
                               shared->run(input, &shared_stats)),
                "");
      EXPECT_EQ(shared_stats, alone_stats);
      EXPECT_EQ(shared_rep.stuck_cells, alone_rep.stuck_cells);
      EXPECT_EQ(shared_rep.drifted_cells, alone_rep.drifted_cells);
      EXPECT_EQ(shared_rep.retried_cells, alone_rep.retried_cells);
      EXPECT_EQ(shared_rep.rows_remapped, alone_rep.rows_remapped);
      EXPECT_EQ(shared_rep.unrepaired_wordlines, alone_rep.unrepaired_wordlines);
      EXPECT_EQ(shared->variation_stats().perturbed_cells,
                alone->variation_stats().perturbed_cells);
    }
  }
}

TEST(FaultInject, GanDeconv4CampaignDigestsArePinned) {
  // FNV-1a digests of every trial field of a GAN_Deconv4 RED campaign at
  // fault seeds 1-4 (2 trial lanes), computed with the per-cell injector the
  // single draw pass replaced: scores, repair reports, variation stats and
  // run stats must stay bit-identical.
  struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::int64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    void add(double d) { add(std::bit_cast<std::int64_t>(d)); }
    void add(const FaultTrialArm& a) {
      const auto& s = a.score;
      for (double d : {s.mse, s.snr_db, s.nrmse, s.max_abs_err}) add(d);
      for (std::int64_t v : {s.pixels, s.mismatched_pixels, s.bit_errors}) add(v);
      const auto& r = a.repair;
      for (std::int64_t v : {r.cells, r.wordline_faults, r.bitline_faults, r.spare_rows_used,
                             r.spare_cols_used, r.unrepaired_wordlines, r.unrepaired_bitlines,
                             r.stuck_cells, r.drifted_cells, r.retried_cells, r.rows_remapped})
        add(v);
      const auto& v = a.variation;
      for (std::int64_t x : {v.cells, v.perturbed_cells, v.stuck_cells, v.sa0_cells, v.sa1_cells})
        add(x);
      const auto& st = a.stats;
      for (std::int64_t x : {st.cycles, st.mvm.mvm_ops, st.mvm.row_drives, st.mvm.mac_pulses,
                             st.mvm.conversions, st.mvm.adc_clips, st.overlap_adds,
                             st.buffer_accesses})
        add(x);
    }
  };
  const auto spec = workloads::gan_deconv4();
  Rng rng(1);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  FaultModel m;
  m.sa0_rate = 2.5e-5;
  m.sa1_rate = 2.5e-5;
  m.wordline_rate = 0.001;
  m.bitline_rate = 0.001;
  m.drift_sigma = 0.2;
  RepairPolicy pol;
  pol.spare_rows = 4;
  pol.spare_cols = 4;
  pol.remap_rows = true;
  pol.verify_retries = 2;
  FaultCampaignOptions opts;
  opts.trials = 4;
  opts.base_seed = 1;
  opts.threads = 2;
  const auto points = run_fault_campaign(core::DesignKind::kRed, arch::DesignConfig{}, {m}, pol,
                                         spec, input, kernel, opts);
  const std::uint64_t pins[] = {0x7c3d77a44264a987ULL, 0x60d4f847554fecb8ULL,
                                0x389a7760113b5bafULL, 0x0eb44aaa2f0b0c31ULL};
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].trials.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    const auto& trial = points[0].trials[t];
    Digest d;
    d.add(static_cast<std::int64_t>(trial.seed));
    d.add(trial.unrepaired);
    d.add(trial.repaired);
    EXPECT_EQ(d.h, pins[t]) << "fault seed " << trial.seed;
    EXPECT_GT(trial.repaired.repair.rows_remapped, 0);
  }
  EXPECT_TRUE(points[0].repaired_not_worse());
}

TEST(FaultAnalytic, SnrMonotoneInRatesAndBudgets) {
  const xbar::QuantConfig quant;
  const RepairPolicy none;
  EXPECT_EQ(analytic_snr_db(FaultModel{}, none, quant, 128, 16), 300.0);

  double prev = 301.0;
  for (double r : {0.001, 0.01, 0.1}) {
    FaultModel m;
    m.sa0_rate = m.sa1_rate = r / 2;
    m.wordline_rate = m.bitline_rate = r;
    const double snr = analytic_snr_db(m, none, quant, 128, 16);
    EXPECT_LT(snr, prev) << "rate " << r;
    prev = snr;
  }

  // Budgets help: spares and retries each raise the estimate.
  FaultModel m;
  m.wordline_rate = 0.05;
  m.drift_sigma = 0.5;
  RepairPolicy spares;
  spares.spare_rows = 8;
  EXPECT_GT(analytic_snr_db(m, spares, quant, 128, 16),
            analytic_snr_db(m, none, quant, 128, 16));
  RepairPolicy retries;
  retries.verify_retries = 4;
  EXPECT_GT(analytic_snr_db(m, retries, quant, 128, 16),
            analytic_snr_db(m, none, quant, 128, 16));
}

TEST(FaultPlan, StructuralKeyTracksFaultConfig) {
  const nn::DeconvLayerSpec spec{"fkey", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  const arch::DesignConfig base;
  const auto kind = core::DesignKind::kRed;
  const std::string k0 = plan::structural_key(kind, base, spec);

  auto cfg = base;
  cfg.fault.model.sa0_rate = 0.01;
  EXPECT_NE(plan::structural_key(kind, cfg, spec), k0);
  cfg = base;
  cfg.fault.repair.spare_rows = 2;
  EXPECT_NE(plan::structural_key(kind, cfg, spec), k0);
  cfg = base;
  cfg.quant.variation.sa0_rate = 0.01;
  EXPECT_NE(plan::structural_key(kind, cfg, spec), k0);

  // Spares are priced: provisioned lines add programmed cells to the
  // activity (and through it, area).
  auto spared = base;
  spared.fault.repair.spare_rows = 4;
  spared.fault.repair.spare_cols = 4;
  EXPECT_GT(plan::plan_layer(kind, spec, spared).activity.cells,
            plan::plan_layer(kind, spec, base).activity.cells);
}

TEST(FaultPlan, FaultConfigRoundTripsThroughPlanJson) {
  const nn::DeconvLayerSpec spec{"fjson", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  arch::DesignConfig cfg;
  cfg.fault.model.sa0_rate = 0.01;
  cfg.fault.model.sa1_rate = 0.02;
  cfg.fault.model.wordline_rate = 0.03;
  cfg.fault.model.bitline_rate = 0.04;
  cfg.fault.model.drift_sigma = 0.5;
  cfg.fault.model.seed = 42;
  cfg.fault.repair.spare_rows = 3;
  cfg.fault.repair.spare_cols = 1;
  cfg.fault.repair.remap_rows = true;
  cfg.fault.repair.verify_retries = 5;
  cfg.quant.variation.sa0_rate = 0.001;
  cfg.quant.variation.sa1_rate = 0.002;

  const auto lp = plan::plan_layer(core::DesignKind::kRed, spec, cfg);
  const auto round = report::layer_plan_from_json(report::to_json(lp));
  EXPECT_EQ(round.key, lp.key);
  EXPECT_EQ(round.cfg.fault.model.sa1_rate, cfg.fault.model.sa1_rate);
  EXPECT_EQ(round.cfg.fault.model.seed, cfg.fault.model.seed);
  EXPECT_EQ(round.cfg.fault.repair.spare_rows, cfg.fault.repair.spare_rows);
  EXPECT_EQ(round.cfg.fault.repair.remap_rows, cfg.fault.repair.remap_rows);
  EXPECT_EQ(round.cfg.fault.repair.verify_retries, cfg.fault.repair.verify_retries);
  EXPECT_EQ(round.cfg.quant.variation.sa0_rate, cfg.quant.variation.sa0_rate);
}

class FaultCampaignTest : public ::testing::Test {
 protected:
  const nn::DeconvLayerSpec spec_{"fcamp", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  Tensor<std::int32_t> input_, kernel_;

  void SetUp() override {
    Rng rng(17);
    input_ = workloads::make_input(spec_, rng, 1, 7);
    kernel_ = workloads::make_kernel(spec_, rng, -7, 7);
  }

  std::vector<FaultModel> models() const {
    FaultModel hot = mixed_model();
    return {FaultModel{}, hot};
  }

  RepairPolicy policy() const {
    RepairPolicy pol;
    pol.spare_rows = 2;
    pol.spare_cols = 2;
    pol.remap_rows = true;
    pol.verify_retries = 2;
    return pol;
  }
};

TEST_F(FaultCampaignTest, ZeroRateIsOracleExactAndRepairNeverHurts) {
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kRed}) {
    FaultCampaignOptions opts;
    opts.trials = 2;
    const auto points = run_fault_campaign(kind, arch::DesignConfig{}, models(), policy(),
                                           spec_, input_, kernel_, opts);
    ASSERT_EQ(points.size(), 2u);
    for (const auto& t : points[0].trials) {
      EXPECT_TRUE(t.unrepaired.score.exact());
      EXPECT_TRUE(t.repaired.score.exact());
      EXPECT_EQ(t.unrepaired.score.snr_db, 300.0);
    }
    for (const auto& p : points) EXPECT_TRUE(p.repaired_not_worse());
    // The hot point actually degrades the bare arm (the sweep is not vacuous).
    EXPECT_GT(points[1].mean_mse(false), 0.0);
  }
}

TEST_F(FaultCampaignTest, ThreadCountDoesNotChangeAnyScore) {
  // The lanes build the clean layer or stack, run the oracle and fan out the
  // trials: every score, report and run stat is the same at 1, 2 and 4 lanes,
  // for the single-layer and the whole-stack entry point alike.
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 2, 21);
  for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kRed}) {
    for (const bool whole_stack : {false, true}) {
      const auto run = [&](int lanes) {
        FaultCampaignOptions opts;
        opts.trials = 3;
        opts.threads = lanes;
        return whole_stack ? run_fault_campaign_stack(kind, arch::DesignConfig{}, models(),
                                                      policy(), stack, kernels, images, opts)
                           : run_fault_campaign(kind, arch::DesignConfig{}, models(), policy(),
                                                spec_, input_, kernel_, opts);
      };
      const auto a = run(1);
      for (const int lanes : {2, 4}) {
        const auto b = run(lanes);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i].trials.size(), b[i].trials.size());
          for (std::size_t t = 0; t < a[i].trials.size(); ++t)
            for (const bool repaired : {false, true}) {
              const auto& x = repaired ? a[i].trials[t].repaired : a[i].trials[t].unrepaired;
              const auto& y = repaired ? b[i].trials[t].repaired : b[i].trials[t].unrepaired;
              const std::string what = std::string(whole_stack ? "stack" : "layer") +
                                       " lanes=" + std::to_string(lanes) + " point " +
                                       std::to_string(i) + " trial " + std::to_string(t);
              EXPECT_EQ(x.score.mse, y.score.mse) << what;
              EXPECT_EQ(x.score.bit_errors, y.score.bit_errors) << what;
              EXPECT_EQ(x.stats, y.stats) << what;
              EXPECT_EQ(x.repair.rows_remapped, y.repair.rows_remapped) << what;
              EXPECT_EQ(x.repair.drifted_cells, y.repair.drifted_cells) << what;
              EXPECT_EQ(x.variation.perturbed_cells, y.variation.perturbed_cells) << what;
            }
        }
      }
    }
  }
}

TEST_F(FaultCampaignTest, DesignWithoutProgrammedLayerIsRefusedUpFront) {
  // Padding-free reprograms per image, so it cannot hold a fault mask: both
  // entry points throw ConfigError before the oracle or any trial runs.
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 1, 21);
  telemetry::MetricsRegistry registry;
  telemetry::install_metrics(&registry);
  EXPECT_THROW((void)run_fault_campaign(core::DesignKind::kPaddingFree, arch::DesignConfig{},
                                        models(), policy(), spec_, input_, kernel_),
               ConfigError);
  EXPECT_THROW((void)run_fault_campaign_stack(core::DesignKind::kPaddingFree,
                                              arch::DesignConfig{}, models(), policy(), stack,
                                              kernels, images),
               ConfigError);
  telemetry::install_metrics(nullptr);
  EXPECT_EQ(registry.counter("fault.trials")->value(), 0u);
  EXPECT_EQ(registry.counter("streaming.cells")->value(), 0u);
}

TEST_F(FaultCampaignTest, TrialsDrawIndependentMasks) {
  FaultCampaignOptions opts;
  opts.trials = 3;
  const auto points = run_fault_campaign(core::DesignKind::kRed, arch::DesignConfig{},
                                         {mixed_model()}, policy(), spec_, input_, kernel_,
                                         opts);
  const auto& trials = points[0].trials;
  bool any_differs = false;
  for (std::size_t t = 1; t < trials.size(); ++t)
    any_differs |= trials[t].unrepaired.score.mse != trials[0].unrepaired.score.mse;
  EXPECT_TRUE(any_differs);
}

TEST(FaultStreaming, FaultedExecutorIsDeterministicAndZeroModelExact) {
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 2, 21);
  const sim::StreamingExecutor clean(core::DesignKind::kRed, arch::DesignConfig{}, stack,
                                     kernels);
  sim::StreamingOptions run_opts;
  run_opts.check = false;
  const auto oracle = clean.stream(images, run_opts);
  const RepairPolicy bare;
  const auto faulted = [&](const FaultModel& m, std::vector<RepairReport>* reports = nullptr) {
    return clean.repaired(clean.draw_faults(m, {&bare, 1}), bare, reports);
  };

  // Zero model: the faulted sibling is the oracle, bit for bit.
  const auto exact_out = faulted(FaultModel{})->stream(images, run_opts);
  for (std::size_t k = 0; k < images.size(); ++k)
    EXPECT_EQ(first_mismatch(oracle.images[k].output, exact_out.images[k].output), "");

  // A real model: deterministic across calls, per-stage reports populated,
  // stacked stages draw independent masks (different stage salts).
  FaultModel m;
  m.sa0_rate = m.sa1_rate = 0.02;
  m.seed = 9;
  std::vector<RepairReport> reports;
  const auto o1 = faulted(m, &reports)->stream(images, run_opts);
  const auto o2 = faulted(m)->stream(images, run_opts);
  ASSERT_EQ(reports.size(), stack.size());
  for (const auto& rep : reports) EXPECT_GT(rep.stuck_cells, 0);
  for (std::size_t k = 0; k < images.size(); ++k)
    EXPECT_EQ(first_mismatch(o1.images[k].output, o2.images[k].output), "");
}

TEST(FaultStreaming, StackCampaignHonorsTheSameGates) {
  // Line faults only, with a spare budget that covers every drawn fault:
  // the repaired arm must restore the fault-free oracle bit-for-bit while
  // the bare arm degrades. (A mixed model with row remapping is only
  // guaranteed better in weight space, not in end-to-end output MSE — the
  // inter-stage requantization is nonlinear — so the hard stack gate uses
  // the provable repair.)
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 2, 21);
  FaultModel hot;
  hot.wordline_rate = 0.05;
  hot.bitline_rate = 0.05;
  RepairPolicy pol;
  pol.spare_rows = 64;
  pol.spare_cols = 64;
  FaultCampaignOptions opts;
  opts.trials = 2;
  const auto points = run_fault_campaign_stack(core::DesignKind::kRed, arch::DesignConfig{},
                                               {FaultModel{}, hot}, pol, stack, kernels,
                                               images, opts);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& t : points[0].trials) {
    EXPECT_TRUE(t.unrepaired.score.exact());
    EXPECT_TRUE(t.repaired.score.exact());
  }
  for (const auto& t : points[1].trials) {
    EXPECT_GT(t.unrepaired.repair.wordline_faults + t.unrepaired.repair.bitline_faults, 0);
    EXPECT_EQ(t.repaired.repair.unrepaired_wordlines, 0);
    EXPECT_EQ(t.repaired.repair.unrepaired_bitlines, 0);
    EXPECT_TRUE(t.repaired.score.exact());
  }
  for (const auto& p : points) EXPECT_TRUE(p.repaired_not_worse());
  EXPECT_GT(points[1].mean_mse(false), 0.0);
}

TEST(FaultStreaming, StackCampaignReportsVariation) {
  // Each arm carries its faulted stack's cell counters: the sum of every
  // stage's repaired layer's variation_stats() from the same draw.
  const auto kind = core::DesignKind::kRed;
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 1, 21);
  FaultModel stuck;
  stuck.sa0_rate = stuck.sa1_rate = 0.01;
  RepairPolicy pol;
  pol.spare_rows = 2;
  pol.spare_cols = 2;
  FaultCampaignOptions opts;
  opts.trials = 2;
  opts.base_seed = 5;
  const auto points = run_fault_campaign_stack(kind, arch::DesignConfig{}, {stuck}, pol, stack,
                                               kernels, images, opts);
  ASSERT_EQ(points.size(), 1u);

  const auto design = core::make_design(kind, arch::DesignConfig{});
  const auto plan = plan::plan_stack(kind, stack, arch::DesignConfig{});
  const RepairPolicy arms[] = {RepairPolicy{}, pol};
  for (const auto& trial : points[0].trials) {
    FaultModel m = stuck;
    m.seed = trial.seed;
    xbar::VariationStats expected[2];
    for (std::size_t i = 0; i < stack.size(); ++i) {
      const auto layer = design->program(plan.layers[i], kernels[i], /*variation_salt=*/i);
      const auto draws = layer->draw_faults(m, arms, /*salt=*/i);
      for (std::size_t a = 0; a < 2; ++a)
        expected[a] += layer->repaired(draws, arms[a])->variation_stats();
    }
    const std::string what = "fault seed " + std::to_string(trial.seed);
    EXPECT_GT(trial.unrepaired.variation.stuck_cells, 0) << what;
    EXPECT_EQ(trial.unrepaired.variation, expected[0]) << what;
    EXPECT_EQ(trial.repaired.variation, expected[1]) << what;
  }
}

TEST(FaultOpt, SpareLinesAxisMaterializesIntoRepairBudget) {
  const std::vector<nn::DeconvLayerSpec> stack{{"fopt", 4, 4, 8, 4, 3, 3, 2, 1, 0}};
  opt::SearchSpace space(stack, core::DesignKind::kRed, arch::DesignConfig{});
  space.add_axis({opt::AxisField::kSpareLines, {0, 4}});
  ASSERT_EQ(space.size(), 2);
  const auto p0 = space.materialize(space.decode(0));
  const auto p1 = space.materialize(space.decode(1));
  EXPECT_EQ(p0.cfg.fault.repair.spare_rows, 0);
  EXPECT_EQ(p1.cfg.fault.repair.spare_rows, 4);
  EXPECT_EQ(p1.cfg.fault.repair.spare_cols, 4);
  EXPECT_EQ(opt::axis_field_from_name("spare-lines"), opt::AxisField::kSpareLines);
  // The axis is structural: the two candidates compile to different keys.
  EXPECT_NE(plan::structural_key(p0.kind, p0.cfg, stack[0]),
            plan::structural_key(p1.kind, p1.cfg, stack[0]));
}

TEST(FaultOpt, MinFaultSnrConstraintPrunesHarshEnvironments) {
  const std::vector<nn::DeconvLayerSpec> stack{{"fsnr", 4, 4, 8, 4, 3, 3, 2, 1, 0}};
  arch::DesignConfig harsh;
  harsh.fault.model.sa0_rate = harsh.fault.model.sa1_rate = 0.05;
  harsh.fault.model.wordline_rate = 0.1;
  const opt::SearchSpace space(stack, core::DesignKind::kRed, harsh);
  const auto cand = space.decode(0);
  const auto point = space.materialize(cand);
  const auto plan = plan::plan_stack(point.kind, stack, point.cfg);
  const opt::CandidateView view{space, cand, point, plan};

  const auto lenient = opt::min_fault_snr(-200.0);
  const auto strict = opt::min_fault_snr(100.0);
  EXPECT_TRUE(lenient.allow(view));
  EXPECT_FALSE(strict.allow(view));
  // The threshold is part of the constraint identity (checkpoint fingerprint).
  EXPECT_NE(lenient.name, strict.name);
}

}  // namespace
}  // namespace red::fault
