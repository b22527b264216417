// Analog fast-path benchmark: before/after timings of the IR-drop solver
// (reference point-SOR vs ADI line relaxation) and the noise-ablation sweep
// (per-seed design rebuild vs the Monte Carlo variation engine), emitted as
// BENCH_analog.json. Exits 1 unless every Monte Carlo trial's NRMSE equals
// its per-seed rebuild's exactly (equivalence.noise_sweep_max_nrmse_diff).
// Run through tools/run_bench.sh, or directly:
//
//   bench_analog [--quick] [--out BENCH_analog.json] [--side N]
//                [--trials N] [--threads N]
//
// --quick is the bench_smoke CTest configuration: one tiny iteration of
// everything, still exercising every code path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "red/common/flags.h"
#include "red/common/rng.h"
#include "red/common/string_util.h"
#include "red/core/designs.h"
#include "red/nn/deconv_reference.h"
#include "red/perf/analog_kernel.h"
#include "red/report/json.h"
#include "red/sim/montecarlo.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/xbar/analog.h"

int main(int argc, char** argv) {
  using namespace red;
  using bench::Clock;
  using bench::Entry;
  using bench::ms_since;
  const Flags flags = Flags::parse(argc - 1, argv + 1);
  const bool quick = flags.get_bool("quick");
  const std::string out_path = flags.get_string("out", "BENCH_analog.json");
  const auto side = flags.get_int("side", quick ? 16 : 128);
  const int trials = static_cast<int>(flags.get_int("trials", quick ? 2 : 5));
  const int threads = static_cast<int>(flags.get_int("threads", 4));
  const int reps = quick ? 1 : 3;

  bench::print_header("Analog fast path: IR-drop solver and Monte Carlo noise sweep",
                      "perf extension — see docs/PERFORMANCE.md");
  std::vector<Entry> entries;

  // ---- IR-drop solve: reference SOR vs ADI, single- and multi-thread ------
  Rng rng(12);
  std::vector<std::uint8_t> levels(static_cast<std::size_t>(side * side));
  for (auto& l : levels) l = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  std::vector<std::uint8_t> inputs(static_cast<std::size_t>(side), 1);
  xbar::AnalogConfig acfg;
  acfg.r_wire_ohm = 1.0;
  const std::string dims = std::to_string(side) + "x" + std::to_string(side);

  double ref_ms = 0.0, fast_ms = 0.0, fast_mt_ms = 0.0, worst_disagree = 0.0;
  {
    xbar::AnalogResult ref, fast;
    perf::AnalogWorkspace ws;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      ref = xbar::solve_crossbar_read(levels, side, side, 3, inputs, acfg);
      const double t_ms = ms_since(t0);
      ref_ms = i == 0 ? t_ms : std::min(ref_ms, t_ms);
    }
    entries.push_back({"BM_IrDropReferenceSor_" + dims, ref_ms, reps});

    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      fast = perf::solve_crossbar_read_fast(levels, side, side, 3, inputs, acfg, ws, 1);
      const double t_ms = ms_since(t0);
      fast_ms = i == 0 ? t_ms : std::min(fast_ms, t_ms);
    }
    entries.push_back({"BM_IrDropAdiFast_" + dims, fast_ms, reps});

    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      (void)perf::solve_crossbar_read_fast(levels, side, side, 3, inputs, acfg, ws, threads);
      const double t_ms = ms_since(t0);
      fast_mt_ms = i == 0 ? t_ms : std::min(fast_mt_ms, t_ms);
    }
    entries.push_back(
        {"BM_IrDropAdiFast_" + dims + "_t" + std::to_string(threads), fast_mt_ms, reps});

    for (std::size_t c = 0; c < ref.column_current_a.size(); ++c) {
      const double denom = std::abs(ref.column_current_a[c]);
      if (denom == 0.0) continue;
      worst_disagree = std::max(
          worst_disagree, std::abs(ref.column_current_a[c] - fast.column_current_a[c]) / denom);
    }
  }

  // ---- Noise ablation sweep: per-seed rebuild vs Monte Carlo engine -------
  const nn::DeconvLayerSpec spec{"noise_probe", 6, 6, 16, 8, 4, 4, 2, 1, 0};
  Rng drng(2024);
  const auto input = workloads::make_input(spec, drng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, drng, -30, 30);
  const auto golden = nn::deconv_reference(spec, input, kernel);
  const std::vector<double> sigmas = quick ? std::vector<double>{0.4}
                                           : std::vector<double>{0.1, 0.2, 0.4, 0.8, 1.6};

  // Best-of-reps like the solve timings: the sweeps are milliseconds long,
  // so a single sample is at the mercy of scheduler noise. Both arms draw
  // the same seeds (trial t: seed 1 + t) with the one variation sampler, so
  // their per-trial NRMSEs must agree exactly.
  const std::size_t points = sigmas.size() * static_cast<std::size_t>(trials);
  std::vector<double> rebuild_nrmse(points), mc_nrmse(points);
  double before_ms = 0.0, after_ms = 0.0;
  {
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      std::size_t i = 0;
      for (double sigma : sigmas)
        for (int t = 0; t < trials; ++t) {
          arch::DesignConfig cfg;
          cfg.quant.variation.level_sigma = sigma;
          cfg.quant.variation.seed = 1 + static_cast<std::uint64_t>(t);
          rebuild_nrmse[i++] = normalized_rmse(
              golden,
              core::make_design(core::DesignKind::kRed, cfg)->run(spec, input, kernel));
        }
      const double t_ms = ms_since(t0);
      before_ms = r == 0 ? t_ms : std::min(before_ms, t_ms);
    }
    entries.push_back({"BM_NoiseSweepPerSeedRebuild", before_ms, reps});

    std::vector<xbar::VariationModel> var_grid;
    for (double sigma : sigmas) {
      xbar::VariationModel var;
      var.level_sigma = sigma;
      var_grid.push_back(var);
    }
    sim::MonteCarloOptions opts;
    opts.trials = trials;
    opts.threads = threads;
    opts.base_seed = 1;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      std::size_t i = 0;
      for (const auto& mc : sim::run_monte_carlo_grid(core::DesignKind::kRed, {}, var_grid,
                                                      spec, input, kernel, golden, opts))
        for (const auto& trial : mc.trials) mc_nrmse[i++] = trial.nrmse;
      const double t_ms = ms_since(t0);
      after_ms = r == 0 ? t_ms : std::min(after_ms, t_ms);
    }
    entries.push_back(
        {"BM_NoiseSweepMonteCarlo_t" + std::to_string(threads), after_ms, reps});
  }
  double noise_diff = 0.0;
  for (std::size_t i = 0; i < points; ++i)
    noise_diff = std::max(noise_diff, std::abs(rebuild_nrmse[i] - mc_nrmse[i]));

  const double ir_speedup = fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;
  const double noise_speedup = after_ms > 0.0 ? before_ms / after_ms : 0.0;

  std::cout << "IR-drop solve " << dims << ": reference " << format_double(ref_ms, 3)
            << " ms, ADI " << format_double(fast_ms, 3) << " ms ("
            << format_speedup(ir_speedup) << " single-thread), " << threads << " threads "
            << format_double(fast_mt_ms, 3) << " ms; worst column disagreement "
            << format_percent(worst_disagree, 4) << "\n";
  std::cout << "Noise sweep (" << sigmas.size() << " sigmas x " << trials
            << " trials): per-seed rebuild " << format_double(before_ms, 1)
            << " ms, Monte Carlo engine " << format_double(after_ms, 1) << " ms ("
            << format_speedup(noise_speedup) << " at " << threads
            << " threads); max per-trial NRMSE difference "
            << report::json_number(noise_diff) << "\n";

  std::ostringstream out;
  out << "{\n  \"context\": {\"side\": " << side << ", \"trials\": " << trials
      << ", \"threads\": " << threads << ", \"quick\": " << (quick ? "true" : "false")
      << "},\n  \"benchmarks\": ";
  bench::write_benchmark_array(out, entries);
  out << ",\n  \"speedups\": {\"irdrop_single_thread\": " << report::json_number(ir_speedup)
      << ", \"noise_sweep\": " << report::json_number(noise_speedup)
      << "},\n  \"equivalence\": {\"irdrop_worst_column_disagreement\": "
      << report::json_number(worst_disagree)
      << ", \"noise_sweep_max_nrmse_diff\": " << report::json_number(noise_diff) << "}\n}\n";
  if (!bench::write_report_file(out_path, out.str())) return 1;
  if (noise_diff != 0.0) {
    std::cerr << "bench_analog: Monte Carlo trials differ from per-seed rebuilds\n";
    return 1;
  }
  return 0;
}
