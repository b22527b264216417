// fault-repair: the Table-I layer GAN_Deconv4 on RED through
// fault::run_fault_campaign, with stuck-at, wordline, bitline and drift
// faults, spare lines, row remapping and write-verify retries. One item is
// one fault trial (an unrepaired and a repaired arm); trials run on 2 lanes.
// This is the write side of arch and xbar: injection and repair dominate,
// the MVM read path barely shows.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "red/arch/design.h"
#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/fault/campaign.h"
#include "red/nn/deconv_reference.h"
#include "red/plan/plan.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"

namespace e2e {
namespace {

using red::Tensor;
using Image = Tensor<std::int32_t>;

constexpr int kTrialsPerCall = kMaxLanes;  ///< one trial per lane per campaign call
constexpr int kSnrCalls = 4;               ///< calls whose trials give repaired_snr_db

struct FaultInputs {
  red::nn::DeconvLayerSpec spec;
  red::arch::DesignConfig cfg;  ///< clean config, as the campaign programs it
  red::fault::FaultModel model;
  red::fault::RepairPolicy policy;
  Image input;
  Image kernel;
};

FaultInputs make_inputs(std::uint64_t seed) {
  FaultInputs in;
  for (const auto& l : red::workloads::table1_benchmarks())
    if (l.name == "GAN_Deconv4") in.spec = l;
  if (in.spec.name != "GAN_Deconv4") throw red::ConfigError("Table I has no GAN_Deconv4");
  red::Rng rng(seed);
  in.input = red::workloads::make_input(in.spec, rng, 1, 7);
  in.kernel = red::workloads::make_kernel(in.spec, rng, -7, 7);
  const auto env = fault_environment();
  in.model = env.model;
  in.policy = env.repair;
  return in;
}

/// Base fault seed of campaign call `call`: disjoint per call. The fault
/// masks are part of the workload, like the layer; --seed varies the input
/// and kernel tensors they are applied to.
std::uint64_t call_seed(std::int64_t call) {
  return 1 + static_cast<std::uint64_t>(call) * kTrialsPerCall;
}

std::vector<red::fault::FaultCampaignPoint> campaign(const FaultInputs& in,
                                                     const red::fault::FaultModel& model,
                                                     std::uint64_t base_seed, int trials) {
  red::fault::FaultCampaignOptions opts;
  opts.trials = trials;
  opts.base_seed = base_seed;
  opts.threads = kMaxLanes;
  return red::fault::run_fault_campaign(red::core::DesignKind::kRed, in.cfg, {model}, in.policy,
                                        in.spec, in.input, in.kernel, opts);
}

/// Items of one campaign point that failed: every trial when the repaired
/// arm is worse than the bare one (the campaign's robustness gate).
void check_point(const red::fault::FaultCampaignPoint& p, Report& r) {
  r.attempted += std::ssize(p.trials);
  if (!p.repaired_not_worse())
    r.fail(std::ssize(p.trials), "repaired arm worse than unrepaired (seed " +
                                     std::to_string(p.trials.front().seed) + ")");
}

/// Correctness gate, outside the timed region: the clean programmed layer
/// equals nn::deconv_reference, and a zero-rate campaign equals the clean
/// oracle on both arms.
void gate(const FaultInputs& in, const red::arch::ProgrammedLayer& clean, Report& r) {
  r.attempted += 1;
  if (!(clean.run(in.input) == red::nn::deconv_reference(in.spec, in.input, in.kernel)))
    r.fail(1, "clean programmed GAN_Deconv4 differs from deconv_reference");
  const auto zero = campaign(in, red::fault::FaultModel{}, 1, 1);
  r.attempted += 1;
  const auto& t = zero.front().trials.front();
  if (!t.unrepaired.score.exact() || !t.repaired.score.exact())
    r.fail(1, "zero-rate fault arm differs from the clean oracle");
}

Report run_timed(const Args& a) {
  Report r;
  const FaultInputs in = make_inputs(a.seed);

  // Set-up: the campaign's clean programming (plan compile + Design::program).
  const auto design = red::core::make_design(red::core::DesignKind::kRed, in.cfg);
  std::unique_ptr<red::arch::ProgrammedLayer> clean;
  red::plan::LayerPlan plan;
  r.set("setup_s", median_setup_s([&] {
          clean.reset();
          plan = red::plan::plan_layer(red::core::DesignKind::kRed, in.spec, in.cfg);
          clean = design->program(plan, in.kernel);
        }),
        "s");
  gate(in, *clean, r);
  clean.reset();

  // Timed: campaign calls of one trial per lane until the time is up.
  std::vector<double> latency, snr;
  double cycles = 0.0, energy_uj = 0.0;
  const auto end = Clock::now() + std::chrono::duration<double>(a.seconds);
  std::int64_t call = 0;
  CpuRotation cpus(kMaxLanes);
  do {
    cpus.next();
    const auto t0 = Clock::now();
    const auto points = campaign(in, in.model, call_seed(call), kTrialsPerCall);
    latency.push_back(ms_since(t0));
    check_point(points.front(), r);
    if (call < kSnrCalls)
      for (const auto& t : points.front().trials) snr.push_back(t.repaired.score.snr_db);
    if (call == 0) {
      const auto& stats = points.front().trials.front().repaired.stats;
      cycles = static_cast<double>(stats.cycles);
      energy_uj =
          red::arch::measured_cost(plan.activity, stats, in.cfg).total_energy().value() / 1e6;
    }
    ++call;
  } while (Clock::now() < end || call < kSnrCalls);

  double snr_sum = 0.0;
  for (double s : snr) snr_sum += s;
  double busy_ms = 0.0;
  for (double ms : latency) busy_ms += ms;
  r.set("throughput_per_s", 1e3 * kTrialsPerCall * static_cast<double>(call) / busy_ms, "1/s");
  r.set("latency_ms_p50", quantile(latency, 0.5), "ms");
  r.set("latency_ms_p90", quantile(latency, 0.9), "ms");
  r.set("sim_cycles_per_image", cycles, "cycles");
  r.set("sim_energy_uj_per_image", energy_uj, "uJ");
  r.set("repaired_snr_db", snr_sum / static_cast<double>(snr.size()), "dB");
  r.note("latency_samples", std::to_string(latency.size()) + " campaign calls of " +
                                std::to_string(kTrialsPerCall) + " trials (below 100: p90 is "
                                "an estimate)");
  r.note("lanes", std::to_string(kMaxLanes));
  return r;
}

Report run_traced(const Args& a) {
  Report r;
  const auto start = Clock::now();
  const FaultInputs in = make_inputs(a.seed);
  r.set("perf.input_zero_fraction.stage0",
        static_cast<double>(red::count_zeros(in.input)) / static_cast<double>(in.input.size()),
        "ratio");

  red::telemetry::Tracer tracer(1 << 16);
  red::telemetry::MetricsRegistry registry;
  {
    ScopedTelemetry on(&registry, &tracer);
    const auto design = red::core::make_design(red::core::DesignKind::kRed, in.cfg);
    std::vector<double> compile_ms, program_ms, run_ms, faulted_ms, fault_run_ms, score_ms;
    red::plan::LayerPlan plan;
    std::unique_ptr<red::arch::ProgrammedLayer> clean;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      clean.reset();
      plan = timed("plan.plan_layer", compile_ms, [&] {
        return red::plan::plan_layer(red::core::DesignKind::kRed, in.spec, in.cfg);
      });
      clean = timed("arch.Design::program", program_ms,
                    [&] { return design->program(plan, in.kernel); });
    }
    r.set("plan.compile_ms", median(compile_ms), "ms");
    r.set("arch.program_ms.red.stage0", median(program_ms), "ms");
    r.set("arch.programmed_stage_fraction", 1.0, "ratio");

    red::arch::RunStats stats;
    Image oracle;
    for (int rep = 0; rep < kSetupReps; ++rep)
      oracle = timed("arch.ProgrammedLayer::run", run_ms,
                     [&] { return clean->run(in.input, &stats); });
    r.set("arch.run_ms.red.stage0", median(run_ms), "ms");
    r.set("perf.mac_pulses_per_image", static_cast<double>(stats.mvm.mac_pulses), "count");
    r.set("perf.conversions_per_image", static_cast<double>(stats.mvm.conversions), "count");

    // The campaign's trial body, one module call at a time: inject + repair,
    // run the faulted layer, score against the oracle.
    red::fault::RepairReport first_repair;
    for (int t = 0; t < kTrialsPerCall; ++t) {
      red::fault::FaultModel model = in.model;
      model.seed = call_seed(0) + static_cast<std::uint64_t>(t);
      for (const bool repaired : {false, true}) {
        red::fault::RepairReport rep;
        const auto layer = timed("fault.ProgrammedLayer::faulted", faulted_ms, [&] {
          return clean->faulted(model, repaired ? in.policy : red::fault::RepairPolicy{}, 0, &rep);
        });
        const Image out =
            timed("fault.ProgrammedLayer::run", fault_run_ms, [&] { return layer->run(in.input); });
        const auto score = timed("fault.score_output", score_ms,
                                 [&] { return red::fault::score_output(oracle, out); });
        if (!std::isfinite(score.snr_db)) r.fail(1, "non-finite fault score");
        if (repaired && t == 0) first_repair = rep;
      }
      ++r.attempted;
    }
    r.set("fault.faulted_ms", median(faulted_ms), "ms");
    r.set("fault.run_ms", median(fault_run_ms), "ms");
    r.set("fault.score_ms", median(score_ms), "ms");
    r.set("fault.spare_rows_used", static_cast<double>(first_repair.spare_rows_used), "count");
    r.set("fault.spare_cols_used", static_cast<double>(first_repair.spare_cols_used), "count");
    r.set("fault.rows_remapped", static_cast<double>(first_repair.rows_remapped), "count");
    r.set("fault.retried_cells", static_cast<double>(first_repair.retried_cells), "count");
  }

  // Telemetry overhead: alternate untraced and traced campaign calls.
  std::vector<double> untraced, traced;
  const auto end = start + std::chrono::duration<double>(a.seconds);
  red::telemetry::MetricsRegistry scratch;
  std::int64_t call = 0;
  CpuRotation cpus(kMaxLanes);
  do {
    cpus.next();
    const std::uint64_t seed = call_seed(call++);  // same trials on both sides
    for (const bool on : {false, true}) {
      std::unique_ptr<ScopedTelemetry> scope;
      if (on) scope = std::make_unique<ScopedTelemetry>(&scratch, &tracer);
      const auto t0 = Clock::now();
      const auto points = campaign(in, in.model, seed, kTrialsPerCall);
      (on ? traced : untraced).push_back(1e3 * kTrialsPerCall / ms_since(t0));
      check_point(points.front(), r);
    }
  } while (Clock::now() < end);
  set_overhead(r, untraced, traced);
  finish_trace(r, registry, tracer, a.trace_path);
  return r;
}

}  // namespace

red::fault::FaultConfig fault_environment() {
  // Rare stuck cells, frequent line faults and strong drift: the bare arm
  // degrades far below the repaired one, so repair work is on the hot path.
  red::fault::FaultConfig env;
  env.model.sa0_rate = 2.5e-5;
  env.model.sa1_rate = 2.5e-5;
  env.model.wordline_rate = 0.001;
  env.model.bitline_rate = 0.001;
  env.model.drift_sigma = 0.2;
  env.repair.spare_rows = 4;
  env.repair.spare_cols = 4;
  env.repair.remap_rows = true;
  env.repair.verify_retries = 2;
  return env;
}

Report run_fault_repair(const Args& a) { return a.trace ? run_traced(a) : run_timed(a); }

}  // namespace e2e
