// design-search: an exhaustive opt::Optimizer search over full-size dcgan
// and fcn8s (fold, mux, ADC bits, weight bits, activation bits, subarray
// side, lookahead and lookaside: 48,600 candidates per net). Analytic
// only: plan, the arch cost model, explore and opt do the work and no MVM
// runs. One item is one priced design candidate.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "red/arch/design.h"
#include "red/core/designs.h"
#include "red/explore/sweep.h"
#include "red/fault/inject.h"
#include "red/opt/optimizer.h"
#include "red/plan/plan.h"
#include "red/workloads/networks.h"

namespace e2e {
namespace {

namespace opt = red::opt;

const char* const kNets[] = {"dcgan", "fcn8s"};

opt::SearchSpace make_space(const std::string& net) {
  red::arch::DesignConfig base;
  base.tiled = true;  // the subarray-side axis prices bounded physical tiles
  opt::SearchSpace space(red::workloads::named_stack(net, 1), red::core::DesignKind::kRed, base);
  space.add_axis({opt::AxisField::kRedFold, {1, 2, 4, 8, 16}});
  space.add_axis({opt::AxisField::kMuxRatio, {2, 4, 8, 16, 32}});
  space.add_axis({opt::AxisField::kAdcBits, {4, 6, 8}});
  space.add_axis({opt::AxisField::kWeightBits, {4, 8, 16}});
  space.add_axis({opt::AxisField::kActivationBits, {4, 8, 16}});
  space.add_axis({opt::AxisField::kSubarraySide, {64, 128, 256}});
  space.add_axis({opt::AxisField::kLookahead, {0, 1, 2, 4}});
  space.add_axis({opt::AxisField::kLookaside, {0, 1, 2, 3, 4, 6}});
  return space;
}

std::unique_ptr<opt::Optimizer> make_optimizer(const std::string& net, std::uint64_t seed) {
  opt::OptimizerOptions options;
  options.strategy = "exhaustive";
  options.seed = seed;
  options.threads = kMaxLanes;
  return std::make_unique<opt::Optimizer>(make_space(net),
                                          opt::Objective::parse("latency,area", ""),
                                          std::vector<opt::Constraint>{}, options);
}

/// Price a candidate directly: plan_layer + Design::cost per layer, folded
/// the way the optimizer folds stack costs.
opt::StackCost reprice(const opt::SearchSpace& space, const opt::Candidate& c,
                       std::vector<double>* compile_ms = nullptr,
                       std::vector<double>* cost_ms = nullptr) {
  std::vector<double> ignored;
  const auto point = space.materialize(c);
  const auto design = red::core::make_design(point.kind, point.cfg);
  opt::StackCost total;
  for (const auto& spec : space.stack()) {
    const auto plan = timed("plan.plan_layer", compile_ms ? *compile_ms : ignored,
                            [&] { return red::plan::plan_layer(point.kind, spec, point.cfg); });
    const auto cost = timed("arch.Design::cost", cost_ms ? *cost_ms : ignored,
                            [&] { return design->cost(plan); });
    total.add_layer(cost, plan.activity.sc_units);
  }
  return total;
}

bool same_cost(const opt::StackCost& a, const opt::StackCost& b) {
  return a.latency_ns == b.latency_ns && a.energy_pj == b.energy_pj &&
         a.area_um2 == b.area_um2 && a.cycles == b.cycles && a.max_sc_units == b.max_sc_units;
}

/// Correctness of one search: a complete walk whose every frontier point
/// re-prices identically through a direct Design::cost call, and whose
/// frontier matches the first search of the same net in this run.
void check_search(const opt::Optimizer& o, const opt::OptimizerResult& res,
                  const std::vector<opt::CandidateEval>* first, Report& r) {
  r.attempted += res.stats.evaluations;
  std::string why;
  if (!res.complete || res.frontier.empty()) why = "search incomplete or empty";
  for (const auto& e : res.frontier)
    if (why.empty() && !same_cost(reprice(o.space(), e.candidate), e.cost))
      why = "frontier point " + std::to_string(e.ordinal) + " re-prices differently";
  if (why.empty() && first != nullptr) {
    const bool same = first->size() == res.frontier.size() &&
                      std::equal(first->begin(), first->end(), res.frontier.begin(),
                                 [](const auto& x, const auto& y) {
                                   return x.ordinal == y.ordinal && x.objectives == y.objectives;
                                 });
    if (!same) why = "frontier differs from the run's first search";
  }
  if (!why.empty()) r.fail(res.stats.evaluations, why);
}

/// Frontier point with the lowest modelled latency.
const opt::CandidateEval& fastest(const std::vector<opt::CandidateEval>& frontier) {
  return *std::min_element(frontier.begin(), frontier.end(), [](const auto& x, const auto& y) {
    return x.cost.latency_ns < y.cost.latency_ns;
  });
}

/// Analytic repaired SNR of a design point's weakest programmed block under
/// the fault environment and repair policy of the fault-repair workload.
double analytic_snr_db(const opt::SearchSpace& space, const opt::Candidate& c) {
  const auto env = fault_environment();
  const auto point = space.materialize(c);
  double worst = 300.0;
  for (const auto& spec : space.stack()) {
    const auto plan = red::plan::plan_layer(point.kind, spec, point.cfg);
    worst = std::min(worst, red::fault::analytic_snr_db(env.model, env.repair, point.cfg.quant,
                                                        plan.layout.block_rows,
                                                        plan.layout.block_cols));
  }
  return worst;
}

Report run_timed(const Args& a) {
  Report r;
  // Set-up: build both searches (space, objective, constraint) and compile
  // each net's base plan.
  r.set("setup_s", median_setup_s([&] {
          for (const char* net : kNets) {
            const auto o = make_optimizer(net, a.seed);
            (void)red::plan::plan_stack(o->space().base_kind(), o->space().stack(),
                                        o->space().base());
          }
        }),
        "s");

  // Timed: the nets' full searches in turn, in whole pairs, until the time
  // is up. Throughput is candidates over search time; a latency sample is
  // one search, and the reported pair of searches takes each net's quantile
  // time, so the two nets' different speeds never mix in one distribution.
  const std::size_t nets = std::size(kNets);
  std::vector<std::vector<double>> search_ms(nets);
  std::vector<std::vector<opt::CandidateEval>> first(nets);
  std::int64_t pair_evaluations = 0;
  double cycles = 0.0, energy_uj = 0.0, snr = 300.0;
  CpuRotation cpus(kMaxLanes);
  const auto end = Clock::now() + std::chrono::duration<double>(a.seconds);
  std::size_t call = 0;
  do {
    const std::size_t n = call++ % nets;
    const auto o = make_optimizer(kNets[n], a.seed);
    cpus.next();
    const auto t0 = Clock::now();
    const auto res = o->run();
    search_ms[n].push_back(ms_since(t0));
    const bool is_first = first[n].empty();
    check_search(*o, res, is_first ? nullptr : &first[n], r);
    if (is_first && !res.frontier.empty()) {
      first[n] = res.frontier;
      pair_evaluations += res.stats.evaluations;
      const auto& best = fastest(res.frontier);
      cycles += static_cast<double>(best.cost.cycles);
      energy_uj += best.cost.energy_pj / 1e6;
      snr = std::min(snr, analytic_snr_db(o->space(), best.candidate));
    }
  } while (Clock::now() < end || call % nets != 0);

  const auto pair_ms = [&](double q) {
    double ms = 0.0;
    for (const auto& v : search_ms) ms += quantile(v, q);
    return ms;
  };
  const auto evals = static_cast<double>(pair_evaluations);
  double busy_ms = 0.0;
  for (const auto& v : search_ms)
    for (double ms : v) busy_ms += ms;
  const double pairs = static_cast<double>(call / nets);
  r.set("throughput_per_s", 1e3 * evals * pairs / busy_ms, "1/s");
  r.set("latency_ms_p50", pair_ms(0.5) / evals, "ms");
  r.set("latency_ms_p90", pair_ms(0.9) / evals, "ms");
  r.set("sim_cycles_per_image", cycles, "cycles");
  r.set("sim_energy_uj_per_image", energy_uj, "uJ");
  r.set("repaired_snr_db", snr, "dB");
  r.note("latency_samples", std::to_string(call) +
                                " searches, each giving the mean host time per priced "
                                "candidate (below 100: p90 is an estimate)");
  r.note("lanes", std::to_string(kMaxLanes));
  return r;
}

Report run_traced(const Args& a) {
  Report r;
  const auto start = Clock::now();
  red::telemetry::Tracer tracer(1 << 18);
  red::telemetry::MetricsRegistry registry;
  {
    ScopedTelemetry on(&registry, &tracer);
    std::vector<double> compile_ms, cost_ms, evaluate_ms;
    std::int64_t evaluations = 0, pruned = 0, points = 0, hits = 0, grid_points = 0;
    for (const char* net : kNets) {
      const auto o = make_optimizer(net, a.seed);
      const auto res = o->run();
      check_search(*o, res, nullptr, r);
      evaluations += res.stats.evaluations;
      pruned += res.stats.pruned;
      points += o->sweep_stats().points;
      hits += o->sweep_stats().cache_hits;

      // Every 97th candidate, one module call at a time: plan compile and
      // Design::cost per layer, then the same grid through SweepDriver.
      std::vector<red::explore::SweepPoint> grid;
      for (std::int64_t ord = 0; ord < o->space().size(); ord += 97) {
        const auto c = o->space().decode(ord);
        (void)reprice(o->space(), c, &compile_ms, &cost_ms);
        const auto point = o->space().materialize(c);
        for (const auto& spec : o->space().stack()) grid.push_back({point.kind, point.cfg, spec});
      }
      red::explore::SweepDriver driver(kMaxLanes);
      (void)timed("explore.SweepDriver::evaluate", evaluate_ms,
                  [&] { return driver.evaluate(grid); });
      grid_points += std::ssize(grid);
    }
    r.set("opt.evaluations", static_cast<double>(evaluations), "count");
    r.set("opt.pruned_fraction",
          static_cast<double>(pruned) / static_cast<double>(evaluations + pruned), "ratio");
    r.set("explore.cache_hit_rate", static_cast<double>(hits) / static_cast<double>(points),
          "ratio");
    r.set("plan.compile_ms", median(compile_ms), "ms");
    r.set("arch.cost_us_per_plan", 1e3 * median(cost_ms), "us");
    double evaluate_total = 0.0;
    for (double ms : evaluate_ms) evaluate_total += ms;
    r.set("explore.evaluate_us_per_point", 1e3 * evaluate_total / static_cast<double>(grid_points),
          "us");
  }

  // Telemetry overhead: alternate untraced and traced searches of one net.
  std::vector<double> untraced, traced;
  const auto end = start + std::chrono::duration<double>(a.seconds);
  red::telemetry::MetricsRegistry scratch;
  std::size_t n = 0;
  CpuRotation cpus(kMaxLanes);
  do {
    cpus.next();
    for (const bool on : {false, true}) {
      std::unique_ptr<ScopedTelemetry> scope;
      if (on) scope = std::make_unique<ScopedTelemetry>(&scratch, &tracer);
      const auto o = make_optimizer(kNets[n % std::size(kNets)], a.seed);
      const auto t0 = Clock::now();
      const auto res = o->run();
      const double ms = ms_since(t0);
      (on ? traced : untraced).push_back(1e3 * static_cast<double>(res.stats.evaluations) / ms);
      r.attempted += res.stats.evaluations;
      if (!res.complete) r.fail(res.stats.evaluations, "search incomplete");
    }
    ++n;
  } while (Clock::now() < end);
  set_overhead(r, untraced, traced);
  finish_trace(r, registry, tracer, a.trace_path);
  return r;
}

}  // namespace

Report run_design_search(const Args& a) { return a.trace ? run_traced(a) : run_timed(a); }

}  // namespace e2e
