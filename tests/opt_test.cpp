// Tests of the red::opt design-space optimizer subsystem: Pareto-frontier
// properties (no dominated survivor, shuffle invariance), search-space
// encode/decode and fingerprints, exhaustive-vs-strategy frontier agreement,
// thread-count determinism for the stochastic strategies, constraint
// pruning, checkpoint round-trips (interrupted + resumed == uninterrupted),
// corrupted-checkpoint rejection (matching plan_test.cpp's convention),
// parent-commit pins of fingerprints, frontiers and checkpoints, and the
// SweepDriver memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/explore/sweep.h"
#include "red/opt/optimizer.h"
#include "red/opt/pareto.h"
#include "red/plan/plan.h"
#include "red/store/io.h"
#include "red/store/result_store.h"
#include "red/telemetry/metrics.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/networks.h"

namespace red {
namespace {

using core::DesignKind;

// ---- Pareto frontier --------------------------------------------------------

TEST(Pareto, DominatesRequiresStrictImprovementSomewhere) {
  const std::vector<double> a{1.0, 2.0}, b{1.0, 3.0}, c{2.0, 1.0};
  EXPECT_TRUE(opt::dominates(a, b));
  EXPECT_FALSE(opt::dominates(b, a));
  EXPECT_FALSE(opt::dominates(a, a));  // equal: neither dominates
  EXPECT_FALSE(opt::dominates(a, c));  // trade-off: neither dominates
  EXPECT_FALSE(opt::dominates(c, a));
}

std::vector<std::vector<double>> random_points(std::uint64_t seed, int n, int dims,
                                               int distinct_values) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < n; ++i) {
    std::vector<double> row;
    // A small value alphabet forces ties, duplicates, and dense dominance.
    for (int d = 0; d < dims; ++d)
      row.push_back(static_cast<double>(rng.uniform_int(1, distinct_values)));
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(Pareto, NoDominatedPointSurvivesTheFrontier) {
  for (int dims : {2, 3, 4}) {
    const auto rows = random_points(17 + static_cast<std::uint64_t>(dims), 120, dims, 6);
    opt::ParetoFrontier frontier(static_cast<std::size_t>(dims));
    for (std::size_t i = 0; i < rows.size(); ++i)
      frontier.insert(rows[i], static_cast<std::int64_t>(i));
    const auto points = frontier.points();
    ASSERT_FALSE(points.empty());
    for (const auto& p : points)
      for (const auto& row : rows)
        EXPECT_FALSE(opt::dominates(row, p.objectives))
            << "a dominated point survived (dims " << dims << ")";
    // And every non-dominated input is present.
    const auto mask = opt::non_dominated_mask(rows);
    std::set<std::vector<double>> kept;
    for (const auto& p : points) kept.insert(p.objectives);
    for (std::size_t i = 0; i < rows.size(); ++i)
      EXPECT_EQ(mask[i], kept.contains(rows[i])) << i;
  }
}

TEST(Pareto, FrontierInvariantUnderGridShuffling) {
  const auto rows = random_points(29, 80, 3, 5);
  opt::ParetoFrontier reference(3);
  for (std::size_t i = 0; i < rows.size(); ++i)
    reference.insert(rows[i], static_cast<std::int64_t>(i));

  std::mt19937_64 shuffler(99);
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(order.begin(), order.end(), shuffler);
    opt::ParetoFrontier shuffled(3);
    for (std::size_t i : order) shuffled.insert(rows[i], static_cast<std::int64_t>(i));
    EXPECT_EQ(reference.points(), shuffled.points()) << "trial " << trial;
  }
}

TEST(Pareto, EqualCostDesignsAllSurvive) {
  opt::ParetoFrontier frontier(2);
  EXPECT_TRUE(frontier.insert({1.0, 2.0}, 0));
  EXPECT_TRUE(frontier.insert({1.0, 2.0}, 1));  // same cost, distinct design
  EXPECT_TRUE(frontier.insert({2.0, 1.0}, 2));
  EXPECT_FALSE(frontier.insert({2.0, 2.0}, 3));  // dominated
  EXPECT_EQ(frontier.size(), 3u);
}

TEST(Pareto, NonDominatedMaskMatchesLegacyDominanceLoop) {
  // The exact loop examples/design_space.cpp and red_cli sweep carried.
  const auto rows = random_points(41, 60, 2, 8);
  const auto mask = opt::non_dominated_mask(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bool dominated =
        std::any_of(rows.begin(), rows.end(), [&](const std::vector<double>& q) {
          return (q[0] < rows[i][0] && q[1] <= rows[i][1]) ||
                 (q[0] <= rows[i][0] && q[1] < rows[i][1]);
        });
    EXPECT_EQ(mask[i], !dominated) << i;
  }
}

// ---- SearchSpace ------------------------------------------------------------

opt::SearchSpace small_space(DesignKind kind = DesignKind::kRed) {
  // A reduced Table-I layer keeps plan compilation cheap; the grid is
  // 2 folds x 3 muxes = 6 points.
  opt::SearchSpace space({workloads::table1_reduced(8)[2]}, kind, arch::DesignConfig{});
  space.add_axis({opt::AxisField::kRedFold, {1, 2}});
  space.add_axis({opt::AxisField::kMuxRatio, {4, 8, 16}});
  return space;
}

TEST(SearchSpace, OrdinalEncodeDecodeIsABijection) {
  const auto space = small_space();
  ASSERT_EQ(space.size(), 6);
  std::set<std::vector<int>> seen;
  for (std::int64_t o = 0; o < space.size(); ++o) {
    const auto c = space.decode(o);
    EXPECT_EQ(space.encode(c), o);
    seen.insert(c.index);
  }
  EXPECT_EQ(std::ssize(seen), space.size());
}

TEST(SearchSpace, MaterializeAppliesAxisValues) {
  auto space = small_space();
  const auto p = space.materialize(space.decode(4));  // fold index 1, mux index 1
  EXPECT_EQ(p.kind, DesignKind::kRed);
  EXPECT_EQ(p.cfg.red_fold, 2);
  EXPECT_EQ(p.cfg.mux_ratio, 8);
}

TEST(SearchSpace, KindAxisMaterializesEveryDesign) {
  opt::SearchSpace space({workloads::table1_reduced(8)[2]}, DesignKind::kRed, {});
  space.add_axis({opt::AxisField::kKind, {0, 1, 2}});
  EXPECT_EQ(space.materialize(space.decode(0)).kind, DesignKind::kZeroPadding);
  EXPECT_EQ(space.materialize(space.decode(1)).kind, DesignKind::kPaddingFree);
  EXPECT_EQ(space.materialize(space.decode(2)).kind, DesignKind::kRed);
}

TEST(SearchSpace, RejectsMalformedAxes) {
  auto space = small_space();
  EXPECT_THROW(space.add_axis({opt::AxisField::kRedFold, {4}}), ConfigError);  // duplicate
  EXPECT_THROW(space.add_axis({opt::AxisField::kAdcBits, {}}), ConfigError);   // empty
  EXPECT_THROW(space.add_axis({opt::AxisField::kKind, {3}}), ConfigError);     // bad kind
  EXPECT_THROW((void)opt::axis_field_from_name("bogus"), ConfigError);
  EXPECT_EQ(opt::axis_field_from_name("mux"), opt::AxisField::kMuxRatio);
}

TEST(SearchSpace, FingerprintDiscriminatesSpaces) {
  const auto base = small_space();
  auto other_values = small_space();
  // Same shape, one different axis value: must not collide.
  opt::SearchSpace rebuilt({workloads::table1_reduced(8)[2]}, DesignKind::kRed, {});
  rebuilt.add_axis({opt::AxisField::kRedFold, {1, 4}});
  rebuilt.add_axis({opt::AxisField::kMuxRatio, {4, 8, 16}});
  EXPECT_NE(base.fingerprint(), rebuilt.fingerprint());
  EXPECT_NE(base.fingerprint(), small_space(DesignKind::kZeroPadding).fingerprint());
  EXPECT_EQ(base.fingerprint(), small_space().fingerprint());
}

// ---- Objective --------------------------------------------------------------

TEST(Objective, ParseRoundTripsAndValidates) {
  const auto obj = opt::Objective::parse("latency,area", "2,1");
  EXPECT_EQ(obj.dims(), 2u);
  EXPECT_EQ(obj.to_string(), "latency,area");
  EXPECT_THROW(opt::Objective::parse("latency,bogus"), ConfigError);
  EXPECT_THROW(opt::Objective::parse("latency", "1,2"), ConfigError);  // weight count
  EXPECT_THROW(opt::Objective::parse("latency,area", "0,1"), ConfigError);
  opt::StackCost cost;
  cost.latency_ns = 100.0;
  cost.energy_pj = 50.0;
  cost.area_um2 = 10.0;
  EXPECT_EQ(obj.vector_of(cost), (std::vector<double>{100.0, 10.0}));
  const auto edp = opt::Objective::parse("edp");
  EXPECT_EQ(edp.vector_of(cost), (std::vector<double>{100.0 * 50.0}));
}

TEST(Objective, ScalarPrefersDominatingPoints) {
  const auto obj = opt::Objective::parse("latency,area");
  EXPECT_LT(obj.scalar(std::vector<double>{90.0, 10.0}),
            obj.scalar(std::vector<double>{100.0, 10.0}));
  EXPECT_LT(obj.scalar(std::vector<double>{100.0, 9.0}),
            obj.scalar(std::vector<double>{100.0, 10.0}));
}

// ---- strategies vs exhaustive ----------------------------------------------

std::set<std::int64_t> frontier_ordinals(const opt::OptimizerResult& r) {
  std::set<std::int64_t> out;
  for (const auto& e : r.frontier) out.insert(e.ordinal);
  return out;
}

opt::OptimizerResult run_strategy(const std::string& strategy, std::int64_t budget,
                                  std::uint64_t seed, int threads,
                                  std::vector<opt::Constraint> constraints = {}) {
  opt::OptimizerOptions options;
  options.strategy = strategy;
  options.budget = budget;
  options.seed = seed;
  options.threads = threads;
  options.search.population = 4;
  opt::Optimizer optimizer(small_space(), opt::Objective::parse("latency,area"),
                           std::move(constraints), options);
  return optimizer.run();
}

TEST(Strategies, EveryStrategyRecoversTheExhaustiveFrontier) {
  const auto exhaustive = run_strategy("exhaustive", 0, 1, 2);
  EXPECT_TRUE(exhaustive.complete);
  EXPECT_EQ(exhaustive.stats.evaluations, 6);
  ASSERT_FALSE(exhaustive.frontier.empty());
  for (const std::string strategy : {"anneal", "evolve"}) {
    const auto r = run_strategy(strategy, 0, 123, 2);
    EXPECT_TRUE(r.complete) << strategy;
    // Full budget + stall escape => the whole grid is explored, so frontier
    // agreement is exact, not probabilistic.
    EXPECT_EQ(r.stats.evaluations, 6) << strategy;
    EXPECT_EQ(frontier_ordinals(r), frontier_ordinals(exhaustive)) << strategy;
    for (std::size_t i = 0; i < r.frontier.size(); ++i)
      EXPECT_EQ(r.frontier[i].objectives, exhaustive.frontier[i].objectives) << strategy;
  }
}

TEST(Strategies, StochasticTrajectoriesAreThreadCountInvariant) {
  for (const std::string strategy : {"anneal", "evolve"}) {
    const auto serial = run_strategy(strategy, 4, 777, 1);
    const auto threaded = run_strategy(strategy, 4, 777, 4);
    ASSERT_EQ(serial.state.evaluated.size(), threaded.state.evaluated.size()) << strategy;
    for (std::size_t i = 0; i < serial.state.evaluated.size(); ++i) {
      EXPECT_EQ(serial.state.evaluated[i].ordinal, threaded.state.evaluated[i].ordinal)
          << strategy << " eval " << i;
      EXPECT_EQ(serial.state.evaluated[i].objectives, threaded.state.evaluated[i].objectives)
          << strategy << " eval " << i;
      EXPECT_EQ(serial.state.evaluated[i].scalar, threaded.state.evaluated[i].scalar)
          << strategy << " eval " << i;
    }
    EXPECT_EQ(frontier_ordinals(serial), frontier_ordinals(threaded)) << strategy;
  }
}

TEST(Strategies, SeedSelectsTheTrajectory) {
  // Different seeds explore the 6-point grid in different orders (the
  // frontier is still identical once complete).
  const auto a = run_strategy("evolve", 0, 1, 1);
  const auto b = run_strategy("evolve", 0, 2, 1);
  std::vector<std::int64_t> order_a, order_b;
  for (const auto& e : a.state.evaluated) order_a.push_back(e.ordinal);
  for (const auto& e : b.state.evaluated) order_b.push_back(e.ordinal);
  EXPECT_NE(order_a, order_b);
  EXPECT_EQ(frontier_ordinals(a), frontier_ordinals(b));
}

TEST(Strategies, UnknownStrategyIsRejected) {
  EXPECT_THROW((void)run_strategy("gradient-descent", 0, 1, 1), ConfigError);
}

// ---- constraints ------------------------------------------------------------

TEST(Constraints, PrunedCandidatesAreNeverPriced) {
  // fold 1 keeps 16 sub-crossbars on this 4x4-kernel layer, fold 2 keeps 8:
  // a 15-SC budget prunes every fold-1 point before evaluation.
  const auto constrained = run_strategy("exhaustive", 0, 1, 2, {opt::max_sc_units(15)});
  EXPECT_TRUE(constrained.complete);
  EXPECT_EQ(constrained.stats.pruned, 3);
  EXPECT_EQ(constrained.stats.evaluations, 3);
  for (const auto& e : constrained.state.evaluated) EXPECT_LE(e.cost.max_sc_units, 15);
  // The frontier is the feasible sub-grid's frontier.
  const auto unconstrained = run_strategy("exhaustive", 0, 1, 2);
  opt::ParetoFrontier feasible(2);
  std::int64_t id = 0;
  for (const auto& e : unconstrained.state.evaluated)
    if (e.cost.max_sc_units <= 15) feasible.insert(e.objectives, id++);
  EXPECT_EQ(constrained.frontier.size(), feasible.size());
}

TEST(Constraints, ChipFitPrunesOversizedDesigns) {
  arch::ChipConfig roomy;
  const auto all = run_strategy("exhaustive", 0, 1, 1, {opt::fits_chip(roomy)});
  EXPECT_EQ(all.stats.pruned, 0);
  arch::ChipConfig tiny;
  tiny.banks = 1;
  tiny.subarrays_per_bank = 1;
  const auto none = run_strategy("exhaustive", 0, 1, 1, {opt::fits_chip(tiny)});
  EXPECT_EQ(none.stats.evaluations + none.stats.pruned, 6);
  EXPECT_GT(none.stats.pruned, 0);
}

// ---- checkpoint / resume ----------------------------------------------------

opt::Optimizer make_optimizer(const std::string& strategy, std::int64_t budget,
                              std::uint64_t seed) {
  opt::OptimizerOptions options;
  options.strategy = strategy;
  options.budget = budget;
  options.seed = seed;
  options.threads = 2;
  options.search.population = 4;
  options.search.batch = 2;  // small batches so a budget can stop mid-grid
  return opt::Optimizer(small_space(), opt::Objective::parse("latency,area"), {}, options);
}

TEST(Checkpoint, InterruptedPlusResumedEqualsUninterrupted) {
  for (const std::string strategy : {"exhaustive", "anneal", "evolve"}) {
    const std::uint64_t seed = 31;
    auto uninterrupted = make_optimizer(strategy, 0, seed).run();

    // "Kill" the run at its budget-2 batch boundary; the final forced
    // checkpoint is exactly what a crash would leave behind.
    auto first_half = make_optimizer(strategy, 2, seed);
    const auto partial = first_half.run();
    EXPECT_GE(std::ssize(partial.state.evaluated), 2) << strategy;
    EXPECT_LT(partial.state.evaluated.size(), uninterrupted.state.evaluated.size()) << strategy;
    const std::string checkpoint = first_half.checkpoint_json(partial.state);

    auto second_half = make_optimizer(strategy, 0, seed);
    const auto resumed = second_half.resume(checkpoint);
    ASSERT_EQ(resumed.state.evaluated.size(), uninterrupted.state.evaluated.size()) << strategy;
    for (std::size_t i = 0; i < resumed.state.evaluated.size(); ++i) {
      EXPECT_EQ(resumed.state.evaluated[i].ordinal, uninterrupted.state.evaluated[i].ordinal)
          << strategy << " eval " << i;
      EXPECT_EQ(resumed.state.evaluated[i].objectives,
                uninterrupted.state.evaluated[i].objectives)
          << strategy << " eval " << i;
    }
    EXPECT_EQ(frontier_ordinals(resumed), frontier_ordinals(uninterrupted)) << strategy;
    EXPECT_TRUE(resumed.complete) << strategy;
  }
}

TEST(Checkpoint, ResumeOfAFinishedSearchAddsNothing) {
  auto full = make_optimizer("evolve", 0, 5);
  const auto result = full.run();
  const std::string checkpoint = full.checkpoint_json(result.state);
  auto again = make_optimizer("evolve", 0, 5);
  const auto resumed = again.resume(checkpoint);
  EXPECT_EQ(resumed.stats.evaluations, 0);
  EXPECT_EQ(frontier_ordinals(resumed), frontier_ordinals(result));
}

TEST(Checkpoint, CorruptedFingerprintIsRejected) {
  auto optimizer = make_optimizer("anneal", 2, 9);
  const auto result = optimizer.run();
  std::string json = optimizer.checkpoint_json(result.state);
  const std::string needle = "\"fingerprint\": \"";
  const auto pos = json.find(needle) + needle.size();
  json[pos] = json[pos] == '0' ? '1' : '0';  // flip one fingerprint digit
  auto resumer = make_optimizer("anneal", 0, 9);
  EXPECT_THROW((void)resumer.resume(json), MismatchError);
}

TEST(Checkpoint, MissingFingerprintIsRejected) {
  // Deleting the fingerprint must not defeat the tamper evidence that
  // corrupting it triggers: absence is an error too.
  auto optimizer = make_optimizer("anneal", 2, 9);
  const auto result = optimizer.run();
  std::string json = optimizer.checkpoint_json(result.state);
  const std::string field = "\"fingerprint\": \"" + optimizer.fingerprint() + "\",\n";
  const auto pos = json.find(field);
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, field.size());
  auto resumer = make_optimizer("anneal", 0, 9);
  EXPECT_THROW((void)resumer.resume(json), ConfigError);
}

TEST(Checkpoint, DifferentSearchIdentityIsRejected) {
  auto optimizer = make_optimizer("anneal", 2, 9);
  const std::string json = optimizer.checkpoint_json(optimizer.run().state);
  auto other_seed = make_optimizer("anneal", 0, 10);
  EXPECT_THROW((void)other_seed.resume(json), MismatchError);
  auto other_strategy = make_optimizer("evolve", 0, 9);
  EXPECT_THROW((void)other_strategy.resume(json), MismatchError);
}

TEST(Checkpoint, TamperedEvaluationIsRejectedByRecomputation) {
  auto optimizer = make_optimizer("exhaustive", 3, 9);
  const auto result = optimizer.run();
  ASSERT_GE(result.state.evaluated.size(), 2u);
  std::string json = optimizer.checkpoint_json(result.state);
  // Rewrite the first logged ordinal to a different grid point: the stored
  // objectives no longer match its recomputation.
  const std::string from = "\"ordinal\": " + std::to_string(result.state.evaluated[0].ordinal);
  const std::int64_t other = result.state.evaluated[0].ordinal == 5 ? 4 : 5;
  const auto pos = json.find(from);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, from.size(), "\"ordinal\": " + std::to_string(other));
  auto resumer = make_optimizer("exhaustive", 0, 9);
  EXPECT_THROW((void)resumer.resume(json), MismatchError);
}

TEST(Checkpoint, NotACheckpointDocumentIsRejected) {
  auto resumer = make_optimizer("anneal", 0, 1);
  EXPECT_THROW((void)resumer.resume("{\"type\": \"red_stack_plan\"}"), ConfigError);
  EXPECT_THROW((void)resumer.resume("not json at all"), ConfigError);
}

// ---- Parent-commit pins -----------------------------------------------------
// Computed by the optimizer as it stood before pricing became one pass per
// candidate (SweepDriver-backed, three structural keys per layer). A change
// to any of them would orphan existing checkpoints and stores.

std::string golden_path(const std::string& name) { return std::string(RED_GOLDEN_DIR) + "/" + name; }

opt::SearchSpace pin_space(const std::string& net) {
  arch::DesignConfig base;
  base.tiled = true;
  opt::SearchSpace space(workloads::named_stack(net, 1), DesignKind::kRed, base);
  space.add_axis({opt::AxisField::kRedFold, {1, 4, 16}});
  space.add_axis({opt::AxisField::kMuxRatio, {4, 8}});
  space.add_axis({opt::AxisField::kAdcBits, {4, 8}});
  space.add_axis({opt::AxisField::kSubarraySide, {64, 256}});
  space.add_axis({opt::AxisField::kLookahead, {0, 2}});
  return space;
}

opt::Optimizer pin_optimizer(const std::string& net, const std::string& strategy,
                             bool constrained, int threads, std::int64_t budget) {
  opt::OptimizerOptions options;
  options.strategy = strategy;
  options.seed = 11;
  options.threads = threads;
  options.budget = budget;
  std::vector<opt::Constraint> constraints;
  if (constrained) constraints.push_back(opt::max_sc_units(net == "dcgan" ? 16 : 64));
  return opt::Optimizer(pin_space(net), opt::Objective::parse("latency,area"),
                        std::move(constraints), options);
}

template <typename T>
void append_pin_bytes(std::string& key, const T& v) {
  key.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Digest of a frontier's (ordinal, objectives) rows, in canonical order.
std::string frontier_digest(const std::vector<opt::CandidateEval>& frontier) {
  std::string key;
  for (const auto& e : frontier) {
    append_pin_bytes(key, e.ordinal);
    for (double v : e.objectives) append_pin_bytes(key, v);
  }
  return plan::digest(key);
}

/// Digest of every logged candidate fingerprint, in evaluation order.
std::string candidates_digest(const opt::OptimizerState& state) {
  std::string key;
  for (const auto& e : state.evaluated) key += e.fingerprint;
  return plan::digest(key);
}

struct Pin {
  const char* strategy;
  const char* net;
  bool constrained;
  const char* fingerprint;  ///< Optimizer::fingerprint()
  const char* candidates;   ///< candidates_digest
  const char* frontier;     ///< frontier_digest
  const char* checkpoint;   ///< digest of the final checkpoint_json
  std::int64_t evaluations;
  std::int64_t pruned;
};

constexpr Pin kPins[] = {
    {"exhaustive", "dcgan", false, "dae3e5cf64c8dd16", "926f603ab9edb17e", "22e5f168c45216a3",
     "d5ec52200f924d99", 48, 0},
    {"exhaustive", "dcgan", true, "4efd2cdd20d7f775", "7e08ef045addbc1a", "4a0852564c595be3",
     "edc6e28e5c7ab0f3", 32, 16},
    {"exhaustive", "fcn8s", false, "73dc25ff5fc5960a", "a128d037cee3c37f", "ec4ae8814e46585b",
     "d7260a7ffd44f63d", 48, 0},
    {"exhaustive", "fcn8s", true, "69bb63c6fd3f2582", "be34f4c3f6d24010", "7358086fd8d1478b",
     "a3ef13d76347bb9c", 32, 16},
    {"evolve", "dcgan", false, "a51d5495d58a236f", "a622b718eea74e8c", "7b303cc44439a473",
     "9e06177342330b7c", 41, 0},
    {"evolve", "dcgan", true, "93c42306b4f12ab0", "8469cfbac105f5ca", "c109fd84c896c897",
     "1ab90d9404093ad4", 32, 16},
    {"evolve", "fcn8s", false, "b677de4b6bbba873", "d42de66d2eee8d98", "d169c4d58863948f",
     "06d5fd86ea57af3f", 40, 0},
    {"evolve", "fcn8s", true, "f92366647f834397", "1ca9f4931349f23c", "e7b8ea9ff391a96b",
     "3b7eff88a7c218d7", 32, 16},
};

TEST(ParentPins, FingerprintsFrontiersAndCheckpointsAreUnchanged) {
  for (const Pin& pin : kPins)
    for (int threads : {1, 2, 4}) {
      const std::string strategy = pin.strategy;
      auto optimizer = pin_optimizer(pin.net, strategy, pin.constrained, threads,
                                     strategy == "evolve" ? 40 : 0);
      const auto result = optimizer.run();
      SCOPED_TRACE(strategy + " " + pin.net + (pin.constrained ? " constrained" : "") + " t" +
                   std::to_string(threads));
      EXPECT_EQ(optimizer.fingerprint(), pin.fingerprint);
      EXPECT_EQ(candidates_digest(result.state), pin.candidates);
      EXPECT_EQ(frontier_digest(result.frontier), pin.frontier);
      EXPECT_EQ(plan::digest(optimizer.checkpoint_json(result.state)), pin.checkpoint);
      EXPECT_EQ(result.stats.evaluations, pin.evaluations);
      EXPECT_EQ(result.stats.pruned, pin.pruned);
    }
}

TEST(ParentPins, ParentCheckpointResumesBitIdentically) {
  // A budget-16 exhaustive fcn8s run with the constraint, written by the
  // parent commit: 16 priced and 16 pruned rows.
  const std::string text = store::read_file(golden_path("opt_checkpoint_fcn8s.json"));
  for (int threads : {1, 4}) {
    auto optimizer = pin_optimizer("fcn8s", "exhaustive", true, threads, 0);
    const auto state = optimizer.load_state(text);
    EXPECT_EQ(state.evaluated.size(), 16u);
    EXPECT_EQ(state.pruned.size(), 16u);
    const auto result = optimizer.resume(text);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.stats.evaluations, 16);
    EXPECT_EQ(frontier_digest(result.frontier), "7358086fd8d1478b");
    EXPECT_EQ(plan::digest(optimizer.checkpoint_json(result.state)), "a3ef13d76347bb9c");
  }
}

TEST(ParentPins, SweepDriverStoreWarmStartsTheOptimizer) {
  // Written by explore::SweepDriver (the `red_cli sweep` path) at the parent
  // commit over every layer of every candidate below. Copied first: opening
  // a store opens it for appends.
  const auto dir = std::filesystem::temp_directory_path() / "red_opt_test_parent_store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string copy = (dir / "sweep.store").string();
  store::write_file_atomic(copy, store::read_file(golden_path("opt_sweep.store")));

  const auto make = [] {
    opt::SearchSpace space(workloads::named_stack("dcgan", 1), DesignKind::kRed,
                           arch::DesignConfig{});
    space.add_axis({opt::AxisField::kRedFold, {1, 4}});
    space.add_axis({opt::AxisField::kMuxRatio, {4, 8}});
    opt::OptimizerOptions options;
    options.threads = 4;
    return opt::Optimizer(std::move(space), opt::Objective::parse("latency,area"), {}, options);
  };
  auto cold = make();
  const auto cold_result = cold.run();

  auto warm = make();
  auto result_store = std::make_shared<store::ResultStore>(copy);
  ASSERT_EQ(result_store->entries(), 16);
  warm.attach_store(result_store);
  const auto warm_result = warm.run();
  EXPECT_EQ(warm.sweep_stats().evaluated, 0);
  EXPECT_EQ(warm.sweep_stats().store_hits, 16);
  EXPECT_EQ(warm.sweep_stats().store_rejects, 0);
  EXPECT_EQ(warm.sweep_stats().points, 16);
  EXPECT_EQ(result_store->report().appended, 0);
  EXPECT_EQ(frontier_digest(warm_result.frontier), frontier_digest(cold_result.frontier));
  EXPECT_EQ(warm.checkpoint_json(warm_result.state), cold.checkpoint_json(cold_result.state));
  result_store.reset();
  std::filesystem::remove_all(dir);
}

// ---- Work counters ----------------------------------------------------------

struct MetricsGuard {
  explicit MetricsGuard(telemetry::MetricsRegistry* m) { telemetry::install_metrics(m); }
  ~MetricsGuard() { telemetry::install_metrics(nullptr); }
};

TEST(WorkCounters, ExhaustiveSearchBuildsOneStructuralKeyPerCandidateLayer) {
  for (int threads : {1, 4}) {
    auto optimizer = pin_optimizer("dcgan", "exhaustive", false, threads, 0);
    const auto layers = static_cast<std::int64_t>(optimizer.space().stack().size());
    telemetry::MetricsRegistry registry;
    opt::OptimizerResult result;
    {
      MetricsGuard guard(&registry);
      result = optimizer.run();
    }
    const std::int64_t n = result.stats.evaluations;
    EXPECT_EQ(n, optimizer.space().size());
    EXPECT_EQ(static_cast<std::int64_t>(registry.counter("plan.structural_keys")->value()),
              n * layers);
    const auto& st = optimizer.sweep_stats();
    EXPECT_EQ(st.points, n * layers);
    EXPECT_EQ(st.evaluated, n * layers);
    EXPECT_EQ(st.cache_hits, 0);
    EXPECT_EQ(st.cached_entries, 0);
  }
}

TEST(WorkCounters, PrunedCandidatesStillCountTheirPlannedLayers) {
  auto optimizer = pin_optimizer("dcgan", "exhaustive", true, 2, 0);
  const auto layers = static_cast<std::int64_t>(optimizer.space().stack().size());
  telemetry::MetricsRegistry registry;
  opt::OptimizerResult result;
  {
    MetricsGuard guard(&registry);
    result = optimizer.run();
  }
  EXPECT_GT(result.stats.pruned, 0);
  EXPECT_EQ(static_cast<std::int64_t>(registry.counter("plan.structural_keys")->value()),
            (result.stats.evaluations + result.stats.pruned) * layers);
  EXPECT_EQ(optimizer.sweep_stats().points, result.stats.evaluations * layers);
}

// ---- SweepDriver memo ------------------------------------------------------

std::vector<explore::SweepPoint> distinct_points(int n) {
  const auto spec = workloads::table1_reduced(8)[2];
  std::vector<explore::SweepPoint> grid;
  for (int i = 0; i < n; ++i) {
    explore::SweepPoint p;
    p.kind = DesignKind::kRed;
    p.cfg.mux_ratio = 1 << (i % 5);
    p.cfg.red_fold = 1 << (i / 5);
    p.spec = spec;
    grid.push_back(p);
  }
  return grid;
}

TEST(SweepDriverMemo, KeysCountedPerPointPlusOnePerEvaluation) {
  // The memo key of every point, plus the plan key of each point evaluated.
  explore::SweepDriver driver(2);
  const auto grid = distinct_points(3);
  telemetry::MetricsRegistry registry;
  {
    MetricsGuard guard(&registry);
    (void)driver.evaluate(grid);
    (void)driver.evaluate(grid);
  }
  EXPECT_EQ(registry.counter("plan.structural_keys")->value(), 3u + 3u + 3u);
}

TEST(SweepDriverMemo, ClearEmptiesTheMemo) {
  explore::SweepDriver driver(1);
  const auto grid = distinct_points(2);
  (void)driver.evaluate(grid);
  EXPECT_EQ(driver.stats().cached_entries, 2);
  driver.clear();
  EXPECT_EQ(driver.stats().cached_entries, 0);
  const auto again = driver.evaluate(grid);
  EXPECT_FALSE(again[0].from_cache);
  EXPECT_FALSE(again[1].from_cache);
}

TEST(SweepDriverMemo, RepeatsRefreshNothingButStillCount) {
  explore::SweepDriver driver(1);
  const auto grid = distinct_points(2);
  (void)driver.evaluate(grid);
  (void)driver.evaluate(grid);
  EXPECT_EQ(driver.stats().points, 4);
  EXPECT_EQ(driver.stats().evaluated, 2);
  EXPECT_EQ(driver.stats().cache_hits, 2);
  EXPECT_EQ(driver.stats().cached_entries, 2);
}

}  // namespace
}  // namespace red
