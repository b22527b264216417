// Search strategies and the shared optimizer state they advance.
//
// A SearchStrategy is a stateless policy: propose() reads the OptimizerState
// and returns the next batch of candidates, observe() folds the batch's
// evaluations back into the state's cursor fields. ALL mutable search state
// lives in OptimizerState — that is what makes a search checkpointable: the
// optimizer can serialize the state between batches and a resumed run
// replays the identical trajectory, because every random decision is drawn
// from a counter RNG (seed, step) rather than from hidden generator state.
//
// Three strategies share the interface:
//   * "exhaustive" — pruned full-grid walk in ordinal order;
//   * "anneal"     — simulated annealing on the objective's log-scalar with
//                    single-axis neighbor moves, random restarts, and a
//                    geometric temperature schedule;
//   * "evolve"     — a (mu + lambda)-style evolutionary tuner: global elitist
//                    selection over everything evaluated so far, uniform
//                    crossover, per-axis mutation.
// The stochastic strategies escape stalls (proposals that keep landing on
// explored points) by proposing the first unexplored ordinals, so with
// budget >= the feasible grid they provably converge to the exhaustive
// frontier instead of merely probably finding it.
//
// Determinism: strategies never see evaluation timing or thread placement —
// the optimizer prices each batch in parallel tasks and folds the results
// serially in batch order, bit-identical for any thread count — so a
// (seed, budget) pair fixes the whole search trajectory on any machine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "red/common/visit_fields.h"
#include "red/opt/objective.h"
#include "red/opt/space.h"

namespace red::opt {

/// One priced candidate: the raw objective vector (frontier dimension), the
/// scalarization the stochastic strategies rank by, the aggregated stack
/// cost, and the candidate's structural fingerprint (digest of the framed
/// per-layer plan keys — the same machinery plan::StackPlan fingerprints
/// use, so a checkpoint can prove it describes this exact design point).
struct CandidateEval {
  std::int64_t ordinal = 0;
  Candidate candidate;
  std::vector<double> objectives;
  double scalar = 0.0;
  StackCost cost;
  std::string fingerprint;
};

/// The whole mutable state of a search. Serialized fields first; the lookup
/// tables at the bottom are derived and rebuilt by the optimizer after a
/// checkpoint load.
struct OptimizerState {
  std::int64_t step = 0;          ///< proposal batches consumed (the RNG counter)
  std::int64_t next_ordinal = 0;  ///< exhaustive / stall-escape grid cursor
  std::int64_t generation = 0;    ///< evolutionary generation counter
  std::int64_t current = -1;      ///< annealing position (ordinal; -1 = unset)
  double current_scalar = 0.0;    ///< scalar objective at `current`
  std::int64_t stall = 0;         ///< consecutive batches with no new evaluation
  std::vector<std::int64_t> population;  ///< next evolutionary generation (ordinals)
  std::vector<CandidateEval> evaluated;  ///< every priced candidate, in order
  std::vector<std::int64_t> pruned;      ///< constraint-rejected ordinals, in order

  // ---- derived lookups (not serialized; kept in sync by the optimizer) ----
  std::unordered_map<std::int64_t, std::size_t> eval_of;  ///< ordinal -> evaluated index
  std::unordered_set<std::int64_t> pruned_set;

  /// Candidate already priced or pruned — nothing new to learn from it.
  [[nodiscard]] bool explored(std::int64_t ordinal) const {
    return eval_of.contains(ordinal) || pruned_set.contains(ordinal);
  }
  /// The stored evaluation of an ordinal, or nullptr (unexplored or pruned).
  [[nodiscard]] const CandidateEval* find(std::int64_t ordinal) const {
    const auto it = eval_of.find(ordinal);
    return it == eval_of.end() ? nullptr : &evaluated[it->second];
  }
  /// Rebuild the derived lookups from the serialized vectors.
  void reindex();
};

/// Strategy tuning knobs. Part of the checkpoint fingerprint (via
/// SearchStrategy::key), since they shape the trajectory.
///
/// The shard spec is the exception: shard `i` of `N` restricts the
/// exhaustive walk to ordinals with `ordinal % N == i` — a disjoint
/// partition of the grid across N processes — and is deliberately EXCLUDED
/// from the fingerprint. Every shard of a search solves the same search
/// problem, so shard checkpoints share one fingerprint, which is what lets
/// merge-checkpoints verify they belong together and lets the merged
/// checkpoint resume as an unsharded run that fills any gaps. Only the
/// exhaustive strategy accepts N > 1 (the stochastic trajectories have no
/// disjoint-partition semantics); make_strategy rejects the rest.
struct SearchOptions {
  int batch = 8;             ///< exhaustive batch size per proposal round
  int population = 16;       ///< evolutionary population per generation
  double t0 = 0.05;          ///< annealing start temperature (log-scalar units)
  double cooling = 0.99;     ///< geometric temperature decay per step
  double restart_prob = 0.05;  ///< annealing uniform-restart probability
  int shard_index = 0;       ///< this process's shard in [0, shard_count)
  int shard_count = 1;       ///< disjoint ordinal partitions (1 = unsharded)
};

/// Field list for SearchOptions (see common/visit_fields.h), consumed by
/// options_key() and through it every strategy key and checkpoint
/// fingerprint. The shard spec is execution-only (structural = false): all
/// shards of a search share one identity, which is what lets
/// merge-checkpoints verify their checkpoints belong together.
template <typename O, typename F>
  requires common::FieldsOf<O, SearchOptions>
void visit_fields(O& o, F&& f) {
  static_assert(common::field_count<SearchOptions>() == 7,
                "SearchOptions changed: extend visit_fields so strategy keys "
                "and checkpoint fingerprints keep covering every field");
  f("batch", o.batch);
  f("population", o.population);
  f("t0", o.t0);
  f("cooling", o.cooling);
  f("restart_prob", o.restart_prob);
  f("shard_index", o.shard_index, common::FieldInfo{.structural = false});
  f("shard_count", o.shard_count, common::FieldInfo{.structural = false});
}

/// Canonical byte string over every structural SearchOptions field, folded
/// into each strategy's key (and so into the checkpoint fingerprint). Driven
/// by visit_fields, so a new tuning knob cannot silently stay out of the
/// search identity.
[[nodiscard]] std::string options_key(const SearchOptions& options);

/// Deterministic counter RNG (SplitMix64 finalizer chain): the value is a
/// pure function of (seed, step, salt), which is what makes checkpointed
/// searches resumable — no generator state to save.
[[nodiscard]] std::uint64_t opt_rnd(std::uint64_t seed, std::uint64_t step,
                                    std::uint64_t salt);
/// opt_rnd mapped to [0, 1).
[[nodiscard]] double opt_rnd01(std::uint64_t seed, std::uint64_t step, std::uint64_t salt);

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Injective key of the strategy identity (name + tuning parameters) —
  /// folded into the checkpoint fingerprint.
  [[nodiscard]] virtual std::string key() const = 0;

  /// Next candidates to evaluate. Empty = the strategy is finished (only the
  /// exhaustive walk finishes on its own; the stochastic strategies run
  /// until the optimizer's budget or the space is exhausted). Must be a pure
  /// function of (space, state, seed).
  [[nodiscard]] virtual std::vector<Candidate> propose(const SearchSpace& space,
                                                       const OptimizerState& state,
                                                       std::uint64_t seed) const = 0;

  /// Fold the batch just proposed back into the state's cursor fields.
  /// `evals[i]` is the evaluation of `batch[i]`, or nullptr when it was
  /// pruned by a constraint. Called exactly once per propose().
  virtual void observe(const SearchSpace& space, const std::vector<Candidate>& batch,
                       const std::vector<const CandidateEval*>& evals, std::uint64_t seed,
                       OptimizerState& state) const = 0;
};

/// "exhaustive" | "anneal" | "evolve" (ConfigError otherwise).
[[nodiscard]] std::unique_ptr<SearchStrategy> make_strategy(const std::string& name,
                                                            const SearchOptions& options = {});

}  // namespace red::opt
