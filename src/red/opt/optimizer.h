// The optimizer driver: ties a SearchSpace, an Objective, Constraints, and a
// SearchStrategy together over one pure per-candidate pricing routine.
//
// The run loop is strategy-agnostic:
//
//   propose -> dedupe vs the state
//           -> price each new candidate in one parallel task: materialize,
//              plan every layer once against the stack's precomputed
//              geometry, run the constraints on those plans, cost each layer
//              (or read it from the attached store by LayerPlan::key), and
//              digest the candidate fingerprint from the same keys
//           -> one serial fold in batch order: pruned list, store writes,
//              evaluation log, Pareto frontier
//           -> observe -> checkpoint
//
// until the strategy finishes, the evaluation budget is spent, or the whole
// space is explored. Results are bit-identical for any thread count: the
// tasks write per-candidate slots and everything order-dependent happens in
// the fold. There is no in-memory memo: the state already de-duplicates by
// ordinal, and distinct ordinals are distinct configs.
//
// Checkpoint/resume follows the plan-JSON convention (recompile and verify):
// a checkpoint stores the search identity fingerprint, the strategy cursor,
// and the ordinal + objectives of every priced candidate. resume() rejects a
// document whose fingerprint does not match the reconstructed search
// (corrupted or mismatched checkpoints throw MismatchError), re-prices every
// recorded candidate through the same routine, and verifies the
// recomputation reproduces the stored objectives exactly — a resumed run can
// only continue a trajectory it can prove it is on, after which it is
// bit-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "red/explore/sweep.h"
#include "red/opt/objective.h"
#include "red/opt/pareto.h"
#include "red/opt/space.h"
#include "red/opt/strategy.h"

namespace red::opt {

struct OptimizerOptions {
  std::string strategy = "exhaustive";  ///< exhaustive | anneal | evolve
  /// Evaluation budget (0 = the whole grid). A soft stop: the search halts
  /// at the first batch boundary at or past it — a proposed batch is never
  /// split, so a budget-B run's final state is bit-identical to a larger
  /// run's state at that same boundary. That makes every checkpoint a
  /// budget-invariant trajectory prefix: resume with a bigger budget to
  /// deepen a finished search.
  std::int64_t budget = 0;
  std::uint64_t seed = 1;            ///< fixes the entire search trajectory
  int threads = 1;                   ///< pricing fan-out per batch
  SearchOptions search;              ///< strategy tuning knobs
  /// Wall-clock soft deadline in milliseconds (0 = none). Like an interrupt
  /// signal, it is honored at the next batch boundary: the search writes a
  /// final checkpoint and returns with `interrupted` set, never mid-batch —
  /// so a timed-out run's checkpoint is a normal trajectory prefix and
  /// resume continues it bit-identically.
  double timeout_ms = 0.0;
};

struct OptStats {
  std::int64_t batches = 0;      ///< propose/observe rounds
  std::int64_t proposals = 0;    ///< candidates proposed in total
  std::int64_t evaluations = 0;  ///< distinct candidates priced
  std::int64_t repeats = 0;      ///< proposals served from the evaluation log
  std::int64_t pruned = 0;       ///< candidates rejected by constraints
};

struct OptimizerResult {
  std::vector<CandidateEval> frontier;  ///< canonical order (see ParetoFrontier)
  OptimizerState state;                 ///< final state (full evaluation log)
  OptStats stats;
  bool complete = false;  ///< space exhausted / strategy finished (vs budget hit)
  /// Stopped early by SIGINT/SIGTERM (store::interrupt_requested) or the
  /// timeout — at a batch boundary, after a forced checkpoint write.
  bool interrupted = false;
};

/// One checkpoint document merge_states could not fold in, and why.
struct ShardQuarantine {
  std::string name;    ///< caller-side label (typically the file path)
  std::string reason;  ///< the Error message that disqualified it
};

/// Result of fusing shard checkpoints into one state (see
/// Optimizer::merge_states).
struct MergeResult {
  OptimizerState state;                    ///< union of every intact shard
  std::vector<ShardQuarantine> quarantined;  ///< rejected documents, in order
  std::int64_t shards_merged = 0;          ///< documents folded into `state`
  std::int64_t duplicate_evals = 0;        ///< ordinals seen in >1 shard
};

class Optimizer {
 public:
  Optimizer(SearchSpace space, Objective objective, std::vector<Constraint> constraints,
            OptimizerOptions options);

  /// Run a fresh search to completion (or budget).
  [[nodiscard]] OptimizerResult run();

  /// Continue a search from a checkpoint document (see checkpoint_json).
  /// Throws ConfigError on malformed documents, MismatchError when the
  /// fingerprint does not match this optimizer's search identity or a stored
  /// evaluation disagrees with its recomputation.
  [[nodiscard]] OptimizerResult resume(const std::string& checkpoint_json_text);

  /// Parse and verify a checkpoint document into a ready-to-search state
  /// (fingerprint check, constraint re-run on pruned rows, re-price and
  /// verify every logged evaluation). resume() is search(load_state(text));
  /// merge tooling uses the state directly.
  [[nodiscard]] OptimizerState load_state(const std::string& checkpoint_json_text);

  /// Fuse shard checkpoints into one state: the union of every intact
  /// document's evaluation and pruned logs, deduplicated by ordinal and
  /// sorted into the ordinal order a single-process exhaustive walk would
  /// have produced — so frontier_of(merged) equals the single-process
  /// frontier over the same ordinals. Each document is (name, JSON text);
  /// one that fails load_state (corrupt, wrong fingerprint, failed
  /// verification) is quarantined with its reason instead of failing the
  /// merge. The merged cursor restarts at the first unexplored ordinal, so
  /// the result checkpoints as a resumable UNSHARDED exhaustive run that
  /// fills any gaps a missing shard left. Throws ConfigError when no
  /// document survives.
  [[nodiscard]] MergeResult merge_states(
      const std::vector<std::pair<std::string, std::string>>& documents);

  /// The Pareto frontier of a state's evaluation log, in canonical order —
  /// the same extraction search() performs, exposed for merge tooling that
  /// reports a frontier without running a search.
  [[nodiscard]] std::vector<CandidateEval> frontier_of(const OptimizerState& state) const;

  /// Serialize a state as a checkpoint document (identity fingerprint +
  /// cursor + evaluation log). Inverse of resume().
  [[nodiscard]] std::string checkpoint_json(const OptimizerState& state) const;

  /// Digest of the search identity: space, objective, constraint names,
  /// strategy (with tuning), and seed. Two optimizers with equal
  /// fingerprints walk the identical trajectory; budget and threads are
  /// excluded because the trajectory is invariant to them (budget only picks
  /// the stopping boundary).
  [[nodiscard]] std::string fingerprint() const;

  /// Write a checkpoint to `path` after every `every_evals` new evaluations
  /// (and once more when the search ends). Empty path disables (default).
  /// Writes are atomic (store::write_file_atomic): a crash mid-write leaves
  /// the previous checkpoint intact, never a torn file.
  void set_checkpoint_file(std::string path, std::int64_t every_evals = 64);

  /// Attach a persistent result store: each priced layer is served from it
  /// by LayerPlan::key when present and written back when computed, so
  /// re-runs, resumes, parallel shards and `red_cli sweep` runs share one
  /// evaluation history (see store::ResultStore). The store is read
  /// concurrently during a batch and written only between batches.
  void attach_store(std::shared_ptr<store::ResultStore> store);

  [[nodiscard]] const SearchSpace& space() const { return space_; }
  [[nodiscard]] const Objective& objective() const { return objective_; }
  /// Pricing counters across batches and resumes, in SweepDriver's shape:
  /// `points` counts priced layers, `evaluated` the layers costed here,
  /// `store_hits`/`store_rejects` the store reads; the memo fields are 0.
  [[nodiscard]] const explore::SweepStats& sweep_stats() const { return sweep_stats_; }

 private:
  struct Priced;

  [[nodiscard]] OptimizerResult search(OptimizerState state);
  /// Price one candidate batch and fold it into the state log. evals[i] is
  /// nullptr for pruned batch[i].
  void evaluate_batch(const std::vector<Candidate>& batch,
                      std::vector<const CandidateEval*>& evals, OptimizerState& state);
  /// The one pricing routine: every candidate in its own parallel task
  /// (pure; reads the store, never writes it), results in input order.
  [[nodiscard]] std::vector<Priced> price(const std::vector<std::int64_t>& ordinals) const;
  [[nodiscard]] Priced price_one(std::int64_t ordinal) const;
  /// Serial half of pricing: store writes and counters, in input order.
  void commit(std::vector<Priced>& priced);
  [[nodiscard]] std::int64_t effective_budget() const;
  void maybe_write_checkpoint(const OptimizerState& state, bool force);

  SearchSpace space_;
  Objective objective_;
  std::vector<Constraint> constraints_;
  OptimizerOptions opts_;
  std::unique_ptr<SearchStrategy> strategy_;
  std::vector<plan::LayerGeometry> geometry_;  ///< one record per stack layer
  std::shared_ptr<store::ResultStore> store_;
  explore::SweepStats sweep_stats_;
  ParetoFrontier frontier_;
  OptStats stats_;
  std::string checkpoint_path_;
  std::int64_t checkpoint_every_ = 64;
  std::int64_t evals_at_last_checkpoint_ = 0;
};

}  // namespace red::opt
