#include "red/opt/optimizer.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "red/common/contracts.h"
#include "red/common/error.h"
#include "red/perf/thread_pool.h"
#include "red/report/json.h"
#include "red/store/interrupt.h"
#include "red/store/io.h"
#include "red/telemetry/metrics.h"
#include "red/telemetry/tracer.h"

namespace red::opt {

namespace {

template <typename T>
void append_raw(std::string& key, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  key.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void append_framed(std::string& key, const std::string& part) {
  append_raw(key, static_cast<std::uint64_t>(part.size()));
  key += part;
}

}  // namespace

Optimizer::Optimizer(SearchSpace space, Objective objective,
                     std::vector<Constraint> constraints, OptimizerOptions options)
    : space_(std::move(space)),
      objective_(std::move(objective)),
      constraints_(std::move(constraints)),
      opts_(std::move(options)),
      strategy_(make_strategy(opts_.strategy, opts_.search)),
      frontier_(objective_.dims()) {
  if (opts_.budget < 0) throw ConfigError("optimizer budget must be >= 0");
  if (opts_.threads < 1) throw ConfigError("optimizer threads must be >= 1");
  if (opts_.timeout_ms < 0.0) throw ConfigError("optimizer timeout must be >= 0");
  geometry_.reserve(space_.stack().size());
  for (const auto& spec : space_.stack()) geometry_.push_back(plan::layer_geometry(spec));
}

void Optimizer::attach_store(std::shared_ptr<store::ResultStore> store) {
  store_ = std::move(store);
}

std::int64_t Optimizer::effective_budget() const {
  return opts_.budget > 0 ? opts_.budget : space_.size();
}

std::string Optimizer::fingerprint() const {
  // The search identity: everything that shapes the trajectory. Threads are
  // absent — results are invariant to them. The budget is absent too,
  // deliberately: it only decides WHERE the trajectory stops
  // (always at a batch boundary), so any budget's run is a prefix of any
  // larger budget's run — which is exactly what lets a resume deepen a
  // finished search with a bigger --budget.
  std::string key;
  append_framed(key, space_.key());
  append_framed(key, objective_.key());
  append_framed(key, strategy_->key());
  for (const auto& c : constraints_) append_framed(key, c.name);
  append_raw(key, opts_.seed);
  return plan::digest(key);
}

void Optimizer::set_checkpoint_file(std::string path, std::int64_t every_evals) {
  RED_EXPECTS(every_evals >= 1);
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = every_evals;
}

void Optimizer::maybe_write_checkpoint(const OptimizerState& state, bool force) {
  if (checkpoint_path_.empty()) return;
  const auto evals = static_cast<std::int64_t>(state.evaluated.size());
  if (!force && evals - evals_at_last_checkpoint_ < checkpoint_every_) return;
  // First write of a run sweeps temp files a previously killed process may
  // have stranded next to the checkpoint; every write is atomic, so a crash
  // at any instant leaves the newest complete checkpoint on disk.
  if (evals_at_last_checkpoint_ == 0) store::remove_stale_temps(checkpoint_path_);
  store::write_file_atomic(checkpoint_path_, checkpoint_json(state));
  evals_at_last_checkpoint_ = evals;
}

/// One candidate through the pricing routine: what the serial fold needs.
struct Optimizer::Priced {
  std::int64_t ordinal = 0;
  bool feasible = false;
  CandidateEval eval;  ///< set when feasible
  /// (LayerPlan::key, encoded outcome) of every layer costed here while a
  /// store is attached; the fold writes them back in order.
  std::vector<std::pair<std::string, std::string>> writes;
  std::int64_t computed = 0;  ///< layers costed through Design::cost
  std::int64_t store_hits = 0;
  std::int64_t store_rejects = 0;
};

Optimizer::Priced Optimizer::price_one(std::int64_t ordinal) const {
  Priced out;
  out.ordinal = ordinal;
  const Candidate candidate = space_.decode(ordinal);
  const MaterializedPoint point = space_.materialize(candidate);

  // Plan every layer once; each plan's key is the only structural key built
  // for this (candidate, layer), and it serves the constraints, the store
  // lookup and the fingerprint alike.
  plan::StackPlan plan;
  plan.kind = point.kind;
  plan.cfg = point.cfg;
  plan.layers.reserve(geometry_.size());
  for (const auto& g : geometry_) plan.layers.push_back(plan::plan_layer(point.kind, g, point.cfg));

  // Pre-evaluation pruning: an infeasible candidate is never priced and
  // never counts against the budget.
  const CandidateView view{space_, candidate, point, plan};
  for (const auto& c : constraints_)
    if (!c.allow(view)) return out;
  out.feasible = true;

  std::unique_ptr<arch::Design> design;  // built on the first store miss
  std::string framed;  // same framing as plan::StackPlan::key(), minus the count
  CandidateEval& e = out.eval;
  for (auto& lp : plan.layers) {
    append_framed(framed, lp.key);
    explore::SweepOutcome o;
    bool served = false;
    if (store_ != nullptr)
      if (const std::string* payload = store_->lookup(lp.key)) {
        // A payload that fails to decode (truncated, stale schema) counts as
        // a miss and is recomputed; the CRC layer already quarantined
        // flipped bits.
        try {
          o = explore::decode_outcome(*payload);
          served = true;
          ++out.store_hits;
        } catch (const ConfigError&) {
          ++out.store_rejects;
        }
      }
    if (!served) {
      if (design == nullptr) design = core::make_design(point.kind, point.cfg);
      o.activity = lp.activity;
      o.cost = design->cost(lp);
      ++out.computed;
      if (store_ != nullptr) out.writes.emplace_back(std::move(lp.key), explore::encode_outcome(o));
    }
    e.cost.add_layer(o.cost, o.activity.sc_units);
  }
  e.ordinal = ordinal;
  e.candidate = candidate;
  e.objectives = objective_.vector_of(e.cost);
  e.scalar = objective_.scalar(e.objectives);
  // The digest proves a checkpoint row describes this exact design point on
  // this exact workload.
  e.fingerprint = plan::digest(framed);
  return out;
}

std::vector<Optimizer::Priced> Optimizer::price(const std::vector<std::int64_t>& ordinals) const {
  telemetry::ScopedSpan price_span("opt.price", "opt");
  std::vector<Priced> priced(ordinals.size());
  const auto n = std::ssize(ordinals);
  perf::parallel_chunks(perf::chunk_count(opts_.threads, n), n,
                        [&](std::int64_t, std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            const auto k = static_cast<std::size_t>(i);
                            priced[k] = price_one(ordinals[k]);
                          }
                        });
  return priced;
}

void Optimizer::commit(std::vector<Priced>& priced) {
  const explore::SweepStats before = sweep_stats_;
  const auto layers = std::ssize(geometry_);
  for (Priced& p : priced) {
    if (p.feasible) sweep_stats_.points += layers;
    sweep_stats_.evaluated += p.computed;
    sweep_stats_.store_hits += p.store_hits;
    sweep_stats_.store_rejects += p.store_rejects;
    for (auto& [key, payload] : p.writes) store_->put(key, std::move(payload));
  }
  // Observe-only: counter deltas mirror the stats above.
  if (auto* m = telemetry::metrics()) {
    const auto bump = [m](const char* name, std::int64_t delta) {
      if (delta > 0) m->counter(name)->add(static_cast<std::uint64_t>(delta));
    };
    bump("plan.structural_keys", std::ssize(priced) * layers);
    bump("sweep.points", sweep_stats_.points - before.points);
    bump("sweep.evaluated", sweep_stats_.evaluated - before.evaluated);
    bump("sweep.store_hits", sweep_stats_.store_hits - before.store_hits);
    bump("sweep.store_rejects", sweep_stats_.store_rejects - before.store_rejects);
    if (store_ != nullptr) explore::publish_store_metrics(*store_);
  }
}

void Optimizer::evaluate_batch(const std::vector<Candidate>& batch,
                               std::vector<const CandidateEval*>& evals,
                               OptimizerState& state) {
  // Observe-only: counter deltas mirror stats_ at the end and never
  // influence pruning, pricing, or state.
  const OptStats stats_before = stats_;
  std::vector<std::int64_t> fresh;
  std::unordered_set<std::int64_t> fresh_seen;
  for (const auto& c : batch) {
    const std::int64_t ordinal = space_.encode(c);
    if (state.explored(ordinal) || !fresh_seen.insert(ordinal).second) {
      ++stats_.repeats;
      continue;
    }
    fresh.push_back(ordinal);
  }

  // One parallel pass prices the fresh candidates; the serial fold below
  // records them in batch order, so the state is thread-count invariant.
  std::vector<Priced> priced = price(fresh);
  commit(priced);
  for (Priced& p : priced) {
    if (!p.feasible) {
      state.pruned.push_back(p.ordinal);
      state.pruned_set.insert(p.ordinal);
      ++stats_.pruned;
      continue;
    }
    const std::size_t id = state.evaluated.size();
    state.evaluated.push_back(std::move(p.eval));
    state.eval_of[p.ordinal] = id;
    frontier_.insert(state.evaluated[id].objectives, static_cast<std::int64_t>(id));
    ++stats_.evaluations;
  }

  // Resolve the per-position views last: state.evaluated no longer moves.
  evals.assign(batch.size(), nullptr);
  for (std::size_t i = 0; i < batch.size(); ++i)
    evals[i] = state.find(space_.encode(batch[i]));

  if (auto* m = telemetry::metrics()) {
    const auto bump = [m](const char* name, std::int64_t delta) {
      if (delta > 0) m->counter(name)->add(static_cast<std::uint64_t>(delta));
    };
    bump("opt.repeats", stats_.repeats - stats_before.repeats);
    bump("opt.pruned", stats_.pruned - stats_before.pruned);
    bump("opt.evaluations", stats_.evaluations - stats_before.evaluations);
  }
}

OptimizerResult Optimizer::search(OptimizerState state) {
  stats_ = {};
  frontier_.clear();
  for (std::size_t i = 0; i < state.evaluated.size(); ++i)
    frontier_.insert(state.evaluated[i].objectives, static_cast<std::int64_t>(i));

  const std::int64_t budget = effective_budget();
  const auto started = std::chrono::steady_clock::now();
  const auto timed_out = [&] {
    if (opts_.timeout_ms <= 0.0) return false;
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - started;
    return elapsed.count() >= opts_.timeout_ms;
  };
  bool complete = false;
  bool interrupted = false;
  for (;;) {
    if (std::ssize(state.evaluated) + std::ssize(state.pruned) >= space_.size()) {
      complete = true;
      break;
    }
    if (std::ssize(state.evaluated) >= budget) break;
    // Graceful interruption: a signal or the deadline stops the search here,
    // at a batch boundary, so the forced checkpoint below is an ordinary
    // trajectory prefix — kill, resume, finish is bit-identical to one
    // uninterrupted run.
    if (store::interrupt_requested() || timed_out()) {
      interrupted = true;
      break;
    }
    std::vector<Candidate> batch;
    {
      telemetry::ScopedSpan propose_span("opt.propose", "opt");
      batch = strategy_->propose(space_, state, opts_.seed);
    }
    if (batch.empty()) {
      complete = true;
      break;
    }
    ++stats_.batches;
    stats_.proposals += std::ssize(batch);
    if (auto* m = telemetry::metrics()) {
      m->counter("opt.batches")->add(1);
      m->counter("opt.proposals")->add(static_cast<std::uint64_t>(batch.size()));
    }

    const std::int64_t before = std::ssize(state.evaluated);
    std::vector<const CandidateEval*> evals;
    evaluate_batch(batch, evals, state);
    {
      telemetry::ScopedSpan observe_span("opt.observe", "opt");
      strategy_->observe(space_, batch, evals, opts_.seed, state);
    }
    state.stall = std::ssize(state.evaluated) > before ? 0 : state.stall + 1;
    maybe_write_checkpoint(state, /*force=*/false);
  }
  maybe_write_checkpoint(state, /*force=*/true);
  if (store_ != nullptr) store_->flush();

  OptimizerResult result;
  result.complete = complete;
  result.interrupted = interrupted;
  for (const auto& p : frontier_.points())
    result.frontier.push_back(state.evaluated[static_cast<std::size_t>(p.id)]);
  result.stats = stats_;
  result.state = std::move(state);
  return result;
}

OptimizerResult Optimizer::run() {
  OptimizerState state;
  return search(std::move(state));
}

std::string Optimizer::checkpoint_json(const OptimizerState& state) const {
  report::JsonWriter w(0);
  w.open();
  w.field("type", "red_opt_checkpoint");
  w.field("version", std::int64_t{1});
  w.field("fingerprint", fingerprint());
  w.field("strategy", strategy_->name());
  w.field("objective", objective_.to_string());
  w.field("seed", opts_.seed);
  w.field("budget", effective_budget());
  w.object("space");
  w.field("fingerprint", space_.fingerprint());
  w.field("layers", static_cast<std::int64_t>(space_.stack().size()));
  w.field("axes", static_cast<std::int64_t>(space_.axes().size()));
  w.field("size", space_.size());
  w.close(false);
  w.object("state");
  w.field("step", state.step);
  w.field("next_ordinal", state.next_ordinal);
  w.field("generation", state.generation);
  w.field("current", state.current);
  w.field("current_scalar", state.current_scalar);
  w.field("stall", state.stall);
  w.array("population");
  for (std::int64_t o : state.population) w.item_number(o);
  w.close_array();
  w.array("pruned");
  for (std::int64_t o : state.pruned) w.item_number(o);
  w.close_array();
  w.array("evaluated");
  for (const auto& e : state.evaluated) {
    w.item_object();
    w.field("ordinal", e.ordinal);
    w.field("fingerprint", e.fingerprint);
    w.field("scalar", e.scalar);
    w.array("objectives");
    for (double v : e.objectives) w.item_number(v);
    w.close_array();
    w.field("latency_ns", e.cost.latency_ns);
    w.field("energy_pj", e.cost.energy_pj);
    w.field("area_um2", e.cost.area_um2);
    w.field("cycles", e.cost.cycles);
    w.field("max_sc_units", e.cost.max_sc_units);
    w.close(false);
  }
  w.close_array();
  w.close(false);
  w.close();
  return w.str();
}

OptimizerResult Optimizer::resume(const std::string& checkpoint_json_text) {
  return search(load_state(checkpoint_json_text));
}

OptimizerState Optimizer::load_state(const std::string& checkpoint_json_text) {
  const report::JsonValue root = report::parse_json(checkpoint_json_text);
  if (const report::JsonValue* type = root.find("type");
      type == nullptr || type->as_string() != "red_opt_checkpoint")
    throw ConfigError("checkpoint JSON: expected a red_opt_checkpoint document");
  if (root.at("version").as_int() != 1)
    throw ConfigError("checkpoint JSON: unsupported version " +
                      std::to_string(root.at("version").as_int()));
  // The fingerprint binds the document to THIS search: space, objective,
  // constraints, strategy, and seed (budget is excluded — resuming deeper
  // is legal). Absence is as fatal as a mismatch (at() throws), matching
  // the plan-JSON convention.
  const std::string& fp = root.at("fingerprint").as_string();
  if (fp != fingerprint())
    throw MismatchError("checkpoint fingerprint mismatch: file says '" + fp +
                        "' but this search is '" + fingerprint() +
                        "' (different space, objective, constraints, strategy, or seed — "
                        "or a corrupted checkpoint)");

  const report::JsonValue& s = root.at("state");
  OptimizerState state;
  state.step = s.at("step").as_int();
  state.next_ordinal = s.at("next_ordinal").as_int();
  state.generation = s.at("generation").as_int();
  state.current = s.at("current").as_int();
  state.current_scalar = s.at("current_scalar").as_double();
  state.stall = s.at("stall").as_int();
  for (const auto& v : s.at("population").items) state.population.push_back(v.as_int());

  auto check_ordinal = [&](std::int64_t o, const char* what) {
    if (o < 0 || o >= space_.size())
      throw ConfigError("checkpoint JSON: " + std::string(what) + " ordinal " +
                        std::to_string(o) + " is outside the space");
  };

  // Recompile-and-verify, like the plan loaders: every logged row goes
  // through the pricing routine again. Pruned rows must still be pruned (a
  // tampered pruned list cannot silently shrink the search), and every
  // recorded evaluation must be feasible and reproduce the stored numbers
  // exactly (evaluation is deterministic and json_number round-trips
  // doubles bit-exactly).
  const auto& pruned_rows = s.at("pruned").items;
  const auto& logged = s.at("evaluated").items;
  std::vector<std::int64_t> ordinals;
  ordinals.reserve(pruned_rows.size() + logged.size());
  for (const auto& v : pruned_rows) {
    ordinals.push_back(v.as_int());
    check_ordinal(ordinals.back(), "pruned");
  }
  for (const auto& row : logged) {
    ordinals.push_back(row.at("ordinal").as_int());
    check_ordinal(ordinals.back(), "evaluated");
  }
  std::vector<Priced> priced = price(ordinals);
  commit(priced);

  for (std::size_t i = 0; i < pruned_rows.size(); ++i) {
    if (priced[i].feasible)
      throw MismatchError("checkpoint says ordinal " + std::to_string(priced[i].ordinal) +
                          " was pruned, but no constraint rejects it");
    state.pruned.push_back(priced[i].ordinal);
  }
  for (std::size_t i = 0; i < logged.size(); ++i) {
    const report::JsonValue& row = logged[i];
    Priced& p = priced[pruned_rows.size() + i];
    const report::JsonValue& stored = row.at("objectives");
    bool match = p.feasible && p.eval.fingerprint == row.at("fingerprint").as_string() &&
                 stored.items.size() == p.eval.objectives.size();
    for (std::size_t d = 0; match && d < p.eval.objectives.size(); ++d)
      match = stored.items[d].as_double() == p.eval.objectives[d];
    if (!match)
      throw MismatchError("checkpoint evaluation " + std::to_string(i) + " (ordinal " +
                          std::to_string(p.ordinal) +
                          ") disagrees with its recomputation — stale or corrupted checkpoint");
    state.evaluated.push_back(std::move(p.eval));
  }
  state.reindex();
  if (std::ssize(state.evaluated) != std::ssize(state.eval_of))
    throw ConfigError("checkpoint JSON: duplicate evaluated ordinals");
  return state;
}

MergeResult Optimizer::merge_states(
    const std::vector<std::pair<std::string, std::string>>& documents) {
  MergeResult merged;

  // Union of every intact shard's logs. load_state already verified each
  // document (fingerprint, constraint re-run, re-priced evaluations), so two
  // shards logging the same ordinal must agree — duplicates are counted and
  // dropped, not re-verified. A document that fails anywhere is quarantined
  // with its reason; the merge degrades, it never fails on a bad shard.
  std::unordered_map<std::int64_t, CandidateEval> evals;
  std::unordered_set<std::int64_t> pruned;
  for (const auto& [name, text] : documents) {
    OptimizerState shard;
    try {
      shard = load_state(text);
    } catch (const Error& e) {
      merged.quarantined.push_back({name, e.what()});
      continue;
    }
    for (auto& e : shard.evaluated) {
      if (evals.contains(e.ordinal))
        ++merged.duplicate_evals;
      else
        evals.emplace(e.ordinal, std::move(e));
    }
    pruned.insert(shard.pruned.begin(), shard.pruned.end());
    merged.state.step = std::max(merged.state.step, shard.step);
    merged.state.generation = std::max(merged.state.generation, shard.generation);
    ++merged.shards_merged;
  }
  if (merged.shards_merged == 0)
    throw ConfigError("merge: no intact checkpoint among " +
                      std::to_string(documents.size()) + " document(s)");

  // Re-serialize the union in ascending ordinal order — the order one
  // unsharded exhaustive walk would have logged, which makes the merged
  // frontier's canonical tie-breaks (and its checkpoint) identical to the
  // single-process run's.
  merged.state.evaluated.reserve(evals.size());
  // red-lint: allow(unordered-iteration) — hash order is erased by the sort
  for (auto& [ordinal, e] : evals) merged.state.evaluated.push_back(std::move(e));
  std::sort(merged.state.evaluated.begin(), merged.state.evaluated.end(),
            [](const CandidateEval& a, const CandidateEval& b) { return a.ordinal < b.ordinal; });
  // red-lint: allow(unordered-iteration) — ditto: assign order is erased
  merged.state.pruned.assign(pruned.begin(), pruned.end());
  std::sort(merged.state.pruned.begin(), merged.state.pruned.end());
  merged.state.reindex();

  // Cursor: an unsharded resume restarts at the first unexplored ordinal and
  // fills whatever gaps a missing or quarantined shard left. The stochastic
  // cursor fields reset — merged states are exhaustive by construction.
  merged.state.next_ordinal = space_.size();
  for (std::int64_t o = 0; o < space_.size(); ++o)
    if (!merged.state.explored(o)) {
      merged.state.next_ordinal = o;
      break;
    }
  merged.state.current = -1;
  merged.state.current_scalar = 0.0;
  merged.state.stall = 0;
  merged.state.population.clear();
  return merged;
}

std::vector<CandidateEval> Optimizer::frontier_of(const OptimizerState& state) const {
  ParetoFrontier frontier(objective_.dims());
  for (std::size_t i = 0; i < state.evaluated.size(); ++i)
    frontier.insert(state.evaluated[i].objectives, static_cast<std::int64_t>(i));
  std::vector<CandidateEval> result;
  for (const auto& p : frontier.points())
    result.push_back(state.evaluated[static_cast<std::size_t>(p.id)]);
  return result;
}

}  // namespace red::opt
