// Design-space optimizer benchmark: strategy-vs-exhaustive evaluations-to-
// frontier and wall-clock, persistent-store cold/warm wall-clock with store
// hit rates, and sharded-search + checkpoint-merge timing, emitted as
// BENCH_opt.json. Run through tools/run_bench.sh, or
// directly:
//
//   bench_opt [--quick] [--out BENCH_opt.json] [--seed N] [--threads N]
//
// Each strategy searches the same kind x fold x mux grid to full coverage
// (budget = grid size), so the bench is gated on every strategy recovering
// the exact exhaustive Pareto frontier; the interesting numbers are how many
// evaluations each needed before its running frontier first matched
// (stochastic strategies that focus well find it early). A warm re-run is
// measured through the persistent store; the optimizer keeps no in-memory
// memo (it never prices an ordinal twice).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "red/common/flags.h"
#include "red/common/string_util.h"
#include "red/opt/optimizer.h"
#include "red/store/result_store.h"
#include "red/workloads/benchmarks.h"

int main(int argc, char** argv) {
  using namespace red;
  using bench::Clock;
  using bench::Entry;
  using bench::ms_since;
  const Flags flags = Flags::parse(argc - 1, argv + 1);
  const bool quick = flags.get_bool("quick");
  const std::string out_path = flags.get_string("out", "BENCH_opt.json");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const int threads = static_cast<int>(flags.get_int("threads", 4));

  bench::print_header("Design-space optimizer: strategies vs the exhaustive frontier",
                      "opt extension — see docs/PERFORMANCE.md");

  const auto layer = quick ? workloads::table1_reduced(8)[0] : workloads::gan_deconv1();
  auto make_space = [&] {
    opt::SearchSpace space({layer}, core::DesignKind::kRed, arch::DesignConfig{});
    space.add_axis({opt::AxisField::kKind, {0, 1, 2}});
    space.add_axis({opt::AxisField::kRedFold, quick ? std::vector<std::int64_t>{1, 2}
                                                    : std::vector<std::int64_t>{1, 2, 4, 8}});
    space.add_axis({opt::AxisField::kMuxRatio, quick ? std::vector<std::int64_t>{4, 8}
                                                     : std::vector<std::int64_t>{4, 8, 16}});
    return space;
  };

  struct Run {
    std::string strategy;
    double wall_ms = 0.0;
    std::int64_t evaluations = 0;
    std::int64_t evals_to_frontier = 0;
    std::int64_t frontier_size = 0;
    std::int64_t repeats = 0;
    bool matched = false;
  };
  std::vector<Run> runs;
  std::vector<Entry> entries;
  std::set<std::vector<double>> target;  // exhaustive frontier objective set

  for (const std::string strategy : {"exhaustive", "anneal", "evolve"}) {
    opt::OptimizerOptions options;
    options.strategy = strategy;
    options.seed = seed;
    options.threads = threads;
    opt::Optimizer optimizer(make_space(), opt::Objective::parse("latency,area"), {}, options);

    const auto t0 = Clock::now();
    const auto result = optimizer.run();
    Run run;
    run.strategy = strategy;
    run.wall_ms = ms_since(t0);
    run.evaluations = result.stats.evaluations;
    run.repeats = result.stats.repeats;
    run.frontier_size = static_cast<std::int64_t>(result.frontier.size());

    std::set<std::vector<double>> frontier_set;
    for (const auto& e : result.frontier) frontier_set.insert(e.objectives);
    if (strategy == std::string("exhaustive")) target = frontier_set;
    run.matched = frontier_set == target;

    // Evaluations until the running frontier first contained exactly the
    // final frontier's objective set.
    opt::ParetoFrontier running(optimizer.objective().dims());
    for (std::size_t i = 0; i < result.state.evaluated.size(); ++i) {
      running.insert(result.state.evaluated[i].objectives, static_cast<std::int64_t>(i));
      std::set<std::vector<double>> now;
      for (const auto& p : running.points()) now.insert(p.objectives);
      if (now == target) {
        run.evals_to_frontier = static_cast<std::int64_t>(i) + 1;
        break;
      }
    }

    entries.push_back({"BM_Opt_" + run.strategy, run.wall_ms, 1, run.wall_ms});
    std::cout << run.strategy << ": " << format_double(run.wall_ms, 2) << " ms, "
              << run.evaluations << " evaluations (" << run.evals_to_frontier
              << " to the frontier), " << run.frontier_size << " frontier points, "
              << run.repeats << " repeat proposals"
              << (run.matched ? "" : "  [FRONTIER MISMATCH]") << '\n';
    runs.push_back(run);
  }

  const bool all_matched =
      std::all_of(runs.begin(), runs.end(), [](const Run& r) { return r.matched; });
  if (!all_matched) {
    red::log_error("a strategy failed to recover the exhaustive Pareto frontier");
    return 1;
  }

  auto frontier_objectives = [](const std::vector<opt::CandidateEval>& frontier) {
    std::set<std::vector<double>> set;
    for (const auto& e : frontier) set.insert(e.objectives);
    return set;
  };
  auto make_options = [&] {
    opt::OptimizerOptions options;
    options.seed = seed;
    options.threads = threads;
    return options;
  };

  // Persistent-store modes: a cold exhaustive run pays every evaluation and
  // fills a fresh on-disk store; a second optimizer (a stand-in for a re-run
  // after a crash, or a parallel process) then walks the identical search
  // served from that store. Gated on the warm frontier matching cold.
  bench::print_section("persistent store (cold fill vs warm re-run)");
  const std::string store_path = out_path + ".store";
  std::remove(store_path.c_str());
  double store_cold_ms = 0.0;
  double store_warm_ms = 0.0;
  std::int64_t store_entries = 0;
  std::int64_t store_hits = 0;
  double store_hit_rate = 0.0;
  {
    opt::Optimizer cold(make_space(), opt::Objective::parse("latency,area"), {},
                        make_options());
    cold.attach_store(std::make_shared<store::ResultStore>(store_path));
    const auto t0 = Clock::now();
    const auto cold_result = cold.run();
    store_cold_ms = ms_since(t0);

    opt::Optimizer warm(make_space(), opt::Objective::parse("latency,area"), {},
                        make_options());
    auto reopened = std::make_shared<store::ResultStore>(store_path);
    store_entries = reopened->entries();
    warm.attach_store(std::move(reopened));
    const auto t1 = Clock::now();
    const auto warm_result = warm.run();
    store_warm_ms = ms_since(t1);
    store_hits = warm.sweep_stats().store_hits;
    const std::int64_t misses = warm.sweep_stats().evaluated;
    store_hit_rate = store_hits + misses > 0
                         ? static_cast<double>(store_hits) /
                               static_cast<double>(store_hits + misses)
                         : 0.0;
    if (frontier_objectives(warm_result.frontier) !=
        frontier_objectives(cold_result.frontier)) {
      red::log_error("the warm-store run changed the frontier");
      return 1;
    }
  }
  std::remove(store_path.c_str());
  entries.push_back({"BM_OptStore_cold", store_cold_ms, 1, store_cold_ms});
  entries.push_back({"BM_OptStore_warm", store_warm_ms, 1, store_warm_ms});
  std::cout << "store: " << format_double(store_cold_ms, 2) << " ms cold fill, "
            << format_double(store_warm_ms, 2) << " ms warm (" << store_entries
            << " entries, hit rate " << format_percent(store_hit_rate, 1) << ")\n";

  // Sharded search + merge: two disjoint half-grid walks, their checkpoints
  // fused by merge_states. Gated on the merged frontier equalling the
  // single-process exhaustive frontier exactly.
  bench::print_section("sharded search + checkpoint merge");
  double shard_ms = 0.0;
  double merge_ms = 0.0;
  {
    std::vector<std::pair<std::string, std::string>> documents;
    for (int i = 0; i < 2; ++i) {
      auto options = make_options();
      options.search.shard_index = i;
      options.search.shard_count = 2;
      opt::Optimizer shard(make_space(), opt::Objective::parse("latency,area"), {}, options);
      const auto t0 = Clock::now();
      const auto r = shard.run();
      shard_ms += ms_since(t0);
      documents.emplace_back("shard" + std::to_string(i), shard.checkpoint_json(r.state));
    }
    opt::Optimizer merger(make_space(), opt::Objective::parse("latency,area"), {},
                          make_options());
    const auto t0 = Clock::now();
    const auto merged = merger.merge_states(documents);
    const auto merged_frontier = merger.frontier_of(merged.state);
    merge_ms = ms_since(t0);
    if (!merged.quarantined.empty() || frontier_objectives(merged_frontier) != target) {
      red::log_error("merged shard checkpoints missed the exhaustive frontier");
      return 1;
    }
  }
  entries.push_back({"BM_OptShard_run", shard_ms, 1, shard_ms});
  entries.push_back({"BM_OptShard_merge", merge_ms, 1, merge_ms});
  std::cout << "shards: 2 x half-grid in " << format_double(shard_ms, 2)
            << " ms total, merge + frontier " << format_double(merge_ms, 2)
            << " ms, merged frontier matches exhaustive\n";

  std::ostringstream out;
  out << "{\n  \"context\": {\"seed\": " << seed << ", \"threads\": " << threads
      << ", \"layer\": \"" << layer.name << "\", \"quick\": " << (quick ? "true" : "false")
      << "},\n  \"benchmarks\": ";
  bench::write_benchmark_array(out, entries);
  out << ",\n  \"search\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out << "    {\"strategy\": \"" << r.strategy
        << "\", \"evaluations\": " << r.evaluations
        << ", \"evals_to_frontier\": " << r.evals_to_frontier
        << ", \"frontier_size\": " << r.frontier_size << ", \"repeats\": " << r.repeats
        << ", \"matched_exhaustive\": " << (r.matched ? "true" : "false") << "}"
        << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"store\": {\"cold_ms\": " << report::json_number(store_cold_ms)
      << ", \"warm_ms\": " << report::json_number(store_warm_ms)
      << ", \"entries\": " << store_entries << ", \"hits\": " << store_hits
      << ", \"hit_rate\": " << report::json_number(store_hit_rate)
      << "},\n  \"shard\": {\"shards\": 2, \"run_ms\": " << report::json_number(shard_ms)
      << ", \"merge_ms\": " << report::json_number(merge_ms)
      << ", \"merged_frontier_matched\": true}\n}\n";
  if (!bench::write_report_file(out_path, out.str())) return 1;
  return 0;
}
