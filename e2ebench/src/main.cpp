// e2ebench — the RED simulator's benchmark of record.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//            [--commit ID]
//
// One process runs one workload once. With --trace 0 it measures the
// end-to-end metrics with telemetry off; with --trace 1 it installs a tracer
// and a metrics registry, times each module's calls from this benchmark's
// own spans, and reports the per-layer metrics. Every output is checked for
// correctness outside the timed regions. The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Exit codes: 0 result printed (correct or not), 2 usage/internal error,
// 3 unoptimized build.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/thread_pool.h"

namespace {

using e2e::Report;

struct Declared {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every --trace 0 run prints.
std::vector<Declared> end_to_end_metrics() {
  return {{"throughput_per_s", "1/s"},       {"latency_ms_p50", "ms"},
          {"latency_ms_p90", "ms"},          {"setup_s", "s"},
          {"peak_rss_mb", "MB"},             {"sim_cycles_per_image", "cycles"},
          {"sim_energy_uj_per_image", "uJ"}, {"repaired_snr_db", "dB"}};
}

/// The per-layer metrics every --trace 1 run prints. A metric whose module
/// the workload never calls reads 0 (listed in the context line).
std::vector<Declared> per_layer_metrics() {
  std::vector<Declared> out = {{"plan.compile_ms", "ms"}};
  const auto staged = [&](const std::string& stem, const char* tag, int stages, const char* unit) {
    for (int i = 0; i < stages; ++i)
      out.push_back({stem + "." + tag + ".stage" + std::to_string(i), unit});
  };
  staged("arch.program_ms", "red", 4, "ms");
  staged("arch.program_ms", "zp", 3, "ms");
  staged("arch.run_ms", "red", 4, "ms");
  staged("arch.run_ms", "zp", 3, "ms");
  staged("arch.run_ms", "pf", 3, "ms");
  out.push_back({"arch.programmed_stage_fraction", "ratio"});
  out.push_back({"arch.cost_us_per_plan", "us"});
  for (const char* isa : {"scalar", "portable", "popcnt", "avx2", "avx512"})
    out.push_back({std::string("perf.mvm_calls.") + isa, "count"});
  out.push_back({"perf.pool_tasks", "count"});
  out.push_back({"perf.mac_pulses_per_image", "count"});
  out.push_back({"perf.conversions_per_image", "count"});
  for (int i = 0; i < 4; ++i)
    out.push_back({"perf.input_zero_fraction.stage" + std::to_string(i), "ratio"});
  for (const char* n : {"sim.fill_ms", "sim.steady_interval_ms", "sim.requantize_ms",
                        "sim.check_ms", "fault.faulted_ms", "fault.run_ms", "fault.score_ms"})
    out.push_back({n, "ms"});
  out.push_back({"sim.lane_occupancy", "ratio"});
  for (const char* n : {"fault.spare_rows_used", "fault.spare_cols_used", "fault.rows_remapped",
                        "fault.retried_cells", "opt.evaluations"})
    out.push_back({n, "count"});
  out.push_back({"explore.evaluate_us_per_point", "us"});
  out.push_back({"explore.cache_hit_rate", "ratio"});
  out.push_back({"opt.pruned_fraction", "ratio"});
  out.push_back({"telemetry.overhead_pct", "%"});
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "e2ebench: " << msg
            << "\nusage: e2ebench --workload red-stream-exact|baseline-bitacc|fault-repair|"
               "design-search --seed N --seconds S --trace 0|1 [--trace-out FILE] [--commit ID]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "e2ebench: refusing to run an unoptimized build (build type " E2E_BUILD_TYPE
               "); timings of it are not comparable\n";
  return 3;
#endif
  e2e::Args args;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0 && std::isfinite(args.seconds);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        args.trace_path = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage_error("--workload, --seed, --seconds (> 0) and --trace are required");

  Report r;
  try {
    if (args.workload == "red-stream-exact")
      r = e2e::run_red_stream_exact(args);
    else if (args.workload == "baseline-bitacc")
      r = e2e::run_baseline_bitacc(args);
    else if (args.workload == "fault-repair")
      r = e2e::run_fault_repair(args);
    else if (args.workload == "design-search")
      r = e2e::run_design_search(args);
    else
      usage_error("unknown workload '" + args.workload + "'");
    if (!args.trace) r.set("peak_rss_mb", peak_rss_mb(), "MB");
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << args.workload << " failed: " << e.what() << '\n';
    return 2;
  }

  // Exactly the declared metrics of this mode, each with its declared unit.
  std::string unexercised;
  for (const auto& d : args.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) {
      if (!args.trace) {
        std::cerr << "e2ebench: " << args.workload << " did not measure " << d.name << '\n';
        return 2;
      }
      r.set(d.name, 0.0, d.unit);
      unexercised += (unexercised.empty() ? "" : ",") + d.name;
    } else if (it->second.unit != d.unit || !std::isfinite(it->second.value)) {
      std::cerr << "e2ebench: bad metric " << d.name << " (" << it->second.value << " "
                << it->second.unit << ")\n";
      return 2;
    }
  }
  if (r.metrics.size() != (args.trace ? per_layer_metrics() : end_to_end_metrics()).size()) {
    std::cerr << "e2ebench: " << args.workload << " reported an undeclared metric\n";
    return 2;
  }
  if (!unexercised.empty()) r.note("not_exercised", unexercised);

  // Host context, stamped into every report ahead of the result line.
  r.note("workload", args.workload);
  r.note("seed", std::to_string(args.seed));
  r.note("mode", args.trace ? "traced" : "timed");
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.note("pool_threads", std::to_string(red::perf::ThreadPool::global().threads()));
  r.note("mvm_isa", red::perf::mvm_isa_name(red::perf::mvm_active_isa()));
  r.note("build_type", E2E_BUILD_TYPE);
  r.note("compiler", E2E_COMPILER);
  r.note("commit", commit);
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    r.note("failure" + std::to_string(i), r.failures[i]);

  std::string ctx = "{";
  for (const auto& [k, v] : r.context)
    ctx += (ctx.size() > 1 ? ", " : "") + json_string(k) + ": " + json_string(v);
  std::cout << "context " << ctx << "}\n";

  std::string metrics = "{";
  for (const auto& [name, m] : r.metrics)
    metrics += (metrics.size() > 1 ? ", " : "") + json_string(name) +
               ": {\"value\": " + json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
               "}";
  std::cout << "{\"correct\": " << (r.correct() ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics << "}}" << std::endl;
  return 0;
}
