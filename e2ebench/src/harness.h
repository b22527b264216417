// Shared plumbing of the e2ebench workloads: run arguments, the report each
// run prints, sample statistics, and the probe that times one library call
// inside a trace span of its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "red/fault/model.h"
#include "red/telemetry/metrics.h"
#include "red/telemetry/tracer.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Wave lanes every workload may use: one load-generating process with at
/// most two concurrent lanes, so runs on a small shared host stay steady.
constexpr int kMaxLanes = 2;
/// Set-up is repeated at least this many times per run, and until
/// kSetupMinSeconds have passed (at most kSetupMaxReps times), then reported
/// as the median, so a millisecond set-up is timed as steadily as a slow one.
constexpr int kSetupReps = 5;
constexpr double kSetupMinSeconds = 0.25;
constexpr int kSetupMaxReps = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace written by a traced run
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the correctness tally, the metrics of its mode, and
/// context lines (host, sample counts) printed ahead of the result line.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& value) { context[key] = value; }
  /// Count `items` failed items and keep the reason (the first few only).
  void fail(std::int64_t items, const std::string& why) {
    failed += items;
    if (failures.size() < 8) failures.push_back(why);
  }
  [[nodiscard]] bool correct() const { return failed == 0 && failures.empty(); }
};

/// q-quantile with linear interpolation between closest ranks (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Run `f` (one call into the library) inside a trace span named `span` —
/// a single branch when no tracer is installed — and append its host time
/// in milliseconds to `ms`. Returns what `f` returns.
template <typename F>
decltype(auto) timed(const char* span, std::vector<double>& ms, F&& f) {
  red::telemetry::ScopedSpan s(span, "e2ebench");
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    ms.push_back(ms_since(t0));
  } else {
    auto result = f();
    ms.push_back(ms_since(t0));
    return result;
  }
}

/// Run `setup` (one complete set-up) repeatedly as kSetupReps describes and
/// return the median host time in seconds.
template <typename F>
double median_setup_s(F&& setup) {
  std::vector<double> ms;
  const auto t_begin = Clock::now();
  while (std::ssize(ms) < kSetupReps ||
         (ms_since(t_begin) < 1e3 * kSetupMinSeconds && std::ssize(ms) < kSetupMaxReps)) {
    const auto t0 = Clock::now();
    setup();
    ms.push_back(ms_since(t0));
  }
  return median(ms) / 1e3;
}

/// Fault environment and repair provision of the fault-repair workload
/// (also the environment design-search prices analytic SNR under).
[[nodiscard]] red::fault::FaultConfig fault_environment();

/// Spreads a run's timed units over the host's CPUs. On a shared host one
/// core can run far slower than another for tens of seconds while its
/// sibling is busy, so a run that stays where the scheduler first put it
/// reports that core. Before each unit, next() pins every thread of the
/// process to `lanes` CPUs taken round-robin from the ones the process may
/// use; the median over units then samples every core. Pinning is skipped
/// when fewer than lanes + 1 CPUs are available or the kernel refuses it.
class CpuRotation {
 public:
  explicit CpuRotation(int lanes);
  ~CpuRotation();  ///< restores the affinity the process started with
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;  ///< CPUs the process started with
  int lanes_;
  std::int64_t unit_ = 0;
};

/// Installs a metrics registry and/or tracer for one scope and uninstalls
/// both on every exit path, so the global sinks never outlive their owners.
class ScopedTelemetry {
 public:
  ScopedTelemetry(red::telemetry::MetricsRegistry* m, red::telemetry::Tracer* t) {
    red::telemetry::install_metrics(m);
    red::telemetry::install_tracer(t);
  }
  ~ScopedTelemetry() {
    red::telemetry::install_metrics(nullptr);
    red::telemetry::install_tracer(nullptr);
  }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;
};

/// Sum of the durations (ms) of trace events whose name starts with
/// `prefix` and that started in [from_ns, to_ns) on the tracer's clock.
[[nodiscard]] double span_ms(const red::telemetry::Tracer& tracer, const std::string& prefix,
                             std::uint64_t from_ns, std::uint64_t to_ns);

/// Shared tail of every traced run: record the per-ISA MVM call counts and
/// pool task count of `registry`, then write the trace to `path` and check
/// that it parses back (report::parse_json). Parse or write failures are
/// recorded in `r` as failed checks.
void finish_trace(Report& r, red::telemetry::MetricsRegistry& registry,
                  const red::telemetry::Tracer& tracer, const std::string& path);

/// telemetry.overhead_pct from interleaved untraced / traced throughputs.
void set_overhead(Report& r, const std::vector<double>& untraced_per_s,
                  const std::vector<double>& traced_per_s);

// The four workloads (one file each).
[[nodiscard]] Report run_red_stream_exact(const Args& a);
[[nodiscard]] Report run_baseline_bitacc(const Args& a);
[[nodiscard]] Report run_fault_repair(const Args& a);
[[nodiscard]] Report run_design_search(const Args& a);

}  // namespace e2e
