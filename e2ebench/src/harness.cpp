#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>

#include "red/common/error.h"
#include "red/report/json.h"

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double span_ms(const red::telemetry::Tracer& tracer, const std::string& prefix,
               std::uint64_t from_ns, std::uint64_t to_ns) {
  std::uint64_t ns = 0;
  for (const auto& e : tracer.merged_events())
    if (e.event.ts_ns >= from_ns && e.event.ts_ns < to_ns &&
        std::string_view(e.event.name).starts_with(prefix))
      ns += e.event.dur_ns;
  return static_cast<double>(ns) / 1e6;
}

void finish_trace(Report& r, red::telemetry::MetricsRegistry& registry,
                  const red::telemetry::Tracer& tracer, const std::string& path) {
  // The library's dispatch tiers, by counter name; a tier this host never
  // dispatched to reads 0.
  for (const char* isa : {"scalar", "portable", "popcnt", "avx2", "avx512"})
    r.set(std::string("perf.mvm_calls.") + isa,
          static_cast<double>(registry.counter(std::string("mvm.calls.") + isa)->value()),
          "count");
  r.set("perf.pool_tasks", static_cast<double>(registry.counter("pool.tasks")->value()),
        "count");
  r.note("trace_events_dropped", std::to_string(tracer.dropped()));
  try {
    (void)red::report::parse_json(tracer.chrome_trace_json());
    if (!path.empty()) tracer.write_chrome_trace(path);
    r.note("trace_file", path.empty() ? "(not written)" : path);
  } catch (const red::Error& e) {
    r.fail(0, std::string("trace export failed: ") + e.what());
  }
}

namespace {

/// Pin every thread of this process (the library's pool workers included)
/// to `cpus`.
void pin_all_threads(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus) CPU_SET(c, &mask);
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec))
    (void)sched_setaffinity(std::stoi(task.path().filename().string()), sizeof(mask), &mask);
}

}  // namespace

CpuRotation::CpuRotation(int lanes) : lanes_(lanes) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (std::ssize(cpus_) > lanes_) pin_all_threads(cpus_);
}

void CpuRotation::next() {
  const auto n = std::ssize(cpus_);
  if (n <= lanes_) return;
  std::vector<int> pick;
  for (int l = 0; l < lanes_; ++l)
    pick.push_back(cpus_[static_cast<std::size_t>((unit_ + l) % n)]);
  // Stride by one CPU per unit, so consecutive pairs overlap and every
  // CPU serves in `lanes` of every n units.
  ++unit_;
  pin_all_threads(pick);
}

void set_overhead(Report& r, const std::vector<double>& untraced_per_s,
                  const std::vector<double>& traced_per_s) {
  const double off = median(untraced_per_s);
  const double on = median(traced_per_s);
  r.set("telemetry.overhead_pct", on > 0.0 ? 100.0 * (off / on - 1.0) : 0.0, "%");
  r.note("overhead_samples", std::to_string(untraced_per_s.size()) + " untraced / " +
                                 std::to_string(traced_per_s.size()) + " traced");
}

}  // namespace e2e
