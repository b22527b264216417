// Tests of the red::telemetry substrate and its determinism contract:
// histogram bin counts invariant to thread count, metrics snapshots that
// round-trip through report::parse_json, Chrome trace-event JSON
// well-formedness, the no-sink fast path (zero events, zero allocations),
// ring-buffer overflow accounting, the RED_LOG_LEVEL override, and — the
// load-bearing guarantee — one instrumented-vs-uninstrumented bit-identity
// run per instrumented subsystem (sweep, streaming, optimizer, fault
// campaign, and the MVM dispatch under sim::simulate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "red/common/error.h"
#include "red/common/log.h"
#include "red/common/rng.h"
#include "red/explore/sweep.h"
#include "red/fault/campaign.h"
#include "red/opt/optimizer.h"
#include "red/perf/mvm_kernel.h"
#include "red/report/json.h"
#include "red/sim/engine.h"
#include "red/sim/streaming.h"
#include "red/telemetry/metrics.h"
#include "red/telemetry/tracer.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"
#include "red/xbar/crossbar.h"

// ---- allocation counting ----------------------------------------------------
// Replacement global operator new that counts allocations while a test has
// the flag up. Used to prove the no-sink fast path never allocates; inert
// (one relaxed load) for every other test in this binary.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace red {
namespace {

/// Install-on-construct / uninstall-on-destruct: no test can leak a sink
/// into its neighbours, even on assertion failure.
struct SinkGuard {
  explicit SinkGuard(telemetry::MetricsRegistry* m, telemetry::Tracer* t = nullptr) {
    telemetry::install_metrics(m);
    telemetry::install_tracer(t);
  }
  ~SinkGuard() {
    telemetry::install_metrics(nullptr);
    telemetry::install_tracer(nullptr);
  }
};

// ---- histogram binning ------------------------------------------------------

TEST(Histogram, BinIndexAndEdges) {
  using telemetry::Histogram;
  EXPECT_EQ(Histogram::bin_index(0), 0);
  EXPECT_EQ(Histogram::bin_index(1), 1);
  EXPECT_EQ(Histogram::bin_index(2), 2);
  EXPECT_EQ(Histogram::bin_index(3), 2);
  EXPECT_EQ(Histogram::bin_index(4), 3);
  EXPECT_EQ(Histogram::bin_index(~std::uint64_t{0}), 64);
  for (int k = 1; k < Histogram::kBins; ++k) {
    // Every bin's edges contain exactly the values that map to it.
    EXPECT_EQ(Histogram::bin_index(Histogram::bin_lo(k) + (k == 1 ? 1 : 0)), k);
    EXPECT_EQ(Histogram::bin_index(Histogram::bin_hi(k)), k);
  }
}

TEST(Histogram, BinCountsAreThreadCountInvariant) {
  // The same multiset of samples recorded serially and from 8 threads must
  // produce identical bin counts, count, and sum — the property that makes
  // snapshots bit-reproducible across pool sizes.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 0; i < 4096; ++i) samples.push_back(i * i + 3);

  telemetry::Histogram serial;
  for (std::uint64_t v : samples) serial.record(v);

  telemetry::Histogram parallel;
  const int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < samples.size(); i += kThreads)
        parallel.record(samples[i]);
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(serial.count(), parallel.count());
  EXPECT_EQ(serial.sum(), parallel.sum());
  for (int k = 0; k < telemetry::Histogram::kBins; ++k)
    EXPECT_EQ(serial.bin_count(k), parallel.bin_count(k)) << "bin " << k;
}

// ---- registry snapshots -----------------------------------------------------

TEST(MetricsRegistry, SnapshotJsonRoundTripsThroughParseJson) {
  telemetry::MetricsRegistry reg;
  reg.counter("pool.tasks")->add(41);
  reg.counter("pool.tasks")->add(1);  // same name -> same counter
  reg.gauge("sweep.memo_entries")->set(-7);
  auto* h = reg.histogram("pool.task_duration_ns");
  h->record(0);
  h->record(1);
  h->record(5);
  h->record(1000);

  const auto doc = report::parse_json(reg.snapshot_json());
  EXPECT_EQ(doc.at("counters").at("pool.tasks").as_uint(), 42u);
  EXPECT_EQ(doc.at("gauges").at("sweep.memo_entries").as_int(), -7);
  const auto& hist = doc.at("histograms").at("pool.task_duration_ns");
  EXPECT_EQ(hist.at("count").as_uint(), 4u);
  EXPECT_EQ(hist.at("sum").as_uint(), 1006u);
  std::uint64_t from_bins = 0;
  for (const auto& bin : hist.at("bins").items) {
    EXPECT_LE(bin.at("lo").as_uint(), bin.at("hi").as_uint());
    EXPECT_GT(bin.at("count").as_uint(), 0u);  // empty bins are elided
    from_bins += bin.at("count").as_uint();
  }
  EXPECT_EQ(from_bins, 4u);

  // Two snapshots of an idle registry are byte-identical (no wall-clock, no
  // iteration-order nondeterminism).
  EXPECT_EQ(reg.snapshot_json(), reg.snapshot_json());
  EXPECT_FALSE(reg.snapshot_table().empty());
}

// ---- tracer -----------------------------------------------------------------

TEST(Tracer, ChromeTraceJsonIsWellFormed) {
  telemetry::Tracer tracer;
  {
    SinkGuard guard(nullptr, &tracer);
    { telemetry::ScopedSpan span("unit.outer", "test"); }
    std::thread other([] { telemetry::ScopedSpan span("unit.inner", "test"); });
    other.join();
    tracer.record("unit.raw", nullptr, 10, 5);
  }

  const std::string json = tracer.chrome_trace_json();
  const auto doc = report::parse_json(json);
  const auto& events = doc.at("traceEvents").items;
  ASSERT_EQ(events.size(), 3u);
  std::uint64_t prev_ts = 0;
  bool saw_default_cat = false;
  for (const auto& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("pid").as_int(), 1);
    EXPECT_GE(e.at("tid").as_int(), 1);
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_GE(e.at("ts").as_double(), 0.0);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    // merged_events() sorts by timestamp, so the exported array is ordered.
    const auto ts = static_cast<std::uint64_t>(e.at("ts").as_double() * 1000.0);
    EXPECT_GE(ts + 1, prev_ts);  // +1 absorbs the ns->us rounding
    prev_ts = ts;
    saw_default_cat |= e.at("cat").as_string() == "red";  // null cat fallback
  }
  EXPECT_TRUE(saw_default_cat);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(doc.at("droppedEvents").as_uint(), 0u);
}

TEST(Tracer, FullBufferDropsAndCounts) {
  telemetry::Tracer tracer(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) tracer.record("unit.drop", "test", 1, 1);
  EXPECT_EQ(tracer.merged_events().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(report::parse_json(tracer.chrome_trace_json()).at("droppedEvents").as_uint(), 6u);
}

TEST(Telemetry, NoSinkFastPathRecordsNothingAndAllocatesNothing) {
  ASSERT_EQ(telemetry::metrics(), nullptr);
  ASSERT_EQ(telemetry::tracer(), nullptr);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 1000; ++i) {
    telemetry::ScopedSpan span("unit.fastpath", "test");
    if (auto* m = telemetry::metrics()) m->counter("unit.never")->add(1);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);

  // Nothing was buffered anywhere while no sink was installed: a tracer
  // installed afterwards starts empty.
  telemetry::Tracer tracer;
  {
    SinkGuard guard(nullptr, &tracer);
  }
  EXPECT_TRUE(tracer.merged_events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---- RED_LOG_LEVEL ----------------------------------------------------------

TEST(Log, LevelFromNameAndEnvOverride) {
  EXPECT_EQ(log_level_from_name("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_name("error"), LogLevel::kError);
  EXPECT_THROW((void)log_level_from_name("verbose"), ConfigError);

  const LogLevel before = log_level();
  ::setenv("RED_LOG_LEVEL", "warn", 1);
  apply_log_env();
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  ::setenv("RED_LOG_LEVEL", "shout", 1);
  EXPECT_THROW(apply_log_env(), ConfigError);
  EXPECT_EQ(log_level(), LogLevel::kWarn);  // failed override leaves level alone
  ::unsetenv("RED_LOG_LEVEL");
  apply_log_env();  // absent -> no-op
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  set_log_level(before);
}

// ---- instrumented vs uninstrumented bit-identity ----------------------------
// One run per instrumented subsystem: the full-sink run must produce results
// byte-identical to the bare run. Each helper returns a deterministic
// serialization of everything the subsystem computes (never wall-clock).

template <typename Fn>
void expect_bit_identical(Fn&& run) {
  const std::string bare = run();
  telemetry::MetricsRegistry reg;
  telemetry::Tracer tracer;
  std::string instrumented;
  {
    SinkGuard guard(&reg, &tracer);
    instrumented = run();
  }
  EXPECT_EQ(bare, instrumented);
}

nn::DeconvLayerSpec small_layer() {
  nn::DeconvLayerSpec spec;
  spec.name = "telemetry_layer";
  spec.ih = 4;
  spec.iw = 4;
  spec.c = 3;
  spec.m = 3;
  spec.kh = 4;
  spec.kw = 4;
  spec.stride = 2;
  spec.pad = 1;
  spec.validate();
  return spec;
}

TEST(BitIdentity, SweepDriver) {
  expect_bit_identical([] {
    const auto spec = small_layer();
    std::vector<explore::SweepPoint> grid;
    for (int fold : {1, 2})
      for (int mux : {4, 8}) {
        explore::SweepPoint p;
        p.spec = spec;
        p.cfg.red_fold = fold;
        p.cfg.mux_ratio = mux;
        grid.push_back(p);
      }
    explore::SweepDriver driver(/*threads=*/2);
    std::string all;
    for (const auto& o : driver.evaluate(grid)) all += explore::encode_outcome(o);
    return all;
  });
}

TEST(BitIdentity, StreamingExecutor) {
  expect_bit_identical([] {
    const auto stack = workloads::named_stack("dcgan", /*div=*/16);
    const sim::StreamingExecutor executor(core::DesignKind::kRed, arch::DesignConfig{}, stack,
                                          workloads::make_stack_kernels(stack, 7));
    sim::StreamingOptions opts;
    opts.threads = 2;
    const auto result = executor.stream(workloads::make_input_batch(stack[0], 3, 7), opts);
    // Everything deterministic: outputs and measured activity, never wall_ms.
    std::string key = result.design_name + ":" + std::to_string(result.total.cycles);
    for (const auto& img : result.images)
      for (std::int32_t v : img.output) key += "," + std::to_string(v);
    return key;
  });
}

TEST(BitIdentity, Optimizer) {
  expect_bit_identical([] {
    opt::SearchSpace space({small_layer()}, core::DesignKind::kRed, arch::DesignConfig{});
    space.add_axis({opt::AxisField::kRedFold, {1, 2, 4}});
    space.add_axis({opt::AxisField::kMuxRatio, {4, 8}});
    opt::OptimizerOptions options;
    options.threads = 2;
    opt::Optimizer optimizer(std::move(space), opt::Objective::parse("latency,area"), {},
                             options);
    const auto result = optimizer.run();
    return optimizer.checkpoint_json(result.state);
  });
}

TEST(BitIdentity, FaultCampaign) {
  expect_bit_identical([] {
    const auto spec = small_layer();
    Rng rng(1);
    const auto input = workloads::make_input(spec, rng, 1, 7);
    const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
    fault::FaultModel model;
    model.sa0_rate = 0.01;
    model.sa1_rate = 0.01;
    fault::FaultCampaignOptions opts;
    opts.trials = 2;
    opts.threads = 2;
    const auto points = fault::run_fault_campaign(core::DesignKind::kRed, arch::DesignConfig{},
                                                  {model}, fault::RepairPolicy{}, spec, input,
                                                  kernel, opts);
    std::string key;
    for (const auto& p : points)
      key += std::to_string(p.mean_mse(false)) + "/" + std::to_string(p.mean_mse(true)) + "/" +
             std::to_string(p.mean_bit_errors(true)) + ";";
    return key;
  });
}

TEST(BitIdentity, MvmDispatchUnderSimulate) {
  expect_bit_identical([] {
    const auto spec = small_layer();
    const auto design = core::make_design(core::DesignKind::kRed, arch::DesignConfig{});
    Rng rng(3);
    const auto input = workloads::make_input(spec, rng, 1, 7);
    const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
    const auto result = sim::simulate(*design, spec, input, kernel, /*check=*/true);
    std::string key = std::to_string(result.measured.cycles);
    for (std::int32_t v : result.output) key += "," + std::to_string(v);
    return key;
  });
}

// The instrumented arm of the bit-identity runs above must also have
// observed something: a full-sink streaming run populates both sinks.
TEST(Telemetry, InstrumentedRunPopulatesSinks) {
  telemetry::MetricsRegistry reg;
  telemetry::Tracer tracer;
  {
    SinkGuard guard(&reg, &tracer);
    const auto stack = workloads::named_stack("dcgan", /*div=*/16);
    const sim::StreamingExecutor executor(core::DesignKind::kRed, arch::DesignConfig{}, stack,
                                          workloads::make_stack_kernels(stack, 7));
    sim::StreamingOptions opts;
    opts.threads = 2;
    (void)executor.stream(workloads::make_input_batch(stack[0], 2, 7), opts);
  }
  const auto doc = report::parse_json(reg.snapshot_json());
  EXPECT_GT(doc.at("counters").at("streaming.cells").as_uint(), 0u);
  EXPECT_NE(doc.at("counters").find("mvm.ops"), nullptr);
  EXPECT_GT(doc.at("histograms").at("streaming.stage_latency_ns").at("count").as_uint(), 0u);
  EXPECT_FALSE(tracer.merged_events().empty());
}

// MVMs that run the exact kernel count under mvm.calls.scalar: exact calls,
// and bit-accurate ones under an ideal ADC. Bit-accurate calls under a
// clipped ADC (here at lossless_adc_bits(), where outputs stay exact) count
// under the popcount tier this CPU runs.
TEST(Telemetry, MvmCallsCountUnderTheKernelThatRan) {
  constexpr std::int64_t kRows = 70, kCols = 5, kBatch = 6;
  Rng rng(11);
  std::vector<std::int32_t> weights(static_cast<std::size_t>(kRows * kCols));
  for (auto& w : weights) w = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  std::vector<std::int32_t> inputs(static_cast<std::size_t>(kRows * kBatch));
  for (auto& v : inputs) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  const xbar::LogicalXbar xb(kRows, kCols, weights, xbar::QuantConfig{});
  xbar::QuantConfig clipped;
  clipped.adc = {xbar::AdcMode::kClipped, xb.lossless_adc_bits()};
  const xbar::LogicalXbar clipped_xb(kRows, kCols, weights, clipped);
  const std::string tier =
      std::string("mvm.calls.") + perf::mvm_isa_name(perf::mvm_active_isa());

  telemetry::MetricsRegistry reg;
  SinkGuard guard(&reg);
  perf::MvmWorkspace ws;
  (void)xb.mvm_batch(inputs, kBatch, /*bit_accurate=*/false, ws);
  EXPECT_EQ(reg.counter("mvm.calls.scalar")->value(), static_cast<std::uint64_t>(kBatch));
  (void)xb.mvm_batch(inputs, kBatch, /*bit_accurate=*/true, ws);
  EXPECT_EQ(reg.counter("mvm.calls.scalar")->value(), static_cast<std::uint64_t>(2 * kBatch));
  EXPECT_EQ(reg.counter(tier)->value(), 0u);
  const auto exact = xb.mvm_batch(inputs, kBatch, /*bit_accurate=*/false, ws);
  const std::vector<std::int64_t> want(exact.begin(), exact.end());
  const auto got = clipped_xb.mvm_batch(inputs, kBatch, /*bit_accurate=*/true, ws);
  EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), want);
  EXPECT_EQ(reg.counter("mvm.calls.scalar")->value(), static_cast<std::uint64_t>(3 * kBatch));
  EXPECT_EQ(reg.counter(tier)->value(), static_cast<std::uint64_t>(kBatch));
}

}  // namespace
}  // namespace red
