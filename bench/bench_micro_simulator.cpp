// Micro-benchmarks of the simulator itself (google-benchmark): crossbar MVM
// exact vs popcount kernels (both per SIMD tier), crossbar programming,
// fault injection and repair, design schedule execution, and analytic cost
// evaluation throughput.
//
// The binary doubles as the bench_smoke oracle gate: main() refuses to run
// (exit 1) unless every tier this CPU supports reproduces
// LogicalXbar::mvm_bit_accurate_reference bit-exactly, outputs and stats:
// the popcount kernel (clipped ADC), and the exact kernel in both
// orientations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/core/mode_groups.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/core/schedule.h"
#include "red/fault/campaign.h"
#include "red/fault/inject.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"
#include "red/report/evaluation.h"
#include "red/sim/engine.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"
#include "red/xbar/analog.h"
#include "red/xbar/crossbar.h"

// Global allocation counter backing the warm-path no-allocation assertions:
// a workspace-based benchmark loop that heap-allocates is a perf regression
// the timings alone would hide.
std::atomic<std::int64_t> g_heap_allocs{0};

// noinline: keeps GCC from inlining the malloc/free pair into call sites,
// where -Wmismatched-new-delete would flag the (intentional) combination.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace red;

// Set when any benchmark loop trips an in-run assertion; main() turns it into
// a non-zero exit so the bench_smoke ctest entry actually gates.
std::atomic<bool> g_bench_failed{false};

xbar::LogicalXbar make_xbar(std::int64_t rows, std::int64_t cols,
                            xbar::QuantConfig q = xbar::QuantConfig{}) {
  Rng rng(1);
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * cols));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  return xbar::LogicalXbar(rows, cols, w, q);
}

std::vector<std::int32_t> make_input(std::int64_t rows) {
  Rng rng(2);
  std::vector<std::int32_t> in(static_cast<std::size_t>(rows));
  for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  return in;
}

xbar::QuantConfig clipped_config() {
  xbar::QuantConfig q;
  q.adc.mode = xbar::AdcMode::kClipped;
  q.adc.bits = 6;
  return q;
}

/// make_xbar(rows, cols, q) under a clipped ADC at its lossless_adc_bits():
/// bit-accurate calls run the popcount kernel (an ideal ADC runs the exact
/// one), and outputs still equal the ideal ADC's when dac_bits is 1.
xbar::LogicalXbar make_lossless_clipped_xbar(std::int64_t rows, std::int64_t cols,
                                             xbar::QuantConfig q = xbar::QuantConfig{}) {
  q.adc = {xbar::AdcMode::kClipped, make_xbar(rows, cols, q).lossless_adc_bits()};
  return make_xbar(rows, cols, q);
}

void BM_MvmFastPath(benchmark::State& state) {
  const auto rows = state.range(0);
  const auto xb = make_xbar(rows, 64);
  const auto in = make_input(rows);
  for (auto _ : state) benchmark::DoNotOptimize(xb.mvm(in));
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_MvmFastPath)->Arg(128)->Arg(512)->Arg(2048);

// The "before" of BENCH_mvm.json: the original column-major slice/bit-plane
// walk the fast kernels are equivalence-gated against.
void BM_MvmBitAccurateReference(benchmark::State& state) {
  const auto rows = state.range(0);
  const auto xb = make_xbar(rows, 64);
  const auto in = make_input(rows);
  for (auto _ : state) benchmark::DoNotOptimize(xb.mvm_bit_accurate_reference(in));
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_MvmBitAccurateReference)->Arg(128)->Arg(512);

void BM_MvmBitAccurate(benchmark::State& state) {
  const auto rows = state.range(0);
  const auto xb = make_xbar(rows, 64);
  const auto in = make_input(rows);
  for (auto _ : state) benchmark::DoNotOptimize(xb.mvm_bit_accurate(in));
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_MvmBitAccurate)->Arg(128)->Arg(512);

// Zero-allocation workspace overload (the hot-loop form the designs use).
void BM_MvmBitAccurateWorkspace(benchmark::State& state) {
  const auto rows = state.range(0);
  const auto xb = make_xbar(rows, 64);
  const auto in = make_input(rows);
  perf::MvmWorkspace ws;
  for (auto _ : state) benchmark::DoNotOptimize(xb.mvm_bit_accurate(in, ws));
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_MvmBitAccurateWorkspace)->Arg(128)->Arg(512);

// One workspace row per popcount tier, under a clipped ADC at its lossless
// resolution, so BENCH_mvm.json carries the portable fallback next to the
// AVX2/AVX-512 kernels on every run. The label records the tier that
// actually ran (requests above the machine's support clamp down).
void BM_MvmPackedIsa(benchmark::State& state, perf::MvmIsa isa) {
  const auto rows = state.range(0);
  const auto xb = make_lossless_clipped_xbar(rows, 64);
  const auto in = make_input(rows);
  state.SetLabel(perf::mvm_isa_name(std::min(isa, perf::mvm_active_isa())));
  perf::MvmWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(perf::detail::mvm_bit_accurate_on(isa, xb, in, ws));
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK_CAPTURE(BM_MvmPackedIsa, portable, perf::MvmIsa::kPortable)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(BM_MvmPackedIsa, avx2, perf::MvmIsa::kAvx2)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(BM_MvmPackedIsa, avx512, perf::MvmIsa::kAvx512)->Arg(128)->Arg(512);

// Exact vs bit-accurate MVM on the macros RED programs for dcgan at
// channels / 4 (the streamed end-to-end workload), with post-ReLU inputs:
// non-negative, about half zeros, under a clipped ADC at its lossless
// resolution so bitacc:1 runs the popcount kernel. The exact row sweep skips
// the zero rows; the packed kernel visits every input bit-plane regardless.
void BM_MvmDcganMacro(benchmark::State& state) {
  const auto plan = plan::plan_stack(core::DesignKind::kRed, workloads::named_stack("dcgan", 4),
                                     arch::DesignConfig{});
  const auto& layer = plan.layers[static_cast<std::size_t>(state.range(0))];
  const std::int64_t rows = layer.activity.macros.front().rows;
  const std::int64_t cols = layer.spec.m;
  const bool bit_accurate = state.range(1) != 0;
  const auto xb = make_lossless_clipped_xbar(rows, cols);
  Rng rng(6);
  std::vector<std::int32_t> in(static_cast<std::size_t>(rows));
  for (auto& v : in)
    v = rng.bernoulli(0.5) ? 0 : static_cast<std::int32_t>(rng.uniform_int(1, 127));
  state.SetLabel(std::to_string(rows) + "x" + std::to_string(cols));
  perf::MvmWorkspace ws;
  for (auto _ : state) benchmark::DoNotOptimize(xb.mvm_batch(in, 1, bit_accurate, ws));
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_MvmDcganMacro)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->ArgNames({"stage", "bitacc"});

/// Shape (rows x cols) of RED's group macro for dcgan/div4 stage `stage`.
std::pair<std::int64_t, std::int64_t> dcgan_macro(std::int64_t stage) {
  const auto plan = plan::plan_stack(core::DesignKind::kRed, workloads::named_stack("dcgan", 4),
                                     arch::DesignConfig{});
  const auto& layer = plan.layers[static_cast<std::size_t>(stage)];
  return {layer.activity.macros.front().rows, layer.spec.m};
}

/// `n` post-ReLU activations: non-negative, about half zeros.
std::vector<std::int32_t> post_relu_input(std::int64_t n) {
  Rng rng(6);
  std::vector<std::int32_t> in(static_cast<std::size_t>(n));
  for (auto& v : in)
    v = rng.bernoulli(0.5) ? 0 : static_cast<std::int32_t>(rng.uniform_int(1, 127));
  return in;
}

// The exact kernel per tier on the dcgan macros, 32 vectors per call (RED's
// stage-3 block row), in the orientation the tier's rule picks: across the
// columns, or across the batch below one vector of columns (stage 3's
// 288x3). The label records the tier that ran and the orientation.
void BM_MvmDcganMacroExact(benchmark::State& state, perf::MvmIsa isa) {
  const auto [rows, cols] = dcgan_macro(state.range(0));
  constexpr std::int64_t kBatch = 32;
  const auto xb = make_xbar(rows, cols);
  const auto in = post_relu_input(rows * kBatch);
  const perf::MvmIsa ran = std::min(isa, perf::mvm_active_isa());
  const auto sweep =
      cols < perf::mvm_lanes(ran) ? perf::ExactSweep::kBatch : perf::ExactSweep::kColumns;
  state.SetLabel(std::to_string(rows) + "x" + std::to_string(cols) + " " +
                 perf::mvm_isa_name(ran) +
                 (sweep == perf::ExactSweep::kBatch ? " batch-sweep" : " col-sweep"));
  perf::MvmWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(perf::detail::mvm_exact_on(isa, sweep, xb, in, kBatch, ws));
  state.SetItemsProcessed(state.iterations() * rows * cols * kBatch);
}
BENCHMARK_CAPTURE(BM_MvmDcganMacroExact, portable, perf::MvmIsa::kPortable)
    ->DenseRange(0, 3)
    ->ArgName("stage");
BENCHMARK_CAPTURE(BM_MvmDcganMacroExact, avx2, perf::MvmIsa::kAvx2)
    ->DenseRange(0, 3)
    ->ArgName("stage");
BENCHMARK_CAPTURE(BM_MvmDcganMacroExact, avx512, perf::MvmIsa::kAvx512)
    ->DenseRange(0, 3)
    ->ArgName("stage");

// Stage 3's 288x3 macro on a 32-vector block at the active tier: batch-minor
// inputs read in place (what RED's gather writes, mode:1) vs vector-major
// inputs swept across the columns, one vector at a time (mode:0).
void BM_MvmDcganStage3BatchMinor(benchmark::State& state) {
  const auto [rows, cols] = dcgan_macro(3);
  constexpr std::int64_t kBatch = 32;
  const auto xb = make_xbar(rows, cols);
  const auto in = post_relu_input(rows * kBatch);
  const bool batch_minor = state.range(0) != 0;
  state.SetLabel(std::to_string(rows) + "x" + std::to_string(cols) + " " +
                 perf::mvm_isa_name(perf::mvm_active_isa()));
  perf::MvmWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        batch_minor ? perf::mvm_exact_batch_minor(xb, in, kBatch, ws)
                    : perf::detail::mvm_exact_on(perf::mvm_active_isa(),
                                                 perf::ExactSweep::kColumns, xb, in, kBatch, ws));
  state.SetItemsProcessed(state.iterations() * rows * cols * kBatch);
}
BENCHMARK(BM_MvmDcganStage3BatchMinor)->Arg(0)->Arg(1)->ArgName("mode");

// Saturating-ADC regime: exercises the per-pulse compacted clipped kernel
// (reference and fast variants, for the before/after report).
void BM_MvmClippedReference(benchmark::State& state) {
  const auto rows = state.range(0);
  const auto xb = make_xbar(rows, 64, clipped_config());
  const auto in = make_input(rows);
  for (auto _ : state) benchmark::DoNotOptimize(xb.mvm_bit_accurate_reference(in));
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_MvmClippedReference)->Arg(128)->Arg(512);

void BM_MvmClipped(benchmark::State& state) {
  const auto rows = state.range(0);
  const auto xb = make_xbar(rows, 64, clipped_config());
  const auto in = make_input(rows);
  perf::MvmWorkspace ws;
  for (auto _ : state) benchmark::DoNotOptimize(xb.mvm_bit_accurate(in, ws));
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_MvmClipped)->Arg(128)->Arg(512);

// Batched popcount API over one crossbar (amortized encoding setup +
// buffers). The first call sizes every workspace buffer for the (rows,
// batch) shape; warm calls must then be allocation-free, asserted via the
// global new counter.
void BM_MvmBatch(benchmark::State& state) {
  const std::int64_t rows = 128;
  const auto batch = state.range(0);
  const auto xb = make_lossless_clipped_xbar(rows, 64);
  const auto in = make_input(rows * batch);
  perf::MvmWorkspace ws;
  benchmark::DoNotOptimize(xb.mvm_batch(in, batch, /*bit_accurate=*/true, ws));  // size once
  const std::int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state)
    benchmark::DoNotOptimize(xb.mvm_batch(in, batch, /*bit_accurate=*/true, ws));
  if (g_heap_allocs.load(std::memory_order_relaxed) != allocs_before) {
    g_bench_failed.store(true, std::memory_order_relaxed);
    state.SkipWithError("mvm_batch heap-allocated on the warm path");
  }
  state.SetItemsProcessed(state.iterations() * rows * 64 * batch);
}
BENCHMARK(BM_MvmBatch)->Arg(8)->Arg(64);

// Programming one crossbar (LogicalXbar's constructor: range check, slice
// levels, column sums, narrow weights) on the macro shapes sngan/div4 gives
// the zero-padding design (rows = KH*KW*C, cols = M; programmed once) and
// the padding-free one (rows = C, cols = KH*KW*M; reprogrammed per image).
void BM_XbarProgram(benchmark::State& state) {
  const nn::DeconvLayerSpec spec =
      workloads::named_stack("sngan", 4)[static_cast<std::size_t>(state.range(0))];
  const bool padding_free = state.range(1) != 0;
  const std::int64_t taps = std::int64_t{spec.kh} * spec.kw;
  const std::int64_t rows = padding_free ? spec.c : taps * spec.c;
  const std::int64_t cols = padding_free ? taps * spec.m : spec.m;
  Rng rng(7);
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * cols));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  state.SetLabel(std::to_string(rows) + "x" + std::to_string(cols) +
                 (padding_free ? " pf" : " zp"));
  for (auto _ : state) benchmark::DoNotOptimize(xbar::LogicalXbar(rows, cols, w, {}));
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_XbarProgram)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"stage", "pf"});

// The fault-repair workload's environment (e2ebench fault_environment():
// rare stuck cells, 0.1% faulty lines, drift sigma 0.2) and its repair
// policy (4 spare rows and columns, row remap, write-verify with 2 retries).
fault::FaultModel fault_repair_model() {
  fault::FaultModel model;
  model.sa0_rate = 2.5e-5;
  model.sa1_rate = 2.5e-5;
  model.wordline_rate = 0.001;
  model.bitline_rate = 0.001;
  model.drift_sigma = 0.2;
  return model;
}

fault::RepairPolicy fault_repair_policy() {
  fault::RepairPolicy policy;
  policy.spare_rows = 4;
  policy.spare_cols = 4;
  policy.remap_rows = true;
  policy.verify_retries = 2;
  return policy;
}

// Fault injection on a GAN_Deconv4 mode-group crossbar (4 sub-crossbars of
// 512 channels: 2048x256, 1024 physical columns at 2-bit cells), under the
// fault-repair workload's environment. arm:0 draws and repairs under the
// bare policy, arm:1 under the repaired one (fault::inject_faults: one draw
// pass plus one repair each); arm:both is what a campaign trial does, one
// draw pass (fault::draw_faults) and both repairs from it.
void BM_InjectFaults(benchmark::State& state, int arm) {
  const nn::DeconvLayerSpec spec = workloads::gan_deconv4();
  Rng rng(1);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto groups = core::compute_mode_groups(spec);
  std::vector<std::int32_t> w;
  for (const auto& sc : groups.front().scs) {
    const auto blk = core::sc_block(spec, kernel, sc);
    w.insert(w.end(), blk.begin(), blk.end());
  }
  const xbar::LogicalXbar clean(std::ssize(groups.front().scs) * spec.c, spec.m, w, {});
  fault::FaultModel model = fault_repair_model();
  const fault::RepairPolicy arms[] = {fault::RepairPolicy{}, fault_repair_policy()};
  state.SetLabel(std::to_string(clean.rows()) + "x" + std::to_string(clean.cols()));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    model.seed = seed++;
    if (arm < 2) {
      benchmark::DoNotOptimize(fault::inject_faults(clean, model, arms[arm]));
      continue;
    }
    const fault::FaultDraw draw = fault::draw_faults(clean, model, arms);
    for (const auto& policy : arms)
      benchmark::DoNotOptimize(fault::repair_faults(clean, draw, policy));
  }
  state.SetItemsProcessed(state.iterations() * clean.rows() * clean.phys_cols());
}
BENCHMARK_CAPTURE(BM_InjectFaults, arm:0, 0)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InjectFaults, arm:1, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InjectFaults, arm:both, 2)->Unit(benchmark::kMillisecond);

// One fault-repair campaign call (fault::run_fault_campaign): GAN_Deconv4 on
// RED, 2 trials on 2 lanes, each trial a bare and a repaired arm, under the
// workload's environment. The clean layer is programmed inside the call, as
// the workload does; the base seed advances per iteration. At least 1 s of
// calls: the first one also starts the pool and faults in ~50 MB, which a
// handful of iterations would average in.
void BM_FaultCampaignCall(benchmark::State& state) {
  const nn::DeconvLayerSpec spec = workloads::gan_deconv4();
  Rng rng(1);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  fault::FaultCampaignOptions opts;
  opts.trials = 2;
  opts.threads = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::run_fault_campaign(
        core::DesignKind::kRed, arch::DesignConfig{}, {fault_repair_model()},
        fault_repair_policy(), spec, input, kernel, opts));
    opts.base_seed += 2;
  }
}
BENCHMARK(BM_FaultCampaignCall)->Unit(benchmark::kMillisecond)->UseRealTime()->MinTime(1.0);

// Zero padding's programmed run on each dcgan/div4 stage (bit-accurate under
// an ideal ADC, so the exact kernel; one thread). Windows are row copies of
// the zero-inserted plane: vector-major on stages 0-2, batch-minor on stage
// 3, whose 800x3 macro is narrower than one vector (the exact kernel's batch
// sweep reads them in place).
void BM_ZpRun(benchmark::State& state) {
  const auto stack = workloads::named_stack("dcgan", 4);
  const auto i = static_cast<std::size_t>(state.range(0));
  const auto kernels = workloads::make_stack_kernels(stack, 5);
  arch::DesignConfig cfg;
  cfg.bit_accurate = true;
  const auto layer =
      core::make_design(core::DesignKind::kZeroPadding, cfg)->program(stack[i], kernels[i]);
  Rng rng(17 + i);
  const auto input = workloads::make_input(stack[i], rng, 0, 7);
  const auto& spec = stack[i];
  state.SetLabel(std::to_string(std::int64_t{spec.kh} * spec.kw * spec.c) + "x" +
                 std::to_string(spec.m));
  for (auto _ : state) benchmark::DoNotOptimize(layer->run(input));
}
BENCHMARK(BM_ZpRun)->DenseRange(0, 3)->ArgName("stage")->Unit(benchmark::kMicrosecond);

void BM_DesignRun(benchmark::State& state) {
  const auto kind = static_cast<core::DesignKind>(state.range(0));
  const auto design = core::make_design(kind);
  // Reduced-channel SNGAN layer: full spatial structure, fast execution.
  nn::DeconvLayerSpec spec{"bench", 4, 4, 32, 16, 4, 4, 2, 1, 0};
  Rng rng(3);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  for (auto _ : state) benchmark::DoNotOptimize(design->run(spec, input, kernel));
}
BENCHMARK(BM_DesignRun)
    ->Arg(static_cast<int>(core::DesignKind::kZeroPadding))
    ->Arg(static_cast<int>(core::DesignKind::kPaddingFree))
    ->Arg(static_cast<int>(core::DesignKind::kRed));

// Whole-network functional simulation (SNGAN generator, reduced channels)
// at 1..N worker lanes: the network-level scaling the threading layer buys.
void BM_SimulateNetwork(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto stack = workloads::sngan_generator(/*channel_div=*/8);
  Rng rng(5);
  std::vector<Tensor<std::int32_t>> inputs, kernels;
  for (const auto& layer : stack) {
    inputs.push_back(workloads::make_input(layer, rng, 1, 7));
    kernels.push_back(workloads::make_kernel(layer, rng, -7, 7));
  }
  arch::DesignConfig cfg;
  cfg.threads = threads;
  const auto design = core::make_design(core::DesignKind::kZeroPadding, cfg);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::simulate_network(*design, stack, inputs, kernels, /*check=*/false, threads));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(stack.size()));
}
BENCHMARK(BM_SimulateNetwork)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_AnalyticCostTable1(benchmark::State& state) {
  const auto specs = workloads::table1_benchmarks();
  for (auto _ : state)
    benchmark::DoNotOptimize(report::compare_layers(specs));
  state.SetItemsProcessed(state.iterations() * specs.size() * 3);
}
BENCHMARK(BM_AnalyticCostTable1);

void BM_ScheduleGeneration(benchmark::State& state) {
  const nn::DeconvLayerSpec spec{"sched", 70, 70, 21, 21, 16, 16, 8, 0, 0};
  const core::ZeroSkipSchedule schedule(spec, 2);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule.cycle(i));
    i = (i + 1) % schedule.num_cycles();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleGeneration);

void BM_AnalogIrDropSolve(benchmark::State& state) {
  const auto side = state.range(0);
  Rng rng(4);
  std::vector<std::uint8_t> levels(static_cast<std::size_t>(side * side));
  for (auto& l : levels) l = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  std::vector<std::uint8_t> inputs(static_cast<std::size_t>(side), 1);
  xbar::AnalogConfig cfg;
  for (auto _ : state)
    benchmark::DoNotOptimize(xbar::solve_crossbar_read(levels, side, side, 3, inputs, cfg));
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_AnalogIrDropSolve)->Arg(32)->Arg(64);

// bench_smoke oracle gate: every tier this CPU supports must reproduce the
// reference bit-exactly (outputs AND MvmStats) before any timing is
// reported — the popcount kernel, and the exact kernel (clips aside) in both
// orientations on a 5-vector batch. Runs over lossless-clipped, clipped, and
// multi-bit-DAC (lossless-clipped) regimes on shapes that cross 64-bit word
// boundaries, plus a 3-column macro narrower than any vector. The popcount
// kernel runs only under a clipped ADC, so every regime is clipped; the
// exact oracle is an ideal-ADC copy of the same weights.
bool kernels_match_oracle() {
  xbar::QuantConfig dac2;
  dac2.dac_bits = 2;
  const xbar::QuantConfig regimes[] = {xbar::QuantConfig{}, clipped_config(), dac2};
  bool ok = true;
  for (const auto& q : regimes) {
    for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{129, 33},
                                     {512, 33}, {288, 3}}) {
      const auto xb = q.adc.mode == xbar::AdcMode::kClipped
                          ? make_xbar(rows, cols, q)
                          : make_lossless_clipped_xbar(rows, cols, q);
      Rng rng(2);
      constexpr std::int64_t kBatch = 5;
      std::vector<std::int32_t> in(static_cast<std::size_t>(rows * kBatch));
      const std::int64_t lo = q.dac_bits == 1 ? -(std::int64_t{1} << (q.abits - 1)) : 0;
      const std::int64_t hi = q.dac_bits == 1 ? (std::int64_t{1} << (q.abits - 1)) - 1
                                              : (std::int64_t{1} << q.abits) - 1;
      for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(lo, hi));
      const std::span<const std::int32_t> first(in.data(), static_cast<std::size_t>(rows));
      xbar::MvmStats ref_stats;
      const auto ref = xb.mvm_bit_accurate_reference(first, &ref_stats);
      // The exact oracle: the reference per vector, with ideal-ADC outputs.
      xbar::QuantConfig ideal = q;
      ideal.adc = xbar::AdcConfig{};
      xbar::LogicalXbar ideal_xb(rows, cols, xb.stored_weights(), ideal);
      std::vector<std::int64_t> exact_ref;
      xbar::MvmStats exact_stats;
      for (std::int64_t v = 0; v < kBatch; ++v) {
        const auto out = ideal_xb.mvm_bit_accurate_reference(
            std::span<const std::int32_t>(in).subspan(static_cast<std::size_t>(v * rows),
                                                      static_cast<std::size_t>(rows)),
            &exact_stats);
        exact_ref.insert(exact_ref.end(), out.begin(), out.end());
      }
      const auto mismatch = [&](const char* kernel, perf::MvmIsa isa) {
        std::fprintf(stderr, "oracle mismatch: %s kernel, tier %s, %lldx%lld\n", kernel,
                     perf::mvm_isa_name(isa), static_cast<long long>(rows),
                     static_cast<long long>(cols));
        ok = false;
      };
      for (const auto isa : {perf::MvmIsa::kPortable, perf::MvmIsa::kAvx2, perf::MvmIsa::kAvx512}) {
        if (isa > perf::mvm_active_isa()) continue;
        perf::MvmWorkspace ws;
        xbar::MvmStats got_stats;
        const auto got = perf::detail::mvm_bit_accurate_on(isa, xb, first, ws, &got_stats);
        if (std::vector<std::int64_t>(got.begin(), got.end()) != ref || got_stats != ref_stats)
          mismatch("popcount", isa);
        for (const auto sweep : {perf::ExactSweep::kColumns, perf::ExactSweep::kBatch}) {
          xbar::MvmStats stats;
          const auto exact = perf::detail::mvm_exact_on(isa, sweep, xb, in, kBatch, ws, &stats);
          if (std::vector<std::int64_t>(exact.begin(), exact.end()) != exact_ref ||
              stats != exact_stats)
            mismatch(sweep == perf::ExactSweep::kBatch ? "exact batch-sweep" : "exact col-sweep",
                     isa);
        }
      }
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kernels_match_oracle()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_bench_failed.load(std::memory_order_relaxed) ? 1 : 0;
}
