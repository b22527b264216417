// Regression tests of the one execution path of the zero-padding and RED
// designs (Design::run == program(), then ProgrammedLayer::run):
//  * bounded gather — a warm programmed run gathers its input chunk by chunk
//    instead of materializing every cycle's input for the whole layer, so
//    its heap traffic stays far below that whole-layer binding;
//  * variation — programming under a variation config equals programming
//    clean and then perturbed() bit for bit, and Design::run,
//    StreamingExecutor and the programmed layer's VariationStats reproduce
//    pinned digests;
//  * one kernel for the ideal ADC — bit-accurate runs under an ideal ADC
//    equal the exact path and build no packed planes; zero padding's
//    windows are pinned to parent-commit digests;
//  * lazy packed planes — only bit-accurate reads under a clipped ADC build
//    a crossbar's packed bit-planes, exactly once per crossbar at any thread
//    count, counted by the xbar.packed_plane_builds telemetry counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "red/common/error.h"
#include "red/common/math_util.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/fault/model.h"
#include "red/nn/deconv_reference.h"
#include "red/perf/thread_pool.h"
#include "red/plan/plan.h"
#include "red/sim/streaming.h"
#include "red/telemetry/metrics.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

// Heap-bytes probe: every operator new in this binary counts its size.
namespace {
std::atomic<std::uint64_t> g_heap_bytes{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every allocation the replaced deletes free came from malloc.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace red {
namespace {

using core::DesignKind;

// ---------------------------------------------------------------------------
// Bounded gather
// ---------------------------------------------------------------------------

TEST(BoundedGather, WarmRunAllocatesFarLessThanWholeLayerBinding) {
  // 64x64x64 input, 4x4 kernel at stride 2: 128x128 output pixels. Binding
  // every cycle's input at once costs 128*128 windows x 1024 rows x 4 B =
  // 64 MiB on zero-padding and 4 groups x 64*64 cycles x 256 rows x 4 B =
  // 16 MiB on RED.
  const nn::DeconvLayerSpec spec{"gather_probe", 64, 64, 64, 4, 4, 4, 2, 1, 0};
  Rng rng(5);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto warm_input = workloads::make_input(spec, rng, 1, 7);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  struct Expect {
    DesignKind kind;
    std::uint64_t binding_bytes;
  };
  for (const Expect e : {Expect{DesignKind::kZeroPadding, std::uint64_t{64} << 20},
                         Expect{DesignKind::kRed, std::uint64_t{16} << 20}}) {
    const auto design = core::make_design(e.kind);
    const auto programmed = design->program(spec, kernel);
    ASSERT_NE(programmed, nullptr);
    (void)programmed->run(warm_input);  // sizes the thread-local workspaces
    const std::uint64_t before = g_heap_bytes.load();
    const auto out = programmed->run(input);
    const std::uint64_t bytes = g_heap_bytes.load() - before;
    // Output tensor, padded input (zero-padding) and per-chunk buffers only.
    EXPECT_LT(bytes, e.binding_bytes / 4) << design->name() << ": " << bytes << " B";
    EXPECT_EQ(out.shape(), spec.output_shape());
  }
}

// ---------------------------------------------------------------------------
// Variation digests
// ---------------------------------------------------------------------------

/// FNV-1a over the exact integer content of outputs and counters.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const Tensor<std::int32_t>& t) {
    for (int d = 0; d < 4; ++d) add(t.shape().dim(d));
    for (std::int64_t i = 0; i < t.size(); ++i) add(t.data()[i]);
  }
  void add(const arch::RunStats& s) {
    for (std::int64_t v : {s.cycles, s.mvm.mvm_ops, s.mvm.row_drives, s.mvm.mac_pulses,
                           s.mvm.conversions, s.mvm.adc_clips, s.overlap_adds,
                           s.buffer_accesses})
      add(v);
  }
  void add(const xbar::VariationStats& v) {
    for (std::int64_t x : {v.cells, v.perturbed_cells, v.stuck_cells, v.sa0_cells, v.sa1_cells})
      add(x);
  }
  void add(const sim::StreamingBatchResult& r) {
    for (const auto& img : r.images) {
      add(img.output);
      for (const auto& s : img.layer_stats) add(s);
    }
  }
};

/// Config 0: exact path. Config 1: bit-accurate with a clipped 4-bit ADC and
/// RED fold 2. Both program noise plus both stuck-at polarities.
arch::DesignConfig pin_config(int which) {
  arch::DesignConfig cfg;
  cfg.quant.variation.level_sigma = 0.4;
  cfg.quant.variation.sa0_rate = 0.01;
  cfg.quant.variation.sa1_rate = 0.02;
  cfg.quant.variation.seed = 99;
  if (which == 1) {
    cfg.bit_accurate = true;
    cfg.quant.adc.mode = xbar::AdcMode::kClipped;
    cfg.quant.adc.bits = 4;
    cfg.red_fold = 2;
  }
  return cfg;
}

TEST(VariationDigests, DesignRunStreamingAndCellStatsArePinned) {
  const nn::DeconvLayerSpec spec{"var_pin", 5, 5, 4, 3, 4, 4, 2, 1, 1};
  Rng rng(31);
  const auto input = workloads::make_input(spec, rng, 0, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 2, 21);

  struct Pin {
    int cfg;
    DesignKind kind;
    std::uint64_t run, stream, variation;
  };
  // variation == 0: padding-free has no programmed layer to report it.
  // stream: stage i programs with variation salt i, so each layer of the
  // stack draws its own mask (padding-free's per-image fallback still
  // programs every stage at salt 0).
  const Pin pins[] = {
      {0, DesignKind::kZeroPadding, 0x0561881f8a9c2a21ULL, 0x49b1e805ab6e1acdULL,
       0x272e1e9b5c809811ULL},
      {0, DesignKind::kPaddingFree, 0x670e3fdcf8a65097ULL, 0x6ed5513e607409daULL, 0},
      {0, DesignKind::kRed, 0x6bbb7c239c2cf8eeULL, 0x57e8eff5baf20479ULL,
       0xe086b69840af295dULL},
      {1, DesignKind::kZeroPadding, 0x09864d9f121dac36ULL, 0x20c071a94314b6d1ULL,
       0x272e1e9b5c809811ULL},
      {1, DesignKind::kPaddingFree, 0x670e3fdcf8a65097ULL, 0xbcfcb1f0804c2442ULL, 0},
      {1, DesignKind::kRed, 0x585d27281dfb98a6ULL, 0xce8c7a9babf8958cULL,
       0xe086b69840af295dULL},
  };
  for (const Pin& pin : pins) {
    const bool programmable = pin.kind != DesignKind::kPaddingFree;
    for (const int threads : {1, 3}) {
      auto cfg = pin_config(pin.cfg);
      cfg.threads = threads;
      const auto design = core::make_design(pin.kind, cfg);
      const std::string what = design->name() + " cfg " + std::to_string(pin.cfg) +
                               " threads " + std::to_string(threads);

      arch::RunStats stats;
      Digest run;
      run.add(design->run(spec, input, kernel, &stats));
      run.add(stats);
      EXPECT_EQ(run.h, pin.run) << what;

      const sim::StreamingExecutor executor(pin.kind, cfg, stack, kernels);
      EXPECT_EQ(executor.programmed_fast_path(), programmable) << what;
      sim::StreamingOptions opts;
      opts.threads = 2;
      Digest wave;
      wave.add(executor.stream(images, opts));
      EXPECT_EQ(wave.h, pin.stream) << what;

      if (programmable) {
        Digest variation;
        variation.add(design->program(spec, kernel)->variation_stats());
        EXPECT_EQ(variation.h, pin.variation) << what;
      }
    }
  }
}

TEST(VariationDigests, ProgramUnderVariationEqualsCleanThenPerturbed) {
  // Both sampler branches (noise-only low sigma: geometric skip; stuck-at:
  // per-cell walk), the exact and the bit-accurate path, threads 1 and 3.
  const nn::DeconvLayerSpec spec{"var_contract", 5, 5, 4, 3, 4, 4, 2, 1, 1};
  Rng rng(32);
  const auto input = workloads::make_input(spec, rng, 0, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  xbar::VariationModel skip;
  skip.level_sigma = 0.3;
  skip.seed = 5;
  const xbar::VariationModel walk = pin_config(0).quant.variation;
  for (const auto& var : {skip, walk}) {
    for (const int which : {0, 1}) {
      for (const int threads : {1, 3}) {
        for (const auto kind : {DesignKind::kZeroPadding, DesignKind::kRed}) {
          auto clean_cfg = pin_config(which);
          clean_cfg.quant.variation = {};
          clean_cfg.threads = threads;
          auto cfg = clean_cfg;
          cfg.quant.variation = var;
          const auto design = core::make_design(kind, cfg);
          const std::string what = design->name() + " cfg " + std::to_string(which) +
                                   " sigma " + std::to_string(var.level_sigma) + " threads " +
                                   std::to_string(threads);
          const auto perturbed =
              core::make_design(kind, clean_cfg)->program(spec, kernel)->perturbed(var);
          const auto programmed = design->program(spec, kernel);
          Digest expected, got, run;
          arch::RunStats stats;
          expected.add(perturbed->run(input, &stats));
          expected.add(stats);
          expected.add(perturbed->variation_stats());
          got.add(programmed->run(input, &stats));
          got.add(stats);
          got.add(programmed->variation_stats());
          run.add(design->run(spec, input, kernel, &stats));
          run.add(stats);
          run.add(perturbed->variation_stats());
          EXPECT_EQ(got.h, expected.h) << what;
          EXPECT_EQ(run.h, expected.h) << what;
          EXPECT_GT(perturbed->variation_stats().perturbed_cells, 0) << what;
        }
      }
    }
  }
}

TEST(VariationDigests, PaddingFreeRunUsesCleanCrossbarPlusVariation) {
  // Padding-free has no programmed layer; its per-image crossbar is built
  // the same way, so under variation it computes the deconvolution of the
  // weights stored by the clean macro plus the variation pass (salt 0).
  const nn::DeconvLayerSpec spec{"var_pf", 5, 5, 4, 3, 4, 4, 2, 1, 1};
  Rng rng(33);
  const auto input = workloads::make_input(spec, rng, 0, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  // Macro layout: column (i*KW + j)*M + m of row c holds W[i,j,c,m].
  const std::int64_t lcols = std::int64_t{spec.kh} * spec.kw * spec.m;
  const auto column = [&](int i, int j, int m) {
    return (std::int64_t{i} * spec.kw + j) * spec.m + m;
  };
  std::vector<std::int32_t> w(static_cast<std::size_t>(spec.c * lcols));
  for (int i = 0; i < spec.kh; ++i)
    for (int j = 0; j < spec.kw; ++j)
      for (int c = 0; c < spec.c; ++c)
        for (int m = 0; m < spec.m; ++m)
          w[static_cast<std::size_t>(c * lcols + column(i, j, m))] = kernel.at(i, j, c, m);
  const xbar::LogicalXbar clean(spec.c, lcols, w, xbar::QuantConfig{});
  xbar::VariationModel skip;
  skip.level_sigma = 0.3;
  for (const auto& var : {skip, pin_config(0).quant.variation}) {
    const xbar::LogicalXbar noisy(clean, var, 0);
    Tensor<std::int32_t> stored_kernel(spec.kernel_shape());
    for (int i = 0; i < spec.kh; ++i)
      for (int j = 0; j < spec.kw; ++j)
        for (int c = 0; c < spec.c; ++c)
          for (int m = 0; m < spec.m; ++m)
            stored_kernel.at(i, j, c, m) = noisy.stored_weight(c, column(i, j, m));
    const auto expected = nn::deconv_reference(spec, input, stored_kernel);
    for (const bool bit_accurate : {false, true}) {
      arch::DesignConfig cfg;
      cfg.quant.variation = var;
      cfg.bit_accurate = bit_accurate;
      const auto out = core::make_design(DesignKind::kPaddingFree, cfg)->run(spec, input, kernel);
      EXPECT_EQ(first_mismatch(expected, out), "")
          << "sigma " << var.level_sigma << " bit-accurate " << bit_accurate;
      EXPECT_NE(first_mismatch(nn::deconv_reference(spec, input, kernel), out), "");
    }
  }
}

TEST(VariationDigests, VariationEnabledLayerRefusesFurtherPerturbation) {
  // perturbed() and faulted() derive from clean levels; the crossbar layer
  // rejects a variation-enabled base.
  const nn::DeconvLayerSpec spec{"var_base", 4, 4, 2, 2, 3, 3, 2, 1, 0};
  Rng rng(8);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  for (const auto kind : {DesignKind::kZeroPadding, DesignKind::kRed}) {
    const auto programmed = core::make_design(kind, pin_config(0))->program(spec, kernel);
    ASSERT_NE(programmed, nullptr);
    EXPECT_THROW((void)programmed->perturbed(xbar::VariationModel{}), ContractViolation);
    EXPECT_THROW((void)programmed->faulted(fault::FaultModel{}, fault::RepairPolicy{}),
                 ContractViolation);
  }
}

// ---------------------------------------------------------------------------
// Lazy packed planes
// ---------------------------------------------------------------------------

/// xbar.packed_plane_builds over `work`, on a registry of its own.
template <typename Work>
std::uint64_t packed_plane_builds(Work&& work) {
  telemetry::MetricsRegistry registry;
  telemetry::install_metrics(&registry);
  work();
  telemetry::install_metrics(nullptr);
  return registry.counter("xbar.packed_plane_builds")->value();
}

TEST(PackedPlanes, ExactPathNeverBuildsThem) {
  const nn::DeconvLayerSpec spec{"exact_planes", 6, 6, 8, 4, 4, 4, 2, 1, 0};
  Rng rng(12);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  fault::FaultModel model;
  model.sa0_rate = 0.01;
  model.wordline_rate = 0.05;
  model.drift_sigma = 0.3;
  fault::RepairPolicy policy;
  policy.remap_rows = true;
  policy.verify_retries = 2;
  for (const auto kind : {DesignKind::kZeroPadding, DesignKind::kRed}) {
    const auto builds = packed_plane_builds([&] {
      const auto programmed = core::make_design(kind)->program(spec, kernel);
      (void)programmed->run(input);
      (void)programmed->faulted(model, policy)->run(input);
    });
    EXPECT_EQ(builds, 0u) << core::make_design(kind)->name();
  }
}

// The popcount kernel runs only under a clipped ADC. At a resolution that
// holds the tallest macro's worst column sum (rows * max_level) it is
// lossless, so outputs equal the ideal-ADC run.
TEST(PackedPlanes, BitAccurateRunBuildsEachCrossbarOnceAtAnyThreadCount) {
  const nn::DeconvLayerSpec spec{"bitacc_planes", 6, 6, 8, 4, 4, 4, 2, 1, 0};
  Rng rng(13);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  for (const int threads : {1, 4}) {
    arch::DesignConfig cfg;
    cfg.bit_accurate = true;
    cfg.threads = threads;
    cfg.quant.adc = {xbar::AdcMode::kClipped,
                     ilog2_ceil(std::int64_t{spec.kh} * spec.kw * spec.c *
                                    cfg.quant.max_level() + 1)};
    const std::uint64_t red_xbars = plan::plan_layer(DesignKind::kRed, spec, cfg).groups.size();
    ASSERT_GT(red_xbars, 1u);
    for (const auto& [kind, xbars] : {std::pair{DesignKind::kZeroPadding, std::uint64_t{1}},
                                      std::pair{DesignKind::kRed, red_xbars}}) {
      const auto programmed = core::make_design(kind, cfg)->program(spec, kernel);
      const std::string what =
          core::make_design(kind, cfg)->name() + " threads " + std::to_string(threads);
      Tensor<std::int32_t> out;
      EXPECT_EQ(packed_plane_builds([&] { out = programmed->run(input); }), xbars) << what;
      EXPECT_EQ(packed_plane_builds([&] { (void)programmed->run(input); }), 0u) << what;
      EXPECT_EQ(out, core::make_design(kind)->program(spec, kernel)->run(input)) << what;
    }
  }

  // Concurrent first readers of one crossbar: one of them builds.
  Rng wrng(14);
  std::vector<std::int32_t> w(130 * 6);
  for (auto& v : w) v = static_cast<std::int32_t>(wrng.uniform_int(-128, 127));
  const xbar::LogicalXbar ideal(130, 6, w, xbar::QuantConfig{});
  EXPECT_THROW((void)ideal.ensure_packed_planes(), ContractViolation);
  xbar::QuantConfig clipped;
  clipped.adc = {xbar::AdcMode::kClipped, ideal.lossless_adc_bits()};
  const xbar::LogicalXbar xb(130, 6, w, clipped);
  std::vector<std::int32_t> x(130);
  for (auto& v : x) v = static_cast<std::int32_t>(wrng.uniform_int(-128, 127));
  const auto expected = ideal.mvm(x);
  std::vector<std::vector<std::int64_t>> outs(8);
  EXPECT_EQ(packed_plane_builds([&] {
              perf::parallel_for_shared(8, [&](std::int64_t i) {
                outs[static_cast<std::size_t>(i)] = xb.mvm_bit_accurate(x);
              });
            }),
            1u);
  for (const auto& out : outs) EXPECT_EQ(out, expected);
}

// ---------------------------------------------------------------------------
// One kernel for the ideal ADC
// ---------------------------------------------------------------------------

/// Zero padding on every dcgan/div4 stage, pinned per stage to digests taken
/// at the parent commit (before ZP built its windows by row copies): the
/// exact path and bit-accurate with an ideal ADC (one pin: they must agree),
/// and bit-accurate under a clipped 6-bit ADC, at 1 and 4 threads. Stage 3's
/// 800x3 macro reads its windows batch-minor on the exact kernel.
TEST(ZeroPaddingDigests, DcganDiv4OutputsAndRunStatsArePinned) {
  const auto stack = workloads::named_stack("dcgan", 4);
  const auto kernels = workloads::make_stack_kernels(stack, 5);
  const std::uint64_t ideal[] = {0xdffbb867c5b7fe56ULL, 0x4a43575851c340feULL,
                                 0xe7b8fa664d0cf4f5ULL, 0x4216ff204a22e651ULL};
  const std::uint64_t clipped[] = {0xe46cc4b56bed7632ULL, 0x54f0e8072797020dULL,
                                   0x0560dfe3530f6297ULL, 0x147726aecd25b91dULL};
  ASSERT_EQ(stack.size(), 4u);
  for (const int threads : {1, 4})
    for (const int mode : {0, 1, 2}) {
      arch::DesignConfig cfg;
      cfg.threads = threads;
      cfg.bit_accurate = mode != 0;
      if (mode == 2) cfg.quant.adc = {xbar::AdcMode::kClipped, 6};
      for (std::size_t i = 0; i < stack.size(); ++i) {
        Rng rng(17 + i);
        const auto input = workloads::make_input(stack[i], rng, 0, 7);
        arch::RunStats stats;
        Digest d;
        d.add(core::make_design(DesignKind::kZeroPadding, cfg)
                  ->program(stack[i], kernels[i])
                  ->run(input, &stats));
        d.add(stats);
        EXPECT_EQ(d.h, mode == 2 ? clipped[i] : ideal[i])
            << "stage " << i << " mode " << mode << " threads " << threads;
      }
    }
}

/// Under an ideal ADC a bit-accurate run is the exact run: the same
/// outputs and RunStats (MvmStats included), and no packed planes built.
/// Every layer of sngan, dcgan and fcn8s at div 4, on all three designs (4
/// threads: fcn8s_up8's zero-padding run is ~1.8 s serial).
TEST(IdealAdc, BitAccurateRunsEqualTheExactPath) {
  arch::DesignConfig exact_cfg;
  exact_cfg.threads = 4;
  arch::DesignConfig bitacc = exact_cfg;
  bitacc.bit_accurate = true;
  for (const char* net : {"sngan", "dcgan", "fcn8s"}) {
    const auto stack = workloads::named_stack(net, 4);
    const auto kernels = workloads::make_stack_kernels(stack, 3);
    for (std::size_t i = 0; i < stack.size(); ++i) {
      Rng rng(23 + i);
      const auto input = workloads::make_input(stack[i], rng, 0, 7);
      for (const auto kind :
           {DesignKind::kZeroPadding, DesignKind::kPaddingFree, DesignKind::kRed}) {
        const std::string what = core::make_design(kind)->name() + " " + stack[i].name;
        arch::RunStats exact_stats, bitacc_stats;
        const auto exact =
            core::make_design(kind, exact_cfg)->run(stack[i], input, kernels[i], &exact_stats);
        Tensor<std::int32_t> out;
        EXPECT_EQ(packed_plane_builds([&] {
                    out = core::make_design(kind, bitacc)
                              ->run(stack[i], input, kernels[i], &bitacc_stats);
                  }),
                  0u)
            << what;
        EXPECT_EQ(out, exact) << what;
        EXPECT_EQ(bitacc_stats, exact_stats) << what;
      }
    }
  }
}

}  // namespace
}  // namespace red
