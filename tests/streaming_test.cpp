// Tests of the streaming batched execution engine and the ThreadPool
// workload shapes it leans on: equivalence against the deconv_reference +
// requantize chain, thread-count invariance of outputs and stats, the
// ProgrammedLayer batch entry point, and pool behaviour under nesting,
// exceptions, and concurrent caller threads.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "red/common/error.h"
#include "red/core/designs.h"
#include "red/nn/deconv_reference.h"
#include "red/perf/thread_pool.h"
#include "red/plan/plan.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace red::sim {
namespace {

std::vector<nn::DeconvLayerSpec> tiny_stack() {
  // SNGAN generator at 1/64 channels: three chained stages small enough for
  // exhaustive functional comparison.
  return workloads::sngan_generator(64);
}

/// The reference chain image `img` produces: stage i is nn::deconv_reference
/// on the requantized output of stage i-1. Returns the final stage's output.
Tensor<std::int32_t> reference_chain(const std::vector<nn::DeconvLayerSpec>& stack,
                                     const std::vector<Tensor<std::int32_t>>& kernels,
                                     const Tensor<std::int32_t>& img, int abits) {
  Tensor<std::int32_t> x = img;
  for (std::size_t i = 0; i < stack.size(); ++i) {
    Tensor<std::int32_t> out = nn::deconv_reference(stack[i], x, kernels[i]);
    if (i + 1 == stack.size()) return out;
    x = requantize_activations(out, abits);
  }
  return x;
}

TEST(Streaming, MatchesReferenceChainForEveryDesign) {
  const auto stack = tiny_stack();
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 3, 21);

  for (const bool bit_accurate : {false, true})
    for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                      core::DesignKind::kRed}) {
      arch::DesignConfig cfg;
      cfg.bit_accurate = bit_accurate;
      const StreamingExecutor executor(kind, cfg, stack, kernels);
      const std::string what = executor.design_name() + " bitacc=" + std::to_string(bit_accurate);
      // Padding-free has no programmed layer; the executor must say so (and
      // still match through its run() fallback).
      EXPECT_EQ(executor.programmed_fast_path(), kind != core::DesignKind::kPaddingFree);
      for (const int threads : {1, 4}) {
        StreamingOptions opts;  // check on: every cell vs the plan's activity
        opts.threads = threads;
        const auto streamed = executor.stream(images, opts);
        ASSERT_EQ(streamed.images.size(), images.size());
        arch::RunStats batch_total;
        for (std::size_t k = 0; k < images.size(); ++k) {
          EXPECT_EQ(first_mismatch(reference_chain(stack, kernels, images[k], cfg.quant.abits),
                                   streamed.images[k].output),
                    "")
              << what << " image " << k;
          arch::RunStats image_total;
          for (const auto& s : streamed.images[k].layer_stats) image_total += s;
          EXPECT_EQ(streamed.images[k].total, image_total) << what << " image " << k;
          batch_total += image_total;
        }
        EXPECT_EQ(streamed.total, batch_total) << what;
      }
    }
}

TEST(Streaming, DeterministicForAnyThreadCountAndSchedule) {
  const auto stack = tiny_stack();
  const auto kernels = workloads::make_stack_kernels(stack, 5);
  const auto images = workloads::make_input_batch(stack[0], 4, 31);
  const arch::DesignConfig cfg;
  const StreamingExecutor executor(core::DesignKind::kRed, cfg, stack, kernels);

  StreamingOptions serial;
  serial.threads = 1;
  const auto reference = executor.stream(images, serial);

  // Wave lanes, nested stage tiling (cfg.threads), and the layer-major
  // schedule must all reproduce the serial walk bit-exactly.
  std::vector<StreamingBatchResult> candidates;
  for (int threads : {2, 8}) {
    StreamingOptions opts;
    opts.threads = threads;
    candidates.push_back(executor.stream(images, opts));
  }
  arch::DesignConfig tiled_cfg;
  tiled_cfg.threads = 2;
  const StreamingExecutor tiled(core::DesignKind::kRed, tiled_cfg, stack, kernels);
  StreamingOptions nested;
  nested.threads = 2;
  candidates.push_back(tiled.stream(images, nested));
  candidates.push_back(executor.stream_layer_major(images, nested));

  for (const auto& result : candidates) {
    ASSERT_EQ(result.images.size(), reference.images.size());
    EXPECT_EQ(result.total, reference.total);
    for (std::size_t k = 0; k < reference.images.size(); ++k) {
      EXPECT_EQ(first_mismatch(reference.images[k].output, result.images[k].output), "");
      EXPECT_EQ(result.images[k].total, reference.images[k].total);
      for (std::size_t i = 0; i < stack.size(); ++i)
        EXPECT_EQ(result.images[k].layer_stats[i], reference.images[k].layer_stats[i]);
    }
  }
}

/// A variation-enabled stack programs stage i with variation salt i, as
/// faulted() salts its fault masks: two stages with the same spec and
/// kernel draw different masks, not one shared mask.
TEST(Streaming, VariationStagesDrawIndependentMasks) {
  const nn::DeconvLayerSpec same{"same", 6, 6, 4, 4, 3, 3, 1, 1, 0};
  const std::vector<nn::DeconvLayerSpec> stack = {same, same};
  Rng rng(12);
  const auto kernel = workloads::make_kernel(same, rng, -7, 7);
  const auto image = workloads::make_input(same, rng, 1, 7);
  for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kRed}) {
    arch::DesignConfig cfg;
    cfg.quant.variation.level_sigma = 0.4;
    cfg.quant.variation.seed = 3;
    const StreamingExecutor executor(kind, cfg, stack, {kernel, kernel});
    const auto streamed = executor.stream({image}).images.at(0).output;

    const auto design = core::make_design(kind, cfg);
    const auto plan = plan::plan_layer(kind, same, cfg);
    const auto stage0 = design->program(plan, kernel, /*variation_salt=*/0);
    const auto stage1 = design->program(plan, kernel, /*variation_salt=*/1);
    const auto mid = requantize_activations(stage0->run(image), cfg.quant.abits);
    const auto shared_mask = stage0->run(mid);
    EXPECT_NE(streamed, shared_mask) << design->name();
    EXPECT_EQ(streamed, stage1->run(mid)) << design->name();
  }
}

TEST(Streaming, EmptyBatchIsANoOp) {
  const auto stack = tiny_stack();
  const StreamingExecutor executor(core::DesignKind::kZeroPadding, {}, stack,
                                   workloads::make_stack_kernels(stack, 3));
  const auto result = executor.stream({});
  EXPECT_TRUE(result.images.empty());
  EXPECT_EQ(result.total, arch::RunStats{});
  EXPECT_EQ(result.depth, stack.size());
}

TEST(Streaming, RequantizeClampsReluAndFitsAbits) {
  Tensor<std::int32_t> t(Shape4{1, 1, 2, 2});
  t.at(0, 0, 0, 0) = -5;
  t.at(0, 0, 0, 1) = 3;
  t.at(0, 0, 1, 0) = 1000;
  t.at(0, 0, 1, 1) = 127;
  const auto q8 = requantize_activations(t, 8);  // max must fit < 128: shift 3
  EXPECT_EQ(q8.at(0, 0, 0, 0), 0);
  EXPECT_EQ(q8.at(0, 0, 0, 1), 0);
  EXPECT_EQ(q8.at(0, 0, 1, 0), 125);
  EXPECT_EQ(q8.at(0, 0, 1, 1), 15);
  // Already in range: identity on non-negative values.
  const auto identity = requantize_activations(q8, 8);
  EXPECT_EQ(first_mismatch(identity, q8), "");
}

TEST(ProgrammedLayer, RunBatchMatchesSequentialRuns) {
  const nn::DeconvLayerSpec spec{"batch_probe", 6, 6, 8, 4, 4, 4, 2, 1, 0};
  Rng rng(9);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  std::vector<Tensor<std::int32_t>> inputs;
  for (int k = 0; k < 3; ++k) {
    Rng irng(50 + static_cast<std::uint64_t>(k));
    inputs.push_back(workloads::make_input(spec, irng, 0, 7));
  }
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kRed}) {
    const auto design = core::make_design(kind);
    const auto programmed = design->program(spec, kernel);
    ASSERT_NE(programmed, nullptr);
    std::vector<arch::RunStats> batch_stats;
    const auto outputs = programmed->run_batch(inputs, &batch_stats);
    ASSERT_EQ(outputs.size(), inputs.size());
    ASSERT_EQ(batch_stats.size(), inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      arch::RunStats single;
      const auto expected = programmed->run(inputs[k], &single);
      EXPECT_EQ(first_mismatch(expected, outputs[k]), "") << design->name() << " image " << k;
      EXPECT_EQ(batch_stats[k], single) << design->name() << " image " << k;
    }
  }
}

// ---- ThreadPool under the streaming workload shapes ------------------------

TEST(ThreadPool, NestedParallelForFromWorkerLane) {
  // The wavefront shape: an outer parallel_for whose tasks each run an inner
  // parallel_for on the same pool (stage lanes nesting stage tiling). Workers
  // must help drain the nested job instead of deadlocking.
  for (int threads : {1, 2, 4}) {
    perf::ThreadPool pool(threads);
    constexpr std::int64_t kOuter = 6, kInner = 32;
    std::vector<std::vector<std::int64_t>> slots(kOuter,
                                                 std::vector<std::int64_t>(kInner, 0));
    pool.parallel_for(kOuter, [&](std::int64_t o) {
      pool.parallel_for(kInner, [&](std::int64_t i) { slots[static_cast<std::size_t>(o)]
                                                           [static_cast<std::size_t>(i)] = o * kInner + i; });
    });
    std::int64_t sum = 0;
    for (const auto& row : slots) sum = std::accumulate(row.begin(), row.end(), sum);
    EXPECT_EQ(sum, (kOuter * kInner) * (kOuter * kInner - 1) / 2) << threads << " threads";
  }
}

TEST(ThreadPool, ExceptionSelectionDeterministicViaIndexSlots) {
  // The determinism idiom the engine uses for failures: record exceptions in
  // per-index slots and rethrow the first in index order after the join —
  // the surfaced error is then the same for every thread count even when
  // several indices fail near-simultaneously.
  for (int threads : {1, 2, 8}) {
    perf::ThreadPool pool(threads);
    constexpr std::int64_t kN = 16;
    std::vector<std::exception_ptr> errors(kN);
    pool.parallel_for(kN, [&](std::int64_t i) {
      if (i == 3 || i == 11) {
        try {
          throw std::runtime_error("index " + std::to_string(i));
        } catch (...) {
          errors[static_cast<std::size_t>(i)] = std::current_exception();
        }
      }
    });
    std::string surfaced;
    for (const auto& err : errors)
      if (err) {
        try {
          std::rethrow_exception(err);
        } catch (const std::runtime_error& e) {
          surfaced = e.what();
        }
        break;
      }
    EXPECT_EQ(surfaced, "index 3") << threads << " threads";
  }
}

TEST(ThreadPool, ThrowingTaskPropagatesAndPoolStaysUsable) {
  for (int threads : {1, 2, 4}) {
    perf::ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(8,
                          [&](std::int64_t i) {
                            if (i == 2) throw std::runtime_error("boom");
                          }),
        std::runtime_error)
        << threads << " threads";
    // The pool must survive a failed job and run the next one to completion.
    std::atomic<std::int64_t> count{0};
    pool.parallel_for(64, [&](std::int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64) << threads << " threads";
  }
}

TEST(ThreadPool, ConcurrentJobsFromMultipleCallerThreads) {
  // Several caller threads race independent jobs onto the shared pool — the
  // streaming picture when concurrent batches run against one process-wide
  // pool. Every job must complete every index exactly once.
  constexpr int kCallers = 4;
  constexpr std::int64_t kN = 200;
  std::vector<std::vector<std::int64_t>> slots(kCallers, std::vector<std::int64_t>(kN, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      perf::parallel_for_shared(kN, [&, c](std::int64_t i) {
        slots[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] += i + c;
      });
    });
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    for (std::int64_t i = 0; i < kN; ++i)
      ASSERT_EQ(slots[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)], i + c)
          << "caller " << c << " index " << i;
}

}  // namespace
}  // namespace red::sim
