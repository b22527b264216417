// Equivalence gate for the perf subsystem: every fast path (layout-optimized
// bit-accurate kernel, workspace overloads, mvm_batch, threaded design runs,
// parallel network simulation) must produce bit-identical outputs AND
// bit-identical activity stats vs the untouched reference implementations,
// across QuantConfig, variation, and ADC-clip configurations. Design runs are
// checked against nn::deconv_reference (reference_oracle.h); clipped-ADC runs,
// which have no outside oracle, against themselves across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "red/common/error.h"
#include "red/common/math_util.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"
#include "red/sim/engine.h"
#include "red/sim/pipeline.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"
#include "red/xbar/crossbar.h"
#include "reference_oracle.h"

namespace red {
namespace {

using xbar::AdcMode;
using xbar::LogicalXbar;
using xbar::MvmStats;
using xbar::QuantConfig;

std::vector<std::int32_t> random_weights(Rng& rng, std::int64_t n, const QuantConfig& q) {
  const std::int32_t half = q.weight_offset();
  std::vector<std::int32_t> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-half, half - 1));
  return w;
}

std::vector<std::int32_t> random_input(Rng& rng, std::int64_t n, const QuantConfig& q,
                                       bool include_zeros) {
  // Multi-bit DAC streaming requires non-negative activations.
  const std::int64_t lo = q.dac_bits == 1 ? -(std::int64_t{1} << (q.abits - 1)) : 0;
  const std::int64_t hi = q.dac_bits == 1 ? (std::int64_t{1} << (q.abits - 1)) - 1
                                          : (std::int64_t{1} << q.abits) - 1;
  std::vector<std::int32_t> in(static_cast<std::size_t>(n));
  for (auto& v : in) {
    v = static_cast<std::int32_t>(rng.uniform_int(lo, hi));
    if (include_zeros && rng.bernoulli(0.25)) v = 0;
  }
  return in;
}

/// The configuration matrix the kernels are gated over.
std::vector<QuantConfig> config_matrix() {
  std::vector<QuantConfig> configs;
  configs.push_back(QuantConfig{});  // defaults: 8/8, 2-bit cells, ideal ADC
  {
    QuantConfig q;
    q.wbits = 6;
    q.abits = 5;
    q.cell_bits = 3;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // clipped ADC tight enough to actually saturate
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 4;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // clipped but roomy (clips rare/absent)
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 12;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // multi-bit DAC streaming
    q.dac_bits = 2;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // multi-bit DAC + clipped ADC
    q.dac_bits = 4;
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 5;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // device variation (program-time perturbation)
    q.variation.level_sigma = 0.3;
    q.variation.stuck_at_rate = 0.02;
    q.variation.seed = 7;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // variation + clipped ADC
    q.variation.level_sigma = 0.2;
    q.variation.seed = 11;
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 5;
    configs.push_back(q);
  }
  return configs;
}

/// The crossbar of (rows, cols, w, q) under a clipped ADC at its
/// lossless_adc_bits(), so bit-accurate calls run the popcount kernel (an
/// ideal ADC runs the exact one); with dac_bits 1 its outputs still equal
/// the ideal ADC's. A clipped `q` is kept as it is.
LogicalXbar popcount_twin(std::int64_t rows, std::int64_t cols, std::span<const std::int32_t> w,
                          QuantConfig q) {
  if (q.adc.mode == AdcMode::kIdeal)
    q.adc = {AdcMode::kClipped, LogicalXbar(rows, cols, w, q).lossless_adc_bits()};
  return LogicalXbar(rows, cols, w, q);
}

TEST(FastPathEquivalence, BitAccurateMatchesReferenceAcrossConfigs) {
  Rng rng(1234);
  int clipped_cases = 0;
  for (const auto& q : config_matrix()) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::int64_t rows = rng.uniform_int(1, 96);
      const std::int64_t cols = rng.uniform_int(1, 24);
      const auto w = random_weights(rng, rows * cols, q);
      const auto in = random_input(rng, rows, q, /*include_zeros=*/true);
      // The configured ADC (an ideal one runs the exact kernel), then the
      // popcount kernel on the lossless-clipped twin of an ideal config.
      for (const LogicalXbar& xb :
           {LogicalXbar(rows, cols, w, q), popcount_twin(rows, cols, w, q)}) {
        MvmStats ref_stats, fast_stats, ws_stats;
        const auto ref = xb.mvm_bit_accurate_reference(in, &ref_stats);
        const auto fast = xb.mvm_bit_accurate(in, &fast_stats);
        EXPECT_EQ(fast, ref);
        EXPECT_EQ(fast_stats, ref_stats);

        perf::MvmWorkspace ws;
        const auto span = xb.mvm_bit_accurate(in, ws, &ws_stats);
        EXPECT_EQ(std::vector<std::int64_t>(span.begin(), span.end()), ref);
        EXPECT_EQ(ws_stats, ref_stats);

        if (ref_stats.adc_clips > 0) ++clipped_cases;
      }
    }
  }
  // The matrix must actually exercise the saturating-ADC kernel.
  EXPECT_GT(clipped_cases, 0);
}

TEST(FastPathEquivalence, WorkspaceMvmMatchesLegacyMvm) {
  Rng rng(99);
  for (const auto& q : config_matrix()) {
    const std::int64_t rows = rng.uniform_int(1, 64);
    const std::int64_t cols = rng.uniform_int(1, 32);
    const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
    const auto in = random_input(rng, rows, q, true);

    MvmStats legacy_stats, ws_stats;
    const auto legacy = xb.mvm(in, &legacy_stats);
    perf::MvmWorkspace ws;
    const auto span = xb.mvm(in, ws, &ws_stats);
    EXPECT_EQ(std::vector<std::int64_t>(span.begin(), span.end()), legacy);
    EXPECT_EQ(ws_stats, legacy_stats);
  }
}

TEST(FastPathEquivalence, BatchMatchesSingleCalls) {
  Rng rng(4321);
  for (const auto& q : config_matrix()) {
    const std::int64_t rows = rng.uniform_int(1, 48);
    const std::int64_t cols = rng.uniform_int(1, 16);
    const std::int64_t batch = rng.uniform_int(1, 9);
    const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
    const auto inputs = random_input(rng, batch * rows, q, true);

    for (const bool bit_accurate : {false, true}) {
      MvmStats single_stats, batch_stats;
      std::vector<std::int64_t> expected;
      for (std::int64_t v = 0; v < batch; ++v) {
        const std::span<const std::int32_t> one(inputs.data() + v * rows,
                                                static_cast<std::size_t>(rows));
        const auto r = bit_accurate ? xb.mvm_bit_accurate(one, &single_stats)
                                    : xb.mvm(one, &single_stats);
        expected.insert(expected.end(), r.begin(), r.end());
      }
      perf::MvmWorkspace ws;
      const auto got = xb.mvm_batch(inputs, batch, bit_accurate, ws, &batch_stats);
      EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), expected);
      EXPECT_EQ(batch_stats, single_stats);
    }
  }
}

TEST(FastPathEquivalence, LosslessAdcBitsCacheMatchesBruteForce) {
  Rng rng(55);
  for (const auto& q : config_matrix()) {
    const std::int64_t rows = rng.uniform_int(1, 40);
    const std::int64_t cols = rng.uniform_int(1, 12);
    const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
    // Brute-force worst-case one-plane column sum from the level accessors.
    std::int64_t worst = 0;
    for (std::int64_t c = 0; c < cols; ++c)
      for (int s = 0; s < q.slices(); ++s) {
        std::int64_t sum = 0;
        for (std::int64_t r = 0; r < rows; ++r) sum += xb.level(r, c, s);
        worst = std::max(worst, sum);
      }
    const int expected = worst == 0 ? 1 : ilog2_ceil(worst + 1);
    EXPECT_EQ(xb.lossless_adc_bits(), expected);
  }
}

/// Every popcount tier this CPU can run, narrowest first.
std::vector<perf::MvmIsa> supported_isas() {
  std::vector<perf::MvmIsa> isas;
  for (const auto isa : {perf::MvmIsa::kPortable, perf::MvmIsa::kAvx2, perf::MvmIsa::kAvx512})
    if (isa <= perf::mvm_active_isa()) isas.push_back(isa);
  return isas;
}

/// The exact MVM spelled out: a plain dot product with the stored weights.
std::vector<std::int64_t> plain_dot(const LogicalXbar& xb, std::span<const std::int32_t> in) {
  const auto w = xb.stored_weights();
  std::vector<std::int64_t> out(static_cast<std::size_t>(xb.cols()), 0);
  for (std::int64_t r = 0; r < xb.rows(); ++r)
    for (std::int64_t c = 0; c < xb.cols(); ++c)
      out[static_cast<std::size_t>(c)] += std::int64_t{in[static_cast<std::size_t>(r)]} *
                                          w[static_cast<std::size_t>(r * xb.cols() + c)];
  return out;
}

/// Checks one input on `xb`: bit-accurate calls on every supported tier
/// against mvm_bit_accurate_reference, on `xb` and on `twin` (its
/// popcount_twin, where they run the popcount kernel), and the exact kernel
/// against plain_dot with the reference's activity stats (an exact MVM never
/// clips).
void expect_kernels_match(const LogicalXbar& xb, const LogicalXbar& twin,
                          std::span<const std::int32_t> in, const std::string& what) {
  MvmStats want;  // xb's reference activity, which the exact kernel reports too
  perf::MvmWorkspace ws;
  for (const LogicalXbar* bx : {&xb, &twin}) {
    MvmStats ref_stats;
    const auto ref = bx->mvm_bit_accurate_reference(in, &ref_stats);
    if (bx == &xb) want = ref_stats;
    for (const auto isa : supported_isas()) {
      const std::string label = std::string(perf::mvm_isa_name(isa)) + " " + what +
                                (bx == &twin ? " (lossless clipped)" : "");
      MvmStats got_stats;
      const auto got = perf::detail::mvm_gathered_on(isa, perf::exact_sweep(*bx), *bx, {}, in,
                                                     1, /*bit_accurate=*/true, ws, &got_stats);
      EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), ref) << label;
      EXPECT_EQ(got_stats, ref_stats) << label;
    }
  }

  MvmStats exact_stats;
  const auto exact = xb.mvm(in, ws, &exact_stats);
  EXPECT_EQ(std::vector<std::int64_t>(exact.begin(), exact.end()), plain_dot(xb, in)) << what;
  want.adc_clips = 0;
  EXPECT_EQ(exact_stats, want) << what;
}

/// Both kernels over the shapes that stress the 64-bit word packing: rows
/// around and across word boundaries, a single column, all-zero and fully
/// dense inputs — per ADC regime, and for the bit-accurate kernel per
/// popcount tier this CPU supports (portable runs everywhere).
TEST(FastPathEquivalence, PackedKernelsMatchReferenceOnAwkwardShapes) {
  Rng rng(8080);
  for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{63}, std::int64_t{64},
                                  std::int64_t{65}, std::int64_t{127}, std::int64_t{129}}) {
    for (const std::int64_t cols : {std::int64_t{1}, std::int64_t{7}}) {
      for (const auto& q : config_matrix()) {
        const auto w = random_weights(rng, rows * cols, q);
        const LogicalXbar xb(rows, cols, w, q);
        const LogicalXbar twin = popcount_twin(rows, cols, w, q);
        const std::int32_t dense = q.dac_bits == 1
                                       ? -(std::int32_t{1} << (q.abits - 1))  // widest magnitude
                                       : (std::int32_t{1} << q.abits) - 1;
        const std::vector<std::vector<std::int32_t>> inputs = {
            random_input(rng, rows, q, /*include_zeros=*/true),
            std::vector<std::int32_t>(static_cast<std::size_t>(rows), 0),     // all-zero planes
            std::vector<std::int32_t>(static_cast<std::size_t>(rows), dense)  // all planes set
        };
        for (const auto& in : inputs)
          expect_kernels_match(xb, twin, in,
                               "rows=" + std::to_string(rows) + " cols=" + std::to_string(cols));
      }
    }
  }
}

/// Both kernels on the group macros RED programs for dcgan (channels / 4,
/// the streamed benchmark's network: a mode group's sub-crossbars stacked,
/// up to 2304 x 128) with post-ReLU inputs: non-negative, about half zeros.
TEST(FastPathEquivalence, KernelsMatchReferenceOnDcganMacros) {
  const auto plan = plan::plan_stack(arch::DesignKind::kRed, workloads::named_stack("dcgan", 4),
                                     arch::DesignConfig{});
  const QuantConfig q = plan.cfg.quant;
  Rng rng(5150);
  std::int64_t zeros = 0, total = 0;
  for (const auto& layer : plan.layers) {
    for (const auto& macro : layer.activity.macros) {
      const std::int64_t rows = macro.rows;
      const std::int64_t cols = layer.spec.m;
      const auto w = random_weights(rng, rows * cols, q);
      const LogicalXbar xb(rows, cols, w, q);
      const LogicalXbar twin = popcount_twin(rows, cols, w, q);
      std::vector<std::int32_t> in(static_cast<std::size_t>(rows));
      for (auto& v : in)
        v = rng.bernoulli(0.5) ? 0
                               : static_cast<std::int32_t>(
                                     rng.uniform_int(1, (std::int64_t{1} << (q.abits - 1)) - 1));
      zeros += std::count(in.begin(), in.end(), 0);
      total += rows;
      expect_kernels_match(xb, twin, in, layer.spec.name + " " + std::to_string(rows) + "x" +
                                       std::to_string(cols));
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(total), 0.5, 0.05);
}

// ---------------------------------------------------------------------------
// The exact kernel per tier and orientation (perf::detail::mvm_gathered_on).
// ---------------------------------------------------------------------------

/// Runs `batch` vectors of `inputs` (vector-major, the first batch * rows
/// values) through the exact kernel on every supported tier in both
/// orientations, against the reference's outputs and stats per vector.
void expect_exact_matches(const LogicalXbar& xb, std::span<const std::int32_t> inputs,
                          std::int64_t batch, const std::vector<std::vector<std::int64_t>>& ref,
                          const MvmStats& ref_stats, const std::string& what) {
  const auto rows = static_cast<std::size_t>(xb.rows());
  const auto block = inputs.first(static_cast<std::size_t>(batch) * rows);
  std::vector<std::int64_t> want;
  for (std::int64_t v = 0; v < batch; ++v)
    want.insert(want.end(), ref[static_cast<std::size_t>(v)].begin(),
                ref[static_cast<std::size_t>(v)].end());
  perf::MvmWorkspace ws;
  for (const auto isa : supported_isas()) {
    for (const auto sweep : {perf::ExactSweep::kColumns, perf::ExactSweep::kBatch}) {
      const std::string label = what + " batch " + std::to_string(batch) + " " +
                                perf::mvm_isa_name(isa) +
                                (sweep == perf::ExactSweep::kBatch ? " batch-sweep" : " col-sweep");
      MvmStats got_stats;
      const auto got =
          perf::detail::mvm_gathered_on(isa, sweep, xb, {}, block, batch, false, ws, &got_stats);
      EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), want) << label;
      EXPECT_EQ(got_stats, ref_stats) << label;
    }
  }
}

/// Reference outputs of the first `n` vectors of `inputs`, and the stats of
/// the first b vectors for every b <= n (clips zeroed: an exact MVM never
/// clips).
struct ExactOracle {
  std::vector<std::vector<std::int64_t>> out;
  std::vector<MvmStats> stats_by_batch;  ///< stats of the first b vectors, per b
};

ExactOracle exact_oracle(const LogicalXbar& xb, std::span<const std::int32_t> inputs,
                         std::int64_t n) {
  ExactOracle o;
  MvmStats running;
  o.stats_by_batch.push_back(running);
  const auto rows = static_cast<std::size_t>(xb.rows());
  for (std::int64_t v = 0; v < n; ++v) {
    o.out.push_back(
        xb.mvm_bit_accurate_reference(inputs.subspan(static_cast<std::size_t>(v) * rows, rows),
                                      &running));
    MvmStats exact = running;
    exact.adc_clips = 0;
    o.stats_by_batch.push_back(exact);
  }
  return o;
}

/// Every tier and orientation on batches 1, 7, 8 and 33 of `inputs`
/// (vector tails of the 8- and 16-lane tiers).
void expect_exact_batches_match(const LogicalXbar& xb, std::span<const std::int32_t> inputs,
                                const std::string& what) {
  const ExactOracle o = exact_oracle(xb, inputs, 33);
  for (const std::int64_t batch : {1, 7, 8, 33})
    expect_exact_matches(xb, inputs, batch, o.out,
                         o.stats_by_batch[static_cast<std::size_t>(batch)], what);
}

/// Post-ReLU activations: non-negative, about half zeros.
std::vector<std::int32_t> post_relu_inputs(Rng& rng, std::int64_t n, const QuantConfig& q) {
  std::vector<std::int32_t> in(static_cast<std::size_t>(n));
  for (auto& v : in)
    v = rng.bernoulli(0.5)
            ? 0
            : static_cast<std::int32_t>(rng.uniform_int(1, (std::int64_t{1} << (q.abits - 1)) - 1));
  return in;
}

/// Every RED group macro and ZP macro of dcgan, sngan and fcn8s (channels /
/// 4, as streamed), with post-ReLU inputs, on every tier in both
/// orientations at batch 1, 7, 8 and 33.
TEST(ExactKernel, MatchesReferenceOnNetworkMacrosPerTierAndSweep) {
  Rng rng(4242);
  std::int64_t zeros = 0, total = 0, shapes = 0, narrow = 0;
  for (const std::string net : {"dcgan", "sngan", "fcn8s"}) {
    for (const auto kind : {arch::DesignKind::kRed, arch::DesignKind::kZeroPadding}) {
      const auto plan = plan::plan_stack(kind, workloads::named_stack(net, 4), arch::DesignConfig{});
      const QuantConfig q = plan.cfg.quant;
      std::vector<std::pair<std::int64_t, std::int64_t>> seen;
      for (const auto& layer : plan.layers) {
        for (const auto& macro : layer.activity.macros) {
          const std::int64_t rows = macro.rows;
          const std::int64_t cols = macro.phys_cols / q.slices();
          if (std::find(seen.begin(), seen.end(), std::pair{rows, cols}) != seen.end()) continue;
          seen.emplace_back(rows, cols);
          const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
          const auto inputs = post_relu_inputs(rng, 33 * rows, q);
          zeros += std::count(inputs.begin(), inputs.end(), 0);
          total += static_cast<std::int64_t>(inputs.size());
          ++shapes;
          narrow += cols < 16 ? 1 : 0;
          expect_exact_batches_match(xb, inputs,
                                     net + " " + layer.spec.name + " " + std::to_string(rows) +
                                         "x" + std::to_string(cols));
        }
      }
    }
  }
  EXPECT_GE(shapes, 12);
  EXPECT_GT(narrow, 0);  // the 3-column output stages
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(total), 0.5, 0.05);
}

/// A faulted crossbar whose partial top slice stores levels above wbits:
/// stored weights overshoot the wbits range (up to 191 at wbits 7, cell_bits
/// 2: the int16 copy; up to 47 at wbits 5: the int8 copy), and every tier
/// and orientation still matches the reference.
TEST(ExactKernel, MatchesReferenceOnOutOfRangeTopSliceLevels) {
  Rng rng(77);
  for (const int wbits : {5, 7}) {
    QuantConfig q;
    q.wbits = wbits;
    const std::int64_t rows = 70;
    const std::int64_t cols = 19;
    const LogicalXbar clean(rows, cols, random_weights(rng, rows * cols, q), q);
    // Every top-slice cell stuck at the maximum level.
    std::vector<xbar::LevelPatch> patches;
    const auto top = static_cast<std::size_t>(q.slices() - 1) * static_cast<std::size_t>(rows * cols);
    for (std::size_t i = 0; i < static_cast<std::size_t>(rows * cols); ++i)
      patches.push_back({top + i, static_cast<std::uint8_t>(q.max_level())});
    const LogicalXbar faulted(clean, patches, xbar::VariationStats{});
    std::int32_t max_weight = 0;
    for (const auto w : faulted.stored_weights()) max_weight = std::max(max_weight, w);
    const std::int32_t overshoot =
        (std::int32_t{1} << (q.slices() * q.cell_bits)) - 1 - q.weight_offset();
    EXPECT_GE(max_weight, q.weight_offset()) << "wbits " << wbits;  // outside wbits
    EXPECT_LE(max_weight, overshoot) << "wbits " << wbits;
    const auto inputs = random_input(rng, 33 * rows, q, /*include_zeros=*/true);
    expect_exact_batches_match(faulted, inputs, "faulted wbits " + std::to_string(wbits));
  }
}

/// The int32 flush bound: pinned at the widest configs, and a worst-magnitude
/// block (every product the largest positive or negative one) at exactly K
/// rows and past it, which overflows int32 unless the kernel flushes.
TEST(ExactKernel, FlushBoundIsPinnedAndHoldsAtWorstMagnitude) {
  QuantConfig q16;
  q16.wbits = 16;
  q16.abits = 16;
  EXPECT_EQ(perf::exact_flush_rows(q16), 1);  // one product, (-2^15)^2 = 2^30, fits
  QuantConfig q16dac = q16;
  q16dac.dac_bits = 2;
  EXPECT_EQ(perf::exact_flush_rows(q16dac), 1);  // 65535 * 32768 = 2^31 - 2^15 fits
  QuantConfig q16cell3 = q16;
  q16cell3.cell_bits = 3;
  // 18 level bits store up to 2^18 - 1 - 2^15: one product overflows, so the
  // int64 sweep runs (on int32 weights).
  EXPECT_EQ(perf::exact_flush_rows(q16cell3), 0);
  EXPECT_EQ(perf::exact_flush_rows(QuantConfig{}), 131071);  // 8/8: 2^31 / 2^14
  QuantConfig q12 = q16;
  q12.abits = 12;
  const std::int64_t k12 = perf::exact_flush_rows(q12);
  EXPECT_EQ(k12, 31);  // 2^31 / (2^11 * 2^15)

  for (const QuantConfig& q : {q16, q16dac, q16cell3, q12}) {
    const std::int64_t k = std::max<std::int64_t>(perf::exact_flush_rows(q), 1);
    for (const std::int64_t rows : {k, k + 1, 2 * k + 1}) {
      for (const std::int32_t w : {-q.weight_offset(), q.weight_offset() - 1}) {
        const std::int64_t cols = 17;  // one AVX-512 vector and a tail
        const LogicalXbar xb(rows, cols,
                             std::vector<std::int32_t>(static_cast<std::size_t>(rows * cols), w), q);
        const std::int32_t a = q.dac_bits == 1 ? -(std::int32_t{1} << (q.abits - 1))
                                               : (std::int32_t{1} << q.abits) - 1;
        const std::vector<std::int32_t> inputs(static_cast<std::size_t>(33 * rows), a);
        expect_exact_batches_match(xb, inputs,
                                   "wbits 16 abits " + std::to_string(q.abits) + " dac " +
                                       std::to_string(q.dac_bits) + " cell " +
                                       std::to_string(q.cell_bits) + " rows " +
                                       std::to_string(rows) + " w " + std::to_string(w));
      }
    }
  }
}

/// The orientation rule: the batch sweep exactly when the macro is narrower
/// than one vector of the active tier.
TEST(ExactKernel, SweepsAcrossTheBatchOnlyBelowOneVector) {
  const int lanes = perf::mvm_lanes(perf::mvm_active_isa());
  for (const std::int64_t cols : {std::int64_t{1}, std::int64_t{3}, std::int64_t{lanes},
                                  std::int64_t{lanes + 1}, std::int64_t{128}}) {
    const LogicalXbar xb(4, cols, std::vector<std::int32_t>(static_cast<std::size_t>(4 * cols), 1),
                         QuantConfig{});
    EXPECT_EQ(perf::exact_sweep(xb),
              cols < lanes ? perf::ExactSweep::kBatch : perf::ExactSweep::kColumns)
        << cols;
  }
}

/// An out-of-range activation throws on every path into the exact kernel,
/// including RED's fused batch-minor gather (a 3-column macro).
TEST(ExactKernel, OutOfRangeActivationThrowsThroughEveryPath) {
  const nn::DeconvLayerSpec spec{"narrow", 4, 4, 8, 3, 4, 4, 2, 1, 0};
  Rng rng(5);
  auto input = workloads::make_input(spec, rng, 0, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto programmed = core::make_design(core::DesignKind::kRed)->program(spec, kernel);
  EXPECT_NO_THROW((void)programmed->run(input));
  input.data()[5] = 128;  // abits 8: signed range is [-128, 127]
  EXPECT_THROW((void)programmed->run(input), ContractViolation);
  input.data()[5] = -129;
  EXPECT_THROW((void)programmed->run(input), ContractViolation);

  QuantConfig dac2;
  dac2.dac_bits = 2;
  for (const auto& [q, bad] : {std::pair{QuantConfig{}, 128}, std::pair{QuantConfig{}, -129},
                               std::pair{dac2, -1}, std::pair{dac2, 256}}) {
    const LogicalXbar xb(5, 3, std::vector<std::int32_t>(15, 1), q);
    std::vector<std::int32_t> inputs(5 * 9, 1);
    inputs[40] = bad;
    perf::MvmWorkspace ws;
    EXPECT_THROW((void)perf::mvm_gathered(xb, {}, inputs, 9, /*batch_minor=*/true,
                                          /*bit_accurate=*/false, ws),
                 ContractViolation)
        << bad;
    for (const auto isa : supported_isas())
      for (const auto sweep : {perf::ExactSweep::kColumns, perf::ExactSweep::kBatch})
        EXPECT_THROW(
            (void)perf::detail::mvm_gathered_on(isa, sweep, xb, {}, inputs, 9, false, ws),
                     ContractViolation)
            << bad << " " << perf::mvm_isa_name(isa);
  }
}

/// A gathered block (a row list) through every tier and orientation, the
/// int64 wide sweep, and the popcount kernel under a clipped ADC: outputs
/// and stats equal the reference on each vector scattered over a dense zero
/// one, and an out-of-range gathered activation still throws.
TEST(ExactKernel, GatheredRowsMatchReferenceOnScatteredVectors) {
  Rng rng(909);
  QuantConfig wide;
  wide.wbits = 16;
  wide.abits = 16;
  wide.cell_bits = 3;
  ASSERT_EQ(perf::exact_flush_rows(wide), 0);
  for (const auto& [q, cols] : {std::pair{QuantConfig{}, std::int64_t{21}},
                                std::pair{QuantConfig{}, std::int64_t{3}},
                                std::pair{wide, std::int64_t{17}}}) {
    const std::int64_t rows = 150;
    const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
    std::vector<std::int32_t> list;
    for (std::int32_t r = 0; r < rows; ++r)
      if (rng.bernoulli(0.3)) list.push_back(r);
    const auto n = static_cast<std::int64_t>(list.size());
    const std::int64_t batch = 19;
    const auto block = random_input(rng, batch * n, q, /*include_zeros=*/true);
    std::vector<std::int64_t> want;
    MvmStats want_stats;
    std::vector<std::int32_t> dense(static_cast<std::size_t>(batch * rows), 0);
    for (std::int64_t v = 0; v < batch; ++v) {
      for (std::int64_t i = 0; i < n; ++i)
        dense[static_cast<std::size_t>(v * rows + list[static_cast<std::size_t>(i)])] =
            block[static_cast<std::size_t>(v * n + i)];
      const auto ref = xb.mvm_bit_accurate_reference(
          std::span(dense).subspan(static_cast<std::size_t>(v * rows), static_cast<std::size_t>(rows)),
          &want_stats);
      want.insert(want.end(), ref.begin(), ref.end());
    }
    const std::string what = "cols " + std::to_string(cols) + " wbits " + std::to_string(q.wbits);
    perf::MvmWorkspace ws;
    for (const auto isa : supported_isas())
      for (const auto sweep : {perf::ExactSweep::kColumns, perf::ExactSweep::kBatch}) {
        MvmStats got_stats;
        const auto got = perf::detail::mvm_gathered_on(isa, sweep, xb, list, block, batch, false,
                                                       ws, &got_stats);
        EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), want)
            << what << " " << perf::mvm_isa_name(isa) << " sweep " << static_cast<int>(sweep);
        EXPECT_EQ(got_stats, want_stats) << what << " " << perf::mvm_isa_name(isa);
      }
    if (q.wbits == 8) {
      // The popcount kernel below the lossless resolution: clips included.
      QuantConfig clipped = q;
      clipped.adc = {AdcMode::kClipped, 3};
      ASSERT_LT(3, xb.lossless_adc_bits());
      const LogicalXbar cx(rows, cols, xb.stored_weights(), clipped);
      MvmStats ref_stats;
      std::vector<std::int64_t> ref;
      for (std::int64_t v = 0; v < batch; ++v) {
        const auto o = cx.mvm_bit_accurate_reference(
            std::span(dense).subspan(static_cast<std::size_t>(v * rows), static_cast<std::size_t>(rows)),
            &ref_stats);
        ref.insert(ref.end(), o.begin(), o.end());
      }
      for (const auto isa : supported_isas()) {
        MvmStats got_stats;
        const auto got = perf::detail::mvm_gathered_on(isa, perf::exact_sweep(cx), cx, list, block,
                                                       batch, /*bit_accurate=*/true, ws, &got_stats);
        EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), ref)
            << what << " clipped " << perf::mvm_isa_name(isa);
        EXPECT_EQ(got_stats, ref_stats) << what << " clipped " << perf::mvm_isa_name(isa);
        EXPECT_GT(got_stats.adc_clips, 0) << what;
      }
    }
    auto bad = block;
    bad[bad.size() / 2] = q.dac_bits == 1 ? (1 << (q.abits - 1)) : -1;
    for (const auto isa : supported_isas())
      for (const auto sweep : {perf::ExactSweep::kColumns, perf::ExactSweep::kBatch})
        EXPECT_THROW(
            (void)perf::detail::mvm_gathered_on(isa, sweep, xb, list, bad, batch, false, ws),
                     ContractViolation)
            << what << " " << perf::mvm_isa_name(isa);
    const std::vector<std::int32_t> unsorted = {2, 1};
    EXPECT_THROW((void)perf::mvm_gathered(xb, unsorted, std::vector<std::int32_t>(2, 0), 1, false,
                                          false, ws),
                 ContractViolation);
  }
}

/// The Bit-Tactical lookahead/lookaside schedule must keep ideal-ADC results
/// equal to the reference while shrinking cycles, at every thread count, and
/// the measured cycle count must equal what the analytic plan prices.
TEST(FastPathEquivalence, ZeroSkipScheduleLookaheadMatchesReference) {
  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto c = oracle::draw_case(6060 + k);
    for (const bool bit_accurate : {false, true}) {
      // Fold 4: deep enough that a window actually coalesces.
      const auto base_cfg = oracle::config({4, 0, 0}, bit_accurate, 1);
      const auto base = core::make_design(core::DesignKind::kRed, base_cfg);
      const std::int64_t base_cycles = base->activity(c.spec).cycles;
      arch::RunStats base_stats;
      oracle::expect_matches(c, base->activity(c.spec),
                             base->run(c.spec, c.input, c.kernel, &base_stats), base_stats,
                             oracle::label(c, base_cfg));

      for (const oracle::Knobs knobs : {oracle::Knobs{4, 1, 1}, oracle::Knobs{4, 2, 3},
                                        oracle::Knobs{4, 4, 4}}) {
        arch::RunStats serial_stats;
        for (const int threads : {1, 4}) {
          const auto cfg = oracle::config(knobs, bit_accurate, threads);
          const auto design = core::make_design(core::DesignKind::kRed, cfg);
          arch::RunStats stats;
          const auto out = design->run(c.spec, c.input, c.kernel, &stats);
          const std::string what = oracle::label(c, cfg);
          oracle::expect_matches(c, design->activity(c.spec), out, stats, what);
          EXPECT_LT(stats.cycles, base_cycles) << what;
          if (threads == 1)
            serial_stats = stats;
          else
            EXPECT_EQ(stats, serial_stats) << what;
        }
      }
    }
  }
}

/// Threaded design runs match the reference and the plan's activity for
/// every design and both MVM paths, with RunStats identical to the serial
/// run's.
TEST(FastPathEquivalence, ThreadedDesignRunsMatchReference) {
  for (std::uint64_t k = 0; k < 8; ++k) {
    const auto c = oracle::draw_case(2025 + k);
    for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                            core::DesignKind::kRed})
      for (const auto knobs : oracle::kKnobs)
        for (const bool bit_accurate : {false, true}) {
          arch::RunStats serial_stats;
          for (const int threads : {1, 4}) {
            const auto cfg = oracle::config(knobs, bit_accurate, threads);
            const auto design = core::make_design(kind, cfg);
            arch::RunStats stats;
            const auto out = design->run(c.spec, c.input, c.kernel, &stats);
            const std::string what = design->name() + " " + oracle::label(c, cfg);
            oracle::expect_matches(c, design->activity(c.spec), out, stats, what);
            if (threads == 1)
              serial_stats = stats;
            else
              EXPECT_EQ(stats, serial_stats) << what;
          }
        }
  }
}

/// A clipped ADC has no outside oracle: its outputs and RunStats (clip
/// counts included) must simply not depend on the thread count.
TEST(FastPathEquivalence, ClippedAdcRunsAreThreadInvariant) {
  std::int64_t clips = 0;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const auto c = oracle::draw_case(4040 + k);
    for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                            core::DesignKind::kRed})
      for (const auto knobs : oracle::kKnobs) {
        Tensor<std::int32_t> serial_out;
        arch::RunStats serial_stats;
        for (const int threads : {1, 4}) {
          auto cfg = oracle::config(knobs, /*bit_accurate=*/true, threads);
          cfg.quant.adc.mode = AdcMode::kClipped;
          cfg.quant.adc.bits = 3;
          const auto design = core::make_design(kind, cfg);
          arch::RunStats stats;
          const auto out = design->run(c.spec, c.input, c.kernel, &stats);
          const std::string what = design->name() + " " + oracle::label(c, cfg);
          if (threads == 1) {
            serial_out = out;
            serial_stats = stats;
            clips += stats.mvm.adc_clips;
          } else {
            EXPECT_EQ(first_mismatch(serial_out, out), "") << what;
            EXPECT_EQ(stats, serial_stats) << what;
          }
        }
      }
  }
  EXPECT_GT(clips, 0);  // the ADC really saturates on this sweep
}

TEST(FastPathEquivalence, ParallelNetworkSimulationMatchesSerial) {
  const auto stack = workloads::sngan_generator(/*channel_div=*/32);
  Rng rng(7);
  std::vector<Tensor<std::int32_t>> inputs, kernels;
  for (const auto& layer : stack) {
    inputs.push_back(workloads::make_input(layer, rng, 1, 7));
    kernels.push_back(workloads::make_kernel(layer, rng, -7, 7));
  }
  const auto design = core::make_design(core::DesignKind::kRed);
  const auto serial = sim::simulate_network(*design, stack, inputs, kernels, true, 1);
  const auto parallel = sim::simulate_network(*design, stack, inputs, kernels, true, 4);
  ASSERT_EQ(parallel.layers.size(), serial.layers.size());
  for (std::size_t i = 0; i < serial.layers.size(); ++i) {
    EXPECT_EQ(parallel.layers[i].output, serial.layers[i].output);
    EXPECT_EQ(parallel.layers[i].measured, serial.layers[i].measured);
  }
  EXPECT_EQ(parallel.total, serial.total);
}

TEST(FastPathEquivalence, ParallelPipelineEvaluationMatchesSerial) {
  const auto stack = workloads::dcgan_generator();
  for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                          core::DesignKind::kRed}) {
    const auto serial = sim::evaluate_pipeline(kind, stack, {}, 1);
    const auto parallel = sim::evaluate_pipeline(kind, stack, {}, 4);
    EXPECT_EQ(parallel.sequential_latency.value(), serial.sequential_latency.value());
    EXPECT_EQ(parallel.initiation_interval.value(), serial.initiation_interval.value());
    EXPECT_EQ(parallel.energy_per_image.value(), serial.energy_per_image.value());
    EXPECT_EQ(parallel.total_area.value(), serial.total_area.value());
    EXPECT_EQ(parallel.buffer_bits, serial.buffer_bits);
    ASSERT_EQ(parallel.stages.size(), serial.stages.size());
    for (std::size_t i = 0; i < serial.stages.size(); ++i)
      EXPECT_EQ(parallel.stages[i].cost.total_latency().value(),
                serial.stages[i].cost.total_latency().value());
  }
}

TEST(FastPathEquivalence, ThreadPoolRunsEveryIndexOnceAndPropagatesErrors) {
  perf::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<int> hits(257, 0);
  pool.parallel_for(257, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (int h : hits) EXPECT_EQ(h, 1);

  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::int64_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);

  // Nested use (layer-parallel outer, tile-parallel inner) must not deadlock.
  std::vector<std::vector<int>> nested(8, std::vector<int>(33, 0));
  pool.parallel_for(8, [&](std::int64_t outer) {
    pool.parallel_for(33, [&](std::int64_t inner) {
      ++nested[static_cast<std::size_t>(outer)][static_cast<std::size_t>(inner)];
    });
  });
  for (const auto& row : nested)
    for (int h : row) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace red
