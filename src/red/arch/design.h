// Design abstraction: an accelerator implementation of deconvolution.
//
// A Design answers three questions for a layer:
//   * activity(spec) — exact structural counts (cycles, drives, conversions);
//   * run(spec, ...) — functional execution producing the output tensor plus
//     measured activity (must match activity(spec), tested);
//   * cost(spec)     — calibrated latency/energy/area via the cost model.
//
// The mapping decisions behind those answers (fold, mode groups, macro
// shapes, the cycle model) are compiled once by red::plan::plan_layer into a
// LayerPlan; the spec-taking entry points here are convenience wrappers that
// compile a plan on the fly, and the plan-taking overloads consume an
// already-compiled plan without re-deriving anything.
//
// One execution path per design: zero-padding and RED execute only through
// their ProgrammedLayer (program(), then ProgrammedLayer::run), and
// Design::run is exactly that pair. Padding-free is the documented
// exception: it has no programmed layer and keeps its own run() body. Its
// crossbar builds (2.3-3.5 ms over the three sngan/div4 stages, Release)
// cost about as much as zero-padding's whole streaming set-up (2.7-3.7 ms),
// so programming PF up front would roughly double baseline-bitacc's
// setup_s; and a programmed PF stage reports arch.program_ms.pf.stage*
// metrics that BENCHMARK.json does not declare. The benchmark changes first.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "red/arch/activity.h"
#include "red/arch/cost_report.h"
#include "red/fault/inject.h"
#include "red/fault/model.h"
#include "red/nn/layer.h"
#include "red/tech/calibration.h"
#include "red/tech/tech.h"
#include "red/tensor/tensor.h"
#include "red/xbar/crossbar.h"
#include "red/xbar/tiling.h"

namespace red::plan {
struct LayerPlan;
}  // namespace red::plan

namespace red::arch {

/// The three evaluated designs (Sec. IV): the zero-padding baseline, the
/// padding-free design, and RED. Lives here (not core/) so the compile layer
/// and every Design can name its own kind; `core::DesignKind` aliases it.
enum class DesignKind { kZeroPadding, kPaddingFree, kRed };

struct DesignConfig {
  xbar::QuantConfig quant;         ///< data-path widths and ADC behaviour
  int mux_ratio = 8;               ///< bitlines per read circuit
  int red_max_subcrossbars = 128;  ///< fold threshold of Sec. III-C
  int red_fold = 0;                ///< 0 = auto (smallest power of two under threshold)
  /// Bit-Tactical-style schedule knobs (core::ZeroSkipSchedule): with both
  /// non-zero, each cycle promotes idle sub-crossbar slots' work from up to
  /// min(lookahead_h, lookaside_d) later fold phases, shrinking a block from
  /// fold to ceil(fold / (1 + min(h, d))) cycles. 0/0 (default) is the
  /// paper's static zero-skipping schedule. Structural: priced by
  /// plan::red_activity and searchable as opt axes.
  int lookahead_h = 0;             ///< fold phases a slot may run early
  int lookaside_d = 0;             ///< neighbor slots a promotion may borrow
  /// Run MVMs through the configured ADC. Matters only under AdcMode::kClipped:
  /// the ideal ADC is lossless, so its bit-accurate calls run the exact kernel.
  bool bit_accurate = false;
  bool tiled = false;              ///< price macros as bounded physical subarrays
  /// Fraction of activations that are zero at runtime (post-ReLU data is
  /// typically ~0.5). Scales the data-dependent energy terms analytically;
  /// the structural latency (cycles) is unaffected.
  double activation_sparsity = 0.0;
  /// Worker lanes for the tiled functional run() paths — zero-padding, conv
  /// engine, and RED group execution (1 = serial; the padding-free scatter is
  /// inherently serial and ignores this). Tiles/groups are executed on the
  /// process-wide perf::ThreadPool and per-lane stats are merged
  /// deterministically after the join, so any thread count produces
  /// bit-identical outputs and RunStats.
  int threads = 1;
  xbar::TilingConfig tiling;       ///< subarray geometry for tiled mode
  /// Assumed fault environment + mitigation provision (red/fault). The model
  /// is consumed by fault campaigns and the min_fault_snr constraint; the
  /// repair policy changes what faulted() programs and prices spare lines
  /// into the area model. Part of the plan structural key.
  fault::FaultConfig fault;
  tech::Calibration calib = tech::Calibration::defaults();
  tech::TechNode node = tech::TechNode::node65();

  void validate() const;
};

/// Field list for DesignConfig — the root of the compile-time coverage
/// audit. plan::structural_key, the plan JSON writer AND reader, and (via
/// the space/strategy keys) every checkpoint fingerprint iterate this list;
/// adding a field here without extending the visitor fails the static_assert
/// and therefore every consumer at once.
///
/// `threads` is the one execution-only field: it changes how work is
/// scheduled, never what is computed (all parallel paths are bit-identical
/// by contract), so it round-trips through JSON but must stay out of
/// structural keys — two configs differing only in threads share cache
/// entries and sweep memo hits.
template <typename C, typename F>
  requires common::FieldsOf<C, DesignConfig>
void visit_fields(C& c, F&& f) {
  static_assert(common::field_count<DesignConfig>() == 14,
                "DesignConfig changed: extend visit_fields so structural_key, "
                "JSON, and fingerprints keep covering every field");
  f("quant", c.quant);
  f("mux_ratio", c.mux_ratio);
  f("red_max_subcrossbars", c.red_max_subcrossbars);
  f("red_fold", c.red_fold);
  f("lookahead_h", c.lookahead_h);
  f("lookaside_d", c.lookaside_d);
  f("bit_accurate", c.bit_accurate);
  f("tiled", c.tiled);
  f("activation_sparsity", c.activation_sparsity);
  f("threads", c.threads, common::FieldInfo{.structural = false});
  f("tiling", c.tiling);
  f("fault", c.fault);
  f("calibration", c.calib);
  f("node", c.node);
}

/// Activity measured during a functional run.
struct RunStats {
  std::int64_t cycles = 0;
  xbar::MvmStats mvm;
  std::int64_t overlap_adds = 0;
  std::int64_t buffer_accesses = 0;

  RunStats& operator+=(const RunStats& o) {
    cycles += o.cycles;
    mvm += o.mvm;
    overlap_adds += o.overlap_adds;
    buffer_accesses += o.buffer_accesses;
    return *this;
  }

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// A layer whose crossbars are already programmed: the one execution body of
/// the zero-padding and RED designs. Splits execution into a pay-once phase
/// (weight extraction, scheduling, cell-level encoding) and a repeatable
/// run(), so streams and statistical sweeps stop rebuilding and
/// reprogramming the design per image or trial. run() is the one execution
/// entry point: a sim::StreamingExecutor stage calls it once per image, and
/// fault campaigns stream through repaired() siblings the same way. It
/// gathers its input in bounded chunks (one output row / one block row at a
/// time) into per-chunk buffers, so no buffer scales with output pixels x
/// crossbar rows.
/// perturbed() reprograms only the device-variation deltas on the clean cell
/// levels with the one variation sampler (LogicalXbar's variation pass),
/// deterministic in the seed and thread-count invariant; programming under
/// a variation config draws exactly the same cells. Instances are immutable
/// after construction and hold no mutable shared state: run() is const and
/// safe to call concurrently.
class ProgrammedLayer {
 public:
  virtual ~ProgrammedLayer() = default;

  ProgrammedLayer(const ProgrammedLayer&) = delete;
  ProgrammedLayer& operator=(const ProgrammedLayer&) = delete;

  /// Execute on the programmed crossbars.
  [[nodiscard]] virtual Tensor<std::int32_t> run(const Tensor<std::int32_t>& input,
                                                 RunStats* stats = nullptr) const = 0;

  /// Sibling layer with `var` applied to the clean programmed levels. Only
  /// valid on a variation-free instance (Design::program under a config
  /// without device variation); the crossbar layer enforces it.
  [[nodiscard]] virtual std::unique_ptr<ProgrammedLayer> perturbed(
      const xbar::VariationModel& var) const = 0;

  /// One trial's fault draw on each of this layer's crossbars
  /// (fault::draw_faults), made once for every policy in `arms`. `salt`
  /// namespaces the draw per layer/stage so stacked layers sharing one model
  /// draw independent faults. Deterministic in (model.seed, salt) and
  /// thread-invariant. Like perturbed(), only valid on a variation-free
  /// instance.
  [[nodiscard]] virtual std::vector<fault::FaultDraw> draw_faults(
      const fault::FaultModel& model, std::span<const fault::RepairPolicy> arms,
      std::uint64_t salt = 0) const = 0;

  /// Sibling layer with `draws` (this layer's draw_faults(), covering
  /// `policy`) applied to the clean programmed levels under `policy`'s
  /// repairs (red/fault semantics: stuck cells, line faults healed by
  /// spares, write-verified drift, optional row remapping). `report`
  /// (optional) receives the summed RepairReport. The sibling runs on
  /// `threads` lanes; 0 keeps this layer's.
  [[nodiscard]] virtual std::unique_ptr<ProgrammedLayer> repaired(
      std::span<const fault::FaultDraw> draws, const fault::RepairPolicy& policy,
      fault::RepairReport* report = nullptr, int threads = 0) const = 0;

  /// Sibling layer with `model`'s faults injected and `policy`'s repairs
  /// applied: draw_faults() for `policy` alone, then repaired().
  [[nodiscard]] std::unique_ptr<ProgrammedLayer> faulted(
      const fault::FaultModel& model, const fault::RepairPolicy& policy, std::uint64_t salt = 0,
      fault::RepairReport* report = nullptr) const;

  /// What the variation model did to this instance's crossbars (summed).
  [[nodiscard]] virtual xbar::VariationStats variation_stats() const = 0;

 protected:
  ProgrammedLayer() = default;
};

class Design {
 public:
  explicit Design(DesignConfig cfg);
  virtual ~Design() = default;

  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Which of the three designs this is (drives plan compilation).
  [[nodiscard]] virtual DesignKind kind() const = 0;

  /// Exact structural activity for this layer (no tech constants).
  /// Convenience wrapper: compiles a plan::LayerPlan and returns its
  /// activity model — one code path for every consumer.
  [[nodiscard]] LayerActivity activity(const nn::DeconvLayerSpec& spec) const;

  /// Activity of an already-compiled plan. The plan must have been compiled
  /// for this design's kind and config (checked via the structural key).
  [[nodiscard]] LayerActivity activity(const plan::LayerPlan& plan) const;

  /// Execute the layer functionally through the crossbar pipeline:
  /// program(spec, kernel), then run `input` on the programmed layer.
  /// Virtual only for padding-free, which has no programmed layer and
  /// overrides this with its own body.
  [[nodiscard]] virtual Tensor<std::int32_t> run(const nn::DeconvLayerSpec& spec,
                                                 const Tensor<std::int32_t>& input,
                                                 const Tensor<std::int32_t>& kernel,
                                                 RunStats* stats = nullptr) const;

  /// Calibrated cost of this layer (analytic; does not touch tensor data).
  /// Convenience wrapper over cost(plan::LayerPlan).
  [[nodiscard]] CostReport cost(const nn::DeconvLayerSpec& spec) const;

  /// Cost of an already-compiled plan (no re-derivation of the mapping).
  [[nodiscard]] CostReport cost(const plan::LayerPlan& plan) const;

  /// Program the layer's crossbars once for repeated execution / Monte Carlo
  /// re-perturbation. Convenience wrapper: compiles a plan and delegates to
  /// program(plan, kernel). Returns nullptr for padding-free (no programmed
  /// layer; callers fall back to run()). A variation-enabled config programs
  /// its perturbed cells here, bit-identical to programming the
  /// variation-free config and then calling perturbed(var); perturbed() and
  /// faulted() need a variation-free one.
  [[nodiscard]] std::unique_ptr<ProgrammedLayer> program(const nn::DeconvLayerSpec& spec,
                                                         const Tensor<std::int32_t>& kernel) const;

  /// Program from an already-compiled plan, consuming its mapping decisions
  /// (RED's fold and mode groups) directly. The default returns nullptr.
  /// `variation_salt` keeps the layers of one stack on independent
  /// variation streams (StreamingExecutor programs stage i with salt i);
  /// salt 0 is the stream perturbed() draws.
  [[nodiscard]] virtual std::unique_ptr<ProgrammedLayer> program(
      const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel,
      std::uint64_t variation_salt = 0) const;

  [[nodiscard]] const DesignConfig& config() const { return cfg_; }

 protected:
  /// Throw ContractViolation unless `plan` was compiled for this design's
  /// kind and config on its own spec (structural-key comparison).
  void check_plan(const plan::LayerPlan& plan) const;

  DesignConfig cfg_;
};

/// Map LayerActivity to component costs with the calibrated models. Exposed
/// for tests and ablations; Design::cost is a thin wrapper.
[[nodiscard]] CostReport compute_cost(const LayerActivity& act, const DesignConfig& cfg);

/// Rewrite an activity description as if each logical macro were split onto
/// bounded physical subarrays: periphery re-priced per subarray, partial-sum
/// merges charged, under-utilized cells allocated. Used when cfg.tiled.
[[nodiscard]] LayerActivity apply_tiling(const LayerActivity& act, const DesignConfig& cfg);

/// Cost attribution of a *measured* functional run: the analytic activity's
/// data-dependent counts (cycles, wordline drives, conversions, MAC pulses)
/// are replaced by what the simulator actually observed, so the energy
/// reflects the real tensor's bit density instead of the analytic average.
[[nodiscard]] CostReport measured_cost(const LayerActivity& act, const RunStats& stats,
                                       const DesignConfig& cfg);

}  // namespace red::arch
