// Streaming batched execution engine.
//
// The paper evaluates one image at a time: every Design::run() call rebuilds
// and reprograms the layer's crossbars before executing. A deployed
// accelerator does the opposite — weights stay resident (programming is paid
// once, see arch/programming.h) and many inputs stream through the same
// programmed stack. This engine is that serving path: it programs a whole
// deconvolution stack once (one arch::ProgrammedLayer per stage, the same
// execution body Design::run uses for zero-padding and RED) and then
// drives a batch of N input images through the stack in PipeLayer fashion —
// stage i executes image k while stage i+1 executes image k-1 — with
// double-buffered stage hand-off on the process-wide perf::ThreadPool.
//
// Execution is organized in wavefronts: wave d runs every (stage i, image
// k = d - i) cell concurrently, then hands each stage's output buffer to the
// next stage's input buffer before wave d+1 starts (the double buffer: a
// stage always reads the previous wave's hand-off while its own output lands
// in a separate slot). Per-cell results land in per-(image, stage) slots and
// are reduced in image-then-stage order after the run, so outputs and
// accumulated RunStats are bit-identical to N independent per-image
// simulate_network() walks of the same chained inputs, for any thread count.
// Fault campaigns (red/fault/campaign.h) stream through faulted sibling
// executors on this same schedule.
// Wall-clock wave timings are recorded for throughput reporting and are the
// only non-deterministic output.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "red/arch/design.h"
#include "red/core/designs.h"
#include "red/nn/layer.h"
#include "red/plan/plan.h"
#include "red/tensor/tensor.h"

namespace red::sim {

struct StreamingOptions {
  /// Wave lanes: how many pipeline stages may execute concurrently inside
  /// one wave (1 = serial walk). Each stage may additionally tile internally
  /// via DesignConfig::threads; both levels nest safely on the shared pool.
  int threads = 1;
  /// Cross-check every (image, stage) execution against the analytic
  /// activity model (sim::consistency_issues); throws MismatchError on any
  /// disagreement, naming the stage and image.
  bool check = true;
};

/// One image's trip through the whole stack.
struct StreamingImageResult {
  Tensor<std::int32_t> output;              ///< final stage's output tensor
  std::vector<arch::RunStats> layer_stats;  ///< measured activity per stage
  arch::RunStats total;                     ///< layer_stats summed in stage order
};

struct StreamingBatchResult {
  std::string design_name;
  std::size_t depth = 0;  ///< pipeline stages
  std::vector<StreamingImageResult> images;
  arch::RunStats total;  ///< per-image totals summed in image order
  /// True when every stage executed on a programmed fast path
  /// (Design::program); false means at least one stage fell back to
  /// reprogram-per-image Design::run — padding-free, the one design without
  /// a programmed layer.
  bool programmed_fast_path = false;

  /// Wall-clock duration of each wavefront. Non-deterministic, unlike every
  /// tensor and RunStats above.
  std::vector<double> wave_ms;
  double wall_ms = 0.0;  ///< wall-clock of the whole batch

  /// Time until the first image left the pipe: the first `depth` waves.
  [[nodiscard]] double fill_ms() const;
  /// Mean steady-state image spacing: the waves after the fill (falls back
  /// to fill_ms() when the batch is too small to reach steady state).
  [[nodiscard]] double steady_interval_ms() const;
};

/// Inter-stage activation hand-off: ReLU, then the smallest uniform right
/// shift that fits every surviving value into the design's signed `abits`
/// input range — the dynamic-range requantization a fixed-point inference
/// pipeline performs between layers. Deterministic in the tensor alone.
[[nodiscard]] Tensor<std::int32_t> requantize_activations(const Tensor<std::int32_t>& t,
                                                          int abits);

/// A deconvolution stack programmed once for repeated batched execution.
/// Construction pays weight extraction, scheduling, and cell-level encoding
/// for every stage (via Design::program); stream() calls then only execute.
/// Immutable after construction; stream() is const and safe to call from
/// concurrent threads.
class StreamingExecutor {
 public:
  /// The stack must chain (workloads::validate_stack) and kernels[i] must
  /// have stack[i]'s kernel shape. Zero-padding and RED stages are always
  /// programmed once — a variation-enabled config included, whose fixed seed
  /// draws the same perturbed cells Design::run would on every image — and
  /// keep no copy of their kernel. Padding-free has no programmed layer (see
  /// arch/design.h): it keeps its kernels and runs Design::run per image —
  /// same results, no pay-once amortization.
  /// Convenience wrapper: compiles the stack plan and delegates to the
  /// plan-consuming constructor.
  StreamingExecutor(core::DesignKind kind, const arch::DesignConfig& cfg,
                    std::vector<nn::DeconvLayerSpec> stack,
                    std::span<const Tensor<std::int32_t>> kernels);

  /// Construct from an already-compiled stack plan: every stage's predicted
  /// activity comes from its LayerPlan and programming consumes the plan's
  /// mapping decisions (RED's fold and mode groups) without re-deriving
  /// them. Bit-identical behavior to the spec-taking constructor.
  StreamingExecutor(plan::StackPlan stack_plan, std::span<const Tensor<std::int32_t>> kernels);
  ~StreamingExecutor();

  StreamingExecutor(const StreamingExecutor&) = delete;
  StreamingExecutor& operator=(const StreamingExecutor&) = delete;

  [[nodiscard]] std::size_t depth() const { return stack_.size(); }
  [[nodiscard]] const std::string& design_name() const { return design_name_; }
  [[nodiscard]] bool programmed_fast_path() const { return programmed_fast_path_; }
  [[nodiscard]] const std::vector<nn::DeconvLayerSpec>& stack() const { return stack_; }
  /// The compiled mapping this executor runs.
  [[nodiscard]] const plan::StackPlan& stack_plan() const { return plan_; }
  /// Analytic activity of one stage (from the compiled plan).
  [[nodiscard]] const arch::LayerActivity& predicted(std::size_t stage) const;

  /// Drive `images` through the stack on the pipelined wavefront schedule.
  /// images[k] must have stack[0]'s input shape. Deterministic: outputs and
  /// RunStats are bit-identical for any opts.threads, and identical to
  /// per-image simulate_network() over the same chained inputs. On a
  /// consistency failure (opts.check) the first failing cell in
  /// wave-then-stage order is reported; later waves are skipped.
  [[nodiscard]] StreamingBatchResult stream(const std::vector<Tensor<std::int32_t>>& images,
                                            const StreamingOptions& opts = {}) const;

  /// One trial's fault draw on every programmed stage
  /// (ProgrammedLayer::draw_faults, stage index = fault salt, so stacked
  /// layers draw independent masks from one model), made once for every
  /// policy in `arms`: draws[i] is stage i's. Requires the programmed fast
  /// path on every stage — throws ConfigError otherwise, since a
  /// reprogram-per-image fallback cannot hold a persistent fault mask.
  [[nodiscard]] std::vector<std::vector<fault::FaultDraw>> draw_faults(
      const fault::FaultModel& model, std::span<const fault::RepairPolicy> arms) const;

  /// Faulted sibling executor: every programmed stage is replaced by its
  /// ProgrammedLayer::repaired() copy from `draws` (this executor's
  /// draw_faults(), covering `policy`), running on one lane — campaigns
  /// run their trials in parallel instead. When `reports` is non-null it
  /// receives one RepairReport per stage. The clean executor stays
  /// untouched and usable as the oracle.
  [[nodiscard]] std::unique_ptr<StreamingExecutor> repaired(
      const std::vector<std::vector<fault::FaultDraw>>& draws, const fault::RepairPolicy& policy,
      std::vector<fault::RepairReport>* reports = nullptr) const;

  /// What device variation and fault repair did to every programmed stage's
  /// crossbars (ProgrammedLayer::variation_stats, summed in stage order).
  [[nodiscard]] xbar::VariationStats variation_stats() const;

 private:
  StreamingExecutor() = default;  ///< shell for repaired() to fill in

  /// Throw MismatchError if `stats` contradicts stage `stage`'s analytic
  /// activity. `image` only labels the error message.
  void check_stage(std::size_t stage, const Tensor<std::int32_t>& input,
                   const arch::RunStats& stats, std::int64_t image) const;

  /// Execute stage `stage` on `input` (programmed layer or PF fallback),
  /// consistency-checking when asked. `image` only labels error messages.
  [[nodiscard]] Tensor<std::int32_t> run_stage(std::size_t stage,
                                               const Tensor<std::int32_t>& input,
                                               arch::RunStats& stats, bool check,
                                               std::int64_t image) const;

  plan::StackPlan plan_;  ///< owns the config (plan_.cfg) and per-stage plans
  std::vector<nn::DeconvLayerSpec> stack_;  ///< per-stage specs, for the stack() API
  std::vector<Tensor<std::int32_t>> kernels_;  ///< kept only for a PF fallback
  std::unique_ptr<arch::Design> design_;  ///< null in a repaired() sibling
  std::string design_name_;
  std::vector<std::unique_ptr<arch::ProgrammedLayer>> programmed_;  ///< null = PF fallback
  bool programmed_fast_path_ = false;
};

}  // namespace red::sim
