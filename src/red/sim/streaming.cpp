#include "red/sim/streaming.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>
#include <utility>

#include "red/common/contracts.h"
#include "red/common/error.h"
#include "red/common/string_util.h"
#include "red/perf/thread_pool.h"
#include "red/sim/engine.h"
#include "red/telemetry/metrics.h"
#include "red/telemetry/tracer.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/networks.h"

namespace red::sim {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Static span names per pipeline stage: trace recording never allocates, so
/// stage identity comes from a fixed literal table (deep stacks share a
/// tail bucket).
const char* stage_span_name(std::size_t stage) {
  static constexpr const char* kNames[] = {
      "streaming.stage[0]",  "streaming.stage[1]",  "streaming.stage[2]",
      "streaming.stage[3]",  "streaming.stage[4]",  "streaming.stage[5]",
      "streaming.stage[6]",  "streaming.stage[7]",  "streaming.stage[8]",
      "streaming.stage[9]",  "streaming.stage[10]", "streaming.stage[11]",
      "streaming.stage[12]", "streaming.stage[13]", "streaming.stage[14]",
      "streaming.stage[15]"};
  constexpr std::size_t kKnown = sizeof(kNames) / sizeof(kNames[0]);
  return stage < kKnown ? kNames[stage] : "streaming.stage[16+]";
}

}  // namespace

double StreamingBatchResult::fill_ms() const {
  const std::size_t n = std::min(depth, wave_ms.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += wave_ms[i];
  return sum;
}

double StreamingBatchResult::steady_interval_ms() const {
  if (wave_ms.size() <= depth) return fill_ms();
  double sum = 0.0;
  for (std::size_t i = depth; i < wave_ms.size(); ++i) sum += wave_ms[i];
  return sum / static_cast<double>(wave_ms.size() - depth);
}

Tensor<std::int32_t> requantize_activations(const Tensor<std::int32_t>& t, int abits) {
  RED_EXPECTS(abits >= 2);
  const std::int64_t n = t.size();
  const std::int32_t* src = t.data();
  std::uint32_t maxv = 0;
  for (std::int64_t i = 0; i < n; ++i)
    if (src[i] > 0) maxv = std::max(maxv, static_cast<std::uint32_t>(src[i]));
  // Values must stay strictly inside the signed abits range: < 2^(abits-1).
  const int shift = std::max(0, static_cast<int>(std::bit_width(maxv)) - (abits - 1));
  Tensor<std::int32_t> out(t.shape());
  std::int32_t* dst = out.data();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = (src[i] > 0 ? src[i] : 0) >> shift;
  return out;
}

StreamingExecutor::StreamingExecutor(core::DesignKind kind, const arch::DesignConfig& cfg,
                                     std::vector<nn::DeconvLayerSpec> stack,
                                     std::vector<Tensor<std::int32_t>> kernels)
    : StreamingExecutor(plan::plan_stack(kind, stack, cfg), std::move(kernels)) {}

StreamingExecutor::StreamingExecutor(plan::StackPlan stack_plan,
                                     std::vector<Tensor<std::int32_t>> kernels)
    : plan_(std::move(stack_plan)), kernels_(std::move(kernels)) {
  stack_.reserve(plan_.layers.size());
  for (const auto& lp : plan_.layers) stack_.push_back(lp.spec);
  RED_EXPECTS_MSG(!stack_.empty(), "streaming stack must have at least one stage");
  RED_EXPECTS_MSG(stack_.size() == kernels_.size(), "one kernel per stage");
  workloads::validate_stack(stack_);
  for (std::size_t i = 0; i < stack_.size(); ++i)
    RED_EXPECTS_MSG(kernels_[i].shape() == stack_[i].kernel_shape(),
                    "kernel shape must match its stage's layer spec");

  design_ = core::make_design(plan_.kind, plan_.cfg);
  design_name_ = design_->name();

  // Pay-once programming, consuming each stage's compiled plan. A
  // variation-enabled config programs its perturbed cells here, once: the
  // fixed seed would draw the same cells on every image anyway. Stage i
  // draws with salt i, as faulted() does, so layers get independent masks.
  programmed_.resize(stack_.size());
  for (std::size_t i = 0; i < stack_.size(); ++i)
    programmed_[i] = design_->program(plan_.layers[i], kernels_[i], /*variation_salt=*/i);
  programmed_fast_path_ =
      std::all_of(programmed_.begin(), programmed_.end(),
                  [](const auto& p) { return p != nullptr; });
}

StreamingExecutor::~StreamingExecutor() = default;

std::vector<std::vector<fault::FaultDraw>> StreamingExecutor::draw_faults(
    const fault::FaultModel& model, std::span<const fault::RepairPolicy> arms) const {
  if (!programmed_fast_path_)
    throw ConfigError("fault injection needs the programmed fast path on every stage: design '" +
                      design_name_ + "' has a reprogram-per-image fallback stage");
  std::vector<std::vector<fault::FaultDraw>> draws;
  draws.reserve(programmed_.size());
  for (std::size_t i = 0; i < programmed_.size(); ++i)
    draws.push_back(programmed_[i]->draw_faults(model, arms, /*salt=*/i));
  return draws;
}

std::unique_ptr<StreamingExecutor> StreamingExecutor::repaired(
    const std::vector<std::vector<fault::FaultDraw>>& draws, const fault::RepairPolicy& policy,
    std::vector<fault::RepairReport>* reports) const {
  RED_EXPECTS_MSG(programmed_fast_path_ && draws.size() == programmed_.size(),
                  "one fault draw per programmed stage");
  // Private default ctor: clone the compiled plan and stack, then swap every
  // programmed stage for its faulted sibling. design_ is rebuilt (Designs are
  // non-copyable) but never reprograms — execution goes through programmed_.
  std::unique_ptr<StreamingExecutor> out(new StreamingExecutor());
  out->plan_ = plan_;
  out->stack_ = stack_;
  out->kernels_ = kernels_;
  out->design_ = core::make_design(plan_.kind, plan_.cfg);
  out->design_name_ = design_name_;
  out->programmed_.resize(programmed_.size());
  if (reports != nullptr) reports->assign(programmed_.size(), {});
  for (std::size_t i = 0; i < programmed_.size(); ++i) {
    fault::RepairReport rep;
    out->programmed_[i] = programmed_[i]->repaired(draws[i], policy, &rep);
    if (reports != nullptr) (*reports)[i] = rep;
  }
  out->programmed_fast_path_ = true;
  return out;
}

std::unique_ptr<StreamingExecutor> StreamingExecutor::faulted(
    const fault::FaultModel& model, const fault::RepairPolicy& policy,
    std::vector<fault::RepairReport>* reports) const {
  return repaired(draw_faults(model, {&policy, 1}), policy, reports);
}

const arch::LayerActivity& StreamingExecutor::predicted(std::size_t stage) const {
  RED_EXPECTS(stage < plan_.layers.size());
  return plan_.layers[stage].activity;
}

void StreamingExecutor::check_stage(std::size_t stage, const Tensor<std::int32_t>& input,
                                    const arch::RunStats& stats, std::int64_t image) const {
  const bool exact_drives = count_zeros(input) == 0;
  const auto issues = consistency_issues(plan_.layers[stage].activity, stats, exact_drives);
  if (!issues.empty())
    throw MismatchError("streaming stage '" + stack_[stage].name + "' of design '" +
                        design_name_ + "' on image " + std::to_string(image) +
                        " is inconsistent: " + join(issues, "; "));
}

Tensor<std::int32_t> StreamingExecutor::run_stage(std::size_t stage,
                                                  const Tensor<std::int32_t>& input,
                                                  arch::RunStats& stats, bool check,
                                                  std::int64_t image) const {
  // Observe-only instrumentation: one branch each when no sink is installed.
  telemetry::ScopedSpan span(stage_span_name(stage), "sim");
  auto* m = telemetry::metrics();
  const Clock::time_point t0 = m != nullptr ? Clock::now() : Clock::time_point{};
  Tensor<std::int32_t> out =
      programmed_[stage] != nullptr
          ? programmed_[stage]->run(input, &stats)
          : design_->run(stack_[stage], input, kernels_[stage], &stats);
  if (check) check_stage(stage, input, stats, image);
  if (m != nullptr) {
    m->counter("streaming.cells")->add(1);
    m->histogram("streaming.stage_latency_ns")->record(ns_since(t0));
  }
  return out;
}

StreamingBatchResult StreamingExecutor::stream(const std::vector<Tensor<std::int32_t>>& images,
                                               const StreamingOptions& opts) const {
  RED_EXPECTS(opts.threads >= 1);
  const std::size_t depth = stack_.size();
  const auto n_images = static_cast<std::int64_t>(images.size());

  StreamingBatchResult result;
  result.design_name = design_name_;
  result.depth = depth;
  result.programmed_fast_path = programmed_fast_path_;
  result.images.resize(images.size());
  for (auto& img : result.images) img.layer_stats.resize(depth);
  if (n_images == 0) return result;

  // Double buffers: a stage reads wave_in (last wave's hand-off) while its
  // successor's next input lands in staged; the swap below is the hand-off.
  std::vector<Tensor<std::int32_t>> wave_in(depth);
  std::vector<Tensor<std::int32_t>> staged(depth);
  const std::int64_t waves = n_images + static_cast<std::int64_t>(depth) - 1;
  result.wave_ms.reserve(static_cast<std::size_t>(waves));
  const auto t_start = Clock::now();

  for (std::int64_t d = 0; d < waves; ++d) {
    // Wave d runs cell (stage i, image d - i) for every resident image.
    const std::int64_t lo = std::max<std::int64_t>(0, d - n_images + 1);
    const std::int64_t hi = std::min<std::int64_t>(d, static_cast<std::int64_t>(depth) - 1);
    const std::int64_t cells = hi - lo + 1;
    telemetry::ScopedSpan wave_span("streaming.wave", "sim");
    if (auto* m = telemetry::metrics()) {
      m->counter("streaming.waves")->add(1);
      m->histogram("streaming.wave_occupancy")->record(static_cast<std::uint64_t>(cells));
    }
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(cells));
    const auto t_wave = Clock::now();
    perf::parallel_chunks(
        perf::chunk_count(opts.threads, cells), cells,
        [&](std::int64_t, std::int64_t c0, std::int64_t c1) {
          for (std::int64_t c = c0; c < c1; ++c) {
            const auto i = static_cast<std::size_t>(lo + c);  // stage
            const std::int64_t k = d - static_cast<std::int64_t>(i);  // image
            try {
              const Tensor<std::int32_t>& in =
                  i == 0 ? images[static_cast<std::size_t>(k)] : wave_in[i];
              Tensor<std::int32_t> out = run_stage(
                  i, in, result.images[static_cast<std::size_t>(k)].layer_stats[i],
                  opts.check, k);
              if (i + 1 < depth)
                staged[i + 1] = requantize_activations(out, plan_.cfg.quant.abits);
              else
                result.images[static_cast<std::size_t>(k)].output = std::move(out);
            } catch (...) {
              errors[static_cast<std::size_t>(c)] = std::current_exception();
            }
          }
        });
    // Deterministic error choice: every cell of the wave runs to completion
    // (cells are independent — a wave is at most `depth` of them, so there
    // is no early-exit flag to race on) and the failing cell with the
    // lowest stage index surfaces, identically for every thread count.
    for (const auto& err : errors)
      if (err) std::rethrow_exception(err);
    for (std::int64_t i = lo; i <= hi; ++i)
      if (i + 1 < static_cast<std::int64_t>(depth))
        wave_in[static_cast<std::size_t>(i + 1)] =
            std::move(staged[static_cast<std::size_t>(i + 1)]);
    result.wave_ms.push_back(ms_since(t_wave));
  }

  for (auto& img : result.images) {
    for (const auto& s : img.layer_stats) img.total += s;
    result.total += img.total;
  }
  result.wall_ms = ms_since(t_start);
  return result;
}

StreamingBatchResult StreamingExecutor::stream_layer_major(
    const std::vector<Tensor<std::int32_t>>& images, const StreamingOptions& opts) const {
  RED_EXPECTS(opts.threads >= 1);
  const std::size_t depth = stack_.size();
  const std::size_t n = images.size();

  StreamingBatchResult result;
  result.design_name = design_name_;
  result.depth = depth;
  result.programmed_fast_path = programmed_fast_path_;
  result.images.resize(n);
  for (auto& img : result.images) img.layer_stats.resize(depth);
  if (n == 0) return result;

  const auto t_start = Clock::now();
  std::vector<Tensor<std::int32_t>> current;  // stage input batch (stage > 0)
  for (std::size_t i = 0; i < depth; ++i) {
    telemetry::ScopedSpan stage_span(stage_span_name(i), "sim");
    const std::span<const Tensor<std::int32_t>> ins =
        i == 0 ? std::span<const Tensor<std::int32_t>>(images)
               : std::span<const Tensor<std::int32_t>>(current);
    std::vector<arch::RunStats> stage_stats;
    std::vector<Tensor<std::int32_t>> outs;
    if (programmed_[i] != nullptr) {
      outs = programmed_[i]->run_batch(ins, &stage_stats);
    } else {
      stage_stats.assign(n, {});
      outs.reserve(n);
      for (std::size_t k = 0; k < n; ++k)
        outs.push_back(design_->run(stack_[i], ins[k], kernels_[i], &stage_stats[k]));
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (opts.check) check_stage(i, ins[k], stage_stats[k], static_cast<std::int64_t>(k));
      result.images[k].layer_stats[i] = stage_stats[k];
    }
    if (i + 1 < depth) {
      std::vector<Tensor<std::int32_t>> next(n);
      for (std::size_t k = 0; k < n; ++k)
        next[k] = requantize_activations(outs[k], plan_.cfg.quant.abits);
      current = std::move(next);
    } else {
      for (std::size_t k = 0; k < n; ++k) result.images[k].output = std::move(outs[k]);
    }
  }

  for (auto& img : result.images) {
    for (const auto& s : img.layer_stats) img.total += s;
    result.total += img.total;
  }
  result.wall_ms = ms_since(t_start);
  return result;
}

}  // namespace red::sim
