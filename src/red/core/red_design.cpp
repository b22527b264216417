#include "red/core/red_design.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "red/common/contracts.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/fault/inject.h"
#include "red/core/schedule.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"

namespace red::core {

namespace {

// One logical crossbar per mode group: the group's sub-crossbars stacked on
// shared bitlines (vertical sum-up), C rows each, M logical columns. Group
// gi draws its device variation with salt gi, as perturbed() does, so
// same-shaped groups get independent masks.
std::vector<xbar::LogicalXbar> build_group_xbars(const nn::DeconvLayerSpec& spec,
                                                 const std::vector<ModeGroup>& groups,
                                                 const Tensor<std::int32_t>& kernel,
                                                 const xbar::QuantConfig& quant) {
  const SubCrossbarTensor sct(spec, kernel);
  std::vector<xbar::LogicalXbar> xbars;
  xbars.reserve(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& g = groups[gi];
    std::vector<std::int32_t> w;
    w.reserve(g.scs.size() * static_cast<std::size_t>(spec.c) * spec.m);
    for (const auto& sc : g.scs) {
      const auto& blk = sct.sc_weights(sc);
      w.insert(w.end(), blk.begin(), blk.end());
    }
    xbars.emplace_back(static_cast<std::int64_t>(g.scs.size()) * spec.c, spec.m, w, quant, gi);
  }
  return xbars;
}

// Trial-invariant half of the programmed layer: config and schedule. Shared
// (const) across every perturbed and faulted sibling, so Monte Carlo and
// fault trials never rebuild the schedule.
struct RedProgram {
  arch::DesignConfig cfg;
  nn::DeconvLayerSpec spec;
  ZeroSkipSchedule schedule;

  RedProgram(arch::DesignConfig c, const nn::DeconvLayerSpec& s, int fold,
             std::vector<ModeGroup> groups)
      : cfg(std::move(c)),
        spec(s),
        schedule(s, fold, cfg.lookahead_h, cfg.lookaside_d, std::move(groups)) {}
};

class RedProgrammedLayer final : public arch::ProgrammedLayer {
 public:
  RedProgrammedLayer(std::shared_ptr<const RedProgram> prog,
                     std::vector<xbar::LogicalXbar> xbars)
      : prog_(std::move(prog)), xbars_(std::move(xbars)) {}

  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input,
                           arch::RunStats* stats) const override {
    const auto& spec = prog_->spec;
    RED_EXPECTS(input.shape() == spec.input_shape());
    const auto& schedule = prog_->schedule;
    const std::int64_t num_cycles = schedule.num_cycles();
    const int num_groups = static_cast<int>(schedule.groups().size());
    const std::int64_t out_plane = std::int64_t{spec.oh()} * spec.ow();
    const int phases = schedule.phases();
    // One output block row per batched MVM: a block's phases() coalesced
    // cycles (== fold with the lookahead/lookaside window off) are adjacent,
    // so a batch never splits a fold accumulation.
    const std::int64_t row_cycles = std::int64_t{schedule.blocks_x()} * phases;

    Tensor<std::int32_t> out(spec.output_shape());
    // Mode groups are independent executors: each owns its crossbar, its
    // fold accumulator, and a disjoint set of output pixels (one (a, b)
    // output residue class per group). Chunk them across the pool; per-chunk
    // stats are merged in chunk order after the join, so any thread count
    // reproduces the serial cycle-major walk bit-exactly.
    const std::int64_t chunks = perf::chunk_count(prog_->cfg.threads, num_groups);
    std::vector<arch::RunStats> chunk_stats(static_cast<std::size_t>(chunks));
    perf::parallel_chunks(chunks, num_groups, [&](std::int64_t t, std::int64_t g0,
                                                  std::int64_t g1) {
      arch::RunStats& local = chunk_stats[static_cast<std::size_t>(t)];
      // Thread-local workspace: Monte Carlo trials call run() thousands of
      // times, so the per-call construction cost matters here.
      thread_local perf::MvmWorkspace ws;
      GroupWork work;  // rebuilt in place each cycle, reusing inputs capacity
      std::vector<std::int32_t> gathered;  // one block row of cycle inputs
      // Output pixel each gathered cycle completes (-1: none).
      std::vector<std::int64_t> out_pixel(static_cast<std::size_t>(row_cycles));
      // Per-group accumulator carrying partial sums across fold phases (Eq. 2).
      std::vector<std::int64_t> group_acc(static_cast<std::size_t>(spec.m));
      for (std::int64_t gi = g0; gi < g1; ++gi) {
        const auto& xb = xbars_[static_cast<std::size_t>(gi)];
        const std::int64_t rows = xb.rows();
        for (std::int64_t c0 = 0; c0 < num_cycles; c0 += row_cycles) {
          const std::int64_t batch = std::min(row_cycles, num_cycles - c0);
          gathered.assign(static_cast<std::size_t>(batch * rows), 0);
          for (std::int64_t k = 0; k < batch; ++k) {
            schedule.group_work(c0 + k, static_cast<int>(gi), work);
            out_pixel[static_cast<std::size_t>(k)] =
                work.produces_output ? std::int64_t{work.out_y} * spec.ow() + work.out_x : -1;
            std::int32_t* dst = gathered.data() + k * rows;
            for (const auto& in : work.inputs) {
              if (!in.active) continue;  // zero-skip: padded zeros are never streamed
              for (int c = 0; c < spec.c; ++c)
                dst[static_cast<std::size_t>(in.sc_index) * spec.c +
                    static_cast<std::size_t>(c)] =
                    input.ptr(0, c)[std::int64_t{in.h} * spec.iw + in.w];
            }
          }
          const auto partials =
              xb.mvm_batch(gathered, batch, prog_->cfg.bit_accurate, ws, &local.mvm);
          for (std::int64_t k = 0; k < batch; ++k) {
            if ((c0 + k) % phases == 0) std::fill(group_acc.begin(), group_acc.end(), 0);
            const std::int64_t* p = partials.data() + k * spec.m;
            for (int m = 0; m < spec.m; ++m) group_acc[static_cast<std::size_t>(m)] += p[m];
            const std::int64_t pixel = out_pixel[static_cast<std::size_t>(k)];
            if (pixel >= 0)
              for (int m = 0; m < spec.m; ++m)
                out.data()[m * out_plane + pixel] =
                    static_cast<std::int32_t>(group_acc[static_cast<std::size_t>(m)]);
          }
        }
      }
    });
    arch::RunStats local;
    for (const auto& cs : chunk_stats) local += cs;
    local.cycles = num_cycles;  // cycles are a schedule property, counted once
    if (stats != nullptr) *stats = local;
    return out;
  }

  std::unique_ptr<arch::ProgrammedLayer> perturbed(
      const xbar::VariationModel& var) const override {
    std::vector<xbar::LogicalXbar> perturbed_xbars;
    perturbed_xbars.reserve(xbars_.size());
    for (std::size_t gi = 0; gi < xbars_.size(); ++gi)
      perturbed_xbars.emplace_back(xbars_[gi], var, /*salt=*/gi);
    return std::make_unique<RedProgrammedLayer>(prog_, std::move(perturbed_xbars));
  }

  std::unique_ptr<arch::ProgrammedLayer> faulted(const fault::FaultModel& model,
                                                 const fault::RepairPolicy& policy,
                                                 std::uint64_t salt,
                                                 fault::RepairReport* report) const override {
    std::vector<xbar::LogicalXbar> faulted_xbars;
    faulted_xbars.reserve(xbars_.size());
    fault::RepairReport total;
    for (std::size_t gi = 0; gi < xbars_.size(); ++gi) {
      // Sub-salt per group crossbar so groups draw independent fault masks;
      // 4096 bounds any realistic group count while keeping salts disjoint
      // across layers salted 0, 1, 2, ...
      fault::RepairReport rep;
      faulted_xbars.push_back(fault::inject_faults(xbars_[gi], model, policy,
                                                   salt * 4096 + gi, &rep));
      total += rep;
    }
    if (report != nullptr) *report = total;
    return std::make_unique<RedProgrammedLayer>(prog_, std::move(faulted_xbars));
  }

  xbar::VariationStats variation_stats() const override {
    xbar::VariationStats total;
    for (const auto& xb : xbars_) total += xb.variation_stats();
    return total;
  }

 private:
  std::shared_ptr<const RedProgram> prog_;
  std::vector<xbar::LogicalXbar> xbars_;
};

}  // namespace

int RedDesign::fold_for(const nn::DeconvLayerSpec& spec) const {
  return plan::resolve_fold(arch::DesignKind::kRed, spec, cfg_);
}

std::unique_ptr<arch::ProgrammedLayer> RedDesign::program(
    const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel) const {
  check_plan(plan);
  RED_EXPECTS(kernel.shape() == plan.spec.kernel_shape());
  // Consume the compiled mapping: fold and mode groups come from the plan.
  auto prog = std::make_shared<RedProgram>(cfg_, plan.spec, plan.fold, plan.groups);
  auto xbars = build_group_xbars(plan.spec, prog->schedule.groups(), kernel, cfg_.quant);
  return std::make_unique<RedProgrammedLayer>(std::move(prog), std::move(xbars));
}

}  // namespace red::core
