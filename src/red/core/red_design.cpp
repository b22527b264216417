#include "red/core/red_design.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "red/common/contracts.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/fault/inject.h"
#include "red/core/schedule.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"

namespace red::core {

namespace {

// Sub-salt of group gi in a layer salted `salt`: 4096 bounds any realistic
// group count while keeping salts disjoint across layers salted 0, 1, 2, ...
std::uint64_t group_salt(std::uint64_t salt, std::size_t gi) { return salt * 4096 + gi; }

// One logical crossbar per mode group: the group's sub-crossbars stacked on
// shared bitlines (vertical sum-up), C rows each, M logical columns. Group
// gi draws its device variation with group_salt(salt, gi) (gi at salt 0, as
// perturbed() does), so same-shaped groups and layers get independent masks.
// Eq. (1): sub-crossbar (i, j) is the kernel's contiguous C x M block at tap
// (i, j) (sc_block), so a group's rows are gathered straight from the kernel
// into one buffer its lane reuses across groups (not reserved at the exact
// group size: letting it grow geometrically keeps glibc from trimming and
// re-faulting the heap on every program; see docs/PERFORMANCE.md, "One
// campaign driver"). Groups are independent: each of `threads` lanes builds
// a contiguous range of them into its own vector, joined in group order, so
// every lane count programs the same crossbars and one lane builds them in
// place. (Building into per-group slots and moving them out instead made
// glibc trim and re-fault the heap on every program: red-stream-exact's
// setup_s rose ~35%.)
std::vector<xbar::LogicalXbar> build_group_xbars(const nn::DeconvLayerSpec& spec,
                                                 const std::vector<ModeGroup>& groups,
                                                 const Tensor<std::int32_t>& kernel,
                                                 const xbar::QuantConfig& quant,
                                                 std::uint64_t salt, int threads) {
  const auto num_groups = std::ssize(groups);
  const std::int64_t chunks = perf::chunk_count(threads, num_groups);
  std::vector<std::vector<xbar::LogicalXbar>> parts(static_cast<std::size_t>(chunks));
  perf::parallel_chunks(chunks, num_groups, [&](std::int64_t t, std::int64_t g0, std::int64_t g1) {
    auto& part = parts[static_cast<std::size_t>(t)];
    part.reserve(static_cast<std::size_t>(g1 - g0));
    std::vector<std::int32_t> w;
    for (std::int64_t gi = g0; gi < g1; ++gi) {
      const auto& g = groups[static_cast<std::size_t>(gi)];
      w.clear();
      for (const auto& sc : g.scs) {
        const auto blk = sc_block(spec, kernel, sc);
        w.insert(w.end(), blk.begin(), blk.end());
      }
      part.emplace_back(static_cast<std::int64_t>(g.scs.size()) * spec.c, spec.m, w, quant,
                        group_salt(salt, static_cast<std::size_t>(gi)));
    }
  });
  std::vector<xbar::LogicalXbar> xbars = std::move(parts.front());
  for (std::size_t t = 1; t < parts.size(); ++t)
    for (auto& x : parts[t]) xbars.push_back(std::move(x));
  return xbars;
}

// One mode group's walk of the schedule, resolved to pixels: which input
// pixel each SC reads and which output pixel each cycle completes. Both are
// fixed by the schedule, whatever the input.
struct GatherTable {
  /// Cycles come in block rows of row_cycles (the last may be shorter); the
  /// block row starting at cycle c0 holds num_sc * batch entries at
  /// num_sc * c0, SC-major ([sc][k]). An entry is h * iw + w, or
  /// ih * iw (the zero slot after each input plane) for an idle SC.
  std::vector<std::int32_t> sc_pixel;
  std::vector<std::int64_t> out_pixel;  ///< per cycle: oy * ow + ox, or -1
};

std::vector<GatherTable> build_gather_tables(const ZeroSkipSchedule& schedule) {
  const auto& spec = schedule.spec();
  const std::int64_t num_cycles = schedule.num_cycles();
  const std::int64_t row_cycles = std::int64_t{schedule.blocks_x()} * schedule.phases();
  const auto idle = static_cast<std::int32_t>(std::int64_t{spec.ih} * spec.iw);
  std::vector<GatherTable> tables(schedule.groups().size());
  GroupWork work;  // rebuilt in place each cycle, reusing inputs capacity
  for (std::size_t gi = 0; gi < tables.size(); ++gi) {
    auto& t = tables[gi];
    const auto num_sc = static_cast<std::int64_t>(schedule.groups()[gi].scs.size());
    t.sc_pixel.assign(static_cast<std::size_t>(num_sc * num_cycles), idle);
    t.out_pixel.resize(static_cast<std::size_t>(num_cycles));
    for (std::int64_t c0 = 0; c0 < num_cycles; c0 += row_cycles) {
      const std::int64_t batch = std::min(row_cycles, num_cycles - c0);
      std::int32_t* block = t.sc_pixel.data() + num_sc * c0;
      for (std::int64_t k = 0; k < batch; ++k) {
        schedule.group_work(c0 + k, static_cast<int>(gi), work);
        t.out_pixel[static_cast<std::size_t>(c0 + k)] =
            work.produces_output ? std::int64_t{work.out_y} * spec.ow() + work.out_x : -1;
        for (const auto& in : work.inputs)
          if (in.active)  // zero-skip: padded zeros are never streamed
            block[in.sc_index * batch + k] = in.h * spec.iw + in.w;
      }
    }
  }
  return tables;
}

// Trial-invariant half of the programmed layer: config, schedule and its
// gather tables. Shared (const) across every perturbed and faulted sibling,
// so Monte Carlo and fault trials never rebuild or re-walk the schedule.
struct RedProgram {
  arch::DesignConfig cfg;
  nn::DeconvLayerSpec spec;
  ZeroSkipSchedule schedule;
  std::vector<GatherTable> gather;  ///< one per mode group

  RedProgram(arch::DesignConfig c, const nn::DeconvLayerSpec& s, int fold,
             std::vector<ModeGroup> groups)
      : cfg(std::move(c)),
        spec(s),
        schedule(s, fold, cfg.lookahead_h, cfg.lookaside_d, std::move(groups)),
        gather(build_gather_tables(schedule)) {}
};

class RedProgrammedLayer final : public arch::ProgrammedLayer {
 public:
  RedProgrammedLayer(std::shared_ptr<const RedProgram> prog,
                     std::vector<xbar::LogicalXbar> xbars, int threads)
      : prog_(std::move(prog)), xbars_(std::move(xbars)), threads_(threads) {}

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

    // The input planes, each followed by one zero: an idle SC reads that
    // slot, so the gather below copies without a branch.
    const std::int64_t in_plane = std::int64_t{spec.ih} * spec.iw;
    const std::int64_t padded_plane = in_plane + 1;
    std::vector<std::int32_t> padded(static_cast<std::size_t>(spec.c * padded_plane), 0);
    std::vector<std::int32_t> channel_offset(static_cast<std::size_t>(spec.c));
    for (int c = 0; c < spec.c; ++c) {
      std::copy_n(input.ptr(0, c), in_plane, padded.data() + c * padded_plane);
      channel_offset[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(c * padded_plane);
    }

    Tensor<std::int32_t> out(spec.output_shape());
    // Mode groups are independent executors: each owns its crossbar, its
    // fold accumulator, and a disjoint set of output pixels (one (a, b)
    // output residue class per group). Chunk them across the pool; per-chunk
    // stats are merged in chunk order after the join, so any thread count
    // reproduces the serial cycle-major walk bit-exactly.
    const std::int64_t chunks = perf::chunk_count(threads_, num_groups);
    std::vector<arch::RunStats> chunk_stats(static_cast<std::size_t>(chunks));
    perf::parallel_chunks(chunks, num_groups, [&](std::int64_t t, std::int64_t g0,
                                                  std::int64_t g1) {
      arch::RunStats& local = chunk_stats[static_cast<std::size_t>(t)];
      // Thread-local workspace: Monte Carlo trials call run() thousands of
      // times, so the per-call construction cost matters here.
      thread_local perf::MvmWorkspace ws;
      std::vector<std::int32_t> gathered;  // one block row of cycle inputs
      // Per-group accumulator carrying partial sums across fold phases (Eq. 2).
      std::vector<std::int64_t> group_acc(static_cast<std::size_t>(spec.m));
      for (std::int64_t gi = g0; gi < g1; ++gi) {
        const auto& xb = xbars_[static_cast<std::size_t>(gi)];
        const std::int64_t rows = xb.rows();
        const std::int64_t num_sc = rows / spec.c;
        // On the exact kernel's batch sweep the gather writes its block
        // batch-minor (row r of cycle k at r * batch + k), read in place.
        const bool batch_minor = perf::reads_batch_minor(xb, prog_->cfg.bit_accurate);
        const GatherTable& table = prog_->gather[static_cast<std::size_t>(gi)];
        for (std::int64_t c0 = 0; c0 < num_cycles; c0 += row_cycles) {
          const std::int64_t batch = std::min(row_cycles, num_cycles - c0);
          const std::int32_t* sc_pixel = table.sc_pixel.data() + num_sc * c0;
          const std::int64_t* out_pixel = table.out_pixel.data() + c0;
          // Every element, by vector gathers along contiguous rows of the
          // block: one channel across the cycles (batch-minor), or one SC's
          // channels in one cycle (vector-major).
          gathered.resize(static_cast<std::size_t>(batch * rows));
          for (std::int64_t sc = 0; sc < num_sc; ++sc) {
            const std::int32_t* pixel = sc_pixel + sc * batch;
            if (batch_minor) {
              for (int c = 0; c < spec.c; ++c)
                perf::gather_inputs(padded.data() + c * padded_plane,
                                    {pixel, static_cast<std::size_t>(batch)},
                                    gathered.data() + (sc * spec.c + c) * batch);
            } else {
              for (std::int64_t k = 0; k < batch; ++k)
                perf::gather_inputs(padded.data() + pixel[k], channel_offset,
                                    gathered.data() + k * rows + sc * spec.c);
            }
          }
          const auto partials =
              batch_minor ? perf::mvm_exact_batch_minor(xb, gathered, batch, ws, &local.mvm)
                          : xb.mvm_batch(gathered, batch, prog_->cfg.bit_accurate, ws,
                                         &local.mvm);
          for (std::int64_t k = 0; k < batch; ++k) {
            if ((c0 + k) % phases == 0) std::fill(group_acc.begin(), group_acc.end(), 0);
            const std::int64_t* p = partials.data() + k * spec.m;
            for (int m = 0; m < spec.m; ++m) group_acc[static_cast<std::size_t>(m)] += p[m];
            const std::int64_t pixel = out_pixel[k];
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
    return std::make_unique<RedProgrammedLayer>(prog_, std::move(perturbed_xbars), threads_);
  }

  std::vector<fault::FaultDraw> draw_faults(const fault::FaultModel& model,
                                            std::span<const fault::RepairPolicy> arms,
                                            std::uint64_t salt) const override {
    // Sub-salt per group crossbar so groups draw independent fault masks.
    std::vector<fault::FaultDraw> draws;
    draws.reserve(xbars_.size());
    for (std::size_t gi = 0; gi < xbars_.size(); ++gi)
      draws.push_back(fault::draw_faults(xbars_[gi], model, arms, group_salt(salt, gi)));
    return draws;
  }

  std::unique_ptr<arch::ProgrammedLayer> repaired(std::span<const fault::FaultDraw> draws,
                                                  const fault::RepairPolicy& policy,
                                                  fault::RepairReport* report,
                                                  int threads) const override {
    RED_EXPECTS(draws.size() == xbars_.size());
    std::vector<xbar::LogicalXbar> faulted_xbars;
    faulted_xbars.reserve(xbars_.size());
    fault::RepairReport total;
    for (std::size_t gi = 0; gi < xbars_.size(); ++gi) {
      fault::RepairReport rep;
      faulted_xbars.push_back(fault::repair_faults(xbars_[gi], draws[gi], policy, &rep));
      total += rep;
    }
    if (report != nullptr) *report = total;
    return std::make_unique<RedProgrammedLayer>(prog_, std::move(faulted_xbars),
                                                threads > 0 ? threads : threads_);
  }

  xbar::VariationStats variation_stats() const override {
    xbar::VariationStats total;
    for (const auto& xb : xbars_) total += xb.variation_stats();
    return total;
  }

 private:
  std::shared_ptr<const RedProgram> prog_;
  std::vector<xbar::LogicalXbar> xbars_;
  int threads_;  ///< run() lanes over the mode groups
};

}  // namespace

int RedDesign::fold_for(const nn::DeconvLayerSpec& spec) const {
  return plan::resolve_fold(arch::DesignKind::kRed, spec, cfg_);
}

std::unique_ptr<arch::ProgrammedLayer> RedDesign::program(
    const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel,
    std::uint64_t variation_salt) const {
  check_plan(plan);
  RED_EXPECTS(kernel.shape() == plan.spec.kernel_shape());
  // Consume the compiled mapping: fold and mode groups come from the plan.
  auto prog = std::make_shared<RedProgram>(cfg_, plan.spec, plan.fold, plan.groups);
  auto xbars = build_group_xbars(plan.spec, prog->schedule.groups(), kernel, cfg_.quant,
                                 variation_salt, cfg_.threads);
  return std::make_unique<RedProgrammedLayer>(std::move(prog), std::move(xbars), cfg_.threads);
}

}  // namespace red::core
