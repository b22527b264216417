#include "red/core/red_design.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "red/arch/gathered_run.h"
#include "red/common/contracts.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/core/schedule.h"
#include "red/perf/thread_pool.h"
#include "red/plan/plan.h"

namespace red::core {

namespace {

// Sub-salt of group gi in a layer salted `salt`: 4096 bounds any realistic
// group count while keeping salts disjoint across layers salted 0, 1, 2, ...
constexpr std::uint64_t kGroupSalts = 4096;
std::uint64_t group_salt(std::uint64_t salt, std::size_t gi) { return salt * kGroupSalts + gi; }

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

// One gather table per mode group (xbar gi): the group's walk of the
// schedule resolved to pixels, in blocks of one output block row
// (blocks_x() * phases() cycles; the last may be shorter). A block's
// phases() coalesced cycles (== fold with the lookahead/lookaside window
// off) are adjacent, so a block never splits a fold accumulation. Slot sc
// is the group's sub-crossbar sc; an idle SC reads the zero slot.
std::vector<arch::GatherTable> build_gather_tables(const ZeroSkipSchedule& schedule) {
  const auto& spec = schedule.spec();
  std::vector<arch::GatherTable> tables(schedule.groups().size());
  GroupWork work;  // rebuilt in place each cycle, reusing inputs capacity
  for (std::size_t gi = 0; gi < tables.size(); ++gi) {
    auto& t = tables[gi];
    t.xbar = gi;
    t.block = std::int64_t{schedule.blocks_x()} * schedule.phases();
    const auto fill = [&](std::int64_t cycle, arch::VectorSlots slot) {
      schedule.group_work(cycle, static_cast<int>(gi), work);
      for (const auto& in : work.inputs)
        if (in.active)  // zero-skip: padded zeros are never streamed
          slot.set(in.sc_index, in.h * spec.iw + in.w);
      return work.produces_output ? std::int64_t{work.out_y} * spec.ow() + work.out_x : -1;
    };
    arch::fill_table(t, spec, schedule.num_cycles(), std::ssize(schedule.groups()[gi].scs), fill);
  }
  return tables;
}

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
  // Mode groups are independent executors: each owns its crossbar, its
  // fold accumulator (one period of phases() cycles) and a disjoint set of
  // output pixels (one (a, b) output residue class per group). Cycles are a
  // schedule property, counted once.
  const ZeroSkipSchedule schedule(plan.spec, plan.fold, cfg_.lookahead_h, cfg_.lookaside_d,
                                  plan.groups);
  auto prog = std::make_shared<const arch::GatheredProgram>(
      arch::GatheredProgram{plan.spec, build_gather_tables(schedule), schedule.phases(),
                            schedule.num_cycles(), cfg_.bit_accurate, kGroupSalts});
  return arch::make_gathered_layer(std::move(prog),
                                   build_group_xbars(plan.spec, schedule.groups(), kernel,
                                                     cfg_.quant, variation_salt, cfg_.threads),
                                   cfg_.threads);
}

}  // namespace red::core
