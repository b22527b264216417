#include "red/arch/zero_padding_design.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "red/common/contracts.h"
#include "red/fault/inject.h"
#include "red/nn/conv.h"
#include "red/nn/deconv_zero_padding.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"

namespace red::arch {

namespace {

/// Thread-local: a run's plane is its caller's canvas, tile windows its runner's.
perf::MvmWorkspace& zp_workspace() {
  thread_local perf::MvmWorkspace ws;
  return ws;
}

class ZpProgrammedLayer final : public ProgrammedLayer {
 public:
  ZpProgrammedLayer(nn::DeconvLayerSpec spec, int threads, bool bit_accurate,
                    xbar::LogicalXbar macro)
      : spec_(std::move(spec)),
        threads_(threads),
        bit_accurate_(bit_accurate),
        macro_(std::move(macro)) {}

  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input, RunStats* stats) const override {
    const auto& spec = spec_;
    const int oh = spec.oh(), ow = spec.ow();
    const std::int64_t out_plane = std::int64_t{oh} * ow;
    // Windows are row copies: batch-minor for the exact kernel's batch sweep
    // (macro row (i*KW + j)*C + c is `ow` values of the channel-major
    // plane), else vector-major (KH runs of KW*C channel-minor values).
    const bool batch_minor = perf::reads_batch_minor(macro_, bit_accurate_);
    const nn::PaddedGeometry g = nn::padded_geometry(spec);
    const std::int64_t ph = g.padded_h, pw = g.padded_w;
    const std::int64_t run = std::int64_t{spec.kw} * spec.c;
    std::vector<std::int32_t>& plane = zp_workspace().canvas;
    plane.assign(static_cast<std::size_t>(spec.c * ph * pw), 0);
    nn::zero_insert(spec, input, batch_minor, plane);  // checks the input's shape

    Tensor<std::int32_t> out(spec.output_shape());
    // Output rows are independent: tile them across the pool. Each tile
    // builds one output row of windows at a time and runs it as one batched
    // MVM; per-tile RunStats slots are merged in tile order after the join,
    // so any thread count is bit-exact vs serial.
    const std::int64_t tiles = perf::chunk_count(threads_, oh);
    std::vector<RunStats> tile_stats(static_cast<std::size_t>(tiles));
    perf::parallel_chunks(tiles, oh, [&](std::int64_t t, std::int64_t y0, std::int64_t y1) {
      RunStats& local = tile_stats[static_cast<std::size_t>(t)];
      perf::MvmWorkspace& ws = zp_workspace();
      ws.windows.resize(static_cast<std::size_t>(ow * macro_.rows()));
      for (std::int64_t y = y0; y < y1; ++y) {
        std::int32_t* dst = ws.windows.data();
        if (batch_minor) {
          for (int i = 0; i < spec.kh; ++i)
            for (int j = 0; j < spec.kw; ++j)
              for (int c = 0; c < spec.c; ++c, dst += ow)
                std::copy_n(plane.data() + (c * ph + y + i) * pw + j, ow, dst);
        } else {
          for (int x = 0; x < ow; ++x)
            for (int i = 0; i < spec.kh; ++i, dst += run)
              std::copy_n(plane.data() + ((y + i) * pw + x) * spec.c, run, dst);
        }
        const auto results =
            batch_minor ? perf::mvm_exact_batch_minor(macro_, ws.windows, ow, ws, &local.mvm)
                        : macro_.mvm_batch(ws.windows, ow, bit_accurate_, ws, &local.mvm);
        local.cycles += ow;
        for (int x = 0; x < ow; ++x) {
          const std::int64_t* res = results.data() + std::int64_t{x} * spec.m;
          std::int32_t* opix = out.data() + y * ow + x;
          for (int m = 0; m < spec.m; ++m)
            opix[m * out_plane] = static_cast<std::int32_t>(res[m]);
        }
      }
    });
    RunStats local;
    for (const auto& ts : tile_stats) local += ts;
    if (stats != nullptr) *stats = local;
    return out;
  }

  std::unique_ptr<ProgrammedLayer> perturbed(const xbar::VariationModel& var) const override {
    return std::make_unique<ZpProgrammedLayer>(
        spec_, threads_, bit_accurate_, xbar::LogicalXbar(macro_, var, /*salt=*/0));
  }

  std::vector<fault::FaultDraw> draw_faults(const fault::FaultModel& model,
                                            std::span<const fault::RepairPolicy> arms,
                                            std::uint64_t salt) const override {
    return {fault::draw_faults(macro_, model, arms, salt)};
  }

  std::unique_ptr<ProgrammedLayer> repaired(std::span<const fault::FaultDraw> draws,
                                            const fault::RepairPolicy& policy,
                                            fault::RepairReport* report,
                                            int threads) const override {
    RED_EXPECTS(draws.size() == 1);
    return std::make_unique<ZpProgrammedLayer>(
        spec_, threads > 0 ? threads : threads_, bit_accurate_,
        fault::repair_faults(macro_, draws.front(), policy, report));
  }

  xbar::VariationStats variation_stats() const override { return macro_.variation_stats(); }

 private:
  nn::DeconvLayerSpec spec_;
  int threads_;
  bool bit_accurate_;
  xbar::LogicalXbar macro_;
};

}  // namespace

// The activity model lives in plan.cpp (zero_padding_activity): the compile
// layer is the single home of the mapping arithmetic.

std::unique_ptr<ProgrammedLayer> ZeroPaddingDesign::program(
    const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel,
    std::uint64_t variation_salt) const {
  check_plan(plan);
  const auto& spec = plan.spec;
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());
  // Macro row (i*KW + j)*C + c holds the 180-degree-rotated kernel's tap
  // (i, j, c), the stride-1 convolution form of Algorithm 1, step b.
  const Tensor<std::int32_t> rot = nn::rotate180(kernel);
  const std::int64_t rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  xbar::LogicalXbar macro(rows, spec.m, {rot.data(), static_cast<std::size_t>(rot.size())},
                          cfg_.quant, variation_salt);
  return std::make_unique<ZpProgrammedLayer>(spec, cfg_.threads, cfg_.bit_accurate,
                                             std::move(macro));
}

}  // namespace red::arch
