#include "red/arch/zero_padding_design.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "red/common/contracts.h"
#include "red/fault/inject.h"
#include "red/nn/conv.h"
#include "red/nn/deconv_zero_padding.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"

namespace red::arch {

namespace {

// Program the macro: row (i*KW + j)*C + c holds the 180-degree-rotated
// kernel (the stride-1 convolution form of Algorithm 1, step b).
std::vector<std::int32_t> macro_weights(const nn::DeconvLayerSpec& spec,
                                        const Tensor<std::int32_t>& kernel) {
  const Tensor<std::int32_t> rot = nn::rotate180(kernel);
  const std::int64_t rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * spec.m));
  for (int i = 0; i < spec.kh; ++i)
    for (int j = 0; j < spec.kw; ++j)
      for (int c = 0; c < spec.c; ++c) {
        const std::int64_t r = (std::int64_t{i} * spec.kw + j) * spec.c + c;
        for (int m = 0; m < spec.m; ++m)
          w[static_cast<std::size_t>(r * spec.m + m)] = rot.at(i, j, c, m);
      }
  return w;
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
    RED_EXPECTS(input.shape() == spec.input_shape());
    const Tensor<std::int32_t> padded = nn::zero_pad_input(spec, input);
    const int oh = spec.oh(), ow = spec.ow();
    const std::int64_t rows = macro_.rows();  // KH*KW*C: one padded window
    const std::int64_t pw = padded.shape().dim(3);
    const std::int64_t out_plane = std::int64_t{oh} * ow;

    Tensor<std::int32_t> out(spec.output_shape());
    // Output rows are independent: tile them across the pool. Each tile
    // gathers one output row of windows at a time into its own buffer and
    // runs it as one batched MVM; per-tile RunStats slots are merged in tile
    // order after the join, so any thread count is bit-exact vs serial.
    const std::int64_t tiles = perf::chunk_count(threads_, oh);
    std::vector<RunStats> tile_stats(static_cast<std::size_t>(tiles));
    perf::parallel_chunks(tiles, oh, [&](std::int64_t t, std::int64_t y0, std::int64_t y1) {
      RunStats& local = tile_stats[static_cast<std::size_t>(t)];
      // Thread-local: repeated Monte Carlo trial runs skip re-allocation.
      thread_local perf::MvmWorkspace ws;
      std::vector<std::int32_t> windows(static_cast<std::size_t>(ow * rows));
      for (std::int64_t y = y0; y < y1; ++y) {
        for (int x = 0; x < ow; ++x) {
          std::int32_t* window = windows.data() + x * rows;
          for (int c = 0; c < spec.c; ++c) {
            const std::int32_t* plane = padded.ptr(0, c);
            for (int i = 0; i < spec.kh; ++i) {
              const std::int32_t* prow = plane + (y + i) * pw + x;
              for (int j = 0; j < spec.kw; ++j)
                window[static_cast<std::size_t>((std::int64_t{i} * spec.kw + j) * spec.c + c)] =
                    prow[j];
            }
          }
        }
        const auto results = macro_.mvm_batch(windows, ow, bit_accurate_, ws, &local.mvm);
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

  std::unique_ptr<ProgrammedLayer> faulted(const fault::FaultModel& model,
                                           const fault::RepairPolicy& policy, std::uint64_t salt,
                                           fault::RepairReport* report) const override {
    return std::make_unique<ZpProgrammedLayer>(
        spec_, threads_, bit_accurate_,
        fault::inject_faults(macro_, model, policy, salt, report));
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
  const std::int64_t rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  xbar::LogicalXbar macro(rows, spec.m, macro_weights(spec, kernel), cfg_.quant, variation_salt);
  return std::make_unique<ZpProgrammedLayer>(spec, cfg_.threads, cfg_.bit_accurate,
                                             std::move(macro));
}

}  // namespace red::arch
