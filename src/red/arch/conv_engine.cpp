#include "red/arch/conv_engine.h"

#include <algorithm>
#include <vector>

#include "red/common/contracts.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/xbar/crossbar.h"

namespace red::arch {

ConvEngine::ConvEngine(DesignConfig cfg) : cfg_(std::move(cfg)) { cfg_.validate(); }

LayerActivity ConvEngine::activity(const nn::ConvLayerSpec& spec) const {
  spec.validate();
  const int slices = cfg_.quant.slices();
  const int pulses = cfg_.quant.pulses();

  LayerActivity a;
  a.design_name = "conv";
  a.total_rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  a.out_phys_cols = std::int64_t{spec.m} * slices;
  a.cells = a.total_rows * a.out_phys_cols;
  a.macros = {MacroShape{a.total_rows, a.out_phys_cols, 1}};
  a.dec_units = 1;
  a.dec_rows = a.total_rows;
  a.sc_units = 1;
  a.groups = 1;
  a.wl_load_cols = a.out_phys_cols;
  a.bl_load_rows = a.total_rows;
  a.bl_weighted_cols = a.out_phys_cols * a.total_rows;

  a.cycles = std::int64_t{spec.oh()} * spec.ow();
  a.row_drives = nn::conv_window_hits(spec) * spec.c;
  a.conversions = a.cycles * a.out_phys_cols * pulses;
  a.mux_switches = a.conversions;
  a.sa_ops = a.conversions;
  a.mac_pulses = static_cast<double>(a.row_drives) * pulses * cfg_.calib.avg_bit_density *
                 static_cast<double>(a.out_phys_cols);
  return a;
}

CostReport ConvEngine::cost(const nn::ConvLayerSpec& spec) const {
  const LayerActivity act = activity(spec);
  return compute_cost(cfg_.tiled ? apply_tiling(act, cfg_) : act, cfg_);
}

Tensor<std::int32_t> ConvEngine::run(const nn::ConvLayerSpec& spec,
                                     const Tensor<std::int32_t>& input,
                                     const Tensor<std::int32_t>& kernel, RunStats* stats) const {
  spec.validate();
  RED_EXPECTS(input.shape() == spec.input_shape());
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());

  const std::int64_t rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * spec.m));
  for (int i = 0; i < spec.kh; ++i)
    for (int j = 0; j < spec.kw; ++j)
      for (int c = 0; c < spec.c; ++c) {
        const std::int64_t r = (std::int64_t{i} * spec.kw + j) * spec.c + c;
        for (int m = 0; m < spec.m; ++m)
          w[static_cast<std::size_t>(r * spec.m + m)] = kernel.at(i, j, c, m);
      }
  const xbar::LogicalXbar macro(rows, spec.m, w, cfg_.quant);

  Tensor<std::int32_t> out(spec.output_shape());
  const int oh = spec.oh(), ow = spec.ow();
  const std::int64_t out_plane = std::int64_t{oh} * ow;

  // Independent output-row tiles with per-tile stats, merged after the join
  // (bit-exact for any thread count, like the zero-padding programmed layer).
  const std::int64_t tiles = perf::chunk_count(cfg_.threads, oh);
  std::vector<RunStats> tile_stats(static_cast<std::size_t>(tiles));
  perf::parallel_chunks(tiles, oh, [&](std::int64_t t, std::int64_t y0, std::int64_t y1) {
    RunStats& local = tile_stats[static_cast<std::size_t>(t)];
    perf::MvmWorkspace ws;
    std::vector<std::int32_t> window(static_cast<std::size_t>(rows));
    for (std::int64_t y = y0; y < y1; ++y)
      for (int x = 0; x < ow; ++x) {
        std::fill(window.begin(), window.end(), 0);
        for (int i = 0; i < spec.kh; ++i) {
          const int h = y * spec.stride + i - spec.pad;
          if (h < 0 || h >= spec.ih) continue;
          for (int j = 0; j < spec.kw; ++j) {
            const int wx = x * spec.stride + j - spec.pad;
            if (wx < 0 || wx >= spec.iw) continue;
            for (int c = 0; c < spec.c; ++c)
              window[static_cast<std::size_t>((std::int64_t{i} * spec.kw + j) * spec.c + c)] =
                  input.ptr(0, c)[std::int64_t{h} * spec.iw + wx];
          }
        }
        const auto res = cfg_.bit_accurate ? macro.mvm_bit_accurate(window, ws, &local.mvm)
                                           : macro.mvm(window, ws, &local.mvm);
        ++local.cycles;
        std::int32_t* orow = out.data() + std::int64_t{y} * ow + x;
        for (int m = 0; m < spec.m; ++m)
          orow[m * out_plane] = static_cast<std::int32_t>(res[static_cast<std::size_t>(m)]);
      }
  });
  RunStats local;
  for (const auto& ts : tile_stats) local += ts;
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace red::arch
