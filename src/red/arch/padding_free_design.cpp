#include "red/arch/padding_free_design.h"

#include <algorithm>
#include <vector>

#include "red/common/contracts.h"
#include "red/perf/workspace.h"

namespace red::arch {

// The activity model lives in plan.cpp (padding_free_activity): the compile
// layer is the single home of the mapping arithmetic.

Tensor<std::int32_t> PaddingFreeDesign::run(const nn::DeconvLayerSpec& spec,
                                            const Tensor<std::int32_t>& input,
                                            const Tensor<std::int32_t>& kernel,
                                            RunStats* stats) const {
  spec.validate();
  RED_EXPECTS(input.shape() == spec.input_shape());
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());

  // Program the macro: column (i*KW + j)*M + m of row c holds W[i,j,c,m], so
  // each tap's M weights are one copy. (The paper's explicit 180-degree
  // rotation and our scatter-form weights cancel; see deconv_padding_free.h.)
  // Padding free programs on every run: per-thread scratch for the macro's
  // weights (no kernel writes them) and the MVM workspace.
  thread_local std::vector<std::int32_t> w;
  thread_local perf::MvmWorkspace ws;
  const std::int64_t lcols = std::int64_t{spec.kh} * spec.kw * spec.m;
  w.resize(static_cast<std::size_t>(spec.c * lcols));
  for (int c = 0; c < spec.c; ++c)
    for (std::int64_t tap = 0; tap < std::int64_t{spec.kh} * spec.kw; ++tap)
      std::copy_n(kernel.data() + (tap * spec.c + c) * spec.m, spec.m,
                  w.data() + c * lcols + tap * spec.m);
  const xbar::LogicalXbar macro(spec.c, lcols, w, cfg_.quant);

  const int canvas_h = (spec.ih - 1) * spec.stride + spec.kh;
  const int canvas_w = (spec.iw - 1) * spec.stride + spec.kw;
  const std::int64_t canvas_plane = std::int64_t{canvas_h} * canvas_w;
  std::vector<std::int32_t>& row_pixels = ws.windows;
  row_pixels.resize(static_cast<std::size_t>(spec.iw) * spec.c);
  // Workspace-backed scatter canvas, [m][canvas_h][canvas_w].
  ws.canvas.assign(static_cast<std::size_t>(spec.m) * static_cast<std::size_t>(canvas_plane), 0);
  std::int32_t* canvas = ws.canvas.data();

  RunStats local;
  for (int h = 0; h < spec.ih; ++h) {
    // One batched MVM per input row amortizes encoding setup and buffers
    // across the row's pixels (stats accumulate exactly as per-pixel calls).
    for (int wpix = 0; wpix < spec.iw; ++wpix)
      for (int c = 0; c < spec.c; ++c)
        row_pixels[static_cast<std::size_t>(wpix) * spec.c + c] =
            input.ptr(0, c)[std::int64_t{h} * spec.iw + wpix];
    const auto res_row =
        macro.mvm_batch(row_pixels, spec.iw, cfg_.bit_accurate, ws, &local.mvm);
    local.cycles += spec.iw;

    // Overlap accumulation (step c of Algorithm 2).
    for (int wpix = 0; wpix < spec.iw; ++wpix) {
      const std::int64_t* res = res_row.data() + std::int64_t{wpix} * lcols;
      for (int i = 0; i < spec.kh; ++i)
        for (int j = 0; j < spec.kw; ++j) {
          const std::int64_t* rblock = res + (std::int64_t{i} * spec.kw + j) * spec.m;
          const std::int64_t cy = h * spec.stride + i;
          const std::int64_t cx = std::int64_t{wpix} * spec.stride + j;
          for (int m = 0; m < spec.m; ++m) {
            canvas[m * canvas_plane + cy * canvas_w + cx] += static_cast<std::int32_t>(rblock[m]);
            ++local.overlap_adds;
            local.buffer_accesses += 2;
          }
        }
    }
  }

  // Crop (step d).
  const int oh = spec.oh(), ow = spec.ow();
  Tensor<std::int32_t> out(spec.output_shape());
  for (int m = 0; m < spec.m; ++m)
    for (int y = 0; y < oh; ++y)
      for (int x = 0; x < ow; ++x) {
        const int cy = y + spec.pad;
        const int cx = x + spec.pad;
        if (cy < canvas_h && cx < canvas_w)
          out.at(0, m, y, x) = canvas[m * canvas_plane + std::int64_t{cy} * canvas_w + cx];
      }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace red::arch
