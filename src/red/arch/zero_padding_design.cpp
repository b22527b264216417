#include "red/arch/zero_padding_design.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "red/arch/gathered_run.h"
#include "red/common/contracts.h"
#include "red/nn/conv.h"
#include "red/plan/plan.h"

namespace red::arch {

namespace {

// Zero padding's gather: one table per output phase (ry, rx) = (y mod s,
// x mod s), each over the one macro. Row y + i of output row y's window in
// the zero-inserted plane holds input row h exactly when y + i - offset_top
// = h * s, so the taps i that can hit an input row are i = offset_top - ry
// (mod s), fixed by the phase (likewise j along x). A phase's table lists
// the macro rows of those taps (tap (i, j) is rows (i*KW + j)*C + c; no list
// when every tap is live, as at stride 1) and, per output pixel, each tap's
// input pixel, or the zero slot where h or w falls outside the input. A
// phase no tap reaches (a kernel narrower than the stride) feeds tap (0, 0)
// from the zero slot only. Blocks are `ow` vectors, the batch of one dense
// output row.
std::vector<GatherTable> build_phase_tables(const nn::DeconvLayerSpec& spec) {
  const nn::PaddedGeometry g = nn::padded_geometry(spec);
  const int s = spec.stride, oh = spec.oh(), ow = spec.ow();
  const auto taps = [s](int k_len, int offset, int r) {
    std::vector<int> t;
    for (int k = ((offset - r) % s + s) % s; k < k_len; k += s) t.push_back(k);
    return t;
  };
  std::vector<GatherTable> tables;
  for (int ry = 0; ry < std::min(s, oh); ++ry)
    for (int rx = 0; rx < std::min(s, ow); ++rx) {
      std::vector<int> ti = taps(spec.kh, g.offset_top, ry);
      std::vector<int> tj = taps(spec.kw, g.offset_left, rx);
      const bool dead = ti.empty() || tj.empty();
      if (dead) ti = tj = {0};
      GatherTable& t = tables.emplace_back();
      if (std::ssize(ti) < spec.kh || std::ssize(tj) < spec.kw)
        for (const int i : ti)
          for (const int j : tj)
            for (int c = 0; c < spec.c; ++c)
              t.rows.push_back(static_cast<std::int32_t>((i * spec.kw + j) * spec.c + c));
      t.block = ow;
      const std::int64_t nx = (ow - rx + s - 1) / s;
      const auto fill = [&](std::int64_t v, VectorSlots slot) {
        const std::int64_t y = ry + v / nx * s, x = rx + v % nx * s;
        std::int64_t k = 0;
        for (const int i : ti)
          for (const int j : tj) {
            const std::int64_t hs = y + i - g.offset_top;   // h * s
            const std::int64_t ws = x + j - g.offset_left;  // w * s
            if (!dead && hs >= 0 && hs < std::int64_t{spec.ih} * s && ws >= 0 &&
                ws < std::int64_t{spec.iw} * s)
              slot.set(k, hs / s * spec.iw + ws / s);
            ++k;
          }
        return y * ow + x;
      };
      fill_table(t, spec, (oh - ry + s - 1) / s * nx, std::ssize(ti) * std::ssize(tj), fill);
    }
  return tables;
}

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
  // One cycle per output pixel, each on its phase's gathered rows.
  auto prog = std::make_shared<const GatheredProgram>(
      GatheredProgram{spec, build_phase_tables(spec), /*period=*/1,
                      std::int64_t{spec.oh()} * spec.ow(), cfg_.bit_accurate});
  std::vector<xbar::LogicalXbar> xbars;
  xbars.push_back(std::move(macro));
  return make_gathered_layer(std::move(prog), std::move(xbars), cfg_.threads);
}

}  // namespace red::arch
