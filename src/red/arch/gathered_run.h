// The one way a programmed layer feeds its crossbars. RED (per mode group,
// from its schedule) and zero padding (per output phase) resolve at
// program() time which input pixel drives each crossbar row in each cycle;
// the gathered layer's run copies only the values from the input, block by
// block, and runs each block as one perf::mvm_gathered call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "red/arch/design.h"
#include "red/nn/layer.h"
#include "red/xbar/crossbar.h"

namespace red::arch {

/// One crossbar's walk of a layer: vectors (cycles) in blocks of `block`,
/// the last maybe shorter, one batched MVM each.
struct GatherTable {
  std::size_t xbar = 0;  ///< index of the crossbar this table drives
  /// Crossbar row of each gathered row (perf::mvm_gathered); empty: all.
  std::vector<std::int32_t> rows;
  std::int64_t block = 0;
  /// Slot s feeds gathered rows s * C + c from one input pixel h * iw + w,
  /// or from ih * iw (the zero after each input plane) when idle. The block
  /// at vector v0 holds slots * batch entries at slots * v0, [slot][k].
  std::vector<std::int32_t> pixel;
  std::vector<std::int64_t> out_pixel;  ///< per vector: oy * ow + ox, or -1
};

/// One vector's slots in a table being filled: set(s, pixel) feeds slot s
/// from input pixel h * iw + w; a slot left unset reads the zero.
struct VectorSlots {
  std::int32_t* first;
  std::int64_t stride;
  void set(std::int64_t s, std::int64_t pixel) const {
    first[s * stride] = static_cast<std::int32_t>(pixel);
  }
};

/// Fill t.pixel and t.out_pixel with `vectors` vectors of `slots` slots in
/// blocks of t.block: per_vector(v, VectorSlots) sets vector v's live slots
/// and returns its output pixel (oy * ow + ox, or -1).
template <class PerVector>
void fill_table(GatherTable& t, const nn::DeconvLayerSpec& spec, std::int64_t vectors,
                std::int64_t slots, PerVector per_vector) {
  t.out_pixel.resize(static_cast<std::size_t>(vectors));
  t.pixel.assign(static_cast<std::size_t>(slots * vectors),
                 static_cast<std::int32_t>(std::int64_t{spec.ih} * spec.iw));
  for (std::int64_t v0 = 0; v0 < vectors; v0 += t.block) {
    const std::int64_t batch = std::min(t.block, vectors - v0);
    for (std::int64_t k = 0; k < batch; ++k)
      t.out_pixel[static_cast<std::size_t>(v0 + k)] =
          per_vector(v0 + k, VectorSlots{t.pixel.data() + slots * v0 + k, batch});
  }
}

/// Trial-invariant half of a gathered programmed layer, shared (const) by
/// every perturbed and faulted sibling, so Monte Carlo and fault trials
/// never rebuild the tables. Partial sums accumulate over runs of `period`
/// vectors (RED's fold phases; 1 for zero padding; it divides every block),
/// and a vector with an output pixel writes the running sum there. Crossbar
/// i draws variation with salt i and faults with sub-salt
/// salt * salt_stride + i.
struct GatheredProgram {
  nn::DeconvLayerSpec spec;
  std::vector<GatherTable> tables;
  int period = 1;
  std::int64_t cycles = 0;  ///< RunStats::cycles of one run
  bool bit_accurate = false;
  std::uint64_t salt_stride = 1;
};

/// The programmed layer of RED and zero padding: run() feeds `input`
/// through the tables, table t on xbars[t.xbar], in blocks chunked across
/// `threads` lanes (per-chunk stats merged after the join, so any lane
/// count is bit-exact).
[[nodiscard]] std::unique_ptr<ProgrammedLayer> make_gathered_layer(
    std::shared_ptr<const GatheredProgram> program, std::vector<xbar::LogicalXbar> xbars,
    int threads);

}  // namespace red::arch
