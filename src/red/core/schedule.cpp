#include "red/core/schedule.h"

#include <algorithm>

#include "red/common/contracts.h"
#include "red/common/math_util.h"

namespace red::core {

ZeroSkipSchedule::ZeroSkipSchedule(nn::DeconvLayerSpec spec, int fold, int lookahead_h,
                                   int lookaside_d)
    : ZeroSkipSchedule(spec, fold, lookahead_h, lookaside_d, compute_mode_groups(spec)) {}

int ZeroSkipSchedule::coalesce_window(int lookahead_h, int lookaside_d) {
  return lookahead_h > 0 && lookaside_d > 0 ? 1 + std::min(lookahead_h, lookaside_d) : 1;
}

int ZeroSkipSchedule::coalesced_phases(int fold, int lookahead_h, int lookaside_d) {
  return ceil_div(fold, coalesce_window(lookahead_h, lookaside_d));
}

ZeroSkipSchedule::ZeroSkipSchedule(nn::DeconvLayerSpec spec, int fold, int lookahead_h,
                                   int lookaside_d, std::vector<ModeGroup> groups)
    : spec_(std::move(spec)),
      groups_(std::move(groups)),
      fold_(fold),
      lookahead_h_(lookahead_h),
      lookaside_d_(lookaside_d),
      window_(coalesce_window(lookahead_h, lookaside_d)),
      phases_(ceil_div(fold, window_)),
      blocks_y_(ceil_div(spec_.oh(), spec_.stride)),
      blocks_x_(ceil_div(spec_.ow(), spec_.stride)) {
  RED_EXPECTS(fold_ >= 1);
  RED_EXPECTS(lookahead_h_ >= 0 && lookaside_d_ >= 0);
  RED_EXPECTS(!groups_.empty());
}

std::int64_t ZeroSkipSchedule::num_cycles() const {
  return std::int64_t{blocks_y_} * blocks_x_ * phases_;
}

ScheduleCycle ZeroSkipSchedule::cycle(std::int64_t index) const {
  RED_EXPECTS(index >= 0 && index < num_cycles());
  ScheduleCycle out;
  out.index = index;
  out.phase = static_cast<int>(index % phases_);
  const std::int64_t block = index / phases_;
  out.block_y = static_cast<int>(block / blocks_x_);
  out.block_x = static_cast<int>(block % blocks_x_);

  out.groups.reserve(groups_.size());
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    GroupWork work;
    group_work_at(out.phase, out.block_y, out.block_x, static_cast<int>(gi), work);
    out.groups.push_back(std::move(work));
  }
  return out;
}

void ZeroSkipSchedule::group_work(std::int64_t index, int gi, GroupWork& out) const {
  RED_EXPECTS(index >= 0 && index < num_cycles());
  RED_EXPECTS(gi >= 0 && gi < static_cast<int>(groups_.size()));
  const std::int64_t block = index / phases_;
  group_work_at(static_cast<int>(index % phases_), static_cast<int>(block / blocks_x_),
                static_cast<int>(block % blocks_x_), gi, out);
}

void ZeroSkipSchedule::group_work_at(int phase, int block_y, int block_x, int gi,
                                     GroupWork& work) const {
  const int s = spec_.stride;
  const auto& g = groups_[static_cast<std::size_t>(gi)];
  work.group_index = gi;
  work.out_y = block_y * s + g.a;
  work.out_x = block_x * s + g.b;
  // The output pixel completes on the block's last fold phase, once all
  // row bands have contributed (Eq. 2 accumulation).
  const bool pixel_in_range = work.out_y < spec_.oh() && work.out_x < spec_.ow();
  work.produces_output = pixel_in_range && phase == phases_ - 1;

  work.inputs.clear();  // reuse of `work` keeps the vector's capacity
  work.inputs.reserve(g.scs.size());
  for (std::size_t k = 0; k < g.scs.size(); ++k) {
    ScInput in;
    in.sc = g.scs[k];
    in.sc_index = static_cast<int>(k);
    // Eq. 2: fold phase p activates the SCs at positions k ≡ p (mod fold).
    // The lookahead/lookaside window coalesces `window_` consecutive fold
    // phases into one cycle: promoted slots keep their original (disjoint)
    // k ≡ p (mod fold) positions, so every pair is still consumed once.
    const bool phase_active = static_cast<int>(k) % fold_ / window_ == phase;
    if (pixel_in_range && phase_active) {
      const int h = block_y + ModeGroup::input_offset(g.a, spec_.pad, in.sc.i, s);
      const int w = block_x + ModeGroup::input_offset(g.b, spec_.pad, in.sc.j, s);
      if (h >= 0 && h < spec_.ih && w >= 0 && w < spec_.iw) {
        in.h = h;
        in.w = w;
        in.active = true;  // a real (non-zero-inserted) pixel: zero-skipping
      }
    }
    work.inputs.push_back(in);
  }
}

}  // namespace red::core
