// Deterministic fault injection and repair on programmed crossbars.
//
// inject_faults() derives a faulted sibling of a clean LogicalXbar: line
// faults and stuck cells are drawn from the counter RNG keyed on the
// *physical* cell/line index (order-independent, thread-invariant), spares
// absorb faulty lines within the policy budget, drifted cells re-verify up
// to the retry budget, and — when enabled — rows are remapped so the least
// important logical rows land on the most damaged physical rows. The remap
// is kept only when it strictly reduces the exact weight-space error, so a
// repaired crossbar is never worse than the unrepaired one in Σ Δw².
//
// It is two steps, and campaigns call them apart: draw_faults() makes the
// fault draw, which depends only on (seed, salt, geometry), and
// repair_faults() builds one repair policy's sibling from it. inject_faults
// is exactly draw_faults for one policy, then repair_faults.
//
// Cost contract: one draw pass per trial and crossbar, whatever the number
// of repair arms built from it. The pass hashes each cell's stuck and
// attempt-0 drift draws once (2 per cell off the lines dead under every
// arm), as a hit mask per physical row swept at the MVM kernels' SIMD tier
// (8 cells per vector at AVX-512), and keeps the sparse list of stuck cells
// and drift candidates. Each repair walks that list once to build its own
// physical event list: its dead lines, and each candidate's verify-attempt
// draws up to its retry budget (a few hashes per candidate, ~1% of cells,
// recomputed rather than held so a trial's draws stay small). The unrepaired
// tally, the remap damage scan and the remap candidate are all evaluated
// from that list, the remap priced from Σ Δw² deltas of the rows it moves
// against the clean crossbar's row importance (computed once per clean
// crossbar). The faulted sibling is a copy of `clean` plus sparse level
// patches. Telemetry counts each repair's draws under fault.rng_draws, as if
// its arm had drawn alone.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "red/fault/model.h"
#include "red/perf/mvm_kernel.h"
#include "red/xbar/crossbar.h"

namespace red::fault {

/// One cell of a fault draw whose level can differ from the clean one under
/// some repair arm: a stuck cell, or a drift candidate (a live, unstuck cell
/// whose attempt-0 change draw lies below the largest change probability of
/// any level, so only candidates can drift whatever logical row the remap
/// puts there).
struct DrawnCell {
  enum class Kind : std::uint8_t { kSa0, kSa1, kDrift };
  std::uint32_t p : 30;  ///< physical column (c * slices + s)
  Kind kind : 2;
};
static_assert(sizeof(DrawnCell) == 4, "a trial holds one DrawnCell per event it drew");

/// One crossbar's fault draw for one trial: what draw_faults() produced and
/// repair_faults() reads. It serves every policy within its spare budgets;
/// retries and remapping do not change it.
struct FaultDraw {
  FaultModel model;
  std::uint64_t salt = 0;
  std::int64_t rows = 0, phys_cols = 0;
  int spare_rows = 0, spare_cols = 0;  ///< the largest budgets of the arms drawn for
  std::vector<std::int32_t> faulty_rows, faulty_cols;  ///< line faults, index order
  std::int64_t line_draws = 0;
  /// Stuck cells and drift candidates off the lines dead under every arm, in
  /// (row, column) order; row q's are [row_begin[q], row_begin[q + 1]).
  std::vector<DrawnCell> cells;
  std::vector<std::int64_t> row_begin;

  /// `policy`'s spare budgets lie within the ones drawn for.
  [[nodiscard]] bool covers(const RepairPolicy& policy) const {
    return policy.spare_rows <= spare_rows && policy.spare_cols <= spare_cols;
  }
};

/// Draw `model`'s faults on `clean` (a variation-free programmed crossbar)
/// once for every policy in `arms`: the draw covers the largest spare
/// budgets among them. `salt` distinguishes crossbars sharing one
/// model (stage index, group index): same (seed, salt, geometry) always
/// draws the same faults.
[[nodiscard]] FaultDraw draw_faults(const xbar::LogicalXbar& clean, const FaultModel& model,
                                    std::span<const RepairPolicy> arms, std::uint64_t salt = 0);

/// The faulted sibling of `clean` under `policy`, built from `draw` (which
/// must come from `clean` and cover the policy): bit-identical to
/// inject_faults(clean, draw.model, policy, salt), report and telemetry
/// included. A disabled model returns a bit-exact copy of `clean`.
[[nodiscard]] xbar::LogicalXbar repair_faults(const xbar::LogicalXbar& clean,
                                              const FaultDraw& draw, const RepairPolicy& policy,
                                              RepairReport* report = nullptr);

/// Inject `model`'s faults into `clean` (a variation-free programmed
/// crossbar) and apply `policy`'s repairs: draw_faults for `policy` alone,
/// then repair_faults.
[[nodiscard]] xbar::LogicalXbar inject_faults(const xbar::LogicalXbar& clean,
                                              const FaultModel& model,
                                              const RepairPolicy& policy,
                                              std::uint64_t salt = 0,
                                              RepairReport* report = nullptr);

/// Exact weight-space damage: sum of squared stored-weight differences of
/// `faulted` against `clean` — the metric the remap decision minimizes.
[[nodiscard]] double weight_error_sq(const xbar::LogicalXbar& clean,
                                     const xbar::LogicalXbar& faulted);

/// Analytic fault SNR estimate in dB for a rows x cols crossbar under
/// `model` with `policy`'s mitigation, assuming uniformly distributed
/// weights and iid inputs (the input term cancels). Expectation-level — line
/// fault coverage uses expected spare consumption, drift uses a +-1-level
/// error approximation — so it is a pruning signal for the optimizer's
/// min_fault_snr constraint, not a campaign replacement. Monotone in every
/// fault rate (decreasing) and in the spare/retry budgets (increasing).
/// Capped at +-300 dB; a disabled model returns +300.
[[nodiscard]] double analytic_snr_db(const FaultModel& model, const RepairPolicy& policy,
                                     const xbar::QuantConfig& quant, std::int64_t rows,
                                     std::int64_t cols);

namespace detail {

/// draw_faults() with the draw pass's hit masks swept on `tier`, clamped to
/// perf::mvm_active_isa(). For tests that check every compiled tier on one
/// host; every tier gives the bit-identical draw.
[[nodiscard]] FaultDraw draw_faults_on(perf::MvmIsa tier, const xbar::LogicalXbar& clean,
                                       const FaultModel& model,
                                       std::span<const RepairPolicy> arms,
                                       std::uint64_t salt = 0);

/// inject_faults() with the draw swept on `tier`, as draw_faults_on.
[[nodiscard]] xbar::LogicalXbar inject_faults_on(perf::MvmIsa tier,
                                                 const xbar::LogicalXbar& clean,
                                                 const FaultModel& model,
                                                 const RepairPolicy& policy,
                                                 std::uint64_t salt = 0,
                                                 RepairReport* report = nullptr);

}  // namespace detail

}  // namespace red::fault
