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
// Cost contract: one draw pass per call. The pass hashes each cell's stuck
// and attempt-0 drift draws once (2 per cell off the dead lines), as a hit
// mask per physical row swept at the MVM kernels' SIMD tier (8 cells per
// vector at AVX-512), and keeps a sparse physical event list — dead-line cells, stuck cells, and drift
// candidates with their verify-attempt draws. The unrepaired arm, the remap
// damage scan and the remap candidate are all evaluated from that list, the
// remap priced from Σ Δw² deltas of the rows it moves. The faulted sibling
// is a copy of `clean` plus sparse level patches. Telemetry counts the
// draws under fault.rng_draws.
#pragma once

#include <cstdint>

#include "red/fault/model.h"
#include "red/perf/mvm_kernel.h"
#include "red/xbar/crossbar.h"

namespace red::fault {

/// Inject `model`'s faults into `clean` (a variation-free programmed
/// crossbar) and apply `policy`'s repairs. `salt` distinguishes crossbars
/// sharing one model (stage index, group index): same (seed, salt, geometry)
/// always produces the bit-identical faulted sibling. A disabled model
/// returns a bit-exact copy of `clean`.
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

/// inject_faults() with the draw pass's hit masks swept on `tier`, clamped
/// to perf::mvm_active_isa(). For tests that check every compiled tier on
/// one host; every tier gives the bit-identical result.
[[nodiscard]] xbar::LogicalXbar inject_faults_on(perf::MvmIsa tier,
                                                 const xbar::LogicalXbar& clean,
                                                 const FaultModel& model,
                                                 const RepairPolicy& policy,
                                                 std::uint64_t salt = 0,
                                                 RepairReport* report = nullptr);

}  // namespace detail

}  // namespace red::fault
