// Fault environment and mitigation provisions for ReRAM crossbars.
//
// FaultModel generalizes xbar::VariationModel from "programming is noisy" to
// "the array is defective": independent stuck-at-0/1 cell rates, whole
// wordline/bitline line faults, and conductance drift, all drawn from a
// stateless counter RNG keyed on the *physical* cell/line index — so a fault
// mask depends only on (seed, salt, position), never on evaluation order, and
// campaigns are bit-identical at any thread count.
//
// RepairPolicy is what the array provisions against those faults: spare
// wordlines/bitlines that replace faulty lines within a budget, significance-
// aware row remapping, and a write-verify retry budget for drifted cells.
// Both structs live inside arch::DesignConfig (DesignConfig::fault), which
// threads them through plan::structural_key, LayerPlan JSON, chip placement,
// and the sweep memo — compiled plans stay the single source of truth.
//
// This header depends only on common/ so arch/ can include it without a
// cycle; injection and campaign drivers live in fault/inject.h and
// fault/campaign.h.
#pragma once

#include <cstdint>

#include "red/common/contracts.h"
#include "red/common/visit_fields.h"

namespace red::fault {

/// The fault environment a crossbar is programmed into. All rates are
/// probabilities per cell (sa0/sa1/drift) or per line (wordline/bitline);
/// `seed` is the campaign's trial axis — same seed, same mask, anywhere.
struct FaultModel {
  double sa0_rate = 0.0;       ///< cell stuck-at-0 (HRS): level reads 0
  double sa1_rate = 0.0;       ///< cell stuck-at-1 (LRS): level reads max
  double wordline_rate = 0.0;  ///< whole row dead (open wordline)
  double bitline_rate = 0.0;   ///< one physical column dead (open bitline)
  /// Conductance drift after programming: Gaussian level perturbation with
  /// this sigma (cell-level units), re-rounded and clamped like
  /// VariationModel::level_sigma but drawn from the counter RNG.
  double drift_sigma = 0.0;
  std::uint64_t seed = 1;

  [[nodiscard]] bool enabled() const {
    return sa0_rate > 0.0 || sa1_rate > 0.0 || wordline_rate > 0.0 || bitline_rate > 0.0 ||
           drift_sigma > 0.0;
  }

  void validate() const {
    RED_EXPECTS(sa0_rate >= 0.0 && sa0_rate <= 1.0);
    RED_EXPECTS(sa1_rate >= 0.0 && sa1_rate <= 1.0);
    RED_EXPECTS_MSG(sa0_rate + sa1_rate <= 1.0, "combined stuck-at rates exceed 1");
    RED_EXPECTS(wordline_rate >= 0.0 && wordline_rate <= 1.0);
    RED_EXPECTS(bitline_rate >= 0.0 && bitline_rate <= 1.0);
    RED_EXPECTS(drift_sigma >= 0.0);
  }
};

/// Field list for FaultModel, consumed by plan::structural_key, the plan
/// JSON round-trip, and (through them) every checkpoint fingerprint. Adding
/// a field without extending this visitor fails to compile.
template <typename M, typename F>
  requires common::FieldsOf<M, FaultModel>
void visit_fields(M& m, F&& f) {
  static_assert(common::field_count<FaultModel>() == 6,
                "FaultModel changed: extend visit_fields so structural_key, "
                "JSON, and fingerprints keep covering every field");
  f("sa0_rate", m.sa0_rate);
  f("sa1_rate", m.sa1_rate);
  f("wordline_rate", m.wordline_rate);
  f("bitline_rate", m.bitline_rate);
  f("drift_sigma", m.drift_sigma);
  f("seed", m.seed);
}

/// Mitigation budget the array provisions. Spares repair faulty lines in
/// index order until exhausted; remapping permutes crossbar rows so
/// high-magnitude logical rows avoid damaged physical rows (kept only when
/// it strictly reduces weight-space error); verify retries re-draw drifted
/// cells up to `verify_retries` extra attempts (stuck cells cannot verify).
struct RepairPolicy {
  int spare_rows = 0;      ///< spare wordlines per crossbar
  int spare_cols = 0;      ///< spare bitlines (physical columns) per crossbar
  bool remap_rows = false; ///< fault-aware row remapping at program time
  int verify_retries = 0;  ///< extra write-verify attempts per drifted cell

  [[nodiscard]] bool enabled() const {
    return spare_rows > 0 || spare_cols > 0 || remap_rows || verify_retries > 0;
  }

  void validate() const {
    RED_EXPECTS(spare_rows >= 0);
    RED_EXPECTS(spare_cols >= 0);
    RED_EXPECTS_MSG(verify_retries >= 0 && verify_retries <= 63,
                    "verify_retries must be in [0, 63]");
  }
};

/// Field list for RepairPolicy (same consumers as FaultModel's).
template <typename R, typename F>
  requires common::FieldsOf<R, RepairPolicy>
void visit_fields(R& r, F&& f) {
  static_assert(common::field_count<RepairPolicy>() == 4,
                "RepairPolicy changed: extend visit_fields so structural_key, "
                "JSON, and fingerprints keep covering every field");
  f("spare_rows", r.spare_rows);
  f("spare_cols", r.spare_cols);
  f("remap_rows", r.remap_rows);
  f("verify_retries", r.verify_retries);
}

/// Fault environment + mitigation provision, as carried by DesignConfig.
/// The model describes the assumed defect environment (consumed by fault
/// campaigns and the min_fault_snr optimizer constraint); the repair policy
/// changes what faulted() programs and what spares cost in area.
struct FaultConfig {
  FaultModel model;
  RepairPolicy repair;

  void validate() const {
    model.validate();
    repair.validate();
  }
};

/// Field list for FaultConfig: both sub-structs, visited as nested fields.
template <typename C, typename F>
  requires common::FieldsOf<C, FaultConfig>
void visit_fields(C& c, F&& f) {
  static_assert(common::field_count<FaultConfig>() == 2,
                "FaultConfig changed: extend visit_fields so structural_key, "
                "JSON, and fingerprints keep covering every field");
  f("model", c.model);
  f("repair", c.repair);
}

/// What injection + repair did to one crossbar (or, summed, one layer/stack).
struct RepairReport {
  std::int64_t cells = 0;                 ///< physical cells considered
  std::int64_t wordline_faults = 0;       ///< faulty rows drawn
  std::int64_t bitline_faults = 0;        ///< faulty physical columns drawn
  std::int64_t spare_rows_used = 0;
  std::int64_t spare_cols_used = 0;
  std::int64_t unrepaired_wordlines = 0;  ///< dead rows after spares
  std::int64_t unrepaired_bitlines = 0;   ///< dead physical cols after spares
  std::int64_t stuck_cells = 0;           ///< sa0 + sa1 cells (not on dead lines)
  std::int64_t drifted_cells = 0;         ///< cells whose final level drifted
  std::int64_t retried_cells = 0;         ///< drift draws fixed by write-verify
  std::int64_t rows_remapped = 0;         ///< rows moved by the remap (0 if identity won)

  RepairReport& operator+=(const RepairReport& o) {
    cells += o.cells;
    wordline_faults += o.wordline_faults;
    bitline_faults += o.bitline_faults;
    spare_rows_used += o.spare_rows_used;
    spare_cols_used += o.spare_cols_used;
    unrepaired_wordlines += o.unrepaired_wordlines;
    unrepaired_bitlines += o.unrepaired_bitlines;
    stuck_cells += o.stuck_cells;
    drifted_cells += o.drifted_cells;
    retried_cells += o.retried_cells;
    rows_remapped += o.rows_remapped;
    return *this;
  }
};

/// Stateless counter RNG: one SplitMix64-style finalizer chain over
/// (seed, salt, counter). Every fault decision hashes its physical position
/// through this, so masks are evaluation-order independent — the foundation
/// of the campaign thread-invariance guarantee.
/// The finalizer's multipliers, and the one fault_rnd_keyed applies to the
/// counter: the vector sweep in inject.cpp evaluates the same chain.
inline constexpr std::uint64_t kFaultMixMul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kFaultMixMul2 = 0x94d049bb133111ebULL;
inline constexpr std::uint64_t kFaultCounterMul = 0xc4ceb9fe1a85ec53ULL;

[[nodiscard]] inline std::uint64_t fault_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * kFaultMixMul1;
  z = (z ^ (z >> 27)) * kFaultMixMul2;
  return z ^ (z >> 31);
}

/// The (seed, salt) prefix of fault_rnd. Loops over many counters of one
/// stream compute it once and draw through fault_rnd_keyed.
[[nodiscard]] inline std::uint64_t fault_key(std::uint64_t seed, std::uint64_t salt) {
  return fault_mix(fault_mix(seed + 0x9e3779b97f4a7c15ULL) ^
                   fault_mix(salt * 0xff51afd7ed558ccdULL + 1));
}

[[nodiscard]] inline std::uint64_t fault_rnd_keyed(std::uint64_t key, std::uint64_t counter) {
  return fault_mix(key ^ fault_mix(counter * kFaultCounterMul + 1));
}

[[nodiscard]] inline std::uint64_t fault_rnd(std::uint64_t seed, std::uint64_t salt,
                                             std::uint64_t counter) {
  return fault_rnd_keyed(fault_key(seed, salt), counter);
}

/// Uniform draw in [0, 1) from a hoisted (seed, salt) key.
[[nodiscard]] inline double fault_unit_keyed(std::uint64_t key, std::uint64_t counter) {
  return static_cast<double>(fault_rnd_keyed(key, counter) >> 11) * 0x1.0p-53;
}

/// Uniform draw in [0, 1) from the counter RNG.
[[nodiscard]] inline double fault_unit(std::uint64_t seed, std::uint64_t salt,
                                       std::uint64_t counter) {
  return fault_unit_keyed(fault_key(seed, salt), counter);
}

}  // namespace red::fault
