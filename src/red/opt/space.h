// Declarative design-space description for the optimizer.
//
// A SearchSpace is a base (kind, DesignConfig) for a deconvolution stack —
// one layer or a whole network — plus a list of axes, each naming one
// result-relevant knob (design kind, RED fold, mux ratio, subarray side,
// ADC/precision bits) and the discrete values it may take. A candidate is
// one value index per axis; materializing a candidate applies the axis
// values onto the base config, and the mixed-radix ordinal encoding gives
// every candidate a stable integer identity the strategies and checkpoints
// share.
//
// Constraints are named predicates over a materialized candidate and its
// compiled plan::StackPlan, checked BEFORE the candidate is priced or counted
// against the search budget: an infeasible point (does not fit the chip,
// busts an area/energy budget) is pruned, recorded, and never proposed again.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "red/arch/chip.h"
#include "red/arch/design.h"
#include "red/core/designs.h"
#include "red/nn/layer.h"
#include "red/plan/plan.h"

namespace red::opt {

/// The tunable knobs an axis can range over. Every field is result-relevant
/// (part of plan::structural_key), so distinct candidates never share a
/// layer key: not in the result store, not in their fingerprints.
enum class AxisField {
  kKind,          ///< design kind (values are 0=zp, 1=pf, 2=red)
  kRedFold,       ///< cfg.red_fold (0 = auto)
  kMuxRatio,      ///< cfg.mux_ratio
  kSubarraySide,  ///< cfg.tiling = {v, v} (meaningful with cfg.tiled)
  kAdcBits,       ///< cfg.quant.adc.bits
  kWeightBits,    ///< cfg.quant.wbits
  kActivationBits,///< cfg.quant.abits
  /// cfg.fault.repair.{spare_rows, spare_cols} = v: spare-line redundancy
  /// budget per crossbar. Priced into the area model by plan_layer, traded
  /// against min_fault_snr feasibility.
  kSpareLines,
  kLookahead,     ///< cfg.lookahead_h (Bit-Tactical promotion depth; 0 = off)
  kLookaside      ///< cfg.lookaside_d (Bit-Tactical promotion width; 0 = off)
};

/// Stable CLI/JSON name of a field ("kind", "fold", "mux", "tile",
/// "adc-bits", "wbits", "abits", "spare-lines", "lookahead", "lookaside");
/// round-trips through axis_field_from_name (which throws ConfigError on
/// anything else).
[[nodiscard]] const char* axis_field_name(AxisField field);
[[nodiscard]] AxisField axis_field_from_name(const std::string& name);

/// One axis: the knob and the discrete values it sweeps.
struct Axis {
  AxisField field = AxisField::kRedFold;
  std::vector<std::int64_t> values;
};

/// One point of the space: a value index per axis (index[i] selects
/// axes()[i].values[index[i]]).
struct Candidate {
  std::vector<int> index;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// A candidate applied to the base: the concrete design kind and config the
/// evaluation pipeline consumes.
struct MaterializedPoint {
  core::DesignKind kind = core::DesignKind::kRed;
  arch::DesignConfig cfg;
};

class SearchSpace {
 public:
  /// `stack` is the workload (>= 1 layer); `base_kind`/`base` are the point
  /// every candidate starts from before axis values are applied.
  SearchSpace(std::vector<nn::DeconvLayerSpec> stack, core::DesignKind base_kind,
              arch::DesignConfig base);

  /// Append an axis. Values must be non-empty; kKind values must be valid
  /// kind ordinals; at most one axis per field. Throws ConfigError otherwise.
  void add_axis(Axis axis);

  [[nodiscard]] const std::vector<Axis>& axes() const { return axes_; }
  [[nodiscard]] const std::vector<nn::DeconvLayerSpec>& stack() const { return stack_; }
  [[nodiscard]] core::DesignKind base_kind() const { return base_kind_; }
  [[nodiscard]] const arch::DesignConfig& base() const { return base_; }

  /// Grid cardinality: the product of axis sizes (1 for a zero-axis space —
  /// the base point itself is still a candidate).
  [[nodiscard]] std::int64_t size() const;

  /// Mixed-radix ordinal <-> candidate bijection over [0, size()). The first
  /// axis varies slowest, so ordinal order equals nested-loop order.
  [[nodiscard]] Candidate decode(std::int64_t ordinal) const;
  [[nodiscard]] std::int64_t encode(const Candidate& c) const;

  [[nodiscard]] MaterializedPoint materialize(const Candidate& c) const;

  /// Injective byte key of the whole space: the base point's structural key
  /// per layer (length-framed), then every axis (field tag + framed values).
  /// Two spaces with equal keys declare the identical search problem.
  [[nodiscard]] std::string key() const;
  /// plan::digest of key() — the space half of the checkpoint fingerprint.
  [[nodiscard]] std::string fingerprint() const;

 private:
  std::vector<nn::DeconvLayerSpec> stack_;
  core::DesignKind base_kind_;
  arch::DesignConfig base_;
  std::vector<Axis> axes_;
};

/// What a constraint sees: the candidate, its materialized point, and the
/// stack compiled under it (analytic only — no tensor data has flowed).
struct CandidateView {
  const SearchSpace& space;
  const Candidate& candidate;
  const MaterializedPoint& point;
  const plan::StackPlan& plan;
};

/// A named feasibility predicate, applied as pre-evaluation pruning. The
/// name parameterizes the constraint (it is part of the checkpoint
/// fingerprint), so factories embed every threshold that changes the
/// accepted set in it. `allow` must be a pure function of the view — the
/// optimizer checks candidates of a batch concurrently.
struct Constraint {
  std::string name;
  std::function<bool(const CandidateView&)> allow;
};

/// Every layer of the candidate's compiled stack places onto `chip`
/// (arch::plan_chip(...).fits).
[[nodiscard]] Constraint fits_chip(arch::ChipConfig chip);

/// No layer uses more than `limit` sub-crossbars after folding (the paper's
/// Sec. III-C budget, e.g. 128 for FCN_Deconv2).
[[nodiscard]] Constraint max_sc_units(std::int64_t limit);

/// Total stack area (priced from the compiled plans through the calibrated
/// cost model) stays under `mm2`.
[[nodiscard]] Constraint max_area_mm2(double mm2);

/// Total stack energy per image stays under `uj`.
[[nodiscard]] Constraint max_energy_uj(double uj);

/// Every macro of every layer keeps an analytic fault SNR
/// (fault::analytic_snr_db under the candidate's cfg.fault model and repair
/// policy) of at least `min_db`. Candidates whose crossbars would degrade
/// below the floor in the assumed fault environment are pruned before
/// pricing; pair with a kSpareLines axis to let the optimizer buy the
/// redundancy back.
[[nodiscard]] Constraint min_fault_snr(double min_db);

}  // namespace red::opt
