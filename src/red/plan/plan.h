// The compile layer: an explicit mapping IR shared by every consumer.
//
// The paper's contribution is a *mapping* — pixel-wise kernel decomposition
// (Eq. 1), mode groups (Fig. 6), area-efficient folding (Eq. 2), and the
// zero-skipping schedule (Fig. 5(c)). Before this layer existed, those
// decisions were re-derived ad hoc inside each Design's activity()/run()/
// cost(), again by chip placement, and fingerprinted a third time by the
// sweep memo. plan_layer() compiles them ONCE into a LayerPlan that every
// consumer shares:
//
//   nn spec ──▶ layer_geometry ──▶ plan_layer ──▶ LayerPlan
//     LayerPlan ──▶ Design::activity/cost/program
//               ──▶ arch::plan_chip (bank placement)
//               ──▶ sim::simulate / StreamingExecutor
//               ──▶ opt::Optimizer pricing pass (constraints, store key,
//                   fingerprint)
//               ──▶ explore::SweepDriver (memo and store key)
//               ──▶ report::to_json (cacheable artifact)
//
// The geometry step holds what depends on the layer alone (padded geometry,
// structural window hits, mode groups). Callers that plan one stack under
// many configs — the optimizer — compute it once per layer and plan every
// candidate against it.
//
// A LayerPlan captures every decision made before data flows: the design
// kind, the resolved fold, the mode-group table, the sub-crossbar weight
// layout, the physical tile grid, the analytic cycle/activity model, and a
// stable structural fingerprint. Plans are immutable value types — cheap to
// copy, hash, serialize, and diff.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "red/arch/activity.h"
#include "red/arch/design.h"
#include "red/core/mode_groups.h"
#include "red/nn/layer.h"
#include "red/xbar/tiling.h"

namespace red::plan {

/// How the KHxKWxCxM kernel tensor is laid onto programmed crossbar blocks.
/// RED programs KH*KW sub-crossbar blocks of CxM (Eq. 1); the zero-padding
/// baseline one KH*KW*C x M macro; the padding-free design one C x KH*KW*M
/// macro. Dimensions are logical (weight-slice expansion is in the activity
/// model's phys_cols).
struct WeightLayout {
  std::int64_t block_rows = 0;  ///< logical rows of one programmed block
  std::int64_t block_cols = 0;  ///< logical columns of one programmed block
  std::int64_t blocks = 1;      ///< programmed blocks (RED: KH*KW sub-crossbars)

  friend bool operator==(const WeightLayout&, const WeightLayout&) = default;
};

/// Every mapping decision for one layer on one design, compiled before any
/// data flows. All fields are derived deterministically from (kind, spec,
/// cfg); `key` is an injective byte encoding of exactly that triple, so two
/// plans with equal keys are structurally identical.
struct LayerPlan {
  arch::DesignKind kind = arch::DesignKind::kRed;
  nn::DeconvLayerSpec spec;
  arch::DesignConfig cfg;

  int fold = 1;                         ///< resolved fold (config override or auto)
  std::vector<core::ModeGroup> groups;  ///< mode-group table (RED; empty otherwise)
  WeightLayout layout;                  ///< sub-crossbar tensor layout
  std::vector<xbar::TilePlan> tiles;    ///< physical tile grid per activity macro,
                                        ///< under cfg.tiling
  arch::LayerActivity activity;         ///< cycle/activity model

  /// Injective structural key: raw bytes of every result-relevant config and
  /// geometry field (== structural_key(kind, cfg, spec)). Memo keys must use
  /// this, not the digest — injectivity rules out cache collisions.
  std::string key;

  /// Stable printable digest of `key` (16 hex chars, FNV-1a 64). Equal keys
  /// give equal fingerprints; used for display, JSON, and diffing.
  [[nodiscard]] std::string fingerprint() const;
};

/// What plan_layer derives from the layer geometry alone, whatever the design
/// kind and config: computed once per layer, shared by every plan of it.
struct LayerGeometry {
  nn::DeconvLayerSpec spec;
  nn::PaddedGeometry padded;            ///< nn::padded_geometry(spec)
  std::int64_t window_hits = 0;         ///< nn::structural_window_hits(spec)
  std::vector<core::ModeGroup> groups;  ///< core::compute_mode_groups(spec)
};

/// Validate `spec` and compute its geometry record.
[[nodiscard]] LayerGeometry layer_geometry(const nn::DeconvLayerSpec& spec);

/// A whole deconvolution stack compiled under one design and config.
struct StackPlan {
  arch::DesignKind kind = arch::DesignKind::kRed;
  arch::DesignConfig cfg;
  std::vector<LayerPlan> layers;

  /// Injective key over the layer sequence (each layer key length-framed).
  [[nodiscard]] std::string key() const;
  /// Printable digest of key().
  [[nodiscard]] std::string fingerprint() const;
};

/// RED's fold factor for a layer: the config override, or the smallest
/// power of two keeping the folded sub-crossbar count under the threshold
/// (Sec. III-C). 1 for the other designs.
[[nodiscard]] int resolve_fold(arch::DesignKind kind, const nn::DeconvLayerSpec& spec,
                               const arch::DesignConfig& cfg);

/// Compile one layer: validate the config, resolve the fold, take the
/// mode-group table, build the weight layout, the tile grid, the activity
/// model, and the structural key. This is the single front-end every
/// consumer goes through. `geometry` must come from layer_geometry(), which
/// validated its spec.
[[nodiscard]] LayerPlan plan_layer(arch::DesignKind kind, const LayerGeometry& geometry,
                                   const arch::DesignConfig& cfg);

/// plan_layer(kind, layer_geometry(spec), cfg).
[[nodiscard]] LayerPlan plan_layer(arch::DesignKind kind, const nn::DeconvLayerSpec& spec,
                                   const arch::DesignConfig& cfg);

/// Compile a whole stack (no chaining requirement — chip placement accepts
/// arbitrary layer sets; streaming validates chaining itself).
[[nodiscard]] StackPlan plan_stack(arch::DesignKind kind,
                                   const std::vector<nn::DeconvLayerSpec>& stack,
                                   const arch::DesignConfig& cfg);

/// The injective structural key of (kind, cfg, spec) without compiling a
/// full plan: design kind, every result-relevant DesignConfig field
/// (calibration and tech node included; `threads` excluded — results are
/// thread-invariant), and the layer geometry (name excluded). Numeric fields
/// are appended as fixed-width raw bytes and every variable-width field (the
/// tech node name) is length-prefixed, so no two distinct points share a key.
[[nodiscard]] std::string structural_key(arch::DesignKind kind, const arch::DesignConfig& cfg,
                                         const nn::DeconvLayerSpec& spec);

/// FNV-1a 64-bit digest of an arbitrary key, as 16 lowercase hex chars.
[[nodiscard]] std::string digest(const std::string& key);

}  // namespace red::plan
