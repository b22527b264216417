#include "red/plan/plan.h"

#include <cstring>
#include <type_traits>
#include <utility>

#include "red/common/contracts.h"
#include "red/common/math_util.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/core/schedule.h"
#include "red/nn/redundancy.h"

namespace red::plan {

namespace {

// Append a value's object representation to the key. Used for the numeric
// fields: exact (no decimal formatting loss) and cheap.
template <typename T>
void append_raw(std::string& key, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  key.append(bytes, sizeof(T));
}

// ---- visitor-driven structural key -----------------------------------------
// The key walks the visit_fields lists (common/visit_fields.h), so a config
// field that exists but is not keyed is impossible by construction: adding a
// field without extending its visitor fails the visitor's static_assert, and
// extending the visitor feeds the key (and the JSON round-trip) at once.

template <typename T>
void append_key_field(std::string& key, const T& v);

template <typename T>
void append_key_fields(std::string& key, const T& obj) {
  visit_fields(obj, [&key](const char*, const auto& v, common::FieldInfo info = {}) {
    // Execution-only fields (DesignConfig::threads, presentation names)
    // change scheduling or display, never results — the bit-identity
    // contract is what licenses sharing cache entries across them.
    if (info.structural) append_key_field(key, v);
  });
}

template <typename T>
void append_key_field(std::string& key, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    // Variable-width fields must be length-framed: an unframed string
    // between raw byte fields lets one key's bytes masquerade as another
    // key's following field bytes, silently aliasing distinct configs.
    append_raw(key, static_cast<std::uint64_t>(v.size()));
    key += v;
  } else if constexpr (std::is_enum_v<T>) {
    append_raw(key, static_cast<std::int64_t>(v));
  } else if constexpr (std::is_arithmetic_v<T>) {
    append_raw(key, v);
  } else if constexpr (std::is_same_v<T, tech::Calibration>) {
    // Field by field (the struct has padding, so a whole-object fingerprint
    // would split identical configs into distinct keys).
    tech::visit_calibration(v, [&key](const char*, const auto& c) { append_raw(key, c); });
  } else {
    append_key_fields(key, v);  // nested config struct: recurse its visitor
  }
}

// The one home of RED's fold rule (config override, else auto); both
// resolve_fold entry points and plan_layer go through it so the spec-driven
// and plan-driven paths can never diverge.
int resolved_fold(const arch::DesignConfig& cfg, const std::vector<core::ModeGroup>& groups) {
  if (cfg.red_fold > 0) return cfg.red_fold;
  return core::auto_fold(groups, cfg.red_max_subcrossbars);
}

const char* display_name(arch::DesignKind kind) {
  switch (kind) {
    case arch::DesignKind::kZeroPadding:
      return "zero-padding";
    case arch::DesignKind::kPaddingFree:
      return "padding-free";
    case arch::DesignKind::kRed:
      return "RED";
  }
  RED_EXPECTS_MSG(false, "unreachable design kind");
  return "";
}

// ---- per-design activity models (the paper's cycle/structure math) ---------
// These are the single home of the mapping arithmetic; Design::activity is a
// thin wrapper over plan_layer, so every consumer prices the same model.

arch::LayerActivity zero_padding_activity(const nn::DeconvLayerSpec& spec,
                                          std::int64_t window_hits,
                                          const arch::DesignConfig& cfg) {
  const int slices = cfg.quant.slices();
  const int pulses = cfg.quant.pulses();

  arch::LayerActivity a;
  a.design_name = display_name(arch::DesignKind::kZeroPadding);
  a.total_rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  a.out_phys_cols = std::int64_t{spec.m} * slices;
  a.macros = {arch::MacroShape{a.total_rows, a.out_phys_cols, 1}};
  a.cells = a.total_rows * a.out_phys_cols;
  a.dec_units = 1;
  a.dec_rows = a.total_rows;
  a.sc_units = 1;
  a.groups = 1;
  a.wl_load_cols = a.out_phys_cols;
  a.bl_load_rows = a.total_rows;
  a.bl_weighted_cols = a.out_phys_cols * a.total_rows;

  a.cycles = std::int64_t{spec.oh()} * spec.ow();
  a.row_drives = window_hits * spec.c;
  a.conversions = a.cycles * a.out_phys_cols * pulses;
  a.mux_switches = a.conversions;
  a.sa_ops = a.conversions;
  a.mac_pulses = static_cast<double>(a.row_drives) * pulses * cfg.calib.avg_bit_density *
                 static_cast<double>(a.out_phys_cols);
  return a;
}

arch::LayerActivity padding_free_activity(const nn::DeconvLayerSpec& spec,
                                          const arch::DesignConfig& cfg) {
  const int slices = cfg.quant.slices();
  const int pulses = cfg.quant.pulses();
  const std::int64_t patch = std::int64_t{spec.kh} * spec.kw;

  arch::LayerActivity a;
  a.design_name = display_name(arch::DesignKind::kPaddingFree);
  a.total_rows = spec.c;
  a.out_phys_cols = patch * spec.m * slices;
  a.macros = {arch::MacroShape{spec.c, a.out_phys_cols, 1}};
  a.cells = a.total_rows * a.out_phys_cols;
  a.dec_units = 1;
  a.dec_rows = spec.c;
  a.sc_units = 1;
  a.groups = 1;
  a.wl_load_cols = a.out_phys_cols;
  a.bl_load_rows = spec.c;
  a.bl_weighted_cols = a.out_phys_cols * a.total_rows;

  a.cycles = std::int64_t{spec.ih} * spec.iw;
  a.row_drives = a.cycles * spec.c;  // inputs are dense: every row, every cycle
  a.conversions = a.cycles * a.out_phys_cols * pulses;
  a.mux_switches = a.conversions;
  a.sa_ops = a.conversions;
  a.mac_pulses = static_cast<double>(a.row_drives) * pulses * cfg.calib.avg_bit_density *
                 static_cast<double>(a.out_phys_cols);

  a.patch_positions = patch;
  a.overlap_adds = a.cycles * patch * spec.m;
  a.buffer_accesses = 2 * a.overlap_adds;  // read-modify-write of the canvas
  a.has_crop = true;
  return a;
}

arch::LayerActivity red_activity(const nn::DeconvLayerSpec& spec, std::int64_t window_hits,
                                 const arch::DesignConfig& cfg,
                                 const std::vector<core::ModeGroup>& groups, int fold) {
  const int slices = cfg.quant.slices();
  const int pulses = cfg.quant.pulses();
  const std::int64_t m_phys = std::int64_t{spec.m} * slices;

  arch::LayerActivity a;
  a.design_name = display_name(arch::DesignKind::kRed);
  a.total_rows = core::total_sub_crossbars(groups) * spec.c;  // == KH*KW*C
  a.out_phys_cols = static_cast<std::int64_t>(groups.size()) * m_phys;
  a.cells = a.total_rows * m_phys;  // every SC is C x M_phys
  a.dec_units = core::folded_sc_count(groups, fold);
  a.dec_rows = std::int64_t{fold} * spec.c;
  a.sub_crossbar_decoders = true;
  a.sc_units = a.dec_units;
  a.groups = static_cast<std::int64_t>(groups.size());
  a.wl_load_cols = m_phys;  // one wordline spans only its own sub-crossbar
  a.bl_load_rows = core::max_group_size(groups) * spec.c;  // tallest shared bitline
  a.bl_weighted_cols = 0;
  for (const auto& g : groups) {
    const std::int64_t group_rows = static_cast<std::int64_t>(g.scs.size()) * spec.c;
    a.bl_weighted_cols += m_phys * group_rows;
    a.macros.push_back(arch::MacroShape{group_rows, m_phys, 1});
  }
  a.split_macro = true;
  a.sa_extra_stages = ilog2_ceil(core::max_group_size(groups)) + (fold > 1 ? 1 : 0);
  a.fold = fold;

  // Bit-Tactical lookahead/lookaside coalesces fold phases into windows, so a
  // block takes coalesced_phases (== fold with the knobs off) cycles; the
  // conversion/mux/SA counts below inherit the shortened schedule because a
  // merged cycle integrates its promoted wordlines into one ADC conversion.
  a.cycles = std::int64_t{ceil_div(spec.oh(), spec.stride)} *
             ceil_div(spec.ow(), spec.stride) *
             core::ZeroSkipSchedule::coalesced_phases(fold, cfg.lookahead_h, cfg.lookaside_d);
  // Zero-skipping drives exactly the wordlines carrying real data — the same
  // (input pixel, kernel tap) pairings the zero-padding design's non-zero
  // window entries make, so the totals coincide by construction.
  a.row_drives = window_hits * spec.c;
  a.conversions = a.cycles * a.out_phys_cols * pulses;
  a.mux_switches = a.conversions;
  a.sa_ops = a.conversions;
  a.mac_pulses = static_cast<double>(a.row_drives) * pulses * cfg.calib.avg_bit_density *
                 static_cast<double>(m_phys);
  return a;
}

}  // namespace

std::string structural_key(arch::DesignKind kind, const arch::DesignConfig& cfg,
                           const nn::DeconvLayerSpec& spec) {
  std::string key;
  key.reserve(2 * sizeof(tech::Calibration));
  append_raw(key, static_cast<int>(kind));
  append_key_fields(key, cfg);   // every structural DesignConfig field
  append_key_fields(key, spec);  // layer geometry; the name is presentation-only
  return key;
}

std::string digest(const std::string& key) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  for (const unsigned char ch : key) {
    h ^= ch;
    h *= 1099511628211ULL;  // FNV prime
  }
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xF];
    h >>= 4;
  }
  return out;
}

std::string LayerPlan::fingerprint() const { return digest(key); }

std::string StackPlan::key() const {
  std::string k;
  append_raw(k, static_cast<std::uint64_t>(layers.size()));
  for (const auto& layer : layers) {
    append_raw(k, static_cast<std::uint64_t>(layer.key.size()));
    k += layer.key;
  }
  return k;
}

std::string StackPlan::fingerprint() const { return digest(key()); }

int resolve_fold(arch::DesignKind kind, const nn::DeconvLayerSpec& spec,
                 const arch::DesignConfig& cfg) {
  if (kind != arch::DesignKind::kRed) return 1;
  return resolved_fold(cfg, core::compute_mode_groups(spec));
}

LayerGeometry layer_geometry(const nn::DeconvLayerSpec& spec) {
  LayerGeometry g;
  g.spec = spec;
  g.padded = nn::padded_geometry(spec);  // validates spec
  g.window_hits = nn::structural_window_hits(spec);
  g.groups = core::compute_mode_groups(spec);
  return g;
}

LayerPlan plan_layer(arch::DesignKind kind, const nn::DeconvLayerSpec& spec,
                     const arch::DesignConfig& cfg) {
  return plan_layer(kind, layer_geometry(spec), cfg);
}

LayerPlan plan_layer(arch::DesignKind kind, const LayerGeometry& geometry,
                     const arch::DesignConfig& cfg) {
  cfg.validate();
  const nn::DeconvLayerSpec& spec = geometry.spec;

  LayerPlan p;
  p.kind = kind;
  p.spec = spec;
  p.cfg = cfg;
  switch (kind) {
    case arch::DesignKind::kZeroPadding:
      p.layout = {std::int64_t{spec.kh} * spec.kw * spec.c, spec.m, 1};
      p.activity = zero_padding_activity(spec, geometry.window_hits, cfg);
      break;
    case arch::DesignKind::kPaddingFree:
      p.layout = {spec.c, std::int64_t{spec.kh} * spec.kw * spec.m, 1};
      p.activity = padding_free_activity(spec, cfg);
      break;
    case arch::DesignKind::kRed:
      p.groups = geometry.groups;
      p.fold = resolved_fold(cfg, p.groups);
      p.layout = {spec.c, spec.m, std::int64_t{spec.kh} * spec.kw};
      p.activity = red_activity(spec, geometry.window_hits, cfg, p.groups, p.fold);
      break;
  }
  // Spare-line redundancy (fault.repair) costs real array area: each macro
  // grows by its spare wordlines x (cols + spare bitlines) plus spare
  // bitlines x rows. Priced into `cells` (the area term) so the optimizer
  // sees the redundancy <-> area tradeoff; the dynamic counts are untouched
  // because spares are idle until a repair consumes them.
  const auto& repair = cfg.fault.repair;
  if (repair.spare_rows > 0 || repair.spare_cols > 0) {
    const std::int64_t sr = repair.spare_rows;
    const std::int64_t sc = repair.spare_cols;
    for (const auto& m : p.activity.macros)
      p.activity.cells += m.count * (sr * (m.phys_cols + sc) + sc * m.rows);
  }
  p.tiles.reserve(p.activity.macros.size());
  for (const auto& m : p.activity.macros)
    p.tiles.push_back(xbar::plan_tiling(m.rows, m.phys_cols, cfg.tiling));
  p.key = structural_key(kind, cfg, spec);
  return p;
}

StackPlan plan_stack(arch::DesignKind kind, const std::vector<nn::DeconvLayerSpec>& stack,
                     const arch::DesignConfig& cfg) {
  StackPlan sp;
  sp.kind = kind;
  sp.cfg = cfg;
  sp.layers.reserve(stack.size());
  for (const auto& spec : stack) sp.layers.push_back(plan_layer(kind, spec, cfg));
  return sp;
}

}  // namespace red::plan
