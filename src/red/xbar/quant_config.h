// Quantization and ADC configuration of the functional crossbar pipeline.
#pragma once

#include <cstdint>

#include "red/common/contracts.h"
#include "red/common/math_util.h"
#include "red/common/visit_fields.h"
#include "red/xbar/variation.h"

namespace red::xbar {

enum class AdcMode {
  kIdeal,    ///< unbounded integrate-&-fire counter: lossless conversion
  kClipped,  ///< counter saturates at 2^bits - 1 (ablation of ADC resolution)
};

struct AdcConfig {
  AdcMode mode = AdcMode::kIdeal;
  int bits = 8;  ///< only used in kClipped mode
};

/// Field list for AdcConfig (see common/visit_fields.h). The enum is visited
/// as-is; consumers that serialize it own the name mapping.
template <typename Adc, typename F>
  requires common::FieldsOf<Adc, AdcConfig>
void visit_fields(Adc& a, F&& f) {
  static_assert(common::field_count<AdcConfig>() == 2,
                "AdcConfig changed: extend visit_fields");
  f("mode", a.mode);
  f("bits", a.bits);
}

/// Data-path widths. Weights are offset-encoded (w + 2^(wbits-1), always
/// non-negative) and split into base-2^cell_bits digits across `slices()`
/// physical columns; activations stream bit-serially over `abits` pulses in
/// two's complement (MSB pulse carries weight -2^(abits-1)).
struct QuantConfig {
  int wbits = 8;
  int abits = 8;
  int cell_bits = 2;
  /// Input DAC resolution: bits driven per wordline pulse. 1 = classic
  /// bit-serial. Values > 1 shorten the pulse train by dac_bits x but
  /// require non-negative activations (post-ReLU data) — the digit encoding
  /// is unsigned.
  int dac_bits = 1;
  AdcConfig adc;
  VariationModel variation;  ///< device non-idealities (off by default)

  [[nodiscard]] int slices() const { return ceil_div(wbits, cell_bits); }
  /// Wordline pulses per MVM (bit-serial: abits; multi-bit DAC: fewer).
  [[nodiscard]] int pulses() const { return ceil_div(abits, dac_bits); }
  /// Offset added to weights so stored levels are non-negative.
  [[nodiscard]] std::int32_t weight_offset() const {
    return static_cast<std::int32_t>(std::int64_t{1} << (wbits - 1));
  }
  /// Max level one cell stores (e.g. 3 for 2-bit cells).
  [[nodiscard]] int max_level() const { return (1 << cell_bits) - 1; }
  /// Signed width of every weight the cells can store: wbits when the slices
  /// hold exactly wbits level bits, else one more than the level bits, since
  /// a faulted partial top slice can store up to 2^(slices*cell_bits) - 1 -
  /// offset (191 at wbits 7, cell_bits 2).
  [[nodiscard]] int stored_weight_bits() const {
    const int level_bits = slices() * cell_bits;
    return level_bits == wbits ? wbits : level_bits + 1;
  }

  void validate() const {
    RED_EXPECTS(wbits >= 2 && wbits <= 16);
    RED_EXPECTS(abits >= 2 && abits <= 16);
    RED_EXPECTS(cell_bits >= 1 && cell_bits <= 4);
    RED_EXPECTS(dac_bits >= 1 && dac_bits <= 8);
    RED_EXPECTS(adc.bits >= 1 && adc.bits <= 31);
    variation.validate();
  }
};

/// Field list for QuantConfig. Nested structs (adc, variation) are visited
/// as single fields; consumers recurse through their own visitors.
template <typename Q, typename F>
  requires common::FieldsOf<Q, QuantConfig>
void visit_fields(Q& q, F&& f) {
  static_assert(common::field_count<QuantConfig>() == 6,
                "QuantConfig changed: extend visit_fields so structural_key, "
                "JSON, and fingerprints keep covering every field");
  f("wbits", q.wbits);
  f("abits", q.abits);
  f("cell_bits", q.cell_bits);
  f("dac_bits", q.dac_bits);
  f("adc", q.adc);
  f("variation", q.variation);
}

}  // namespace red::xbar
