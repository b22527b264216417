// Tests for the crossbar functional layer: codecs, exact MVM, bit-accurate
// path, ADC clipping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "red/common/error.h"
#include "red/common/math_util.h"
#include "red/common/rng.h"
#include "red/xbar/codec.h"
#include "red/xbar/crossbar.h"

namespace red::xbar {
namespace {

QuantConfig default_q() { return QuantConfig{}; }

TEST(QuantConfig, SlicesAndOffset) {
  QuantConfig q;
  EXPECT_EQ(q.slices(), 4);  // 8-bit weights on 2-bit cells
  EXPECT_EQ(q.weight_offset(), 128);
  EXPECT_EQ(q.max_level(), 3);
  q.cell_bits = 3;
  EXPECT_EQ(q.slices(), 3);  // ceil(8/3)
}

TEST(Codec, WeightRoundTripAllValues) {
  const QuantConfig q = default_q();
  for (std::int32_t w = -128; w <= 127; ++w) {
    const auto lv = encode_weight(w, q);
    ASSERT_EQ(lv.size(), 4u);
    for (auto d : lv) ASSERT_LE(d, 3);
    EXPECT_EQ(decode_weight(lv, q), w);
  }
}

TEST(Codec, ProgrammingMatchesCodecForEveryInRangeWeight) {
  // The from-weights constructor encodes in place; xbar/codec is its oracle.
  // One crossbar row per configuration holds every in-range weight; the
  // noisy variant checks the in-place decode of perturbed levels.
  struct Widths {
    int wbits, cell_bits;
  };
  for (const Widths wc : {Widths{8, 2}, Widths{8, 1}, Widths{7, 3}, Widths{5, 4}, Widths{12, 4},
                          Widths{16, 3}}) {
    for (const bool noisy : {false, true}) {
      QuantConfig q;
      q.wbits = wc.wbits;
      q.cell_bits = wc.cell_bits;
      if (noisy) {
        q.variation.level_sigma = 0.6;
        q.variation.sa1_rate = 0.01;
        q.variation.seed = 5;
      }
      const std::int32_t half = q.weight_offset();
      std::vector<std::int32_t> w;
      for (std::int32_t v = -half; v < half; ++v) w.push_back(v);
      const LogicalXbar xb(1, static_cast<std::int64_t>(w.size()), w, q);
      const int slices = q.slices();
      std::int64_t mismatches = 0;
      for (std::size_t i = 0; i < w.size(); ++i) {
        const auto c = static_cast<std::int64_t>(i);
        std::vector<std::uint8_t> lv(static_cast<std::size_t>(slices));
        for (int s = 0; s < slices; ++s) lv[static_cast<std::size_t>(s)] = xb.level(0, c, s);
        if (noisy) {
          mismatches += xb.stored_weight(0, c) != decode_weight(lv, q);
        } else {
          mismatches += lv != encode_weight(w[i], q);
          mismatches += xb.stored_weight(0, c) != decode_weight(encode_weight(w[i], q), q);
        }
      }
      EXPECT_EQ(mismatches, 0) << "wbits " << wc.wbits << " cell_bits " << wc.cell_bits
                               << (noisy ? " noisy" : "");
      if (noisy) {
        EXPECT_GT(xb.variation_stats().perturbed_cells, 0);
      }
    }
  }
  const std::vector<std::int32_t> out_of_range{128};
  EXPECT_THROW(LogicalXbar(1, 1, out_of_range, default_q()), ContractViolation);
}

TEST(Codec, ProgrammingMatchesCodecOracleOnEveryCell) {
  // The constructor's vector passes (one min/max range check, levels slice
  // by slice, column sums per slice) against encode_weight cell by cell, on
  // a shape no SIMD vector divides, with both ends of the range present.
  struct Widths {
    int wbits, cell_bits;
  };
  constexpr std::int64_t kRows = 37, kCols = 29;
  for (const Widths wc :
       {Widths{8, 2}, Widths{7, 2}, Widths{5, 2}, Widths{16, 2}, Widths{16, 3}}) {
    QuantConfig q;
    q.wbits = wc.wbits;
    q.cell_bits = wc.cell_bits;
    const std::string what =
        "wbits " + std::to_string(wc.wbits) + " cell_bits " + std::to_string(wc.cell_bits);
    const std::int32_t half = q.weight_offset();
    Rng rng(static_cast<std::uint64_t>(wc.wbits * 8 + wc.cell_bits));
    std::vector<std::int32_t> w(static_cast<std::size_t>(kRows * kCols));
    for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-half, half - 1));
    w.front() = -half;
    w.back() = half - 1;
    const LogicalXbar xb(kRows, kCols, w, q);

    const int slices = q.slices();
    std::vector<std::int64_t> sums(static_cast<std::size_t>(kCols * slices), 0);
    std::int64_t mismatches = 0;
    for (std::int64_t r = 0; r < kRows; ++r)
      for (std::int64_t c = 0; c < kCols; ++c) {
        const std::int32_t weight = w[static_cast<std::size_t>(r * kCols + c)];
        const auto lv = encode_weight(weight, q);
        for (int s = 0; s < slices; ++s) {
          mismatches += xb.level(r, c, s) != lv[static_cast<std::size_t>(s)];
          sums[static_cast<std::size_t>(c * slices + s)] += lv[static_cast<std::size_t>(s)];
        }
        mismatches += xb.stored_weight(r, c) != weight;
      }
    EXPECT_EQ(mismatches, 0) << what;
    std::int64_t worst = 0;
    for (std::int64_t c = 0; c < kCols; ++c)
      for (int s = 0; s < slices; ++s) {
        const std::int64_t sum = sums[static_cast<std::size_t>(c * slices + s)];
        EXPECT_EQ(xb.col_level_sum(c, s), sum) << what << " col " << c << " slice " << s;
        worst = std::max(worst, sum);
      }
    EXPECT_EQ(xb.lossless_adc_bits(), worst == 0 ? 1 : ilog2_ceil(worst + 1)) << what;

    // One out-of-range weight, at the first or at the last element, throws.
    for (const std::size_t at : {std::size_t{0}, w.size() - 1})
      for (const std::int32_t bad : {-half - 1, half, std::numeric_limits<std::int32_t>::min(),
                                     std::numeric_limits<std::int32_t>::max()}) {
        auto bad_w = w;
        bad_w[at] = bad;
        try {
          (void)LogicalXbar(kRows, kCols, bad_w, q);
          ADD_FAILURE() << what << ": weight " << bad << " at " << at << " did not throw";
        } catch (const ContractViolation& e) {
          EXPECT_NE(std::string(e.what()).find("weight outside wbits signed range"),
                    std::string::npos)
              << what << ": " << e.what();
        }
      }
  }
}

TEST(Codec, WeightRangeChecked) {
  const QuantConfig q = default_q();
  EXPECT_THROW((void)encode_weight(128, q), ContractViolation);
  EXPECT_THROW((void)encode_weight(-129, q), ContractViolation);
}

TEST(Codec, InputBitPlaneRoundTripAllValues) {
  const QuantConfig q = default_q();
  for (std::int32_t a = -128; a <= 127; ++a) {
    const auto planes = input_bit_planes(a, q);
    ASSERT_EQ(planes.size(), 8u);
    EXPECT_EQ(decode_input_planes(planes, q), a);
  }
}

TEST(Codec, PulseCountMatchesPopcount) {
  const QuantConfig q = default_q();
  EXPECT_EQ(pulse_count(0, q), 0);
  EXPECT_EQ(pulse_count(1, q), 1);
  EXPECT_EQ(pulse_count(3, q), 2);
  EXPECT_EQ(pulse_count(-1, q), 8);  // 0xFF in two's complement
  EXPECT_EQ(pulse_count(127, q), 7);
}

LogicalXbar make_random_xbar(std::int64_t rows, std::int64_t cols, Rng& rng, QuantConfig q) {
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * cols));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  return LogicalXbar(rows, cols, w, q);
}

TEST(LogicalXbar, StoredWeightsAreLossless) {
  Rng rng(1);
  const auto xb = make_random_xbar(5, 4, rng, default_q());
  Rng rng2(1);
  for (std::int64_t r = 0; r < 5; ++r)
    for (std::int64_t c = 0; c < 4; ++c)
      EXPECT_EQ(xb.stored_weight(r, c), static_cast<std::int32_t>(rng2.uniform_int(-128, 127)));
}

TEST(LogicalXbar, MvmMatchesDirectDotProduct) {
  Rng rng(2);
  const std::int64_t rows = 17, cols = 5;
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * cols));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  const LogicalXbar xb(rows, cols, w, default_q());
  std::vector<std::int32_t> in(static_cast<std::size_t>(rows));
  for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));

  const auto out = xb.mvm(in);
  for (std::int64_t c = 0; c < cols; ++c) {
    std::int64_t expect = 0;
    for (std::int64_t r = 0; r < rows; ++r)
      expect += std::int64_t{in[static_cast<std::size_t>(r)]} *
                w[static_cast<std::size_t>(r * cols + c)];
    EXPECT_EQ(out[static_cast<std::size_t>(c)], expect);
  }
}

TEST(LogicalXbar, BitAccurateEqualsFastPathWithIdealAdc) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t rows = rng.uniform_int(1, 24);
    const std::int64_t cols = rng.uniform_int(1, 6);
    const auto xb = make_random_xbar(rows, cols, rng, default_q());
    std::vector<std::int32_t> in(static_cast<std::size_t>(rows));
    for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
    EXPECT_EQ(xb.mvm(in), xb.mvm_bit_accurate(in)) << "rows=" << rows << " cols=" << cols;
  }
}

TEST(LogicalXbar, BitAccurateHandlesNegativeInputsViaSignPlane) {
  // Single weight 1, input -5: two's-complement planes must recombine to -5.
  const std::vector<std::int32_t> w{1};
  const LogicalXbar xb(1, 1, w, default_q());
  const std::vector<std::int32_t> in{-5};
  EXPECT_EQ(xb.mvm_bit_accurate(in)[0], -5);
}

TEST(LogicalXbar, ClippedAdcSaturatesAndIsCounted) {
  // 64 rows of max weight driven with +3 (two positive bit planes): each
  // 2-bit slice column sums to up to 64*3 = 192 > 2^4-1, so a 4-bit ADC
  // clips. With only positive plane weights, saturation can only shrink the
  // recombined result toward the offset-corrected minimum.
  const std::int64_t rows = 64;
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows), 127);
  QuantConfig q;
  q.adc = {AdcMode::kClipped, 4};
  const LogicalXbar xb(rows, 1, w, q);
  std::vector<std::int32_t> in(static_cast<std::size_t>(rows), 3);

  MvmStats stats;
  const auto clipped = xb.mvm_bit_accurate(in, &stats);
  EXPECT_GT(stats.adc_clips, 0);
  const auto exact = xb.mvm(in);
  EXPECT_EQ(exact[0], 64 * 127 * 3);
  EXPECT_LT(clipped[0], exact[0]);  // clipping loses positive plane current
}

TEST(LogicalXbar, LosslessAdcBitsIsSufficient) {
  Rng rng(4);
  const auto probe = make_random_xbar(48, 3, rng, default_q());
  const int bits = probe.lossless_adc_bits();
  QuantConfig q;
  q.adc = {AdcMode::kClipped, bits};
  Rng rng2(4);
  const auto xb = make_random_xbar(48, 3, rng2, q);
  std::vector<std::int32_t> in(48);
  for (auto& v : in) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
  EXPECT_EQ(xb.mvm_bit_accurate(in), xb.mvm(in));

  // One bit fewer must clip for the all-ones worst case.
  QuantConfig q2;
  q2.adc = {AdcMode::kClipped, bits - 1};
  Rng rng3(4);
  const auto xb2 = make_random_xbar(48, 3, rng3, q2);
  std::vector<std::int32_t> worst(48, -1);
  MvmStats stats;
  (void)xb2.mvm_bit_accurate(worst, &stats);
  EXPECT_GT(stats.adc_clips, 0);
}

TEST(LogicalXbar, StatsCountDrivesPulsesConversions) {
  const QuantConfig q = default_q();
  const std::vector<std::int32_t> w{1, 2, 3, 4};  // 2x2
  const LogicalXbar xb(2, 2, w, q);
  MvmStats stats;
  // Input row 0: value 3 (2 pulses); row 1: zero (skipped).
  (void)xb.mvm(std::vector<std::int32_t>{3, 0}, &stats);
  EXPECT_EQ(stats.mvm_ops, 1);
  EXPECT_EQ(stats.row_drives, 1);
  EXPECT_EQ(stats.conversions, xb.phys_cols() * q.abits);
  EXPECT_EQ(stats.mac_pulses, 2 * xb.phys_cols());
  // Bit-accurate path must report identical structural counts.
  MvmStats stats2;
  (void)xb.mvm_bit_accurate(std::vector<std::int32_t>{3, 0}, &stats2);
  EXPECT_EQ(stats2.row_drives, stats.row_drives);
  EXPECT_EQ(stats2.conversions, stats.conversions);
  EXPECT_EQ(stats2.mac_pulses, stats.mac_pulses);
}

TEST(LogicalXbar, LevelsDecodeFromStoredWeightsAfterPatches) {
  // Sparse patches, every top-slice cell stuck at the maximum level among
  // them (above the in-range levels of a partial top slice): level() reads
  // the patch level on patched cells and encode_weight elsewhere, and the
  // column sums and lossless-ADC bits follow the decoded levels.
  struct Widths {
    int wbits, cell_bits;
  };
  constexpr std::int64_t kRows = 41, kCols = 23;
  for (const Widths wc : {Widths{5, 2}, Widths{7, 2}, Widths{8, 1}, Widths{7, 3}}) {
    QuantConfig q;
    q.wbits = wc.wbits;
    q.cell_bits = wc.cell_bits;
    const std::string what =
        "wbits " + std::to_string(wc.wbits) + " cell_bits " + std::to_string(wc.cell_bits);
    const int slices = q.slices();
    const auto plane = static_cast<std::size_t>(kRows * kCols);
    const std::size_t total = plane * static_cast<std::size_t>(slices);
    const std::int32_t half = q.weight_offset();
    Rng rng(static_cast<std::uint64_t>(wc.wbits * 8 + wc.cell_bits));
    std::vector<std::int32_t> w(plane);
    for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-half, half - 1));
    const LogicalXbar clean(kRows, kCols, w, q);

    std::vector<int> patched(total, -1);
    std::vector<LevelPatch> patches;
    const auto patch = [&](std::size_t idx, std::uint8_t level) {
      patches.push_back({idx, level});
      patched[idx] = level;
    };
    const std::size_t top = static_cast<std::size_t>(slices - 1) * plane;
    for (std::size_t i = 0; i < plane; ++i)
      patch(top + i, static_cast<std::uint8_t>(q.max_level()));
    for (std::size_t idx = 0; idx < top; ++idx)
      if (rng.uniform_real(0.0, 1.0) < 0.1)
        patch(idx, static_cast<std::uint8_t>(rng.uniform_int(0, q.max_level())));
    const LogicalXbar faulted(clean, patches, VariationStats{});

    std::int64_t mismatches = 0;
    std::int64_t worst = 0;
    for (std::int64_t c = 0; c < kCols; ++c)
      for (int s = 0; s < slices; ++s) {
        std::int64_t sum = 0;
        for (std::int64_t r = 0; r < kRows; ++r) {
          const std::size_t idx =
              static_cast<std::size_t>(s) * plane + static_cast<std::size_t>(r * kCols + c);
          const int expected = patched[idx] >= 0
                                   ? patched[idx]
                                   : encode_weight(w[static_cast<std::size_t>(r * kCols + c)],
                                                   q)[static_cast<std::size_t>(s)];
          mismatches += faulted.level(r, c, s) != expected;
          sum += faulted.level(r, c, s);
        }
        EXPECT_EQ(faulted.col_level_sum(c, s), sum) << what << " col " << c << " slice " << s;
        worst = std::max(worst, sum);
      }
    EXPECT_EQ(mismatches, 0) << what;
    EXPECT_EQ(faulted.lossless_adc_bits(), worst == 0 ? 1 : ilog2_ceil(worst + 1)) << what;

    const std::vector<LevelPatch> outside{{total, 0}};
    try {
      (void)LogicalXbar(clean, outside, VariationStats{});
      ADD_FAILURE() << what << ": patch index rows*cols*slices accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("level patch outside the crossbar"),
                std::string::npos)
          << what << ": " << e.what();
    }
  }
}

TEST(LogicalXbar, RejectsBadGeometry) {
  const std::vector<std::int32_t> w{1, 2};
  EXPECT_THROW((LogicalXbar{2, 2, w, default_q()}), ContractViolation);  // wrong size
  const LogicalXbar xb(2, 1, w, default_q());
  EXPECT_THROW((void)xb.mvm(std::vector<std::int32_t>{1}), ContractViolation);
}

}  // namespace
}  // namespace red::xbar
