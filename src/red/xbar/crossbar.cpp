#include "red/xbar/crossbar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "red/common/contracts.h"
#include "red/common/math_util.h"
#include "red/perf/mvm_kernel.h"
#include "red/xbar/codec.h"

namespace red::xbar {

namespace {

// Per-thread scratch for the signature-compatible entry points, so legacy
// call sites get the allocation-free kernels without plumbing a workspace.
perf::MvmWorkspace& thread_workspace() {
  thread_local perf::MvmWorkspace ws;
  return ws;
}

// SplitMix64's output mix: a bijection of 64-bit words with mix64(0) == 0.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// SplitMix64: tiny counter-style generator for the variation sampler. One
// multiply-xorshift step per draw, which is what makes sparse
// reprogramming cheap.
struct SplitMix64 {
  std::uint64_t state;
  explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() { return mix64(state += 0x9e3779b97f4a7c15ULL); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

}  // namespace

MvmStats& MvmStats::operator+=(const MvmStats& o) {
  mvm_ops += o.mvm_ops;
  row_drives += o.row_drives;
  mac_pulses += o.mac_pulses;
  conversions += o.conversions;
  adc_clips += o.adc_clips;
  return *this;
}

LogicalXbar::LogicalXbar(std::int64_t rows, std::int64_t cols,
                         std::span<const std::int32_t> weights, QuantConfig config,
                         std::uint64_t variation_salt)
    : rows_(rows), cols_(cols), config_(config), packed_words_((rows + 63) >> 6) {
  config_.validate();
  RED_EXPECTS(rows >= 1 && cols >= 1);
  RED_EXPECTS_MSG(weights.size() == static_cast<std::size_t>(rows * cols),
                  "weights must be rows*cols");
  // One reduction range-checks every weight: in range exactly when
  // w + offset (unsigned, so wrapping) has no bit at or above wbits.
  const std::int32_t offset = config_.weight_offset();
  std::uint32_t out_of_range = 0;
  for (const std::int32_t w : weights)
    out_of_range |= (static_cast<std::uint32_t>(w) + static_cast<std::uint32_t>(offset)) >>
                    config_.wbits;
  RED_EXPECTS_MSG(out_of_range == 0, "weight outside wbits signed range");
  const int stored_bits = config_.stored_weight_bits();
  if (stored_bits <= 8)
    weights_.emplace<std::vector<std::int8_t>>(weights.begin(), weights.end());
  else if (stored_bits <= 16)
    weights_.emplace<std::vector<std::int16_t>>(weights.begin(), weights.end());
  else
    weights_.emplace<std::vector<std::int32_t>>(weights.begin(), weights.end());
  // Device variation reaches the cells only through the one sparse pass
  // over the clean levels.
  apply_variation(variation_salt);
}

LogicalXbar::LogicalXbar(const LogicalXbar& clean, const VariationModel& var,
                         std::uint64_t salt)
    : LogicalXbar(clean) {
  RED_EXPECTS_MSG(!clean.config_.variation.enabled(),
                  "perturbed copies must derive from a variation-free crossbar");
  var.validate();
  config_.variation = var;
  apply_variation(salt);
}

void LogicalXbar::apply_variation(std::uint64_t salt) {
  const VariationModel& var = config_.variation;
  const int slices = config_.slices();
  const auto plane = static_cast<std::size_t>(rows_ * cols_);
  variation_stats_ = {};
  variation_stats_.cells = static_cast<std::int64_t>(plane) * slices;
  if (!var.enabled()) return;

  const int max_level = config_.max_level();
  const NoiseLaw law(var.level_sigma > 0.0 ? var.level_sigma : 1.0, max_level);
  SplitMix64 rng(var.seed ^ mix64(salt));

  double p_star = 0.0;  // upper bound on any cell's change probability
  for (int l = 0; l <= max_level; ++l)
    p_star = std::max(p_star, law.change[static_cast<std::size_t>(l)]);
  const std::size_t total = plane * static_cast<std::size_t>(slices);

  const double sa0 = var.sa0();
  const double stuck = var.stuck_total();
  std::visit(
      [&](auto& weights) {
        // Sparse deltas over the clean state, cells in flat [slice][row][col]
        // order, each decoded from its stored weight as the walk reaches it
        // (patching one digit of a weight leaves its other digits).
        const std::span w(weights);
        const auto apply_change = [&](int s, std::size_t i, std::uint8_t level) {
          ++variation_stats_.perturbed_cells;
          patch_cell(w, s, i, level);
        };
        if (stuck == 0.0 && p_star < 0.25) {
          // Noise-only, low change probability: geometric skip-sampling.
          // Candidate cells fire as a Bernoulli(p_star) process walked by
          // geometric gaps and are accepted with probability change[level] /
          // p_star — exact rejection sampling of the same per-cell law, in
          // O(changed cells) draws instead of O(cells). (Stuck-at needs the
          // per-cell walk: a stuck event counts in the stats even when it
          // lands on the unchanged level.)
          if (p_star == 0.0) return;
          const double log1m = std::log1p(-p_star);
          std::size_t idx = 0;  // flat cell index, s * plane + i
          int s = 0;
          std::size_t i = 0;
          while (idx < total) {
            const double gap = std::floor(std::log1p(-rng.uniform()) / log1m);
            if (gap >= static_cast<double>(total - idx)) break;
            idx += static_cast<std::size_t>(gap);
            for (i += static_cast<std::size_t>(gap); i >= plane; i -= plane) ++s;
            const std::uint8_t original = level_of(w[i], s);
            const double change = law.change[original];
            if (rng.uniform() * p_star < change)
              apply_change(s, i, law.sample_changed(original, rng.uniform() * change, max_level));
            ++idx;
            ++i;  // wraps into the next slice with the next gap
          }
          return;
        }
        for (int s = 0; s < slices; ++s)
          for (std::size_t i = 0; i < plane; ++i) {
            const std::uint8_t original = level_of(w[i], s);
            std::uint8_t level = original;
            const double su = stuck > 0.0 ? rng.uniform() : 1.0;
            const double change = law.change[original];
            if (su < stuck) {
              const bool at0 = su < sa0;
              level = at0 ? 0 : static_cast<std::uint8_t>(max_level);
              ++variation_stats_.stuck_cells;
              ++(at0 ? variation_stats_.sa0_cells : variation_stats_.sa1_cells);
            } else if (var.level_sigma > 0.0 && rng.uniform() < change) {
              level = law.sample_changed(original, rng.uniform() * change, max_level);
            }
            if (level != original) apply_change(s, i, level);
          }
      },
      weights_);
}

LogicalXbar::LogicalXbar(const LogicalXbar& clean, std::span<const LevelPatch> patches,
                         VariationStats stats)
    : LogicalXbar(clean) {
  variation_stats_ = stats;
  const auto plane = static_cast<std::size_t>(rows_ * cols_);
  const std::size_t total = plane * static_cast<std::size_t>(config_.slices());
  std::visit(
      [&](auto& weights) {
        const std::span w(weights);
        for (const LevelPatch& p : patches) {
          RED_EXPECTS_MSG(p.index < total && p.level <= config_.max_level(),
                          "level patch outside the crossbar");
          patch_cell(w, static_cast<int>(p.index / plane), p.index % plane, p.level);
        }
      },
      weights_);
}

template <typename T>
void LogicalXbar::patch_cell(std::span<T> weights, int s, std::size_t i, std::uint8_t level) {
  const std::uint8_t original = level_of(weights[i], s);
  if (level == original) return;
  const int cell_bits = config_.cell_bits;
  // The patched weight fits: stored_weight_bits() covers every level.
  const std::int32_t delta =
      (static_cast<std::int32_t>(level) - static_cast<std::int32_t>(original)) << (cell_bits * s);
  weights[i] = static_cast<T>(weights[i] + delta);
  std::vector<std::uint64_t>* planes = derived_.get_mut();
  if (planes == nullptr) return;  // built later, from the patched weights
  // One bit per level bit of this cell, at row bit (r % 64) of word (r / 64)
  // in plane s * cell_bits + t.
  const std::int64_t r = static_cast<std::int64_t>(i) / cols_;
  const std::int64_t c = static_cast<std::int64_t>(i) % cols_;
  const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
  const std::size_t words = static_cast<std::size_t>(packed_words_);
  const std::size_t col_base =
      static_cast<std::size_t>(c) * static_cast<std::size_t>(packed_weight_planes()) * words;
  for (int t = 0; t < cell_bits; ++t) {
    const auto u = static_cast<std::size_t>(s * cell_bits + t);
    std::uint64_t& word = (*planes)[col_base + u * words + static_cast<std::size_t>(r >> 6)];
    if ((level >> t) & 1)
      word |= row_bit;
    else
      word &= ~row_bit;
  }
}

LogicalXbar::DerivedCache::DerivedCache(const DerivedCache& other) {
  if (const auto* words = other.get()) {
    state_->words = *words;
    state_->ready.store(true, std::memory_order_release);
  }
}

LogicalXbar::DerivedCache& LogicalXbar::DerivedCache::operator=(const DerivedCache& other) {
  if (this != &other) *this = DerivedCache(other);
  return *this;
}

bool LogicalXbar::DerivedCache::ensure(const LogicalXbar& owner) const {
  if (get() != nullptr) return false;
  bool built = false;
  std::call_once(state_->once, [&] {
    // A copy of built planes is marked ready before any reader sees it.
    if (state_->ready.load(std::memory_order_relaxed)) return;
    owner.build_packed_planes(state_->words);
    state_->ready.store(true, std::memory_order_release);
    built = true;
  });
  return built;
}

const std::vector<double>& LogicalXbar::DerivedCache::row_power(
    const LogicalXbar& owner) const {
  std::call_once(state_->power_once, [&] {
    const std::int64_t rows = owner.rows_, cols = owner.cols_;
    const std::int32_t offset = owner.config_.weight_offset();
    state_->power.assign(static_cast<std::size_t>(rows), 0.0);
    owner.visit_stored_weights([&](auto stored) {
      for (std::int64_t r = 0; r < rows; ++r) {
        double m2 = 0.0;
        for (std::int64_t c = 0; c < cols; ++c) {
          const double u =
              static_cast<double>(stored[static_cast<std::size_t>(r * cols + c)]) + offset;
          m2 += u * u;
        }
        state_->power[static_cast<std::size_t>(r)] = m2;
      }
    });
  });
  return state_->power;
}

const LogicalXbar::DerivedCache::ColumnSums& LogicalXbar::DerivedCache::column_sums(
    const LogicalXbar& owner) const {
  std::call_once(state_->sums_once, [&] {
    // Digit s of stored + offset is the slice-s level (codec's encode_weight).
    const std::int64_t rows = owner.rows_, cols = owner.cols_;
    const int slices = owner.config_.slices();
    std::vector<std::int64_t>& sums = state_->sums.sums;
    sums.assign(static_cast<std::size_t>(cols * slices), 0);
    owner.visit_stored_weights([&](auto stored) {
      for (std::int64_t r = 0; r < rows; ++r)
        for (int s = 0; s < slices; ++s)
          for (std::int64_t c = 0; c < cols; ++c)
            sums[static_cast<std::size_t>(s * cols + c)] +=
                owner.level_of(stored[static_cast<std::size_t>(r * cols + c)], s);
    });
    const std::int64_t worst = *std::max_element(sums.begin(), sums.end());
    state_->sums.bits = worst == 0 ? 1 : ilog2_ceil(worst + 1);
  });
  return state_->sums;
}

std::span<const double> LogicalXbar::encoded_row_power() const {
  return derived_.row_power(*this);
}

bool LogicalXbar::ensure_packed_planes() const {
  RED_EXPECTS_MSG(config_.adc.mode == AdcMode::kClipped, "packed planes need a clipped ADC");
  return derived_.ensure(*this);
}

void LogicalXbar::build_packed_planes(std::vector<std::uint64_t>& planes) const {
  const auto num_planes = static_cast<std::size_t>(packed_weight_planes());
  const auto words = static_cast<std::size_t>(packed_words_);
  planes.assign(static_cast<std::size_t>(cols_) * num_planes * words, 0);
  const std::int32_t offset = config_.weight_offset();
  // Plane u = s * cell_bits + t holds bit t of digit s of w + offset, which
  // is bit u of w + offset itself: every set bit of the encoded weight is
  // one plane bit.
  visit_stored_weights([&](auto w) {
    for (std::int64_t r = 0; r < rows_; ++r) {
      const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
      const auto word = static_cast<std::size_t>(r >> 6);
      for (std::int64_t c = 0; c < cols_; ++c) {
        std::uint64_t* col = planes.data() + static_cast<std::size_t>(c) * num_planes * words;
        for (auto u = static_cast<std::uint32_t>(w[static_cast<std::size_t>(r * cols_ + c)] +
                                                 offset);
             u != 0; u &= u - 1)
          col[static_cast<std::size_t>(std::countr_zero(u)) * words + word] |= row_bit;
      }
    }
  });
}

std::int32_t LogicalXbar::stored_weight(std::int64_t r, std::int64_t c) const {
  RED_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return visit_stored_weights([i = static_cast<std::size_t>(r * cols_ + c)](auto w) {
    return static_cast<std::int32_t>(w[i]);
  });
}

std::vector<std::int32_t> LogicalXbar::stored_weights() const {
  return visit_stored_weights(
      [](auto w) { return std::vector<std::int32_t>(w.begin(), w.end()); });
}

std::vector<std::int64_t> LogicalXbar::mvm(std::span<const std::int32_t> input,
                                           MvmStats* stats) const {
  const auto out =
      perf::mvm_batch(*this, input, 1, /*bit_accurate=*/false, thread_workspace(), stats);
  return {out.begin(), out.end()};
}

std::span<const std::int64_t> LogicalXbar::mvm(std::span<const std::int32_t> input,
                                               perf::MvmWorkspace& ws, MvmStats* stats) const {
  return perf::mvm_batch(*this, input, 1, /*bit_accurate=*/false, ws, stats);
}

std::vector<std::int64_t> LogicalXbar::mvm_bit_accurate(std::span<const std::int32_t> input,
                                                        MvmStats* stats) const {
  const auto out = perf::mvm_bit_accurate(*this, input, thread_workspace(), stats);
  return {out.begin(), out.end()};
}

std::span<const std::int64_t> LogicalXbar::mvm_bit_accurate(std::span<const std::int32_t> input,
                                                            perf::MvmWorkspace& ws,
                                                            MvmStats* stats) const {
  return perf::mvm_bit_accurate(*this, input, ws, stats);
}

std::span<const std::int64_t> LogicalXbar::mvm_batch(std::span<const std::int32_t> inputs,
                                                     std::int64_t batch, bool bit_accurate,
                                                     perf::MvmWorkspace& ws,
                                                     MvmStats* stats) const {
  return perf::mvm_batch(*this, inputs, batch, bit_accurate, ws, stats);
}

std::vector<std::int64_t> LogicalXbar::mvm_bit_accurate_reference(
    std::span<const std::int32_t> input, MvmStats* stats) const {
  RED_EXPECTS_MSG(input.size() == static_cast<std::size_t>(rows_), "input size mismatch");
  const int slices = config_.slices();
  const int num_pulses = config_.pulses();
  const std::int64_t clip_max = config_.adc.mode == AdcMode::kClipped
                                    ? (std::int64_t{1} << config_.adc.bits) - 1
                                    : std::numeric_limits<std::int64_t>::max();

  // Pre-compute per-row pulse streams (bit planes, or DAC digits when
  // dac_bits > 1) and the exact digital input sum (offset column).
  std::vector<std::vector<std::uint8_t>> streams;
  streams.reserve(input.size());
  std::int64_t input_sum = 0;
  std::int64_t drives = 0;
  std::int64_t pulses = 0;
  for (auto v : input) {
    streams.push_back(config_.dac_bits == 1 ? input_bit_planes(v, config_)
                                            : input_digits(v, config_));
    input_sum += v;
    if (v != 0) {
      ++drives;
      pulses += std::int64_t{pulse_count(v, config_)} * phys_cols();
    }
  }

  std::vector<std::int64_t> out(static_cast<std::size_t>(cols_), 0);
  std::int64_t clips = 0;
  for (int b = 0; b < num_pulses; ++b) {
    // Bit-serial: the MSB plane carries the two's-complement negative weight.
    // Multi-bit DAC: digits are unsigned (non-negative activations only).
    const std::int64_t pulse_weight =
        (config_.dac_bits == 1 && b == config_.abits - 1)
            ? -(std::int64_t{1} << b)
            : (std::int64_t{1} << (config_.dac_bits * b));
    for (std::int64_t c = 0; c < cols_; ++c) {
      std::int64_t col_acc = 0;  // recombined across slices
      for (int s = 0; s < slices; ++s) {
        std::int64_t current = 0;  // integrate the column current for pulse b
        for (std::int64_t r = 0; r < rows_; ++r) {
          const auto drive = streams[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)];
          if (drive == 0) continue;
          current += std::int64_t{drive} * level(r, c, s);
        }
        if (current > clip_max) {
          current = clip_max;
          ++clips;
        }
        col_acc += current << (config_.cell_bits * s);
      }
      out[static_cast<std::size_t>(c)] += pulse_weight * col_acc;
    }
  }
  // Offset-encoding correction: subtract offset * (exact digital input sum).
  for (auto& v : out) v -= std::int64_t{config_.weight_offset()} * input_sum;

  if (stats != nullptr) {
    stats->mvm_ops += 1;
    stats->row_drives += drives;
    stats->mac_pulses += pulses;
    stats->conversions += phys_cols() * num_pulses;
    stats->adc_clips += clips;
  }
  return out;
}

}  // namespace red::xbar
