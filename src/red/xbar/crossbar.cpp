#include "red/xbar/crossbar.h"

#include <algorithm>
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
  const int slices = config_.slices();
  const int cell_bits = config_.cell_bits;
  const std::size_t plane = weights.size();
  weights_.assign(weights.begin(), weights.end());
  levels_.resize(plane * static_cast<std::size_t>(slices));

  // Running per-(col, slice) column sums of the programmed levels feed the
  // lossless-ADC-bits cache; kept as a member so delta reprogramming can
  // update the cache incrementally.
  col_level_sums_.assign(static_cast<std::size_t>(cols) * slices, 0);

  // Offset encoding in place (xbar/codec's encode_weight/decode_weight are
  // the oracle): w + offset split into base-2^cell_bits digits, least
  // significant slice first. Lossless for in-range weights, so weights_
  // starts as the input.
  const std::int64_t offset = config_.weight_offset();
  const std::int64_t mask = config_.max_level();
  std::size_t i = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c, ++i) {
      const std::int32_t w = weights[i];
      RED_EXPECTS_MSG(w >= -offset && w < offset, "weight outside wbits signed range");
      std::int64_t u = w + offset;
      std::int64_t* sums = col_level_sums_.data() + c * slices;
      for (int s = 0; s < slices; ++s, u >>= cell_bits) {
        const auto l = static_cast<std::uint8_t>(u & mask);
        levels_[static_cast<std::size_t>(s) * plane + i] = l;
        sums[s] += l;
      }
    }
  }
  refresh_lossless_adc_bits();
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
  const std::size_t plane = weights_.size();
  variation_stats_ = {};
  variation_stats_.cells = static_cast<std::int64_t>(plane) * slices;
  if (!var.enabled()) return;

  const int max_level = config_.max_level();
  const NoiseLaw law(var.level_sigma > 0.0 ? var.level_sigma : 1.0, max_level);
  SplitMix64 rng(var.seed ^ mix64(salt));

  // Sparse deltas over the clean state. levels_ is one contiguous
  // [slice][row][col] array, so `idx` walks all cells flat.
  const auto apply_change = [&](std::size_t idx, std::uint8_t level) {
    ++variation_stats_.perturbed_cells;
    patch_cell(idx, level);
  };

  double p_star = 0.0;  // upper bound on any cell's change probability
  for (int l = 0; l <= max_level; ++l)
    p_star = std::max(p_star, law.change[static_cast<std::size_t>(l)]);
  const std::size_t total = plane * static_cast<std::size_t>(slices);

  const double sa0 = var.sa0();
  const double stuck = var.stuck_total();
  if (stuck == 0.0 && p_star < 0.25) {
    // Noise-only, low change probability: geometric skip-sampling. Candidate
    // cells fire as a Bernoulli(p_star) process walked by geometric gaps and
    // are accepted with probability change[level] / p_star — exact rejection
    // sampling of the same per-cell law, in O(changed cells) draws instead
    // of O(cells). (Stuck-at needs the per-cell walk: a stuck event counts
    // in the stats even when it lands on the unchanged level.)
    if (p_star > 0.0) {
      const double log1m = std::log1p(-p_star);
      std::size_t idx = 0;
      while (idx < total) {
        const double gap = std::floor(std::log1p(-rng.uniform()) / log1m);
        if (gap >= static_cast<double>(total - idx)) break;
        idx += static_cast<std::size_t>(gap);
        const std::uint8_t original = levels_[idx];
        const double change = law.change[original];
        if (rng.uniform() * p_star < change)
          apply_change(idx, law.sample_changed(original, rng.uniform() * change, max_level));
        ++idx;
      }
    }
  } else {
    for (std::size_t idx = 0; idx < total; ++idx) {
      const std::uint8_t original = levels_[idx];
      std::uint8_t level = original;
      bool forced = false;
      if (stuck > 0.0) {
        const double su = rng.uniform();
        if (su < stuck) {
          forced = true;
          const bool at0 = su < sa0;
          level = at0 ? 0 : static_cast<std::uint8_t>(max_level);
          ++variation_stats_.stuck_cells;
          ++(at0 ? variation_stats_.sa0_cells : variation_stats_.sa1_cells);
        }
      }
      if (!forced && var.level_sigma > 0.0) {
        const double u = rng.uniform();
        if (u < law.change[original]) {
          level = law.sample_changed(original, rng.uniform() * law.change[original], max_level);
        }
      }
      if (level != original) apply_change(idx, level);
    }
  }
  refresh_lossless_adc_bits();
}

LogicalXbar::LogicalXbar(const LogicalXbar& clean, std::span<const LevelPatch> patches,
                         VariationStats stats)
    : LogicalXbar(clean) {
  variation_stats_ = stats;
  for (const LevelPatch& p : patches) {
    RED_EXPECTS_MSG(p.index < levels_.size() && p.level <= config_.max_level(),
                    "level patch outside the crossbar");
    patch_cell(p.index, p.level);
  }
  refresh_lossless_adc_bits();
}

void LogicalXbar::patch_cell(std::size_t idx, std::uint8_t level) {
  const std::uint8_t original = levels_[idx];
  if (level == original) return;
  const std::size_t plane = weights_.size();
  const std::size_t s = idx / plane;
  const std::size_t i = idx % plane;
  const int cell_bits = config_.cell_bits;
  levels_[idx] = level;
  weights_[i] += (static_cast<std::int32_t>(level) - static_cast<std::int32_t>(original))
                 << (cell_bits * static_cast<int>(s));
  col_level_sums_[(i % static_cast<std::size_t>(cols_)) *
                      static_cast<std::size_t>(config_.slices()) +
                  s] += static_cast<std::int64_t>(level) - static_cast<std::int64_t>(original);
  std::vector<std::uint64_t>* planes = packed_.get_mut();
  if (planes == nullptr) return;  // built later, from the patched levels
  // One bit per level bit of this cell, at row bit (r % 64) of word (r / 64)
  // in plane s * cell_bits + t.
  const std::int64_t r = static_cast<std::int64_t>(i) / cols_;
  const std::int64_t c = static_cast<std::int64_t>(i) % cols_;
  const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
  const std::size_t words = static_cast<std::size_t>(packed_words_);
  const std::size_t col_base =
      static_cast<std::size_t>(c) * static_cast<std::size_t>(packed_weight_planes()) * words;
  for (int t = 0; t < cell_bits; ++t) {
    const std::size_t u = s * static_cast<std::size_t>(cell_bits) + static_cast<std::size_t>(t);
    std::uint64_t& word = (*planes)[col_base + u * words + static_cast<std::size_t>(r >> 6)];
    if ((level >> t) & 1)
      word |= row_bit;
    else
      word &= ~row_bit;
  }
}

void LogicalXbar::refresh_lossless_adc_bits() {
  const std::int64_t worst = *std::max_element(col_level_sums_.begin(), col_level_sums_.end());
  lossless_adc_bits_ = worst == 0 ? 1 : ilog2_ceil(worst + 1);
}

LogicalXbar::PackedCache::PackedCache(const PackedCache& other) {
  if (const auto* words = other.get()) {
    state_->words = *words;
    state_->ready.store(true, std::memory_order_release);
  }
}

LogicalXbar::PackedCache& LogicalXbar::PackedCache::operator=(const PackedCache& other) {
  if (this != &other) *this = PackedCache(other);
  return *this;
}

bool LogicalXbar::PackedCache::ensure(const LogicalXbar& owner) const {
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

bool LogicalXbar::ensure_packed_planes() const { return packed_.ensure(*this); }

void LogicalXbar::build_packed_planes(std::vector<std::uint64_t>& planes) const {
  const int cell_bits = config_.cell_bits;
  const int num_planes = packed_weight_planes();
  planes.assign(static_cast<std::size_t>(cols_) * static_cast<std::size_t>(num_planes) *
                    static_cast<std::size_t>(packed_words_),
                0);
  const std::size_t plane = static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  for (int s = 0; s < config_.slices(); ++s) {
    const std::uint8_t* lp = levels_.data() + static_cast<std::size_t>(s) * plane;
    for (std::int64_t r = 0; r < rows_; ++r) {
      const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
      const std::size_t word = static_cast<std::size_t>(r >> 6);
      for (std::int64_t c = 0; c < cols_; ++c) {
        std::uint8_t lv = lp[static_cast<std::size_t>(r * cols_ + c)];
        const std::size_t col_base = static_cast<std::size_t>(c) *
                                     static_cast<std::size_t>(num_planes) *
                                     static_cast<std::size_t>(packed_words_);
        for (int t = 0; lv != 0; ++t, lv >>= 1)
          if (lv & 1)
            planes[col_base +
                   static_cast<std::size_t>(s * cell_bits + t) *
                       static_cast<std::size_t>(packed_words_) +
                   word] |= row_bit;
      }
    }
  }
}

std::int32_t LogicalXbar::stored_weight(std::int64_t r, std::int64_t c) const {
  RED_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return weights_[static_cast<std::size_t>(r * cols_ + c)];
}

std::vector<std::int64_t> LogicalXbar::mvm(std::span<const std::int32_t> input,
                                           MvmStats* stats) const {
  const auto out = perf::mvm_exact(*this, input, thread_workspace(), stats);
  return {out.begin(), out.end()};
}

std::span<const std::int64_t> LogicalXbar::mvm(std::span<const std::int32_t> input,
                                               perf::MvmWorkspace& ws, MvmStats* stats) const {
  return perf::mvm_exact(*this, input, ws, stats);
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
