// Logical ReRAM crossbar: a rows x cols signed-weight matrix stored as
// offset-encoded, bit-sliced cell levels, executing bit-serial MVM.
//
// Execution paths:
//  * mvm()      — exact path. With an ideal ADC the analog pipeline is
//                 lossless, so the MVM equals an exact integer dot product
//                 on the encode/decode round-tripped weights: a row sweep
//                 over stored_weights() that skips zero activations.
//                 Activity (pulses, conversions, row drives) is counted
//                 analytically from the inputs.
//  * mvm_bit_accurate() — simulates every slice column and every input bit
//                 plane through the ADC transfer function, as popcounts over
//                 the packed bit-planes. This is the path that models a
//                 clipped ADC; with an ideal ADC it must equal mvm()
//                 bit-exactly (asserted by tests).
//  * mvm_bit_accurate_reference() — the original straight-line simulation of
//                 the same semantics, kept as the one equivalence oracle for
//                 both kernels (and as the "before" in bench_micro_simulator).
// The first two are implemented in red/perf/mvm_kernel.h.
//
// Cell levels are stored plane-major: level_plane(s) is one contiguous
// rows x cols row-major matrix holding weight slice s. The planes feed the
// packed bit-planes, fault injection (red/fault) and the reference.
//
// Write side. Programming from weights encodes each weight into its slices
// in place. Device variation is drawn by one sampler, a sparse pass over
// the clean levels: programming from weights under a variation config runs
// it in place, and a perturbed sibling runs it on a copy of the clean
// crossbar, so the two agree bit for bit. A reprogrammed sibling (variation,
// or faults via red/fault's inject_faults) is a copy of the clean crossbar
// plus sparse per-cell patches, so it costs one copy plus O(changed cells).
// The packed bit-planes only serve the bit-accurate kernels: they are built
// the first time one of those reads them, at most once per crossbar, and the
// exact path never builds them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "red/perf/workspace.h"
#include "red/xbar/quant_config.h"

namespace red::xbar {

/// Activity counters accumulated across MVM calls.
struct MvmStats {
  std::int64_t mvm_ops = 0;       ///< crossbar accesses (cycles)
  std::int64_t row_drives = 0;    ///< wordlines driven with a non-zero input
  std::int64_t mac_pulses = 0;    ///< cell-level MAC pulses ('1' bits x phys cols)
  std::int64_t conversions = 0;   ///< read-circuit conversions (phys cols x abits)
  std::int64_t adc_clips = 0;     ///< conversions that saturated (clipped ADC)

  MvmStats& operator+=(const MvmStats& o);

  friend bool operator==(const MvmStats&, const MvmStats&) = default;
};

/// One cell of a sparse reprogram: the new level of flat cell `index` in the
/// plane-major [slice][row][col] level array (slice s, row r, col c is
/// s * rows * cols + r * cols + c).
struct LevelPatch {
  std::size_t index = 0;
  std::uint8_t level = 0;
};

class LogicalXbar {
 public:
  /// Program the crossbar with `weights` in row-major order (rows x cols):
  /// the offset encode of the clean levels, then config.variation drawn
  /// over them — bit-identical to LogicalXbar(clean, config.variation,
  /// variation_salt) on the variation-free crossbar of the same weights.
  LogicalXbar(std::int64_t rows, std::int64_t cols, std::span<const std::int32_t> weights,
              QuantConfig config, std::uint64_t variation_salt = 0);

  /// Reprogrammed sibling under device variation: a copy of the
  /// variation-free `clean` with `var` drawn over its levels as sparse
  /// deltas. This is the one variation sampler: per-cell stuck-at draws
  /// and the exact discrete law of clamp(round(level + N(0, sigma))) per
  /// clean level (NoiseLaw), drawn from a SplitMix64 stream keyed on
  /// var.seed and `salt`. `salt` keeps crossbars of one layer (RED's mode
  /// groups) on independent streams; salt 0 draws from var.seed itself.
  /// Noise-only models with a low change probability skip-sample the
  /// changed cells geometrically; everything else walks every cell.
  LogicalXbar(const LogicalXbar& clean, const VariationModel& var, std::uint64_t salt);

  /// Sparse reprogram: a copy of `clean` with each cell in `patches` set to
  /// its new level (fault injection and repair, red/fault). A cell appears
  /// at most once. Stored weights, column level sums, the lossless-ADC cache
  /// and any packed planes `clean` has built are patched in place, so the
  /// cost is one copy plus O(patches). `stats` records what the
  /// transformation did.
  LogicalXbar(const LogicalXbar& clean, std::span<const LevelPatch> patches,
              VariationStats stats);

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t phys_cols() const { return cols_ * config_.slices(); }
  [[nodiscard]] const QuantConfig& config() const { return config_; }

  /// Weight stored at (r, c) after the encode/decode round trip (lossless for
  /// in-range weights; exposed for tests).
  [[nodiscard]] std::int32_t stored_weight(std::int64_t r, std::int64_t c) const;

  /// Round-tripped weights, row-major (the matrix mvm() multiplies by).
  [[nodiscard]] std::span<const std::int32_t> stored_weights() const { return weights_; }

  /// Contiguous rows x cols row-major matrix of cell levels for slice `s`.
  [[nodiscard]] const std::uint8_t* level_plane(int s) const {
    return levels_.data() + static_cast<std::size_t>(s) * static_cast<std::size_t>(rows_ * cols_);
  }

  /// Cell level at (r, c, slice s).
  [[nodiscard]] std::uint8_t level(std::int64_t r, std::int64_t c, int s) const {
    return level_plane(s)[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Packed weight bit-planes backing the popcount kernels: per column,
  /// one 64-bit-word bitmap per stored-level bit. Plane u = s * cell_bits + t
  /// holds bit t of slice s over the rows (bit r of word r/64), so there are
  /// slices() * cell_bits planes — one per level bit, covering out-of-range
  /// levels a fault or stuck-at-max cell can program into a partial top
  /// slice. Built from the levels by the first reader (ensure_packed_planes
  /// or packed_col_planes), at most once per crossbar and safe under
  /// concurrent readers; sparse reprograms patch them in place when they
  /// were built before the copy. Never recomputed per MVM.
  [[nodiscard]] int packed_weight_planes() const {
    return config_.slices() * config_.cell_bits;
  }

  /// 64-bit words per packed plane: ceil(rows / 64).
  [[nodiscard]] std::int64_t packed_words() const { return packed_words_; }

  /// Build the packed planes unless they exist. Returns true exactly once
  /// per crossbar: for the call that built them.
  bool ensure_packed_planes() const;

  /// The packed_weight_planes() consecutive planes (packed_words() words
  /// each) of column `c`, plane-major. Builds the planes on first use.
  [[nodiscard]] const std::uint64_t* packed_col_planes(std::int64_t c) const {
    const std::vector<std::uint64_t>* planes = packed_.get();
    if (planes == nullptr) {
      ensure_packed_planes();
      planes = packed_.get();
    }
    return planes->data() +
           static_cast<std::size_t>(c) * static_cast<std::size_t>(packed_weight_planes()) *
               static_cast<std::size_t>(packed_words_);
  }

  /// Fast exact MVM (ideal ADC semantics). input.size() == rows().
  [[nodiscard]] std::vector<std::int64_t> mvm(std::span<const std::int32_t> input,
                                              MvmStats* stats = nullptr) const;

  /// Allocation-free exact MVM into a reusable workspace; the returned span
  /// (cols() results) lives in `ws` until the next kernel call on it.
  [[nodiscard]] std::span<const std::int64_t> mvm(std::span<const std::int32_t> input,
                                                  perf::MvmWorkspace& ws,
                                                  MvmStats* stats = nullptr) const;

  /// Slice/bit-plane-level simulation honoring the configured ADC.
  [[nodiscard]] std::vector<std::int64_t> mvm_bit_accurate(std::span<const std::int32_t> input,
                                                           MvmStats* stats = nullptr) const;

  /// Allocation-free bit-accurate MVM into a reusable workspace.
  [[nodiscard]] std::span<const std::int64_t> mvm_bit_accurate(
      std::span<const std::int32_t> input, perf::MvmWorkspace& ws,
      MvmStats* stats = nullptr) const;

  /// Batched MVM over `batch` concatenated input vectors (amortizes encoding
  /// setup and buffers). Returns batch * cols() results, vector-major, in
  /// `ws`; stats accumulate exactly as `batch` single calls would.
  [[nodiscard]] std::span<const std::int64_t> mvm_batch(std::span<const std::int32_t> inputs,
                                                        std::int64_t batch, bool bit_accurate,
                                                        perf::MvmWorkspace& ws,
                                                        MvmStats* stats = nullptr) const;

  /// Original unoptimized slice/bit-plane walk: the equivalence oracle for
  /// the fast kernels. Identical outputs and stats to mvm_bit_accurate().
  [[nodiscard]] std::vector<std::int64_t> mvm_bit_accurate_reference(
      std::span<const std::int32_t> input, MvmStats* stats = nullptr) const;

  /// Smallest clipped-ADC resolution that keeps mvm_bit_accurate lossless for
  /// this crossbar (worst-case column sum of one bit plane). Cached at
  /// program time; O(1) per call.
  [[nodiscard]] int lossless_adc_bits() const { return lossless_adc_bits_; }

  /// What the configured VariationModel did at program time.
  [[nodiscard]] const VariationStats& variation_stats() const { return variation_stats_; }

 private:
  /// Packed planes built by the first reader. Copying copies the planes only
  /// when they are built; a moved-from cache is empty and never read.
  class PackedCache {
   public:
    PackedCache() = default;
    PackedCache(const PackedCache& other);
    PackedCache& operator=(const PackedCache& other);
    PackedCache(PackedCache&&) noexcept = default;
    PackedCache& operator=(PackedCache&&) noexcept = default;
    ~PackedCache() = default;

    /// The planes when built, else nullptr.
    [[nodiscard]] const std::vector<std::uint64_t>* get() const {
      return state_ != nullptr && state_->ready.load(std::memory_order_acquire) ? &state_->words
                                                                                : nullptr;
    }
    /// Mutable planes for a constructor patching its own copy, or nullptr.
    [[nodiscard]] std::vector<std::uint64_t>* get_mut() {
      return state_ != nullptr && state_->ready.load(std::memory_order_relaxed) ? &state_->words
                                                                                : nullptr;
    }
    /// Build the planes from `owner`'s levels unless they are built; true
    /// when this call built them.
    bool ensure(const LogicalXbar& owner) const;

   private:
    struct State {
      std::once_flag once;
      std::atomic<bool> ready{false};
      std::vector<std::uint64_t> words;
    };
    std::unique_ptr<State> state_ = std::make_unique<State>();
  };

  /// Draw config_.variation over the current (clean) levels with the
  /// stream keyed on (seed, salt), record what it did in variation_stats_,
  /// and refresh the lossless-ADC cache. A disabled model changes nothing.
  void apply_variation(std::uint64_t salt);

  /// Fill `planes` from levels_ ([(c * packed_weight_planes() + u) * words + w],
  /// see packed_col_planes()).
  void build_packed_planes(std::vector<std::uint64_t>& planes) const;

  /// The one sparse-delta routine: set flat cell `idx` to `level`, patching
  /// the stored weight (decode is linear in each slice), the column level
  /// sum and the packed planes when built. Call refresh_lossless_adc_bits()
  /// after the last patch.
  void patch_cell(std::size_t idx, std::uint8_t level);
  void refresh_lossless_adc_bits();

  std::int64_t rows_;
  std::int64_t cols_;
  QuantConfig config_;
  std::vector<std::int32_t> weights_;      ///< stored signed weights, row-major
  std::vector<std::uint8_t> levels_;       ///< cell levels, plane-major [slice][row][col]
  PackedCache packed_;
  std::int64_t packed_words_ = 0;
  /// Per-(col, slice) programmed-level sums backing lossless_adc_bits_; kept
  /// so delta reprogramming can update the cache incrementally.
  std::vector<std::int64_t> col_level_sums_;
  int lossless_adc_bits_ = 1;
  VariationStats variation_stats_;
};

}  // namespace red::xbar
