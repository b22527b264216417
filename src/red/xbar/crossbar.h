// Logical ReRAM crossbar: a rows x cols signed-weight matrix stored as
// offset-encoded, bit-sliced cell levels, executing bit-serial MVM.
//
// Execution paths:
//  * mvm()      — exact path. With an ideal ADC the analog pipeline is
//                 lossless, so the MVM equals an exact integer dot product
//                 on the encode/decode round-tripped weights: a row sweep
//                 over the narrow stored weights (visit_stored_weights)
//                 that skips zero activations.
//                 Activity (pulses, conversions, row drives) is counted
//                 analytically from the inputs.
//  * mvm_bit_accurate() — honors the configured ADC. The ideal ADC is
//                 lossless, so it always runs the exact kernel; a clipped
//                 one simulates every slice column and input bit plane
//                 through the ADC, as popcounts over packed bit-planes.
//  * mvm_bit_accurate_reference() — the original straight-line simulation of
//                 the same semantics, kept as the one equivalence oracle for
//                 both kernels (and as the "before" in bench_micro_simulator).
// The first two are implemented in red/perf/mvm_kernel.h.
//
// The narrow stored weights are the only copy of the cells: the level of
// slice s is digit s of stored weight + weight_offset(), decoded on read.
//
// Write side. Programming from weights stores them, nothing more. Device
// variation is drawn by one sampler, a sparse pass over
// the clean levels: programming from weights under a variation config runs
// it in place, and a perturbed sibling runs it on a copy of the clean
// crossbar, so the two agree bit for bit. A reprogrammed sibling (variation,
// or faults via red/fault's inject_faults) is a copy of the clean crossbar
// plus sparse per-cell patches, so it costs one copy plus O(changed cells).
// What is derived from the cells is computed by its first reader, at most
// once per crossbar: the packed bit-planes (only the popcount kernel reads
// them, so the exact path never builds them), the column level sums behind
// lossless_adc_bits(), and the encoded row powers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <variant>
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

/// One cell of a sparse reprogram: the new level of flat cell `index`, the
/// cells numbered slice-major as [slice][row][col] (slice s, row r, col c is
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
  /// at most once. Stored weights and any packed planes `clean` has built
  /// are patched in place, so the cost is one copy plus O(patches). `stats`
  /// records what the transformation did.
  LogicalXbar(const LogicalXbar& clean, std::span<const LevelPatch> patches,
              VariationStats stats);

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t phys_cols() const { return cols_ * config_.slices(); }
  [[nodiscard]] const QuantConfig& config() const { return config_; }

  /// Weight stored at (r, c) after the encode/decode round trip (lossless for
  /// in-range weights; exposed for tests).
  [[nodiscard]] std::int32_t stored_weight(std::int64_t r, std::int64_t c) const;

  /// Round-tripped weights, row-major (the matrix mvm() multiplies by),
  /// widened to int32: a copy, for tests and cold paths.
  [[nodiscard]] std::vector<std::int32_t> stored_weights() const;

  /// Call `f` with the round-tripped weights, row-major, as a std::span of
  /// the narrowest of int8, int16 and int32 that holds every weight the
  /// cells can store (QuantConfig::stored_weight_bits, so a faulted top
  /// slice still fits). This is the one stored copy and the exact kernel's
  /// operand. Returns what `f` returns.
  template <typename F>
  decltype(auto) visit_stored_weights(F&& f) const {
    return std::visit([&f](const auto& w) -> decltype(auto) { return f(std::span(w)); },
                      weights_);
  }

  /// Cell level at (r, c, slice s), decoded from the stored weight.
  [[nodiscard]] std::uint8_t level(std::int64_t r, std::int64_t c, int s) const {
    return level_of(stored_weight(r, c), s);
  }

  /// Packed weight bit-planes backing the popcount kernel: per column,
  /// one 64-bit-word bitmap per stored-level bit. Plane u = s * cell_bits + t
  /// holds bit t of slice s over the rows (bit r of word r/64), so there are
  /// slices() * cell_bits planes — one per level bit, covering out-of-range
  /// levels a fault or stuck-at-max cell can program into a partial top
  /// slice. Built from the stored weights by the first reader (ensure_packed_planes
  /// or packed_col_planes), at most once per crossbar and safe under
  /// concurrent readers; sparse reprograms patch them in place when they
  /// were built before the copy. Never recomputed per MVM.
  [[nodiscard]] int packed_weight_planes() const {
    return config_.slices() * config_.cell_bits;
  }

  /// 64-bit words per packed plane: ceil(rows / 64).
  [[nodiscard]] std::int64_t packed_words() const { return packed_words_; }

  /// Build the packed planes unless they exist. Returns true exactly once
  /// per crossbar: for the call that built them. Requires a clipped ADC.
  bool ensure_packed_planes() const;

  /// The packed_weight_planes() consecutive planes (packed_words() words
  /// each) of column `c`, plane-major. Builds the planes on first use.
  [[nodiscard]] const std::uint64_t* packed_col_planes(std::int64_t c) const {
    const std::vector<std::uint64_t>* planes = derived_.get();
    if (planes == nullptr) {
      ensure_packed_planes();
      planes = derived_.get();
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

  /// Sum of column c's slice-s levels (lossless_adc_bits() covers the
  /// largest), computed like encoded_row_power() by the first reader.
  [[nodiscard]] std::int64_t col_level_sum(std::int64_t c, int s) const {
    return derived_.column_sums(*this).sums[static_cast<std::size_t>(s * cols_ + c)];
  }

  /// Smallest clipped-ADC resolution that keeps mvm_bit_accurate lossless for
  /// this crossbar (worst-case column sum of one bit plane).
  [[nodiscard]] int lossless_adc_bits() const { return derived_.column_sums(*this).bits; }

  /// Per logical row, Σ over its columns of (stored weight + weight_offset)²
  /// in column order: the encoded magnitude the row holds, which is the
  /// weight-space error of zeroing its cells (fault repair's row remap ranks
  /// rows by it). Computed by the first reader, at most once per crossbar and
  /// safe under concurrent readers; a copy computes its own.
  [[nodiscard]] std::span<const double> encoded_row_power() const;

  /// What the configured VariationModel did at program time.
  [[nodiscard]] const VariationStats& variation_stats() const { return variation_stats_; }

 private:
  /// What the first reader derives from the cells: the packed planes, the
  /// column level sums and the encoded row powers. Copying copies the
  /// planes only when they are built (a sparse reprogram then patches them)
  /// and never the sums or row powers (a copy is a reprogrammed sibling
  /// whose weights differ); a moved-from cache is empty and never read.
  class DerivedCache {
   public:
    struct ColumnSums {
      std::vector<std::int64_t> sums;  ///< [slice][col]
      int bits = 1;                    ///< lossless_adc_bits()
    };

    DerivedCache() = default;
    DerivedCache(const DerivedCache& other);
    DerivedCache& operator=(const DerivedCache& other);
    DerivedCache(DerivedCache&&) noexcept = default;
    DerivedCache& operator=(DerivedCache&&) noexcept = default;
    ~DerivedCache() = default;

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
    /// Build the planes from `owner`'s stored weights unless they are built; true
    /// when this call built them.
    bool ensure(const LogicalXbar& owner) const;

    /// `owner`'s encoded row powers and column level sums, on first use.
    [[nodiscard]] const std::vector<double>& row_power(const LogicalXbar& owner) const;
    [[nodiscard]] const ColumnSums& column_sums(const LogicalXbar& owner) const;

   private:
    struct State {
      std::once_flag once;
      std::atomic<bool> ready{false};
      std::vector<std::uint64_t> words;
      std::once_flag power_once;
      std::vector<double> power;
      std::once_flag sums_once;
      ColumnSums sums;
    };
    std::unique_ptr<State> state_ = std::make_unique<State>();
  };

  /// Slice-s level of a cell storing `stored`: digit s of stored + offset,
  /// one-to-one over every storable level (stored_weight_bits() covers all).
  [[nodiscard]] std::uint8_t level_of(std::int32_t stored, int s) const {
    return static_cast<std::uint8_t>(
        ((stored + config_.weight_offset()) >> (s * config_.cell_bits)) & config_.max_level());
  }

  /// Draw config_.variation over the current (clean) levels with the
  /// stream keyed on (seed, salt) and record what it did in
  /// variation_stats_. A disabled model changes nothing.
  void apply_variation(std::uint64_t salt);

  /// Fill `planes` from the stored weights: plane u is bit u of stored +
  /// offset ([(c * packed_weight_planes() + u) * words + w]).
  void build_packed_planes(std::vector<std::uint64_t>& planes) const;

  /// The one sparse-delta routine: set cell i (row-major) of slice s to
  /// `level`, patching its digit of the stored weight in `weights`
  /// (weights_'s active vector) and the packed planes when built.
  template <typename T>
  void patch_cell(std::span<T> weights, int s, std::size_t i, std::uint8_t level);

  std::int64_t rows_;
  std::int64_t cols_;
  QuantConfig config_;
  /// Stored signed weights, row-major, at their narrowest width: the cells.
  std::variant<std::vector<std::int8_t>, std::vector<std::int16_t>, std::vector<std::int32_t>>
      weights_;
  DerivedCache derived_;
  std::int64_t packed_words_ = 0;
  VariationStats variation_stats_;
};

}  // namespace red::xbar
