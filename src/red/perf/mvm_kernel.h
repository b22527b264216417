// MVM kernels: one per regime.
//
//  * exact (mvm_exact, mvm_batch with bit_accurate=false) — ideal-ADC
//    semantics, so the result is the integer dot product with the
//    round-tripped weights. A sparse row sweep over
//    LogicalXbar::stored_weights() that skips zero activations, the way
//    RED's zero-skipping data flow skips them in hardware.
//  * bit-accurate (mvm_bit_accurate, mvm_batch with bit_accurate=true) —
//    packed bit-planes: every stored-level bit of a column lives in
//    LogicalXbar's packed weight planes (one 64-bit-word bitmap per level
//    bit), the input's bit-planes are packed the same way into the
//    workspace, and the per-(pulse, slice) analog integration collapses to
//    popcount(input_plane & weight_plane) sums. Two ADC regimes:
//      - ideal ADC — no clipping can occur, so the pulse/slice decomposition
//        is algebraically collapsible: out[c] = sum_j pw(j) * sum_u 2^u *
//        popcount(in_plane_j & w_plane_u[c]) minus the offset correction,
//        where pw(j) = ±2^j is the bit-j pulse weight.
//      - clipped ADC — per (column, slice) the cell_bits weight planes are
//        popcount-combined into per-input-plane lane sums; the per-pulse DAC
//        digits then recombine and saturate scalar-side, exactly like the
//        reference (clip counts included).
//
// The bit-accurate popcount loop is compiled at three widths (MvmIsa):
// portable std::popcount (the only one on non-x86 hosts), AVX2 and
// AVX512-VPOPCNTDQ. CPU detection picks the widest once per process.
// detail::mvm_bit_accurate_on() runs a given tier so tests and benchmarks can
// check every compiled tier on one host.
//
// Both kernels are bit-exact against LogicalXbar::mvm_bit_accurate_reference
// in outputs AND MvmStats (tests/fast_path_equivalence_test.cpp gates this).
#pragma once

#include <cstdint>
#include <span>

#include "red/perf/workspace.h"
#include "red/xbar/crossbar.h"

namespace red::perf {

/// Widths of the bit-accurate popcount loop, narrowest to widest.
enum class MvmIsa : int {
  kPortable = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Tier the bit-accurate kernels run on this CPU (kPortable at minimum).
[[nodiscard]] MvmIsa mvm_active_isa();

/// Lower-case tier name ("portable", "avx2", "avx512").
[[nodiscard]] const char* mvm_isa_name(MvmIsa isa);

/// Bit-accurate MVM through the configured ADC. Returns a span of cols()
/// results living in `ws.out` (invalidated by the next kernel call on `ws`).
std::span<const std::int64_t> mvm_bit_accurate(const xbar::LogicalXbar& xbar,
                                               std::span<const std::int32_t> input,
                                               MvmWorkspace& ws,
                                               xbar::MvmStats* stats = nullptr);

/// Exact integer MVM (ideal-ADC semantics; the workspace twin of
/// LogicalXbar::mvm). Returns a span of cols() results in `ws.out`.
std::span<const std::int64_t> mvm_exact(const xbar::LogicalXbar& xbar,
                                        std::span<const std::int32_t> input, MvmWorkspace& ws,
                                        xbar::MvmStats* stats = nullptr);

/// Batched MVM: `inputs` holds `batch` concatenated input vectors of
/// rows() elements each. Workspace buffers are sized once for the batch.
/// Returns batch * cols() results, vector-major, in `ws.out`; stats
/// accumulate exactly as `batch` single calls would.
std::span<const std::int64_t> mvm_batch(const xbar::LogicalXbar& xbar,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, MvmWorkspace& ws,
                                        xbar::MvmStats* stats = nullptr);

namespace detail {

/// mvm_bit_accurate() on `tier`, clamped to mvm_active_isa(). For tests and
/// benchmarks that check every compiled tier on one host.
std::span<const std::int64_t> mvm_bit_accurate_on(MvmIsa tier, const xbar::LogicalXbar& xbar,
                                                  std::span<const std::int32_t> input,
                                                  MvmWorkspace& ws,
                                                  xbar::MvmStats* stats = nullptr);

}  // namespace detail

}  // namespace red::perf
