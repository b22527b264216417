// MVM kernels: one per regime, each compiled at every SIMD tier (MvmIsa).
//
//  * exact (mvm_batch, mvm_gathered, and bit-accurate calls
//    under an ideal ADC, which is lossless: runs_exact_kernel) — the
//    integer dot product with the round-tripped weights. A row sweep over
//    LogicalXbar's narrow weight copy (visit_stored_weights, sized by
//    QuantConfig::stored_weight_bits so a faulted top slice still fits) that
//    skips zero activations, the way RED's zero-skipping data flow does.
//      - A gathered block (mvm_gathered; zero padding's phase gather) holds
//        values for listed rows only: the column sweep maps its non-zero
//        positions through the list, the batch sweep its weight rows.
//      - Products accumulate in int32 lanes and flush to the int64 outputs
//        every exact_flush_rows() rows, a bound from QuantConfig under which
//        overflow is impossible. Where one product cannot fit in int32 the
//        bound is 0 and the int64 row sweep runs instead.
//      - Orientation rule (exact_sweep): a macro with at least one vector of
//        columns sweeps across its columns, one input vector at a time; a
//        narrower one (RED's 288x3 output stage) sweeps across the batch,
//        lanes over vectors, reading a batch-minor block. The programmed
//        layers' gather (arch/gathered_run.h) writes that block directly;
//        vector-major callers are copied batch-minor inside the call.
//      - Pulse counts are a popcount form per value, and the activation
//        range check runs once per block over its min and max: an
//        out-of-range activation still throws.
//  * packed popcount (bit-accurate calls under a clipped ADC only; a
//    gathered vector is scattered over a dense zero one) — packed
//    bit-planes: every stored-level bit of a column lives in LogicalXbar's
//    packed weight planes (one
//    64-bit-word bitmap per level bit, built on this kernel's first call),
//    the input's bit-planes are packed the same way into the workspace, and
//    per (column, slice) the cell_bits weight planes are popcount-combined
//    into per-input-plane lane sums; the per-pulse DAC digits then recombine
//    and saturate scalar-side, exactly like the reference (clip counts
//    included).
//
// Tiers: portable C++ (scalar lanes, std::popcount; the only one on non-x86
// hosts), AVX2 (8 int32 lanes, vpshufb popcount) and AVX-512 (16 int32
// lanes, VPOPCNTDQ; DQ for the fault draw pass, which sweeps at the same
// tier). CPU detection picks the widest once per process, for both kernels
// and that pass. detail::mvm_gathered_on() runs a given tier (and, for the
// exact kernel, a given orientation) so tests and benchmarks can check every
// compiled tier on one host.
//
// Both kernels are bit-exact against LogicalXbar::mvm_bit_accurate_reference
// in outputs AND MvmStats (tests/fast_path_equivalence_test.cpp gates this).
#pragma once

#include <cstdint>
#include <span>

#include "red/perf/workspace.h"
#include "red/xbar/crossbar.h"

namespace red::perf {

/// SIMD tiers of both kernels, narrowest to widest.
enum class MvmIsa : int {
  kPortable = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Tier both kernels (and fault::inject_faults) run on this CPU (kPortable at
/// minimum).
[[nodiscard]] MvmIsa mvm_active_isa();

/// int32 lanes of one exact-kernel vector at `isa` (1, 8, 16).
[[nodiscard]] int mvm_lanes(MvmIsa isa);

/// True when an MVM on `xbar` runs the exact kernel: all but bit-accurate
/// calls under a clipped ADC, which run the popcount kernel.
[[nodiscard]] bool runs_exact_kernel(const xbar::LogicalXbar& xbar, bool bit_accurate);

/// Orientation of the exact kernel's lanes.
enum class ExactSweep : int {
  kColumns = 0,  ///< across the columns, one input vector at a time
  kBatch = 1,    ///< across the batch, one row at a time
};

/// The orientation the exact kernel uses for `xbar` on this CPU: kBatch
/// when cols() < mvm_lanes(mvm_active_isa()), else kColumns.
[[nodiscard]] ExactSweep exact_sweep(const xbar::LogicalXbar& xbar);

/// Rows of worst-magnitude products (largest |activation| times largest
/// |stored weight|) an int32 accumulator holds without overflow: the exact
/// kernel flushes to int64 at least this often. 1 at wbits = abits = 16 with
/// 2-bit cells (one product, at most 2^30 or 65535 * 32768, fits); 0 when
/// one product does not fit (wbits 16 with 3-bit cells, whose 18 level bits
/// store up to 2^18 - 1 - 2^15), and the int64 row sweep runs.
[[nodiscard]] std::int64_t exact_flush_rows(const xbar::QuantConfig& q);

/// Lower-case tier name ("portable", "avx2", "avx512").
[[nodiscard]] const char* mvm_isa_name(MvmIsa isa);

/// Bit-accurate MVM through the configured ADC. Returns a span of cols()
/// results living in `ws.out` (invalidated by the next kernel call on `ws`).
std::span<const std::int64_t> mvm_bit_accurate(const xbar::LogicalXbar& xbar,
                                               std::span<const std::int32_t> input,
                                               MvmWorkspace& ws,
                                               xbar::MvmStats* stats = nullptr);

/// Batched MVM: `inputs` holds `batch` concatenated input vectors of
/// rows() elements each. Workspace buffers are sized once for the batch.
/// Returns batch * cols() results, vector-major, in `ws.out`; stats
/// accumulate exactly as `batch` single calls would.
std::span<const std::int64_t> mvm_batch(const xbar::LogicalXbar& xbar,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, MvmWorkspace& ws,
                                        xbar::MvmStats* stats = nullptr);

/// dst[i] = src[index[i]] for every i, at the active tier's width (vector
/// gathers): the copy behind RED's input gather.
void gather_inputs(const std::int32_t* src, std::span<const std::int32_t> index,
                   std::int32_t* dst);

/// mvm_batch on a gathered block: `batch` vectors of n values, value i
/// driving crossbar row rows[i] (strictly increasing) and every other row
/// zero, or n = rows() values driving every row in order when `rows` is
/// empty. `inputs` is vector-major, or batch-minor when `batch_minor`
/// (inputs[i * batch + v] is value i of vector v; exact kernel only). The
/// exact kernel reads the block in place; the popcount kernel scatters each
/// vector over a dense zero one. Outputs and stats equal mvm_batch on the
/// dense vectors. Returns batch * cols() results, vector-major, in `ws.out`.
std::span<const std::int64_t> mvm_gathered(const xbar::LogicalXbar& xbar,
                                           std::span<const std::int32_t> rows,
                                           std::span<const std::int32_t> inputs,
                                           std::int64_t batch, bool batch_minor,
                                           bool bit_accurate, MvmWorkspace& ws,
                                           xbar::MvmStats* stats = nullptr);

namespace detail {

/// mvm_gathered on vector-major inputs at `tier` (clamped to
/// mvm_active_isa()), with the exact kernel's orientation forced to
/// `sweep`: tests and benchmarks check every compiled tier on one host.
std::span<const std::int64_t> mvm_gathered_on(MvmIsa tier, ExactSweep sweep,
                                              const xbar::LogicalXbar& xbar,
                                              std::span<const std::int32_t> rows,
                                              std::span<const std::int32_t> inputs,
                                              std::int64_t batch, bool bit_accurate,
                                              MvmWorkspace& ws,
                                              xbar::MvmStats* stats = nullptr);

}  // namespace detail

}  // namespace red::perf
