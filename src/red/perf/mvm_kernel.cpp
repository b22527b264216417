#include "red/perf/mvm_kernel.h"

#include <algorithm>
#include <bit>

#include "red/common/contracts.h"
#include "red/telemetry/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define RED_MVM_X86 1
#include <immintrin.h>
#else
#define RED_MVM_X86 0
#endif

namespace red::perf {

namespace {

using xbar::AdcMode;
using xbar::LogicalXbar;
using xbar::MvmStats;
using xbar::QuantConfig;

/// Wordline pulses transmitting `a` ('1' bits, or non-zero DAC digits).
/// Range-checked equivalent of xbar::pulse_count without the per-call
/// config validation and heap traffic.
int fast_pulse_count(std::int32_t a, const QuantConfig& q) {
  if (q.dac_bits == 1) {
    const std::int64_t half = std::int64_t{1} << (q.abits - 1);
    RED_EXPECTS_MSG(a >= -half && a < half, "activation outside abits signed range");
    const std::uint64_t u =
        static_cast<std::uint64_t>(a) & ((std::uint64_t{1} << q.abits) - 1);
    return std::popcount(u);
  }
  RED_EXPECTS_MSG(a >= 0, "multi-bit DAC streaming requires non-negative activations");
  RED_EXPECTS_MSG(a < (std::int64_t{1} << q.abits), "activation exceeds abits unsigned range");
  const int digit_max = (1 << q.dac_bits) - 1;
  int n = 0;
  std::int64_t u = a;
  for (int b = 0; b < q.pulses(); ++b) {
    n += (u & digit_max) != 0 ? 1 : 0;
    u >>= q.dac_bits;
  }
  return n;
}

struct EncodeSummary {
  std::int64_t input_sum = 0;
  std::int64_t drives = 0;      ///< rows with a non-zero input
  std::int64_t pulse_rows = 0;  ///< sum over rows of per-row pulse counts
};

/// Range-check the inputs and accumulate the activity summary shared by both
/// kernels (matching the reference's per-row accounting exactly).
EncodeSummary summarize_input(std::span<const std::int32_t> input, const QuantConfig& q) {
  EncodeSummary s;
  for (auto v : input) {
    s.input_sum += v;
    if (v == 0) {
      // Still range-check: the reference encodes zero rows too.
      (void)fast_pulse_count(v, q);
      continue;
    }
    ++s.drives;
    s.pulse_rows += fast_pulse_count(v, q);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Packed bit-plane kernels (the bit-accurate regime).
//
// Both operand sides are bitmaps over the rows: LogicalXbar keeps one packed
// plane per stored-level bit u (weight planes, per column), and encode_packed
// lays down one plane per input bit j. Every kernel then reduces to weighted
// popcounts of plane intersections:
//
//   L[j][u] = popcount(in_plane_j & w_plane_u[c])   (ones shared by bit j of
//                                                    the input and bit u of
//                                                    the stored levels)
//
// lane_sums_* computes the only aggregate the kernels need — for a run of
// `ucount` consecutive weight planes, lanes[j] = sum_du (L[j][du] << du) —
// with the input planes word-major (all planes of word w adjacent) so one
// broadcast weight word feeds 4-lane SIMD popcounts.
// ---------------------------------------------------------------------------

/// Hard bounds from QuantConfig::validate: abits <= 16 input planes, padded
/// to a multiple of 4; slices() * cell_bits <= 19 weight planes.
constexpr int kMaxPlanesPad = 16;
constexpr int kMaxSlices = 16;

/// Input bit-planes, padded to one 256-bit lane group (pad planes stay 0).
int padded_planes(const QuantConfig& q) { return (q.abits + 3) & ~3; }

using LaneSumsFn = void (*)(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                            const std::uint64_t* wplanes, int ucount, std::int64_t* lanes);

void lane_sums_portable(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                        const std::uint64_t* wplanes, int ucount, std::int64_t* lanes) {
  std::fill(lanes, lanes + planes_pad, std::int64_t{0});
  for (int du = 0; du < ucount; ++du) {
    const std::uint64_t* wp = wplanes + static_cast<std::size_t>(du) * words;
    for (std::int64_t w = 0; w < words; ++w) {
      const std::uint64_t wv = wp[w];
      if (wv == 0) continue;  // bit-sparsity: empty weight words cost nothing
      const std::uint64_t* iw = ip + w * planes_pad;
      for (int j = 0; j < planes_pad; ++j)
        lanes[j] += static_cast<std::int64_t>(std::popcount(iw[j] & wv)) << du;
    }
  }
}

#if RED_MVM_X86

/// AVX2 lane groups: one broadcast weight word ANDs against 4 input planes
/// per 256-bit vector; byte-wise nibble-LUT popcount (vpshufb) horizontally
/// summed into the 4 64-bit lanes by vpsadbw, shifted into plane-bit position
/// and accumulated per lane. kGroups = planes_pad / 4 is a template constant
/// so the accumulators stay in registers.
template <int kGroups>
__attribute__((target("avx2,popcnt"))) void lane_sums_avx2_impl(
    const std::uint64_t* ip, std::int64_t words, const std::uint64_t* wplanes, int ucount,
    std::int64_t* lanes) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3,
                       1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc[kGroups];
  for (int g = 0; g < kGroups; ++g) acc[g] = zero;
  for (int du = 0; du < ucount; ++du) {
    const std::uint64_t* wp = wplanes + static_cast<std::size_t>(du) * words;
    for (std::int64_t w = 0; w < words; ++w) {
      const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(wp[w]));
      const std::uint64_t* iw = ip + w * (4 * kGroups);
      for (int g = 0; g < kGroups; ++g) {
        const __m256i x = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(iw + 4 * g)), wv);
        const __m256i nib = _mm256_add_epi8(
            _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low)),
            _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi32(x, 4), low)));
        acc[g] = _mm256_add_epi64(acc[g], _mm256_slli_epi64(_mm256_sad_epu8(nib, zero), du));
      }
    }
  }
  for (int g = 0; g < kGroups; ++g)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4 * g), acc[g]);
}

void lane_sums_avx2(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                    const std::uint64_t* wplanes, int ucount, std::int64_t* lanes) {
  switch (planes_pad / 4) {
    case 1:
      return lane_sums_avx2_impl<1>(ip, words, wplanes, ucount, lanes);
    case 2:
      return lane_sums_avx2_impl<2>(ip, words, wplanes, ucount, lanes);
    case 3:
      return lane_sums_avx2_impl<3>(ip, words, wplanes, ucount, lanes);
    default:
      return lane_sums_avx2_impl<4>(ip, words, wplanes, ucount, lanes);
  }
}

/// AVX512-VPOPCNTDQ at 256-bit width: the nibble LUT collapses to one
/// vpopcntq per lane group.
template <int kGroups>
__attribute__((target("avx512vpopcntdq,avx512vl,avx512f,popcnt"))) void lane_sums_avx512_impl(
    const std::uint64_t* ip, std::int64_t words, const std::uint64_t* wplanes, int ucount,
    std::int64_t* lanes) {
  __m256i acc[kGroups];
  for (int g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_si256();
  for (int du = 0; du < ucount; ++du) {
    const std::uint64_t* wp = wplanes + static_cast<std::size_t>(du) * words;
    for (std::int64_t w = 0; w < words; ++w) {
      const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(wp[w]));
      const std::uint64_t* iw = ip + w * (4 * kGroups);
      for (int g = 0; g < kGroups; ++g) {
        const __m256i x = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(iw + 4 * g)), wv);
        acc[g] = _mm256_add_epi64(acc[g], _mm256_slli_epi64(_mm256_popcnt_epi64(x), du));
      }
    }
  }
  for (int g = 0; g < kGroups; ++g)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4 * g), acc[g]);
}

void lane_sums_avx512(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                      const std::uint64_t* wplanes, int ucount, std::int64_t* lanes) {
  switch (planes_pad / 4) {
    case 1:
      return lane_sums_avx512_impl<1>(ip, words, wplanes, ucount, lanes);
    case 2:
      return lane_sums_avx512_impl<2>(ip, words, wplanes, ucount, lanes);
    case 3:
      return lane_sums_avx512_impl<3>(ip, words, wplanes, ucount, lanes);
    default:
      return lane_sums_avx512_impl<4>(ip, words, wplanes, ucount, lanes);
  }
}

#endif  // RED_MVM_X86

LaneSumsFn lane_sums_fn(MvmIsa isa) {
  switch (isa) {
#if RED_MVM_X86
    case MvmIsa::kAvx2:
      return &lane_sums_avx2;
    case MvmIsa::kAvx512:
      return &lane_sums_avx512;
#endif
    default:
      return &lane_sums_portable;
  }
}

/// Zero and fill the word-major packed input planes: bit r%64 of
/// in_planes[(r/64) * planes_pad + j] is bit j of input[r] & (2^abits - 1).
/// Uniform for every dac_bits — a multi-bit DAC digit is just a run of
/// consecutive bit-planes — and negative dac_bits==1 activations wrap to
/// their two's-complement abits pattern exactly like the reference encode.
/// Inputs must already be range-checked (summarize_input). Only set bits are
/// scattered, so sparse inputs encode in O(set bits).
void encode_packed(std::span<const std::int32_t> input, const QuantConfig& q, int planes_pad,
                   std::uint64_t* ip) {
  const auto rows = static_cast<std::int64_t>(input.size());
  const std::int64_t words = (rows + 63) >> 6;
  std::fill(ip, ip + words * planes_pad, std::uint64_t{0});
  const std::uint64_t mask = (std::uint64_t{1} << q.abits) - 1;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::uint64_t u =
        static_cast<std::uint64_t>(
            static_cast<std::int64_t>(input[static_cast<std::size_t>(r)])) &
        mask;
    if (u == 0) continue;
    std::uint64_t* base = ip + (r >> 6) * planes_pad;
    const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
    do {
      base[std::countr_zero(u)] |= row_bit;
      u &= u - 1;
    } while (u != 0);
  }
}

/// Packed ideal-ADC kernel: per column one
/// lane_sums pass over all weight planes yields S_j = sum_u 2^u * L[j][u],
/// and out[c] = sum_j pw(j) * S_j - offset * input_sum, with pw(j) = -2^j on
/// the two's-complement MSB plane and +2^j otherwise.
void packed_ideal_kernel(const LogicalXbar& xbar, const EncodeSummary& sum, MvmWorkspace& ws,
                         std::int64_t* out, LaneSumsFn fn) {
  const std::int64_t cols = xbar.cols();
  const std::int64_t words = xbar.packed_words();
  const QuantConfig& q = xbar.config();
  const int planes_pad = padded_planes(q);
  const std::int64_t correction = std::int64_t{q.weight_offset()} * sum.input_sum;
  std::int64_t lanes[kMaxPlanesPad];
  for (std::int64_t c = 0; c < cols; ++c) {
    fn(ws.in_planes.data(), words, planes_pad, xbar.packed_col_planes(c),
       xbar.packed_weight_planes(), lanes);
    std::int64_t o = 0;
    for (int j = 0; j < q.abits; ++j) {
      const std::int64_t pw = (q.dac_bits == 1 && j == q.abits - 1) ? -(std::int64_t{1} << j)
                                                                    : (std::int64_t{1} << j);
      o += pw * lanes[j];
    }
    out[c] = o - correction;
  }
}

/// Packed clipped-ADC kernel: per (column, slice) one lane_sums pass over the
/// slice's cell_bits weight planes yields lane[s][j] = the slice-s column
/// current contribution of input bit-plane j; the DAC digits of each pulse
/// then recombine scalar-side (cur = sum_e lane[s][b*dac+e] << e), saturate
/// at the ADC ceiling with clip counting, and accumulate exactly like the
/// reference. Returns the number of saturated conversions.
std::int64_t packed_clipped_kernel(const LogicalXbar& xbar, const EncodeSummary& sum,
                                   MvmWorkspace& ws, std::int64_t* out, LaneSumsFn fn) {
  const std::int64_t cols = xbar.cols();
  const std::int64_t words = xbar.packed_words();
  const QuantConfig& q = xbar.config();
  const int slices = q.slices();
  const int cell_bits = q.cell_bits;
  const int num_pulses = q.pulses();
  const int planes_pad = padded_planes(q);
  const std::int64_t clip_max = (std::int64_t{1} << q.adc.bits) - 1;
  const std::int64_t correction = std::int64_t{q.weight_offset()} * sum.input_sum;
  std::int64_t lanes[kMaxSlices * kMaxPlanesPad];
  std::int64_t clips = 0;
  for (std::int64_t c = 0; c < cols; ++c) {
    const std::uint64_t* wcol = xbar.packed_col_planes(c);
    for (int s = 0; s < slices; ++s)
      fn(ws.in_planes.data(), words, planes_pad,
         wcol + static_cast<std::size_t>(s) * cell_bits * static_cast<std::size_t>(words),
         cell_bits, lanes + s * planes_pad);
    std::int64_t o = 0;
    for (int b = 0; b < num_pulses; ++b) {
      const std::int64_t pulse_weight = (q.dac_bits == 1 && b == q.abits - 1)
                                            ? -(std::int64_t{1} << b)
                                            : (std::int64_t{1} << (q.dac_bits * b));
      const int ebase = b * q.dac_bits;
      const int emax = std::min(q.dac_bits, q.abits - ebase);
      std::int64_t col_acc = 0;
      for (int s = 0; s < slices; ++s) {
        const std::int64_t* ls = lanes + s * planes_pad;
        std::int64_t cur = 0;
        for (int e = 0; e < emax; ++e) cur += ls[ebase + e] << e;
        if (cur > clip_max) {
          cur = clip_max;
          ++clips;
        }
        col_acc += cur << (cell_bits * s);
      }
      o += pulse_weight * col_acc;
    }
    out[c] = o - correction;
  }
  return clips;
}

// ---------------------------------------------------------------------------
// Per-vector bodies and the one batch loop behind every entry point.
// ---------------------------------------------------------------------------

void add_stats(const LogicalXbar& xbar, const EncodeSummary& sum, std::int64_t clips,
               MvmStats* stats) {
  if (stats == nullptr) return;
  stats->mvm_ops += 1;
  stats->row_drives += sum.drives;
  stats->mac_pulses += sum.pulse_rows * xbar.phys_cols();
  stats->conversions += xbar.phys_cols() * xbar.config().pulses();
  stats->adc_clips += clips;
}

/// One bit-accurate MVM into `out` (cols() values). Assumes ws is prepared
/// (prepare + prepare_packed) and input.size() == rows().
void bit_accurate_into(const LogicalXbar& xbar, std::span<const std::int32_t> input,
                       MvmWorkspace& ws, std::int64_t* out, MvmStats* stats, LaneSumsFn fn) {
  const QuantConfig& q = xbar.config();
  const EncodeSummary sum = summarize_input(input, q);
  encode_packed(input, q, padded_planes(q), ws.in_planes.data());
  std::int64_t clips = 0;
  if (q.adc.mode == AdcMode::kIdeal)
    packed_ideal_kernel(xbar, sum, ws, out, fn);
  else
    clips = packed_clipped_kernel(xbar, sum, ws, out, fn);
  add_stats(xbar, sum, clips, stats);
}

/// One exact MVM (ideal-ADC semantics regardless of the configured ADC) into
/// `out`: a row sweep over the stored weights that skips zero activations.
/// Assumes input.size() == rows().
///
/// Aligned to a cache line so the inner loop's placement cannot move with
/// unrelated code: at the default 16-byte alignment, a change elsewhere in
/// the library shifted it and cost red-stream-exact about 8% throughput.
__attribute__((aligned(64))) void exact_into(const LogicalXbar& xbar,
                                             std::span<const std::int32_t> input,
                                             std::int64_t* out, MvmStats* stats) {
  const std::int64_t rows = xbar.rows();
  const std::int64_t cols = xbar.cols();
  const QuantConfig& q = xbar.config();
  const std::int32_t* weights = xbar.stored_weights().data();
  std::fill(out, out + cols, std::int64_t{0});
  EncodeSummary sum;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t in = input[static_cast<std::size_t>(r)];
    if (in == 0) continue;
    ++sum.drives;
    sum.pulse_rows += fast_pulse_count(in, q);
    const std::int32_t* wrow = weights + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) out[c] += std::int64_t{in} * wrow[c];
  }
  add_stats(xbar, sum, 0, stats);
}

/// Observe-only instrumentation of the public entry points (never the inner
/// kernels): per-kernel invocation counters plus MvmStats deltas rolled into
/// `mvm.*` counters. Exact calls count under "mvm.calls.scalar", bit-accurate
/// ones under their popcount tier. Static names keep the enabled path
/// allocation-free; the disabled path is the metrics() load + one branch.
constexpr const char* kExactCallsCounter = "mvm.calls.scalar";

const char* bit_accurate_calls_counter(MvmIsa isa) {
  switch (isa) {
    case MvmIsa::kPortable:
      return "mvm.calls.portable";
    case MvmIsa::kAvx2:
      return "mvm.calls.avx2";
    case MvmIsa::kAvx512:
      return "mvm.calls.avx512";
  }
  return "mvm.calls.unknown";
}

void record_mvm_call(telemetry::MetricsRegistry* m, const char* counter, std::int64_t calls,
                     const MvmStats* stats, const MvmStats& before) {
  m->counter(counter)->add(static_cast<std::uint64_t>(calls));
  if (stats == nullptr) return;
  const auto bump = [m](const char* name, std::int64_t delta) {
    if (delta > 0) m->counter(name)->add(static_cast<std::uint64_t>(delta));
  };
  bump("mvm.ops", stats->mvm_ops - before.mvm_ops);
  bump("mvm.row_drives", stats->row_drives - before.row_drives);
  bump("mvm.mac_pulses", stats->mac_pulses - before.mac_pulses);
  bump("mvm.conversions", stats->conversions - before.conversions);
  bump("mvm.adc_clips", stats->adc_clips - before.adc_clips);
}

/// The one body behind every entry point: `batch` MVMs on tier `isa`.
std::span<const std::int64_t> run_batch(MvmIsa isa, const LogicalXbar& xbar,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, MvmWorkspace& ws, MvmStats* stats) {
  RED_EXPECTS(batch >= 0);
  RED_EXPECTS_MSG(inputs.size() == static_cast<std::size_t>(batch * xbar.rows()),
                  "input size mismatch");
  const LaneSumsFn fn = lane_sums_fn(isa);
  auto* m = telemetry::metrics();
  const MvmStats before = (m != nullptr && stats != nullptr) ? *stats : MvmStats{};
  ws.prepare(xbar.cols(), batch);
  if (bit_accurate) {
    ws.prepare_packed(xbar.rows(), padded_planes(xbar.config()));
    // The crossbar's packed planes are built by their first reader.
    if (xbar.ensure_packed_planes() && m != nullptr)
      m->counter("xbar.packed_plane_builds")->add(1);
  }
  const auto rows = static_cast<std::size_t>(xbar.rows());
  for (std::int64_t v = 0; v < batch; ++v) {
    const auto input = inputs.subspan(static_cast<std::size_t>(v) * rows, rows);
    std::int64_t* out = ws.out.data() + v * xbar.cols();
    if (bit_accurate)
      bit_accurate_into(xbar, input, ws, out, stats, fn);
    else
      exact_into(xbar, input, out, stats);
  }
  if (m != nullptr && batch > 0)
    record_mvm_call(m, bit_accurate ? bit_accurate_calls_counter(isa) : kExactCallsCounter, batch,
                    stats, before);
  return {ws.out.data(), static_cast<std::size_t>(batch * xbar.cols())};
}

}  // namespace

MvmIsa mvm_active_isa() {
  // Detected once per process: the widest tier this CPU supports.
  static const MvmIsa isa = [] {
#if RED_MVM_X86
    if (__builtin_cpu_supports("avx512vpopcntdq") && __builtin_cpu_supports("avx512vl"))
      return MvmIsa::kAvx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) return MvmIsa::kAvx2;
#endif
    return MvmIsa::kPortable;
  }();
  return isa;
}

const char* mvm_isa_name(MvmIsa isa) {
  switch (isa) {
    case MvmIsa::kPortable:
      return "portable";
    case MvmIsa::kAvx2:
      return "avx2";
    case MvmIsa::kAvx512:
      return "avx512";
  }
  RED_EXPECTS_MSG(false, "unhandled MvmIsa");
  return "";
}

std::span<const std::int64_t> mvm_bit_accurate(const LogicalXbar& xbar,
                                               std::span<const std::int32_t> input,
                                               MvmWorkspace& ws, MvmStats* stats) {
  return run_batch(mvm_active_isa(), xbar, input, 1, /*bit_accurate=*/true, ws, stats);
}

std::span<const std::int64_t> mvm_exact(const LogicalXbar& xbar,
                                        std::span<const std::int32_t> input, MvmWorkspace& ws,
                                        MvmStats* stats) {
  return run_batch(mvm_active_isa(), xbar, input, 1, /*bit_accurate=*/false, ws, stats);
}

std::span<const std::int64_t> mvm_batch(const LogicalXbar& xbar,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, MvmWorkspace& ws, MvmStats* stats) {
  return run_batch(mvm_active_isa(), xbar, inputs, batch, bit_accurate, ws, stats);
}

namespace detail {

std::span<const std::int64_t> mvm_bit_accurate_on(MvmIsa tier, const LogicalXbar& xbar,
                                                  std::span<const std::int32_t> input,
                                                  MvmWorkspace& ws, MvmStats* stats) {
  return run_batch(std::min(tier, mvm_active_isa()), xbar, input, 1, /*bit_accurate=*/true, ws,
                   stats);
}

}  // namespace detail

}  // namespace red::perf
