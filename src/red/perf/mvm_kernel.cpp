#include "red/perf/mvm_kernel.h"

#include <algorithm>
#include <bit>
#include <limits>

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

struct EncodeSummary {
  std::int64_t input_sum = 0;
  std::int64_t drives = 0;      ///< rows with a non-zero input
  std::int64_t pulse_rows = 0;  ///< sum over rows of per-row pulse counts
};

/// Throw unless every activation in [lo, hi] streams under `q`: the range
/// xbar::pulse_count checks per value, checked once per block.
void check_activation_range(std::int32_t lo, std::int32_t hi, const QuantConfig& q) {
  if (q.dac_bits == 1) {
    const std::int64_t half = std::int64_t{1} << (q.abits - 1);
    RED_EXPECTS_MSG(lo >= -half && hi < half, "activation outside abits signed range");
    return;
  }
  RED_EXPECTS_MSG(lo >= 0, "multi-bit DAC streaming requires non-negative activations");
  RED_EXPECTS_MSG(hi < (std::int64_t{1} << q.abits), "activation exceeds abits unsigned range");
}

/// Population count by shifts and masks, so the summary loop vectorizes at
/// every tier (no vector popcount below AVX-512).
inline std::uint32_t popcount32(std::uint32_t v) {
  v = v - ((v >> 1) & 0x55555555U);
  v = (v & 0x33333333U) + ((v >> 2) & 0x33333333U);
  v = (v + (v >> 4)) & 0x0F0F0F0FU;
  v += v >> 8;
  v += v >> 16;
  return v & 0x3FU;
}

/// Summary loop over n inputs. A row drives one wordline pulse per non-zero
/// DAC digit of its abits pattern: OR-folding each digit's bits onto the
/// digit's lowest bit (kFold, multi-bit DAC only) leaves one bit per
/// non-zero digit in `lsb`, so the pulse count is a popcount: std::popcount
/// where it vectorizes (kNative, AVX512-VPOPCNTDQ), else popcount32.
template <bool kFold, bool kNative>
__attribute__((always_inline)) inline EncodeSummary summarize_loop(const std::int32_t* x,
                                                                   std::int64_t n,
                                                                   const QuantConfig& q) {
  const std::uint32_t mask = (std::uint32_t{1} << q.abits) - 1;
  std::uint32_t lsb = 0;
  for (int b = 0; b < q.abits; b += q.dac_bits) lsb |= std::uint32_t{1} << b;
  // fold_keep[e] keeps the shift by e only when e < dac_bits (dac_bits <= 8).
  std::uint32_t fold_keep[8] = {};
  for (int e = 1; e < q.dac_bits; ++e) fold_keep[e] = ~std::uint32_t{0};
  EncodeSummary s;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  // 32-bit lanes per chunk, widened once per chunk: in range, |sum| < 2^12 *
  // 2^16. The sum wraps unsigned, so out-of-range inputs (which throw below)
  // cannot overflow a signed lane first.
  constexpr std::int64_t kChunk = 4096;
  for (std::int64_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::int64_t i1 = std::min(n, i0 + kChunk);
    std::uint32_t sum = 0;
    std::int32_t drives = 0;
    std::int32_t pulses = 0;
    for (std::int64_t i = i0; i < i1; ++i) {
      const std::int32_t v = x[i];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += static_cast<std::uint32_t>(v);
      drives += v != 0 ? 1 : 0;
      const std::uint32_t u = static_cast<std::uint32_t>(v) & mask;
      std::uint32_t f = u;
      if constexpr (kFold)
        for (int e = 1; e < 8; ++e) f |= (u >> e) & fold_keep[e];
      if constexpr (kNative)
        pulses += std::popcount(f & lsb);
      else
        pulses += static_cast<std::int32_t>(popcount32(f & lsb));
    }
    s.input_sum += static_cast<std::int32_t>(sum);
    s.drives += drives;
    s.pulse_rows += pulses;
  }
  check_activation_range(lo, hi, q);
  return s;
}

/// Range-check a block of inputs and accumulate the activity summary
/// (matching the reference's per-row accounting exactly). Always inlined,
/// so each tier's wrapper compiles it at that tier's width.
template <bool kNative = false>
__attribute__((always_inline)) inline EncodeSummary summarize_body(const std::int32_t* x,
                                                                   std::int64_t n,
                                                                   const QuantConfig& q) {
  return q.dac_bits == 1 ? summarize_loop<false, kNative>(x, n, q)
                         : summarize_loop<true, kNative>(x, n, q);
}

// ---------------------------------------------------------------------------
// The packed bit-plane kernel (bit-accurate calls under a clipped ADC).
//
// Both operand sides are bitmaps over the rows: LogicalXbar keeps one packed
// plane per stored-level bit u (weight planes, per column), and encode_packed
// lays down one plane per input bit j. The kernel then reduces to weighted
// popcounts of plane intersections:
//
//   L[j][u] = popcount(in_plane_j & w_plane_u[c])   (ones shared by bit j of
//                                                    the input and bit u of
//                                                    the stored levels)
//
// lane_sums_* computes the only aggregate the kernel needs — for a run of
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
/// Inputs must already be range-checked (summarize_body). Only set bits are
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
// The exact kernel (ideal-ADC semantics regardless of the configured ADC): a
// row sweep over the narrow stored weights that skips zero activations. It
// accumulates int32 products in int32 lanes and flushes them to the int64
// outputs every exact_flush_rows() rows. Two orientations:
//
//   columns — one input vector at a time: its non-zero rows are listed
//             once, then each tile of columns sweeps the list with its
//             accumulators in registers (lanes over columns).
//   batch   — a batch-minor block: each tile of vectors sweeps the rows,
//             skipping rows that are zero in every lane, with one
//             accumulator per column (lanes over the batch).
//
// Each tier supplies the two tiles and the input summary; the drivers
// around them are shared. Tiles are aligned to a cache line so their inner
// loops' placement cannot move with unrelated code (a 16-byte-aligned loop
// once moved and cost red-stream-exact about 8% throughput).
// ---------------------------------------------------------------------------

/// out[j] += lanes[j] for j < n: one flush of int32 accumulators.
__attribute__((always_inline)) inline void flush_lanes(const std::int32_t* lanes, int n,
                                                       std::int64_t* out) {
  for (int j = 0; j < n; ++j) out[j] += lanes[j];
}

/// Flush of a batch tile: lanes[c * stride + l] (column c of vector b0 + l)
/// into out[l * cols + c], for the first n vectors and kC columns.
template <int kC>
__attribute__((always_inline)) inline void flush_batch(const std::int32_t* lanes, int stride,
                                                       int n, std::int64_t cols,
                                                       std::int64_t* out) {
  for (int l = 0; l < n; ++l)
    for (int c = 0; c < kC; ++c) out[l * cols + c] += lanes[c * stride + l];
}

/// The non-zero rows of one input vector (x[r * row_stride]) as (row index,
/// activation) pairs; returns their count. Branch-free.
std::int64_t compact_rows(const std::int32_t* x, std::int64_t rows, std::int64_t row_stride,
                          std::int32_t* idx, std::int32_t* val) {
  std::int64_t nnz = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t a = x[r * row_stride];
    idx[nnz] = static_cast<std::int32_t>(r);
    val[nnz] = a;
    nnz += a != 0 ? 1 : 0;
  }
  return nnz;
}

/// Portable tier: scalar lanes (the only tier on non-x86 hosts).
struct PortableExact {
  static constexpr int kLanes = 1;

  template <int kT, typename W>
  [[gnu::aligned(64)]] static void col_tile(const W* w, std::int64_t cols,
                                            const std::int32_t* idx, const std::int32_t* val,
                                            std::int64_t nnz, std::int64_t k,
                                            std::int64_t* out) {
    for (std::int64_t i0 = 0; i0 < nnz; i0 += k) {
      const std::int64_t i1 = std::min(nnz, i0 + k);
      std::int32_t acc[kT] = {};
      for (std::int64_t i = i0; i < i1; ++i) {
        const W* row = w + static_cast<std::int64_t>(idx[i]) * cols;
        for (int t = 0; t < kT; ++t) acc[t] += val[i] * static_cast<std::int32_t>(row[t]);
      }
      flush_lanes(acc, kT, out);
    }
  }

  template <int kC, typename W, typename R>
  [[gnu::aligned(64)]] static void batch_tile(const W* w, std::int64_t rows, std::int64_t cols,
                                              const std::int32_t* xt, std::int64_t batch,
                                              std::int64_t b0, std::int64_t k, R row_of,
                                              std::int64_t* out) {
    std::int32_t acc[kC] = {};
    std::int64_t done = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int32_t x = xt[r * batch + b0];
      if (x == 0) continue;
      const W* wr = w + row_of(r) * cols;
      for (int c = 0; c < kC; ++c) acc[c] += static_cast<std::int32_t>(wr[c]) * x;
      if (++done == k) {
        flush_lanes(acc, kC, out + b0 * cols);
        std::fill(acc, acc + kC, 0);
        done = 0;
      }
    }
    flush_lanes(acc, kC, out + b0 * cols);
  }

  static EncodeSummary summarize(const std::int32_t* x, std::int64_t n, const QuantConfig& q) {
    return summarize_body(x, n, q);
  }

  static std::int64_t compact(const std::int32_t* x, std::int64_t rows, std::int64_t row_stride,
                              std::int32_t* idx, std::int32_t* val) {
    return compact_rows(x, rows, row_stride, idx, val);
  }
};

#if RED_MVM_X86

// Narrow weights sign-extended to one vector of int32 lanes.
__attribute__((target("avx2"), always_inline)) inline __m256i widen8(const std::int8_t* p) {
  return _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
__attribute__((target("avx2"), always_inline)) inline __m256i widen8(const std::int16_t* p) {
  return _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
__attribute__((target("avx2"), always_inline)) inline __m256i widen8(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// AVX2 tier: 8 int32 lanes (vpmulld), partial batch tiles by vpmaskmovd.
struct Avx2Exact {
  static constexpr int kLanes = 8;

  template <int kT, typename W>
  [[gnu::target("avx2"), gnu::aligned(64)]] static void col_tile(
      const W* w, std::int64_t cols, const std::int32_t* idx, const std::int32_t* val,
      std::int64_t nnz, std::int64_t k, std::int64_t* out) {
    for (std::int64_t i0 = 0; i0 < nnz; i0 += k) {
      const std::int64_t i1 = std::min(nnz, i0 + k);
      __m256i acc[kT];
      for (int t = 0; t < kT; ++t) acc[t] = _mm256_setzero_si256();
      for (std::int64_t i = i0; i < i1; ++i) {
        const __m256i a = _mm256_set1_epi32(val[i]);
        const W* row = w + static_cast<std::int64_t>(idx[i]) * cols;
        for (int t = 0; t < kT; ++t)
          acc[t] = _mm256_add_epi32(acc[t], _mm256_mullo_epi32(a, widen8(row + 8 * t)));
      }
      alignas(32) std::int32_t lanes[8 * kT];
      for (int t = 0; t < kT; ++t)
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8 * t), acc[t]);
      flush_lanes(lanes, 8 * kT, out);
    }
  }

  template <int kC, typename W, typename R>
  [[gnu::target("avx2"), gnu::aligned(64)]] static void batch_tile(
      const W* w, std::int64_t rows, std::int64_t cols, const std::int32_t* xt,
      std::int64_t batch, std::int64_t b0, std::int64_t k, R row_of, std::int64_t* out) {
    const int n = static_cast<int>(std::min<std::int64_t>(8, batch - b0));
    const __m256i live =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256i acc[kC];
    for (int c = 0; c < kC; ++c) acc[c] = _mm256_setzero_si256();
    alignas(32) std::int32_t lanes[8 * kC];
    std::int64_t done = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      const __m256i x = _mm256_maskload_epi32(xt + r * batch + b0, live);
      if (_mm256_testz_si256(x, x)) continue;
      const W* wr = w + row_of(r) * cols;
      for (int c = 0; c < kC; ++c)
        acc[c] = _mm256_add_epi32(
            acc[c], _mm256_mullo_epi32(_mm256_set1_epi32(static_cast<std::int32_t>(wr[c])), x));
      if (++done == k) {
        for (int c = 0; c < kC; ++c) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8 * c), acc[c]);
          acc[c] = _mm256_setzero_si256();
        }
        flush_batch<kC>(lanes, 8, n, cols, out + b0 * cols);
        done = 0;
      }
    }
    for (int c = 0; c < kC; ++c)
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8 * c), acc[c]);
    flush_batch<kC>(lanes, 8, n, cols, out + b0 * cols);
  }

  [[gnu::target("avx2")]] static EncodeSummary summarize(const std::int32_t* x, std::int64_t n,
                                                         const QuantConfig& q) {
    return summarize_body(x, n, q);
  }

  static std::int64_t compact(const std::int32_t* x, std::int64_t rows, std::int64_t row_stride,
                              std::int32_t* idx, std::int32_t* val) {
    return compact_rows(x, rows, row_stride, idx, val);
  }
};

// Narrow weights sign-extended to one vector of int32 lanes. The all-lanes
// zero-masking forms compile to the same vpmovsx, without the undefined
// merge source GCC 12 warns about.
constexpr __mmask16 kAllLanes = 0xFFFF;
__attribute__((target("avx512f"), always_inline)) inline __m512i widen16(const std::int8_t* p) {
  return _mm512_maskz_cvtepi8_epi32(kAllLanes,
                                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
__attribute__((target("avx512f"), always_inline)) inline __m512i widen16(const std::int16_t* p) {
  return _mm512_maskz_cvtepi16_epi32(kAllLanes,
                                     _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}
__attribute__((target("avx512f"), always_inline)) inline __m512i widen16(const std::int32_t* p) {
  return _mm512_loadu_si512(p);
}

/// AVX-512 tier: 16 int32 lanes, partial batch tiles by a load mask.
struct Avx512Exact {
  static constexpr int kLanes = 16;

  template <int kT, typename W>
  [[gnu::target("avx512f"), gnu::aligned(64)]] static void col_tile(
      const W* w, std::int64_t cols, const std::int32_t* idx, const std::int32_t* val,
      std::int64_t nnz, std::int64_t k, std::int64_t* out) {
    for (std::int64_t i0 = 0; i0 < nnz; i0 += k) {
      const std::int64_t i1 = std::min(nnz, i0 + k);
      __m512i acc[kT];
      for (int t = 0; t < kT; ++t) acc[t] = _mm512_setzero_si512();
      for (std::int64_t i = i0; i < i1; ++i) {
        const __m512i a = _mm512_set1_epi32(val[i]);
        const W* row = w + static_cast<std::int64_t>(idx[i]) * cols;
        for (int t = 0; t < kT; ++t)
          acc[t] = _mm512_add_epi32(acc[t], _mm512_mullo_epi32(a, widen16(row + 16 * t)));
      }
      alignas(64) std::int32_t lanes[16 * kT];
      for (int t = 0; t < kT; ++t) _mm512_store_si512(lanes + 16 * t, acc[t]);
      flush_lanes(lanes, 16 * kT, out);
    }
  }

  template <int kC, typename W, typename R>
  [[gnu::target("avx512f"), gnu::aligned(64)]] static void batch_tile(
      const W* w, std::int64_t rows, std::int64_t cols, const std::int32_t* xt,
      std::int64_t batch, std::int64_t b0, std::int64_t k, R row_of, std::int64_t* out) {
    const int n = static_cast<int>(std::min<std::int64_t>(16, batch - b0));
    const auto live = static_cast<__mmask16>((1U << n) - 1);
    __m512i acc[kC];
    for (int c = 0; c < kC; ++c) acc[c] = _mm512_setzero_si512();
    alignas(64) std::int32_t lanes[16 * kC];
    std::int64_t done = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      const __m512i x = _mm512_maskz_loadu_epi32(live, xt + r * batch + b0);
      if (_mm512_test_epi32_mask(x, x) == 0) continue;
      const W* wr = w + row_of(r) * cols;
      for (int c = 0; c < kC; ++c)
        acc[c] = _mm512_add_epi32(
            acc[c], _mm512_mullo_epi32(_mm512_set1_epi32(static_cast<std::int32_t>(wr[c])), x));
      if (++done == k) {
        for (int c = 0; c < kC; ++c) {
          _mm512_store_si512(lanes + 16 * c, acc[c]);
          acc[c] = _mm512_setzero_si512();
        }
        flush_batch<kC>(lanes, 16, n, cols, out + b0 * cols);
        done = 0;
      }
    }
    for (int c = 0; c < kC; ++c) _mm512_store_si512(lanes + 16 * c, acc[c]);
    flush_batch<kC>(lanes, 16, n, cols, out + b0 * cols);
  }

  [[gnu::target("avx512f,avx512vpopcntdq")]] static EncodeSummary summarize(
      const std::int32_t* x, std::int64_t n, const QuantConfig& q) {
    return summarize_body</*kNative=*/true>(x, n, q);
  }

  /// The non-zero rows of a vector-major input by vpcompressd, 16 rows per
  /// step. Writes up to 15 lanes past the count (prepare_exact's slack).
  [[gnu::target("avx512f,popcnt")]] static std::int64_t compact(const std::int32_t* x,
                                                                std::int64_t rows,
                                                                std::int64_t row_stride,
                                                                std::int32_t* idx,
                                                                std::int32_t* val) {
    if (row_stride != 1) return compact_rows(x, rows, row_stride, idx, val);
    __m512i row = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    std::int64_t nnz = 0;
    for (std::int64_t r = 0; r < rows; r += 16) {
      const auto live = static_cast<__mmask16>(
          rows - r >= 16 ? 0xFFFFU : (1U << static_cast<unsigned>(rows - r)) - 1);
      const __m512i v = _mm512_maskz_loadu_epi32(live, x + r);
      const __mmask16 nz = _mm512_test_epi32_mask(v, v);
      _mm512_storeu_si512(val + nnz, _mm512_maskz_compress_epi32(nz, v));
      _mm512_storeu_si512(idx + nnz, _mm512_maskz_compress_epi32(nz, row));
      row = _mm512_add_epi32(row, _mm512_set1_epi32(16));
      nnz += std::popcount(static_cast<unsigned>(nz));
    }
    return nnz;
  }
};

#endif  // RED_MVM_X86

// Input gathers at the tier's width: dst[i] = src[index[i]].
void gather_portable(const std::int32_t* src, const std::int32_t* index, std::int64_t n,
                     std::int32_t* dst) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[index[i]];
}

#if RED_MVM_X86

__attribute__((target("avx2"))) void gather_avx2(const std::int32_t* src,
                                                 const std::int32_t* index, std::int64_t n,
                                                 std::int32_t* dst) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_i32gather_epi32(src, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(index + i)),
                               4));
  for (; i < n; ++i) dst[i] = src[index[i]];
}

__attribute__((target("avx512f"))) void gather_avx512(const std::int32_t* src,
                                                      const std::int32_t* index, std::int64_t n,
                                                      std::int32_t* dst) {
  for (std::int64_t i = 0; i < n; i += 16) {
    const auto live = static_cast<__mmask16>(
        n - i >= 16 ? 0xFFFFU : (1U << static_cast<unsigned>(n - i)) - 1);
    const __m512i idx = _mm512_maskz_loadu_epi32(live, index + i);
    _mm512_mask_storeu_epi32(
        dst + i, live, _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), live, idx, src, 4));
  }
}

#endif  // RED_MVM_X86

/// Column sweep of one input vector whose non-zero rows are (idx, val):
/// four-vector tiles, then a two-vector one, then single vectors, then the
/// columns no vector fills (int64 products, no flush needed).
template <typename Tier, typename W>
void col_sweep(const W* w, std::int64_t cols, const std::int32_t* idx, const std::int32_t* val,
               std::int64_t nnz, std::int64_t k, std::int64_t* out) {
  constexpr int kL = Tier::kLanes;
  std::int64_t c = 0;
  for (; c + 4 * kL <= cols; c += 4 * kL)
    Tier::template col_tile<4>(w + c, cols, idx, val, nnz, k, out + c);
  if (c + 2 * kL <= cols) {
    Tier::template col_tile<2>(w + c, cols, idx, val, nnz, k, out + c);
    c += 2 * kL;
  }
  for (; c + kL <= cols; c += kL) Tier::template col_tile<1>(w + c, cols, idx, val, nnz, k, out + c);
  for (; c < cols; ++c) {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < nnz; ++i)
      sum += std::int64_t{val[i]} * w[static_cast<std::int64_t>(idx[i]) * cols + c];
    out[c] += sum;
  }
}

/// Batch sweep of a batch-minor block of `rows` block rows, block row r on
/// crossbar row row_of(r): column groups of up to four, each over every
/// tile of Tier::kLanes vectors.
template <typename Tier, typename W, typename R>
void batch_sweep(const W* w, std::int64_t rows, std::int64_t cols, const std::int32_t* xt,
                 std::int64_t batch, std::int64_t k, R row_of, std::int64_t* out) {
  for (std::int64_t c0 = 0; c0 < cols; c0 += 4) {
    const std::int64_t group = std::min<std::int64_t>(4, cols - c0);
    for (std::int64_t b0 = 0; b0 < batch; b0 += Tier::kLanes) {
      if (group == 1)
        Tier::template batch_tile<1>(w + c0, rows, cols, xt, batch, b0, k, row_of, out + c0);
      else if (group == 2)
        Tier::template batch_tile<2>(w + c0, rows, cols, xt, batch, b0, k, row_of, out + c0);
      else if (group == 3)
        Tier::template batch_tile<3>(w + c0, rows, cols, xt, batch, b0, k, row_of, out + c0);
      else
        Tier::template batch_tile<4>(w + c0, rows, cols, xt, batch, b0, k, row_of, out + c0);
    }
  }
}

/// Where one exact block's inputs live: element (vector v, block row r) is
/// x[v * vec_stride + r * row_stride] — vector-major (rows, 1) or
/// batch-minor (1, batch) — and block row r drives crossbar row
/// row_of[r], or row r when row_of is null.
struct ExactInputs {
  const std::int32_t* x;
  std::int64_t vec_stride;
  std::int64_t row_stride;
  std::int64_t rows;
  const std::int32_t* row_of;
};

/// The int64 row sweep, for configs where one product can overflow int32
/// (exact_flush_rows() == 0).
template <typename W, typename R>
void wide_sweep(const W* weights, const LogicalXbar& xbar, const ExactInputs& in,
                std::int64_t batch, R row_of, std::int64_t* out) {
  const std::int64_t cols = xbar.cols();
  for (std::int64_t v = 0; v < batch; ++v) {
    std::int64_t* o = out + v * cols;
    for (std::int64_t r = 0; r < in.rows; ++r) {
      const std::int32_t a = in.x[v * in.vec_stride + r * in.row_stride];
      if (a == 0) continue;
      const W* wrow = weights + row_of(r) * cols;
      for (std::int64_t c = 0; c < cols; ++c) o[c] += std::int64_t{a} * wrow[c];
    }
  }
}

/// The narrow sweeps on tier Tier with weights of type W.
template <typename Tier, typename W, typename R>
void narrow_sweep(const W* w, const LogicalXbar& xbar, const ExactInputs& in,
                  std::int64_t batch, ExactSweep sweep, std::int64_t k, R row_of,
                  MvmWorkspace& ws, std::int64_t* out) {
  const std::int64_t rows = in.rows;
  const std::int64_t cols = xbar.cols();
  if (sweep == ExactSweep::kBatch) {
    const std::int32_t* xt = in.x;
    if (in.row_stride != batch) {  // vector-major: copy batch-minor
      ws.prepare_exact(std::max(rows, batch), rows * batch);
      // Row r of the copy gathers element r of every vector; the unused
      // non-zero row list holds the vectors' offsets.
      std::int32_t* offsets = ws.nz_rows.data();
      for (std::int64_t v = 0; v < batch; ++v) offsets[v] = static_cast<std::int32_t>(v * rows);
      for (std::int64_t r = 0; r < rows; ++r)
        gather_inputs(in.x + r, {offsets, static_cast<std::size_t>(batch)},
                      ws.in_t.data() + r * batch);
      xt = ws.in_t.data();
    }
    batch_sweep<Tier>(w, rows, cols, xt, batch, k, row_of, out);
    return;
  }
  ws.prepare_exact(rows, 0);
  std::int32_t* idx = ws.nz_rows.data();
  std::int32_t* val = ws.nz_vals.data();
  for (std::int64_t v = 0; v < batch; ++v) {
    const std::int64_t nnz =
        Tier::compact(in.x + v * in.vec_stride, rows, in.row_stride, idx, val);
    if (in.row_of != nullptr)  // gathered: block rows to crossbar rows
      for (std::int64_t i = 0; i < nnz; ++i) idx[i] = in.row_of[idx[i]];
    col_sweep<Tier>(w, cols, idx, val, nnz, k, out + v * cols);
  }
}

template <typename Tier>
EncodeSummary exact_on_tier(const LogicalXbar& xbar, const ExactInputs& in, std::int64_t batch,
                            ExactSweep sweep, MvmWorkspace& ws, std::int64_t* out) {
  const EncodeSummary sum = Tier::summarize(in.x, batch * in.rows, xbar.config());
  std::fill(out, out + batch * xbar.cols(), std::int64_t{0});
  const std::int64_t k = exact_flush_rows(xbar.config());
  // The row map is a function object, so a dense block's sweeps compile
  // without the indirection.
  const auto run = [&](auto row_of) {
    xbar.visit_stored_weights([&](auto w) {
      if (k == 0)
        wide_sweep(w.data(), xbar, in, batch, row_of, out);
      else
        narrow_sweep<Tier>(w.data(), xbar, in, batch, sweep, k, row_of, ws, out);
    });
  };
  if (in.row_of == nullptr)
    run([](std::int64_t r) { return r; });
  else
    run([rows = in.row_of](std::int64_t r) { return std::int64_t{rows[r]}; });
  return sum;
}

/// `batch` exact MVMs into `out` (batch * cols, vector-major) on tier `isa`;
/// returns the block's input summary.
EncodeSummary exact_block(MvmIsa isa, const LogicalXbar& xbar, const ExactInputs& in,
                          std::int64_t batch, ExactSweep sweep, MvmWorkspace& ws,
                          std::int64_t* out) {
  switch (isa) {
#if RED_MVM_X86
    case MvmIsa::kAvx2:
      return exact_on_tier<Avx2Exact>(xbar, in, batch, sweep, ws, out);
    case MvmIsa::kAvx512:
      return exact_on_tier<Avx512Exact>(xbar, in, batch, sweep, ws, out);
#endif
    default:
      return exact_on_tier<PortableExact>(xbar, in, batch, sweep, ws, out);
  }
}

// ---------------------------------------------------------------------------
// Stats and the one batch loop behind every entry point.
// ---------------------------------------------------------------------------

/// Stats of `calls` MVMs whose inputs summarize to `sum`: every counter is
/// a sum over the calls, so a block adds exactly what its calls would.
void add_stats(const LogicalXbar& xbar, const EncodeSummary& sum, std::int64_t calls,
               std::int64_t clips, MvmStats* stats) {
  if (stats == nullptr) return;
  stats->mvm_ops += calls;
  stats->row_drives += sum.drives;
  stats->mac_pulses += sum.pulse_rows * xbar.phys_cols();
  stats->conversions += calls * xbar.phys_cols() * xbar.config().pulses();
  stats->adc_clips += clips;
}

/// Observe-only instrumentation of the public entry points (never the inner
/// kernels): per-kernel invocation counters plus MvmStats deltas rolled into
/// `mvm.*` counters. Calls that run the exact kernel count under
/// "mvm.calls.scalar", clipped-ADC ones under their popcount tier. Static
/// names keep the enabled path allocation-free; the disabled path is the
/// metrics() load + one branch.
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

/// The one body behind every entry point: `batch` MVMs on tier `isa` over
/// the block rows `rows` (empty: every crossbar row). Exact inputs are
/// batch-minor when `batch_minor` (the popcount kernel's are always
/// vector-major), and `sweep` orients the exact kernel's lanes.
std::span<const std::int64_t> run_batch(MvmIsa isa, const LogicalXbar& xbar,
                                        std::span<const std::int32_t> rows,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, ExactSweep sweep, bool batch_minor,
                                        MvmWorkspace& ws, MvmStats* stats) {
  RED_EXPECTS(batch >= 0);
  const std::int64_t n = rows.empty() ? xbar.rows() : std::ssize(rows);
  RED_EXPECTS_MSG(inputs.size() == static_cast<std::size_t>(batch * n), "input size mismatch");
  if (!rows.empty()) {  // strictly increasing: each crossbar row takes one value
    bool ok = rows.front() >= 0 && rows.back() < xbar.rows();
    for (std::size_t i = 1; i < rows.size(); ++i) ok &= rows[i - 1] < rows[i];
    RED_EXPECTS_MSG(ok, "gathered rows must be increasing crossbar rows");
  }
  const bool exact = runs_exact_kernel(xbar, bit_accurate);
  RED_EXPECTS_MSG(exact || !batch_minor, "only the exact kernel reads batch-minor blocks");
  auto* m = telemetry::metrics();
  const MvmStats before = (m != nullptr && stats != nullptr) ? *stats : MvmStats{};
  ws.prepare(xbar.cols(), batch);
  if (!exact) {
    const QuantConfig& q = xbar.config();
    ws.prepare_packed(xbar.rows(), padded_planes(q));
    // The crossbar's packed planes are built by their first reader.
    if (xbar.ensure_packed_planes() && m != nullptr)
      m->counter("xbar.packed_plane_builds")->add(1);
    // A gathered vector is scattered over a dense zero one: every vector
    // writes the same rows, so the others stay zero across the block.
    if (!rows.empty()) ws.in_t.assign(static_cast<std::size_t>(xbar.rows()), 0);
    for (std::int64_t v = 0; v < batch; ++v) {
      auto input = inputs.subspan(static_cast<std::size_t>(v * n), static_cast<std::size_t>(n));
      const EncodeSummary sum = summarize_body(input.data(), n, q);
      if (!rows.empty()) {
        for (std::int64_t i = 0; i < n; ++i) ws.in_t[static_cast<std::size_t>(rows[i])] = input[i];
        input = std::span(ws.in_t).first(static_cast<std::size_t>(xbar.rows()));
      }
      encode_packed(input, q, padded_planes(q), ws.in_planes.data());
      add_stats(xbar, sum, 1,
                packed_clipped_kernel(xbar, sum, ws, ws.out.data() + v * xbar.cols(),
                                      lane_sums_fn(isa)),
                stats);
    }
  } else if (batch > 0) {
    const ExactInputs in{inputs.data(), batch_minor ? 1 : n, batch_minor ? batch : 1, n,
                         rows.empty() ? nullptr : rows.data()};
    const EncodeSummary sum = exact_block(isa, xbar, in, batch, sweep, ws, ws.out.data());
    add_stats(xbar, sum, batch, 0, stats);
  }
  if (m != nullptr && batch > 0)
    record_mvm_call(m, exact ? kExactCallsCounter : bit_accurate_calls_counter(isa), batch, stats,
                    before);
  return {ws.out.data(), static_cast<std::size_t>(batch * xbar.cols())};
}

}  // namespace

MvmIsa mvm_active_isa() {
  // Detected once per process: the widest tier this CPU supports.
  static const MvmIsa isa = [] {
#if RED_MVM_X86
    // avx512dq: the fault draw pass's 64-bit lane multiplies (vpmullq).
    if (__builtin_cpu_supports("avx512vpopcntdq") && __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq"))
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

int mvm_lanes(MvmIsa isa) {
#if RED_MVM_X86
  if (isa == MvmIsa::kAvx512) return Avx512Exact::kLanes;
  if (isa == MvmIsa::kAvx2) return Avx2Exact::kLanes;
#endif
  (void)isa;
  return PortableExact::kLanes;
}

bool runs_exact_kernel(const LogicalXbar& xbar, bool bit_accurate) {
  return !bit_accurate || xbar.config().adc.mode == AdcMode::kIdeal;
}

ExactSweep exact_sweep(const LogicalXbar& xbar) {
  return xbar.cols() < mvm_lanes(mvm_active_isa()) ? ExactSweep::kBatch : ExactSweep::kColumns;
}

void gather_inputs(const std::int32_t* src, std::span<const std::int32_t> index,
                   std::int32_t* dst) {
  const auto n = static_cast<std::int64_t>(index.size());
  switch (mvm_active_isa()) {
#if RED_MVM_X86
    case MvmIsa::kAvx2:
      return gather_avx2(src, index.data(), n, dst);
    case MvmIsa::kAvx512:
      return gather_avx512(src, index.data(), n, dst);
#endif
    default:
      return gather_portable(src, index.data(), n, dst);
  }
}

std::int64_t exact_flush_rows(const QuantConfig& q) {
  // Largest |activation| (the bit-serial MSB pulse, or the top unsigned
  // value) times the largest |stored weight| (-offset, or every level bit
  // set minus the offset when a faulted top slice overshoots wbits).
  const std::int64_t act = q.dac_bits == 1 ? std::int64_t{1} << (q.abits - 1)
                                           : (std::int64_t{1} << q.abits) - 1;
  const std::int64_t offset = q.weight_offset();
  const std::int64_t weight =
      std::max(offset, (std::int64_t{1} << (q.slices() * q.cell_bits)) - 1 - offset);
  return std::numeric_limits<std::int32_t>::max() / (act * weight);
}

std::span<const std::int64_t> mvm_bit_accurate(const LogicalXbar& xbar,
                                               std::span<const std::int32_t> input,
                                               MvmWorkspace& ws, MvmStats* stats) {
  return run_batch(mvm_active_isa(), xbar, {}, input, 1, /*bit_accurate=*/true,
                   exact_sweep(xbar), /*batch_minor=*/false, ws, stats);
}

std::span<const std::int64_t> mvm_batch(const LogicalXbar& xbar,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, MvmWorkspace& ws, MvmStats* stats) {
  return run_batch(mvm_active_isa(), xbar, {}, inputs, batch, bit_accurate, exact_sweep(xbar),
                   /*batch_minor=*/false, ws, stats);
}

std::span<const std::int64_t> mvm_gathered(const LogicalXbar& xbar,
                                           std::span<const std::int32_t> rows,
                                           std::span<const std::int32_t> inputs,
                                           std::int64_t batch, bool batch_minor,
                                           bool bit_accurate, MvmWorkspace& ws, MvmStats* stats) {
  return run_batch(mvm_active_isa(), xbar, rows, inputs, batch, bit_accurate, exact_sweep(xbar),
                   batch_minor, ws, stats);
}

namespace detail {

std::span<const std::int64_t> mvm_gathered_on(MvmIsa tier, ExactSweep sweep,
                                              const LogicalXbar& xbar,
                                              std::span<const std::int32_t> rows,
                                              std::span<const std::int32_t> inputs,
                                              std::int64_t batch, bool bit_accurate,
                                              MvmWorkspace& ws, MvmStats* stats) {
  return run_batch(std::min(tier, mvm_active_isa()), xbar, rows, inputs, batch, bit_accurate,
                   sweep, /*batch_minor=*/false, ws, stats);
}

}  // namespace detail

}  // namespace red::perf
