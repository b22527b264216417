#include "red/fault/inject.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "red/common/contracts.h"
#include "red/telemetry/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define RED_FAULT_X86 1
#include <immintrin.h>
#else
#define RED_FAULT_X86 0
#endif

namespace red::fault {

namespace {

// RNG sub-domains: every draw category gets its own salt lane so no two
// decisions ever share a counter stream. Caller salts are small indices
// (stage, group), so `salt * 8 + domain` stays collision-free.
enum Domain : std::uint64_t {
  kWordline = 0,
  kBitline = 1,
  kCell = 2,
  kDriftChange = 3,
  kDriftLevel = 4,
};

std::uint64_t domain_key(const FaultModel& m, std::uint64_t salt, Domain d) {
  return fault_key(m.seed, salt * 8 + d);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// Line faults drawn per physical index with repairs applied in index order:
// the first `spares` faulty lines are absorbed, the rest stay dead.
struct LineState {
  std::vector<std::uint8_t> dead;
  std::int64_t faults = 0;
  std::int64_t spares_used = 0;
  std::int64_t unrepaired = 0;
};

LineState draw_lines(const FaultModel& m, std::uint64_t salt, Domain domain, double rate,
                     std::int64_t n, int spares, std::int64_t& draws) {
  LineState st;
  st.dead.assign(static_cast<std::size_t>(n), 0);
  if (rate <= 0.0) return st;
  const std::uint64_t key = domain_key(m, salt, domain);
  draws += n;
  for (std::int64_t i = 0; i < n; ++i) {
    if (fault_unit_keyed(key, static_cast<std::uint64_t>(i)) >= rate) continue;
    ++st.faults;
    if (st.spares_used < spares) {
      ++st.spares_used;  // remapped onto a spare line: fully healed
    } else {
      st.dead[static_cast<std::size_t>(i)] = 1;
      ++st.unrepaired;
    }
  }
  return st;
}

// Hit masks: bit p of words[p / 64] is set when draw p of one counter stream
// falls below a rate, for p < n (bits past n stay clear). Draw p hashes
// z = z0 + p * dz, where z0 = counter0 * kFaultCounterMul + 1 and
// dz = stride * kFaultCounterMul (mod 2^64), so it is exactly
// fault_rnd_keyed(key, counter0 + p * stride); the lanes advance z by a
// vector add instead of a multiply. `below` is unit_threshold(rate).
using HitMaskFn = void (*)(std::uint64_t key, std::uint64_t z0, std::uint64_t dz,
                           std::uint64_t below, std::int64_t n, std::uint64_t* words);

// (h >> 11) * 2^-53 < x  <=>  (h >> 11) < ceil(x * 2^53) for x in [0, 1]:
// both sides scale by a power of two exactly, and h >> 11 is an integer.
std::uint64_t unit_threshold(double x) {
  return x >= 1.0 ? std::uint64_t{1} << 53
                  : static_cast<std::uint64_t>(std::ceil(std::ldexp(x, 53)));
}

void hit_mask_portable(std::uint64_t key, std::uint64_t z, std::uint64_t dz,
                       std::uint64_t below, std::int64_t n, std::uint64_t* words) {
  for (std::int64_t w = 0; w * 64 < n; ++w) {
    const int bits = static_cast<int>(std::min<std::int64_t>(64, n - w * 64));
    std::uint64_t m = 0;
    for (int b = 0; b < bits; ++b, z += dz)
      m |= static_cast<std::uint64_t>((fault_mix(key ^ fault_mix(z)) >> 11) < below) << b;
    words[w] = m;
  }
}

#if RED_FAULT_X86

// The bits of mask word w that lie below n.
std::uint64_t tail_bits(std::int64_t n, std::int64_t w) {
  const std::int64_t left = n - w * 64;
  return left >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
}

using U64x4 = std::uint64_t __attribute__((vector_size(32)));
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

// fault_mix in every lane, in place. Inlined into the tier functions below,
// whose target decides the code: vpmullq at AVX-512 (DQ), three vpmuludq per
// multiply at AVX2.
template <class V>
[[gnu::always_inline]] inline void mix_lanes(V& z) {
  z = (z ^ (z >> 30)) * kFaultMixMul1;
  z = (z ^ (z >> 27)) * kFaultMixMul2;
  z ^= z >> 31;
}

__attribute__((target("avx2"))) void hit_mask_avx2(std::uint64_t key, std::uint64_t z0,
                                                   std::uint64_t dz, std::uint64_t below,
                                                   std::int64_t n, std::uint64_t* words) {
  // below is at most 2^53 and h >> 11 below 2^53: a signed compare is exact.
  const auto lim = reinterpret_cast<__m256i>(U64x4{} + below);
  U64x4 z = U64x4{0, 1, 2, 3} * dz + z0;
  for (std::int64_t w = 0; w * 64 < n; ++w) {
    const std::int64_t blocks = std::min<std::int64_t>(16, (n - w * 64 + 3) / 4);
    std::uint64_t m = 0;
    for (std::int64_t b = 0; b < blocks; ++b, z += 4 * dz) {
      U64x4 h = z;
      mix_lanes(h);
      h ^= key;
      mix_lanes(h);
      h >>= 11;
      const __m256i hit = _mm256_cmpgt_epi64(lim, reinterpret_cast<__m256i>(h));
      m |= static_cast<std::uint64_t>(_mm256_movemask_pd(_mm256_castsi256_pd(hit))) << (4 * b);
    }
    words[w] = m & tail_bits(n, w);
  }
}

__attribute__((target("avx512f,avx512dq"))) void hit_mask_avx512(
    std::uint64_t key, std::uint64_t z0, std::uint64_t dz, std::uint64_t below, std::int64_t n,
    std::uint64_t* words) {
  const auto lim = reinterpret_cast<__m512i>(U64x8{} + below);
  U64x8 z = U64x8{0, 1, 2, 3, 4, 5, 6, 7} * dz + z0;
  for (std::int64_t w = 0; w * 64 < n; ++w) {
    const std::int64_t blocks = std::min<std::int64_t>(8, (n - w * 64 + 7) / 8);
    std::uint64_t m = 0;
    for (std::int64_t b = 0; b < blocks; ++b, z += 8 * dz) {
      U64x8 h = z;
      mix_lanes(h);
      h ^= key;
      mix_lanes(h);
      h >>= 11;
      m |= static_cast<std::uint64_t>(
               _mm512_cmplt_epu64_mask(reinterpret_cast<__m512i>(h), lim))
           << (8 * b);
    }
    words[w] = m & tail_bits(n, w);
  }
}

#endif  // RED_FAULT_X86

HitMaskFn hit_mask_for(perf::MvmIsa isa) {
  switch (isa) {
#if RED_FAULT_X86
    case perf::MvmIsa::kAvx2:
      return hit_mask_avx2;
    case perf::MvmIsa::kAvx512:
      return hit_mask_avx512;
#endif
    default:
      return hit_mask_portable;
  }
}

// One physical cell whose level may differ from the clean one, whatever
// logical row the remap puts there.
enum class EventKind : std::uint8_t { kDead, kSa0, kSa1, kDrift };

struct Event {
  std::int32_t p = 0;  ///< physical column (c * slices + s); row_begin gives the row
  EventKind kind = EventKind::kDead;
  std::uint8_t attempts = 0;  ///< kDrift: (change, level) draw pairs stored
  std::uint32_t draw = 0;     ///< kDrift: first pair in the draw pool
};

// The physical event list of one injection: every dead-line cell, every
// stuck cell and every drift candidate, in (row, column) order, with
// row_begin[q] indexing row q's events. A drift candidate is a live,
// unstuck cell whose attempt-0 change draw falls below the largest change
// probability of any level, so only candidates can drift for any
// assignment of logical rows. Its verify-attempt draws are stored as
// (change, level) pairs, up to the first change draw no level can drift on.
struct Events {
  std::vector<Event> cells;
  std::vector<std::int64_t> row_begin;
  std::vector<double> pool;
  std::int64_t stuck = 0, sa0 = 0, sa1 = 0;
  std::int64_t draws = 0;  ///< counter-RNG draws, lines included
};

// What one logical-row assignment produces, summed over rows: the exact
// weight-space damage and the per-build counters the report needs.
struct Tally {
  std::int64_t err_sq = 0;  ///< Σ Δw² over (row, col): integers, exact in any order
  std::int64_t perturbed = 0;
  std::int64_t drifted = 0;
  std::int64_t retried = 0;

  Tally& operator+=(const Tally& o) {
    err_sq += o.err_sq;
    perturbed += o.perturbed;
    drifted += o.drifted;
    retried += o.retried;
    return *this;
  }
};

}  // namespace

xbar::LogicalXbar inject_faults(const xbar::LogicalXbar& clean, const FaultModel& model,
                                const RepairPolicy& policy, std::uint64_t salt,
                                RepairReport* report) {
  return detail::inject_faults_on(perf::mvm_active_isa(), clean, model, policy, salt, report);
}

namespace detail {

xbar::LogicalXbar inject_faults_on(perf::MvmIsa tier, const xbar::LogicalXbar& clean,
                                   const FaultModel& model, const RepairPolicy& policy,
                                   std::uint64_t salt, RepairReport* report) {
  RED_EXPECTS_MSG(!clean.config().variation.enabled(),
                  "faulted copies must derive from a variation-free crossbar");
  model.validate();
  policy.validate();

  const std::int64_t R = clean.rows();
  const std::int64_t C = clean.cols();
  const int S = clean.config().slices();
  const int cell_bits = clean.config().cell_bits;
  const std::int64_t P = C * S;  // physical columns
  const std::size_t plane = static_cast<std::size_t>(R * C);
  const int max_level = clean.config().max_level();
  const std::int32_t offset = clean.config().weight_offset();
  const std::uint8_t* clean_levels = clean.level_plane(0);  // [slice][row][col]

  RepairReport rep;
  rep.cells = R * P;
  xbar::VariationStats vstats;
  vstats.cells = rep.cells;

  if (!model.enabled()) {
    // A bit-exact copy: the zero-rate path of a campaign must be
    // indistinguishable from the fault-free oracle.
    if (report != nullptr) *report = rep;
    return xbar::LogicalXbar(clean, std::span<const xbar::LevelPatch>{}, vstats);
  }

  Events ev;
  const LineState wl =
      draw_lines(model, salt, kWordline, model.wordline_rate, R, policy.spare_rows, ev.draws);
  const LineState bl =
      draw_lines(model, salt, kBitline, model.bitline_rate, P, policy.spare_cols, ev.draws);
  rep.wordline_faults = wl.faults;
  rep.bitline_faults = bl.faults;
  rep.spare_rows_used = wl.spares_used;
  rep.spare_cols_used = bl.spares_used;
  rep.unrepaired_wordlines = wl.unrepaired;
  rep.unrepaired_bitlines = bl.unrepaired;

  const double sa0 = model.sa0_rate;
  const double stuck = model.sa0_rate + model.sa1_rate;
  const bool drifting = model.drift_sigma > 0.0;
  const xbar::NoiseLaw law(drifting ? model.drift_sigma : 1.0, max_level);
  double p_star = 0.0;  // the largest change probability of any level
  for (int l = 0; l <= max_level; ++l)
    p_star = std::max(p_star, law.change[static_cast<std::size_t>(l)]);
  const int attempts = 1 + policy.verify_retries;

  // The one draw pass. Fault draws key on the physical position: dead lines
  // zero the cell, stuck cells force their polarity, live cells drift under
  // write-verify (closed-loop programming keeps the best-verified attempt,
  // so more retries never worsen a cell). Per live row, a branch-free sweep
  // at the SIMD tier marks the stuck cells (cell draw below sa0 + sa1) and
  // the drift candidates (attempt-0 change draw below p_star); the scalar
  // code then visits only the dead, stuck and candidate cells, in column
  // order. Every live cell's stuck draw and every live unstuck cell's
  // change draw count as drawn, as when each was hashed one at a time.
  const std::uint64_t cell_key = domain_key(model, salt, kCell);
  const std::uint64_t change_key = domain_key(model, salt, kDriftChange);
  const std::uint64_t level_key = domain_key(model, salt, kDriftLevel);
  const HitMaskFn hit_mask = hit_mask_for(std::min(tier, perf::mvm_active_isa()));
  const std::uint64_t stuck_below = unit_threshold(stuck);
  const std::uint64_t drift_below = unit_threshold(p_star);
  const std::int64_t words = (P + 63) / 64;
  std::vector<std::uint64_t> dead_cols(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> stuck_hits(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> drift_hits(static_cast<std::size_t>(words), 0);
  std::int64_t live = P;
  for (std::int64_t p = 0; p < P; ++p)
    if (bl.dead[static_cast<std::size_t>(p)] != 0) {
      dead_cols[static_cast<std::size_t>(p / 64)] |= std::uint64_t{1} << (p % 64);
      --live;
    }
  ev.row_begin.resize(static_cast<std::size_t>(R) + 1);
  for (std::int64_t q = 0; q < R; ++q) {
    ev.row_begin[static_cast<std::size_t>(q)] = static_cast<std::int64_t>(ev.cells.size());
    if (wl.dead[static_cast<std::size_t>(q)] != 0) {
      for (std::int64_t p = 0; p < P; ++p) ev.cells.push_back({static_cast<std::int32_t>(p)});
      continue;
    }
    const std::uint64_t idx0 = static_cast<std::uint64_t>(q * P);
    if (stuck > 0.0)
      hit_mask(cell_key, idx0 * kFaultCounterMul + 1, kFaultCounterMul, stuck_below, P,
               stuck_hits.data());
    if (drifting)
      hit_mask(change_key, idx0 * 64 * kFaultCounterMul + 1, 64 * kFaultCounterMul, drift_below,
               P, drift_hits.data());
    std::int64_t row_stuck = 0;
    for (std::int64_t w = 0; w < words; ++w) {
      const auto i = static_cast<std::size_t>(w);
      stuck_hits[i] &= ~dead_cols[i];
      drift_hits[i] &= ~(dead_cols[i] | stuck_hits[i]);
      row_stuck += std::popcount(stuck_hits[i]);
    }
    if (stuck > 0.0) ev.draws += live;
    if (drifting) ev.draws += live - row_stuck;

    for (std::int64_t w = 0; w < words; ++w) {
      const auto i = static_cast<std::size_t>(w);
      for (std::uint64_t hits = dead_cols[i] | stuck_hits[i] | drift_hits[i]; hits != 0;
           hits &= hits - 1) {
        const int b = std::countr_zero(hits);
        const std::uint64_t bit = std::uint64_t{1} << b;
        const std::int64_t p = w * 64 + b;
        Event e{static_cast<std::int32_t>(p)};
        const std::uint64_t idx = idx0 + static_cast<std::uint64_t>(p);
        if ((stuck_hits[i] & bit) != 0) {
          const bool at0 = fault_unit_keyed(cell_key, idx) < sa0;
          e.kind = at0 ? EventKind::kSa0 : EventKind::kSa1;
          ++ev.stuck;
          ++(at0 ? ev.sa0 : ev.sa1);
        } else if ((drift_hits[i] & bit) != 0) {
          e.kind = EventKind::kDrift;
          e.draw = static_cast<std::uint32_t>(ev.pool.size() / 2);
          double u = fault_unit_keyed(change_key, idx * 64);
          for (int a = 0;;) {
            ev.pool.push_back(u);
            ev.pool.push_back(
                fault_unit_keyed(level_key, idx * 64 + static_cast<std::uint64_t>(a)));
            ++ev.draws;
            ++e.attempts;
            if (++a == attempts) break;
            ++ev.draws;
            u = fault_unit_keyed(change_key, idx * 64 + static_cast<std::uint64_t>(a));
            if (u >= p_star) {  // verifies here at every level: no level draw
              ev.pool.push_back(u);
              ev.pool.push_back(0.0);
              ++e.attempts;
              break;
            }
          }
        }  // else a dead column: kDead
        ev.cells.push_back(e);
      }
    }
  }
  ev.row_begin[static_cast<std::size_t>(R)] = static_cast<std::int64_t>(ev.cells.size());

  // Outcome of event `e` on a cell whose clean level is `l`.
  const auto outcome = [&](const Event& e, int l, Tally& t) -> int {
    switch (e.kind) {
      case EventKind::kDead:
      case EventKind::kSa0:
        return 0;
      case EventKind::kSa1:
        return max_level;
      case EventKind::kDrift:
        break;
    }
    const double change = law.change[static_cast<std::size_t>(l)];
    const double* d = ev.pool.data() + 2 * static_cast<std::size_t>(e.draw);
    int best = -1;  // smallest |Δlevel| among verify attempts
    for (int a = 0; a < e.attempts; ++a, d += 2) {
      if (d[0] >= change) {  // this write verified exactly
        if (a > 0) ++t.retried;  // a retry landed the cell back on target
        return l;
      }
      const int cand = law.sample_changed(l, d[1] * change, max_level);
      if (best < 0 || std::abs(cand - l) < std::abs(best - l)) best = cand;
    }
    ++t.drifted;
    return best;
  };

  // Physical row q holding logical row r: walks q's events only, grouping
  // them by logical column for the weight delta. Appends the changed cells
  // to `patches` when given.
  const auto row_tally = [&](std::int64_t q, std::int64_t r,
                             std::vector<xbar::LevelPatch>* patches) {
    Tally t;
    std::int64_t col = -1;
    std::int64_t wdelta = 0;
    for (std::int64_t k = ev.row_begin[static_cast<std::size_t>(q)];
         k < ev.row_begin[static_cast<std::size_t>(q) + 1]; ++k) {
      const Event& e = ev.cells[static_cast<std::size_t>(k)];
      const std::int64_t c = e.p / S;
      const int s = static_cast<int>(e.p % S);
      if (c != col) {
        t.err_sq += wdelta * wdelta;
        wdelta = 0;
        col = c;
      }
      const std::size_t at = static_cast<std::size_t>(s) * plane +
                             static_cast<std::size_t>(r * C + c);
      const int l = clean_levels[at];
      const int out = outcome(e, l, t);
      if (out == l) continue;
      ++t.perturbed;
      wdelta += static_cast<std::int64_t>(out - l) << (cell_bits * s);
      if (patches != nullptr) patches->push_back({at, static_cast<std::uint8_t>(out)});
    }
    t.err_sq += wdelta * wdelta;
    return t;
  };

  std::vector<xbar::LevelPatch> patches;
  std::vector<std::int64_t> identity_err(static_cast<std::size_t>(R));
  Tally chosen;
  for (std::int64_t q = 0; q < R; ++q) {
    const Tally t = row_tally(q, q, &patches);
    identity_err[static_cast<std::size_t>(q)] = t.err_sq;
    chosen += t;
  }
  std::int64_t remapped = 0;

  if (policy.remap_rows && (wl.unrepaired > 0 || ev.stuck > 0) && R > 1) {
    // Damage proxy per physical row: dead rows are worst; otherwise sum the
    // squared slice significance of every stuck cell on a live column.
    std::vector<double> damage(static_cast<std::size_t>(R), 0.0);
    for (std::int64_t q = 0; q < R; ++q) {
      if (wl.dead[static_cast<std::size_t>(q)] != 0) {
        damage[static_cast<std::size_t>(q)] = 1e30;
        continue;
      }
      double d = 0.0;
      for (std::int64_t k = ev.row_begin[static_cast<std::size_t>(q)];
           k < ev.row_begin[static_cast<std::size_t>(q) + 1]; ++k) {
        const Event& e = ev.cells[static_cast<std::size_t>(k)];
        if (e.kind != EventKind::kSa0 && e.kind != EventKind::kSa1) continue;
        const double sig = static_cast<double>(std::int64_t{1} << (cell_bits * (e.p % S)));
        d += sig * sig;
      }
      damage[static_cast<std::size_t>(q)] = d;
    }
    // Logical-row importance: encoded magnitude Σ (w + offset)² — exactly the
    // error a dead row costs, and a faithful proxy for stuck-at-0 damage.
    std::vector<double> importance(static_cast<std::size_t>(R), 0.0);
    clean.visit_stored_weights([&](auto stored) {
      for (std::int64_t r = 0; r < R; ++r) {
        double m2 = 0.0;
        for (std::int64_t c = 0; c < C; ++c) {
          const double u = static_cast<double>(stored[static_cast<std::size_t>(r * C + c)]) +
                           offset;
          m2 += u * u;
        }
        importance[static_cast<std::size_t>(r)] = m2;
      }
    });
    std::vector<std::int32_t> phys(static_cast<std::size_t>(R));
    std::iota(phys.begin(), phys.end(), 0);
    std::vector<std::int32_t> logi = phys;
    std::stable_sort(phys.begin(), phys.end(), [&](std::int32_t a, std::int32_t b) {
      return damage[static_cast<std::size_t>(a)] > damage[static_cast<std::size_t>(b)];
    });
    std::stable_sort(logi.begin(), logi.end(), [&](std::int32_t a, std::int32_t b) {
      return importance[static_cast<std::size_t>(a)] < importance[static_cast<std::size_t>(b)];
    });
    // holder[q] = the logical row the remap places on physical row q.
    std::vector<std::int32_t> holder(static_cast<std::size_t>(R));
    for (std::int64_t i = 0; i < R; ++i)
      holder[static_cast<std::size_t>(phys[static_cast<std::size_t>(i)])] =
          logi[static_cast<std::size_t>(i)];
    // Price the remap from Σ Δw² deltas: only the rows it moves change.
    std::int64_t cand_err = chosen.err_sq;
    std::int64_t moved = 0;
    for (std::int64_t q = 0; q < R; ++q) {
      const std::int64_t r = holder[static_cast<std::size_t>(q)];
      if (r == q) continue;
      ++moved;
      cand_err += row_tally(q, r, nullptr).err_sq - identity_err[static_cast<std::size_t>(q)];
    }
    // Keep the remap only when it strictly wins on the exact metric: the
    // repaired-never-worse gate holds per trial by construction.
    if (moved > 0 && cand_err < chosen.err_sq) {
      remapped = moved;
      chosen = {};
      patches.clear();
      for (std::int64_t q = 0; q < R; ++q)
        chosen += row_tally(q, holder[static_cast<std::size_t>(q)], &patches);
    }
  }

  vstats.perturbed_cells = chosen.perturbed;
  vstats.stuck_cells = ev.stuck;
  vstats.sa0_cells = ev.sa0;
  vstats.sa1_cells = ev.sa1;
  rep.stuck_cells = ev.stuck;
  rep.drifted_cells = chosen.drifted;
  rep.retried_cells = chosen.retried;
  rep.rows_remapped = remapped;
  if (report != nullptr) *report = rep;
  if (auto* m = telemetry::metrics())
    m->counter("fault.rng_draws")->add(static_cast<std::uint64_t>(ev.draws));
  return xbar::LogicalXbar(clean, patches, vstats);
}

}  // namespace detail

double weight_error_sq(const xbar::LogicalXbar& clean, const xbar::LogicalXbar& faulted) {
  RED_EXPECTS(clean.rows() == faulted.rows() && clean.cols() == faulted.cols());
  const auto a = clean.stored_weights();
  const auto b = faulted.stored_weights();
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(b[i]) - static_cast<double>(a[i]);
    sum += d * d;
  }
  return sum;
}

double analytic_snr_db(const FaultModel& model, const RepairPolicy& policy,
                       const xbar::QuantConfig& quant, std::int64_t rows, std::int64_t cols) {
  model.validate();
  policy.validate();
  RED_EXPECTS(rows >= 1 && cols >= 1);
  if (!model.enabled()) return 300.0;

  const int S = quant.slices();
  const int max_level = quant.max_level();
  const double range = std::pow(2.0, quant.wbits);
  // Uniform-weight moments: signal power E[w^2] (centered) and encoded
  // magnitude E[u^2] (what a dead row erases); per-level E[l^2] for a
  // discrete uniform level (what a stuck or dead cell erases).
  const double sig_pow = range * range / 12.0;
  const double enc_pow = range * range / 3.0;
  const double lvl_pow = static_cast<double>(max_level) * (2.0 * max_level + 1.0) / 6.0;
  double sig_gain = 0.0;  // Σ_s B^(2s): per-cell error scaled to weight units
  for (int s = 0; s < S; ++s) {
    const double b = static_cast<double>(std::int64_t{1} << (quant.cell_bits * s));
    sig_gain += b * b;
  }

  // Expected unrepaired line fractions: spares absorb their budget's worth
  // of the expected fault count (expectation-level approximation).
  const std::int64_t phys_cols = cols * S;
  const double wl_unrepaired =
      std::max(0.0, static_cast<double>(rows) * model.wordline_rate - policy.spare_rows) /
      static_cast<double>(rows);
  const double bl_unrepaired =
      std::max(0.0,
               static_cast<double>(phys_cols) * model.bitline_rate - policy.spare_cols) /
      static_cast<double>(phys_cols);

  // Drift: a level moves with prob 2*Phi(-0.5/sigma); write-verify keeps the
  // best of (retries + 1) attempts, and a +-1-level miss dominates the
  // residual error.
  double drift_pow = 0.0;
  if (model.drift_sigma > 0.0) {
    const double p_change = 2.0 * normal_cdf(-0.5 / model.drift_sigma);
    drift_pow = std::pow(p_change, policy.verify_retries + 1) * sig_gain;
  }

  // Remap cannot fix a fault, but steers damage onto low-magnitude rows;
  // credit it a documented half of the row-borne damage terms.
  const double remap_credit = policy.remap_rows ? 0.5 : 1.0;

  const double noise_pow =
      remap_credit * ((model.sa0_rate + model.sa1_rate) * lvl_pow * sig_gain +
                      wl_unrepaired * enc_pow) +
      bl_unrepaired * lvl_pow * sig_gain + drift_pow;
  if (noise_pow <= 0.0) return 300.0;
  return std::clamp(10.0 * std::log10(sig_pow / noise_pow), -300.0, 300.0);
}

}  // namespace red::fault
