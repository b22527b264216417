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

// The largest change probability of any level: a cell whose change draw
// lies at or above it verifies at every level.
double max_change(const xbar::NoiseLaw& law, int max_level) {
  double p_star = 0.0;
  for (int l = 0; l <= max_level; ++l)
    p_star = std::max(p_star, law.change[static_cast<std::size_t>(l)]);
  return p_star;
}

// Line faults drawn per physical index: the faulty indices, in index order.
std::vector<std::int32_t> draw_lines(const FaultModel& m, std::uint64_t salt, Domain domain,
                                     double rate, std::int64_t n, std::int64_t& draws) {
  std::vector<std::int32_t> faulty;
  if (rate <= 0.0) return faulty;
  const std::uint64_t key = domain_key(m, salt, domain);
  draws += n;
  for (std::int64_t i = 0; i < n; ++i)
    if (fault_unit_keyed(key, static_cast<std::uint64_t>(i)) < rate)
      faulty.push_back(static_cast<std::int32_t>(i));
  return faulty;
}

// Repairs apply in index order: the first `spares` faulty lines move onto
// spare lines and are fully healed, the rest stay dead.
std::span<const std::int32_t> dead_lines(const std::vector<std::int32_t>& faulty, int spares) {
  return std::span(faulty).subspan(std::min(faulty.size(), static_cast<std::size_t>(spares)));
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

// One physical cell whose level may differ from the clean one under one
// repair, whatever logical row the remap puts there.
enum class EventKind : std::uint8_t { kDead, kSa0, kSa1, kDrift };

struct Event {
  std::int32_t p = 0;  ///< physical column (c * slices + s); row_begin gives the row
  EventKind kind = EventKind::kDead;
  std::uint8_t attempts = 0;  ///< kDrift: (change, level) draw pairs stored
  bool verifies = false;      ///< kDrift: the attempt after them verifies at every level
  std::uint32_t draw = 0;     ///< kDrift: first pair in the draw pool
};

// The physical event list of one repair: every dead-line cell, every stuck
// cell and every drift candidate, in (row, column) order, with row_begin[q]
// indexing row q's events. A candidate's verify-attempt draws are stored as
// (change, level) pairs, up to the first change draw no level can drift on,
// which only sets `verifies`.
struct Events {
  std::vector<Event> cells;
  std::vector<std::int64_t> row_begin;
  std::vector<double> pool;
  std::int64_t stuck = 0, sa0 = 0, sa1 = 0;
  std::int64_t draws = 0;  ///< counter-RNG draws of this repair's arm, lines included
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

FaultDraw draw_faults(const xbar::LogicalXbar& clean, const FaultModel& model,
                      std::span<const RepairPolicy> arms, std::uint64_t salt) {
  return detail::draw_faults_on(perf::mvm_active_isa(), clean, model, arms, salt);
}

xbar::LogicalXbar inject_faults(const xbar::LogicalXbar& clean, const FaultModel& model,
                                const RepairPolicy& policy, std::uint64_t salt,
                                RepairReport* report) {
  return detail::inject_faults_on(perf::mvm_active_isa(), clean, model, policy, salt, report);
}

namespace detail {

xbar::LogicalXbar inject_faults_on(perf::MvmIsa tier, const xbar::LogicalXbar& clean,
                                   const FaultModel& model, const RepairPolicy& policy,
                                   std::uint64_t salt, RepairReport* report) {
  return repair_faults(clean, draw_faults_on(tier, clean, model, {&policy, 1}, salt), policy,
                       report);
}

FaultDraw draw_faults_on(perf::MvmIsa tier, const xbar::LogicalXbar& clean,
                         const FaultModel& model, std::span<const RepairPolicy> arms,
                         std::uint64_t salt) {
  RED_EXPECTS_MSG(!clean.config().variation.enabled(),
                  "faulted copies must derive from a variation-free crossbar");
  RED_EXPECTS_MSG(!arms.empty(), "a fault draw serves at least one repair policy");
  model.validate();

  FaultDraw d;
  d.model = model;
  d.salt = salt;
  d.rows = clean.rows();
  d.phys_cols = clean.phys_cols();
  for (const RepairPolicy& arm : arms) {
    arm.validate();
    d.spare_rows = std::max(d.spare_rows, arm.spare_rows);
    d.spare_cols = std::max(d.spare_cols, arm.spare_cols);
  }
  if (!model.enabled()) return d;

  const std::int64_t R = d.rows;
  const std::int64_t P = d.phys_cols;
  RED_EXPECTS_MSG(P < (std::int64_t{1} << 30), "DrawnCell holds 30-bit physical columns");
  d.faulty_rows = draw_lines(model, salt, kWordline, model.wordline_rate, R, d.line_draws);
  d.faulty_cols = draw_lines(model, salt, kBitline, model.bitline_rate, P, d.line_draws);

  const int max_level = clean.config().max_level();
  const double stuck = model.sa0_rate + model.sa1_rate;
  const bool drifting = model.drift_sigma > 0.0;
  const xbar::NoiseLaw law(drifting ? model.drift_sigma : 1.0, max_level);

  // The one draw pass, over the cells that are live under some arm: lines
  // dead under every arm (the faulty ones past the largest spare budget)
  // are skipped. Fault draws key on the physical position. Per swept row, a
  // branch-free sweep at the SIMD tier marks the stuck cells (cell draw
  // below sa0 + sa1) and the drift candidates (attempt-0 change draw below
  // p_star); the scalar code then visits only those, in column order.
  const std::uint64_t cell_key = domain_key(model, salt, kCell);
  const std::uint64_t change_key = domain_key(model, salt, kDriftChange);
  const HitMaskFn hit_mask = hit_mask_for(std::min(tier, perf::mvm_active_isa()));
  const std::uint64_t stuck_below = unit_threshold(stuck);
  const std::uint64_t drift_below = unit_threshold(max_change(law, max_level));
  const std::int64_t words = (P + 63) / 64;
  std::vector<std::uint64_t> dead_cols(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> stuck_hits(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> drift_hits(static_cast<std::size_t>(words), 0);
  for (const std::int32_t p : dead_lines(d.faulty_cols, d.spare_cols))
    dead_cols[static_cast<std::size_t>(p / 64)] |= std::uint64_t{1} << (p % 64);
  std::vector<std::uint8_t> dead_row(static_cast<std::size_t>(R), 0);
  for (const std::int32_t q : dead_lines(d.faulty_rows, d.spare_rows))
    dead_row[static_cast<std::size_t>(q)] = 1;
  d.row_begin.resize(static_cast<std::size_t>(R) + 1);
  for (std::int64_t q = 0; q < R; ++q) {
    d.row_begin[static_cast<std::size_t>(q)] = static_cast<std::int64_t>(d.cells.size());
    if (dead_row[static_cast<std::size_t>(q)] != 0) continue;
    const std::uint64_t idx0 = static_cast<std::uint64_t>(q * P);
    if (stuck > 0.0)
      hit_mask(cell_key, idx0 * kFaultCounterMul + 1, kFaultCounterMul, stuck_below, P,
               stuck_hits.data());
    if (drifting)
      hit_mask(change_key, idx0 * 64 * kFaultCounterMul + 1, 64 * kFaultCounterMul, drift_below,
               P, drift_hits.data());
    for (std::int64_t w = 0; w < words; ++w) {
      const auto i = static_cast<std::size_t>(w);
      stuck_hits[i] &= ~dead_cols[i];
      drift_hits[i] &= ~(dead_cols[i] | stuck_hits[i]);
      for (std::uint64_t hits = stuck_hits[i] | drift_hits[i]; hits != 0; hits &= hits - 1) {
        const int b = std::countr_zero(hits);
        const std::int64_t p = w * 64 + b;
        DrawnCell e{static_cast<std::uint32_t>(p), DrawnCell::Kind::kDrift};
        if ((stuck_hits[i] >> b & 1) != 0) {
          const std::uint64_t idx = idx0 + static_cast<std::uint64_t>(p);
          const bool at0 = fault_unit_keyed(cell_key, idx) < model.sa0_rate;
          e.kind = at0 ? DrawnCell::Kind::kSa0 : DrawnCell::Kind::kSa1;
        }
        d.cells.push_back(e);
      }
    }
  }
  d.row_begin[static_cast<std::size_t>(R)] = static_cast<std::int64_t>(d.cells.size());
  return d;
}

}  // namespace detail

namespace {

// What one repair changes: the sibling's patches and stats, and the draws
// its arm counts.
struct Repair {
  std::vector<xbar::LevelPatch> patches;
  xbar::VariationStats vstats;
  RepairReport report;
  std::int64_t draws = 0;
};

// repair_faults() up to the copy, for an enabled model. `stored` is the
// clean crossbar's stored weights (visit_stored_weights).
template <typename W>
Repair plan_repair(const xbar::LogicalXbar& clean, std::span<const W> stored,
                   const FaultDraw& draw, const RepairPolicy& policy) {
  const FaultModel& model = draw.model;

  const std::int64_t R = clean.rows();
  const std::int64_t C = clean.cols();
  const int S = clean.config().slices();
  const int cell_bits = clean.config().cell_bits;
  const std::int64_t P = C * S;  // physical columns
  const std::size_t plane = static_cast<std::size_t>(R * C);
  const int max_level = clean.config().max_level();
  const std::uint32_t offset = static_cast<std::uint32_t>(clean.config().weight_offset());

  Repair out;
  RepairReport& rep = out.report;
  rep.cells = R * P;
  xbar::VariationStats& vstats = out.vstats;
  vstats.cells = rep.cells;

  const auto dead_rows = dead_lines(draw.faulty_rows, policy.spare_rows);
  const auto dead_cols = dead_lines(draw.faulty_cols, policy.spare_cols);
  rep.wordline_faults = std::ssize(draw.faulty_rows);
  rep.bitline_faults = std::ssize(draw.faulty_cols);
  rep.unrepaired_wordlines = std::ssize(dead_rows);
  rep.unrepaired_bitlines = std::ssize(dead_cols);
  rep.spare_rows_used = rep.wordline_faults - rep.unrepaired_wordlines;
  rep.spare_cols_used = rep.bitline_faults - rep.unrepaired_bitlines;
  std::vector<std::uint8_t> dead_row(static_cast<std::size_t>(R), 0);
  for (const std::int32_t q : dead_rows) dead_row[static_cast<std::size_t>(q)] = 1;

  const bool drifting = model.drift_sigma > 0.0;
  const xbar::NoiseLaw law(drifting ? model.drift_sigma : 1.0, max_level);
  const double p_star = max_change(law, max_level);
  const int attempts = 1 + policy.verify_retries;
  const std::uint64_t change_key = domain_key(model, draw.salt, kDriftChange);
  const std::uint64_t level_key = domain_key(model, draw.salt, kDriftLevel);

  // This policy's event list: its dead lines merged in column order with
  // the drawn cells, a drawn cell on a dead column dropped for the dead
  // one. Each drift candidate draws its verify attempts under this policy's
  // retry budget (write-verify: closed-loop programming keeps the
  // best-verified attempt, so more retries never worsen a cell). The draw
  // counts are what this arm alone would draw: every live cell's stuck
  // draw, every live unstuck cell's change draw, and each candidate's level
  // draws and retry change draws.
  Events ev;
  ev.draws = draw.line_draws;
  const std::int64_t live = P - std::ssize(dead_cols);
  ev.row_begin.resize(static_cast<std::size_t>(R) + 1);
  for (std::int64_t q = 0; q < R; ++q) {
    ev.row_begin[static_cast<std::size_t>(q)] = static_cast<std::int64_t>(ev.cells.size());
    if (dead_row[static_cast<std::size_t>(q)] != 0) {
      for (std::int64_t p = 0; p < P; ++p) ev.cells.push_back({static_cast<std::int32_t>(p)});
      continue;
    }
    std::int64_t row_stuck = 0;
    auto dc = dead_cols.begin();
    for (std::int64_t k = draw.row_begin[static_cast<std::size_t>(q)];
         k < draw.row_begin[static_cast<std::size_t>(q) + 1]; ++k) {
      const DrawnCell& c = draw.cells[static_cast<std::size_t>(k)];
      for (; dc != dead_cols.end() && *dc < c.p; ++dc) ev.cells.push_back({*dc});
      if (dc != dead_cols.end() && *dc == c.p) continue;  // pushed dead next
      Event e{static_cast<std::int32_t>(c.p)};
      if (c.kind == DrawnCell::Kind::kDrift) {
        e.kind = EventKind::kDrift;
        e.draw = static_cast<std::uint32_t>(ev.pool.size() / 2);
        const std::uint64_t idx = static_cast<std::uint64_t>(q * P + c.p);
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
            e.verifies = true;
            break;
          }
        }
      } else {
        const bool at0 = c.kind == DrawnCell::Kind::kSa0;
        e.kind = at0 ? EventKind::kSa0 : EventKind::kSa1;
        ++row_stuck;
        ++ev.stuck;
        ++(at0 ? ev.sa0 : ev.sa1);
      }
      ev.cells.push_back(e);
    }
    for (; dc != dead_cols.end(); ++dc) ev.cells.push_back({*dc});
    if (model.sa0_rate + model.sa1_rate > 0.0) ev.draws += live;
    if (drifting) ev.draws += live - row_stuck;
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
    if (e.verifies) {  // a retry verified
      ++t.retried;
      return l;
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
      // The clean level is digit s of the encoded weight w + offset: one
      // stored array holds every slice, so a row's events stay in cache.
      const std::uint32_t u =
          static_cast<std::uint32_t>(stored[static_cast<std::size_t>(r * C + c)]) + offset;
      const int l = static_cast<int>(u >> (cell_bits * s) & static_cast<std::uint32_t>(max_level));
      const int out = outcome(e, l, t);
      if (out == l) continue;
      ++t.perturbed;
      wdelta += static_cast<std::int64_t>(out - l) << (cell_bits * s);
      if (patches != nullptr) patches->push_back({at, static_cast<std::uint8_t>(out)});
    }
    t.err_sq += wdelta * wdelta;
    return t;
  };

  std::vector<xbar::LevelPatch>& patches = out.patches;
  std::vector<std::int64_t> identity_err(static_cast<std::size_t>(R));
  Tally chosen;
  for (std::int64_t q = 0; q < R; ++q) {
    const Tally t = row_tally(q, q, &patches);
    identity_err[static_cast<std::size_t>(q)] = t.err_sq;
    chosen += t;
  }
  std::int64_t remapped = 0;

  if (policy.remap_rows && (!dead_rows.empty() || ev.stuck > 0) && R > 1) {
    // Damage proxy per physical row: dead rows are worst; otherwise sum the
    // squared slice significance of every stuck cell on a live column.
    std::vector<double> damage(static_cast<std::size_t>(R), 0.0);
    for (std::int64_t q = 0; q < R; ++q) {
      if (dead_row[static_cast<std::size_t>(q)] != 0) {
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
    // Logical-row importance: the encoded magnitude Σ (w + offset)², exactly
    // the error a dead row costs and a faithful proxy for stuck-at-0 damage.
    // It depends on the clean weights only, so the crossbar computes it once.
    const std::span<const double> importance = clean.encoded_row_power();
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
  out.draws = ev.draws;
  return out;
}

}  // namespace

xbar::LogicalXbar repair_faults(const xbar::LogicalXbar& clean, const FaultDraw& draw,
                                const RepairPolicy& policy, RepairReport* report) {
  policy.validate();
  RED_EXPECTS_MSG(clean.rows() == draw.rows && clean.phys_cols() == draw.phys_cols,
                  "a fault draw repairs the crossbar it was drawn on");
  RED_EXPECTS_MSG(draw.covers(policy), "the fault draw was made for smaller repair budgets");
  if (!draw.model.enabled()) {
    // A bit-exact copy: the zero-rate path of a campaign must be
    // indistinguishable from the fault-free oracle.
    RepairReport rep;
    rep.cells = clean.rows() * clean.phys_cols();
    xbar::VariationStats vstats;
    vstats.cells = rep.cells;
    if (report != nullptr) *report = rep;
    return xbar::LogicalXbar(clean, std::span<const xbar::LevelPatch>{}, vstats);
  }
  // The repair's event lists are freed here, before the copy: a lane never
  // holds both.
  const Repair r = clean.visit_stored_weights(
      [&](auto stored) { return plan_repair(clean, stored, draw, policy); });
  if (report != nullptr) *report = r.report;
  if (auto* m = telemetry::metrics())
    m->counter("fault.rng_draws")->add(static_cast<std::uint64_t>(r.draws));
  return xbar::LogicalXbar(clean, r.patches, r.vstats);
}

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
