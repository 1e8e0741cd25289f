// The aggregate member-count engine.
//
// State is a sparse matrix of member counts over (group, domain-slot)
// cells. One tick() draws, per group in rank order, a Poisson number of
// joins (rate = arrivals × zipf weight × diurnal × flash) and a Poisson
// number of leaves (rate = current members / mean lifetime), placing
// joins uniformly over the group's domain-affinity span and removing
// leaves uniformly over current members (one member count per 16-slot
// block, beside the per-cell counts, finds the member's slot with a scan
// of blocks and then cells). Every 0↔nonzero cell transition is reported
// to the observer in draw order — that is where the session layer fires
// the real BGMP join/prune — and updates the cell's domain's aggregate
// tree-edge load rate (packets/tick × hops to the group root, integers
// throughout so the differential oracle can demand exact equality).
//
// The engine is deliberately free of any core::Internet dependency: it is
// a pure function of {seed, Spec, domain_count, roots} plus the injected
// hops callback. That keeps the brute-force oracle honest (same inputs,
// independent state evolution) and lets bench/micro_core time a bare tick
// at 10k domains × 2.5k groups without building a network.
//
// Determinism: all randomness flows through the engine's own primitives
// (u01 / poisson / draw_index below) over net::Mt64, which yields the
// standard library's mt19937_64 stream for every seed — no
// std::*_distribution, whose draw counts vary across standard libraries.
// The engine draws its counts with sample_poisson, which returns the
// reference poisson's count and draws for any libm within 1 ulp. The
// only platform dependence left is libm rounding in log/sin; ticks run
// between event-queue runs, so same-seed reruns are byte-identical.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "net/rng.hpp"
#include "workload/spec.hpp"

namespace workload {

/// One 0↔nonzero cell transition, in the exact order drawn.
struct Transition {
  std::int64_t tick;
  std::uint32_t group;
  std::uint32_t domain;
  bool up;  ///< true: 0 → nonzero (join the tree); false: nonzero → 0
};

struct TickStats {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t up_transitions = 0;
  std::uint64_t down_transitions = 0;
  std::uint64_t flashes_started = 0;
};

/// A pre-drawn flash crowd: [start_tick, start_tick + duration_ticks)
/// multiplies `group`'s arrival rate by Spec::flash_multiplier.
struct FlashCrowd {
  std::uint32_t group;
  std::int64_t start_tick;
  std::int64_t duration_ticks;
};

class Engine {
 public:
  /// Inter-domain hop count from `group`'s root to `domain` at join time
  /// (0 = unknown/unreachable: the cell then contributes no edge load).
  using HopsFn = std::function<std::uint32_t(std::uint32_t group,
                                             std::uint32_t domain)>;
  using TransitionObserver = std::function<void(const Transition&)>;

  /// `roots[g]` is the domain index hosting group g's root; spans never
  /// place members there (mirroring phase_groups, which skips the
  /// initiator). Requires domain_count >= 2 and roots.size() == groups.
  Engine(const Spec& spec, std::uint32_t domain_count,
         std::vector<std::uint32_t> roots, std::uint64_t seed);

  void set_hops_fn(HopsFn fn) { hops_fn_ = std::move(fn); }
  void set_transition_observer(TransitionObserver fn) {
    observer_ = std::move(fn);
  }

  /// Runs one churn step. Ticks past Spec::ticks() are no-ops.
  TickStats tick();

  // ---- state queries ----------------------------------------------------
  [[nodiscard]] std::int64_t ticks_done() const { return ticks_done_; }
  [[nodiscard]] std::uint64_t members_total() const { return members_total_; }
  [[nodiscard]] std::uint64_t members_peak() const { return members_peak_; }
  [[nodiscard]] std::uint64_t joins_total() const { return joins_total_; }
  [[nodiscard]] std::uint64_t leaves_total() const { return leaves_total_; }
  [[nodiscard]] std::uint64_t up_transitions() const { return ups_; }
  [[nodiscard]] std::uint64_t down_transitions() const { return downs_; }
  [[nodiscard]] std::uint64_t active_cells() const { return active_cells_; }
  [[nodiscard]] std::uint64_t active_groups() const { return active_groups_; }
  [[nodiscard]] std::uint32_t domain_count() const { return domain_count_; }
  [[nodiscard]] std::uint32_t groups() const {
    return static_cast<std::uint32_t>(roots_.size());
  }
  [[nodiscard]] std::uint64_t group_members(std::uint32_t g) const {
    return group_total_[g];
  }
  [[nodiscard]] std::uint64_t members_in_domain(std::uint32_t d) const {
    return domain_members_[d];
  }
  [[nodiscard]] const std::vector<std::uint64_t>& members_by_domain() const {
    return domain_members_;
  }
  [[nodiscard]] const std::vector<FlashCrowd>& flashes() const {
    return flashes_;
  }

  /// FNV-1a over the full count state plus the event totals — the value
  /// the determinism tests compare across same-seed reruns.
  [[nodiscard]] std::uint64_t digest() const;

  /// Flushes the lazy per-domain load accumulators up to ticks_done() and
  /// visits every domain with a nonzero accumulated delta (packet-hops,
  /// exact integers), then zeroes them. Repeated calls partition the
  /// totals: the sum over all drains equals the oracle's per-tick sum.
  void drain_loads(
      const std::function<void(std::uint32_t domain, std::uint64_t delta)>&
          visit);

  // ---- the shared process definition ------------------------------------
  // The oracle reference model reuses these so the *inputs* of both state
  // machines agree by construction; the state evolution (block-sum sampling
  // and lazy load accounting vs brute-force scans) is what differs. tick()
  // itself gets flash_factor's product for every group from one walk of the
  // tick's active flashes.
  [[nodiscard]] double group_weight(std::uint32_t g) const {
    return weights_[g];
  }
  [[nodiscard]] double diurnal_factor(std::int64_t tick) const;
  [[nodiscard]] double flash_factor(std::uint32_t g, std::int64_t tick) const;
  [[nodiscard]] std::uint32_t span_of(std::uint32_t g) const {
    return spans_[g];
  }
  [[nodiscard]] std::uint32_t slot_domain(std::uint32_t g,
                                          std::uint32_t slot) const;
  [[nodiscard]] std::uint64_t packets_per_tick(std::uint32_t g) const {
    return packets_per_tick_[g];
  }

  // The primitives are templates on the generator so that the oracle
  // replays the engine's draws from the standard library's mt19937_64, an
  // independent implementation of the same stream.

  /// Uniform double in [0, 1) — 53 bits straight off the engine.
  template <typename Gen>
  [[nodiscard]] static double u01(Gen& rng) {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  }
  /// Poisson(lambda) by exponential inter-arrival summation: O(lambda)
  /// draws, no std::poisson_distribution (draw counts there are
  /// implementation-defined, which would break the oracle's shared
  /// stream). This is the reference: it defines every count and draw.
  template <typename Gen>
  [[nodiscard]] static std::uint64_t poisson(Gen& rng, double lambda) {
    if (lambda <= 0.0) return 0;
    return poisson_from(rng, lambda, 0, -std::log(1.0 - u01(rng)));
  }
  /// The reference's count and draws at one exp per call instead of one
  /// log per arrival: the running product of the (1 − u) values,
  /// P_j = fl(P_{j-1} · v_j), against T = fl(exp(−lambda)) stands in for
  /// the reference's partial sum A_j of −log(v_i) against lambda, since
  /// A_j ≤ lambda iff Π v_i ≥ exp(−lambda) in exact arithmetic.
  ///
  /// The margin. Let u = 2^-53, γ_n = n·u / (1 − n·u), S_j = Σ −ln v_i
  /// exactly, and j the number of draws so far. v_i = 1 − u_i is exact.
  /// log and exp are within 1 ulp (relative 2u), and each sum and product
  /// step rounds once (relative u), so with nonnegative terms
  ///   |A_j − S_j| ≤ γ_{j+1}·S_j,   P_j = e^{−S_j}·(1 + θ), |θ| ≤ γ_{j−1},
  ///   T = e^{−lambda}·(1 + τ), |τ| ≤ 2u.
  /// Take m = 2·γ_{j+2}·(lambda + 1) and γ = γ_{j+2}; m ≤ 1 for any j
  /// below 10^12, so ln(1 + m) ≥ m/2. If P_j ≥ T·(1 + m),
  /// then lambda − S_j ≥ ln(1 + m) − γ ≥ γ·lambda ≥ 0, so
  /// A_j ≤ S_j + γ·S_j ≤ lambda: the reference draws again. If
  /// P_j ≤ T·(1 − m), then S_j − lambda ≥ m − 2γ = 2γ·lambda, so
  /// A_j ≥ (1 − γ)(1 + 2γ)·lambda > lambda: the reference stops. The code
  /// widens the band to 4·(j + 2)·u·(lambda + 1)·T, which covers m·T and
  /// the three roundings of the band itself; P_j − T is exact where it
  /// could matter (Sterbenz: T/2 ≤ P_j ≤ 2T). A step inside the band sums
  /// the saved v_i exactly as the reference does and finishes the call
  /// with the reference loop, so the count and the draws are the
  /// reference's in every case.
  ///
  /// lambda > kProductMaxLambda takes the reference loop outright. Below
  /// it every P_j stays normal: a step that continues had P_{j-1} ≥ T ≥
  /// e^{-600}, and v_j ≥ 2^-53, so P_j ≥ 2^-919 (exp(−lambda)·2^-53
  /// leaves the normal range near lambda = 672). `scratch` holds the v_i
  /// of the current call; it belongs to the caller, so concurrent engines
  /// never share it.
  template <typename Gen>
  [[nodiscard]] static std::uint64_t sample_poisson(
      Gen& rng, double lambda, std::vector<double>& scratch) {
    if (lambda <= 0.0) return 0;
    if (!(lambda <= kProductMaxLambda)) return poisson(rng, lambda);
    const double floor = std::exp(-lambda);
    const double band_unit = floor * (lambda + 1.0) * 0x1.0p-51;  // 4u·…·T
    scratch.clear();
    double product = 1.0;
    double steps = 2.0;  // j + 2 before the first draw (j = 0)
    for (std::uint64_t k = 0;; ++k) {
      const double v = 1.0 - u01(rng);
      scratch.push_back(v);
      product *= v;
      steps += 1.0;
      const double gap = product - floor;
      const double band = band_unit * steps;
      if (gap > band) continue;   // A_j ≤ lambda: one more arrival
      if (gap < -band) return k;  // A_j > lambda: k arrivals
      double acc = -std::log(scratch[0]);
      for (std::size_t i = 1; i < scratch.size(); ++i) {
        acc += -std::log(scratch[i]);
      }
      return poisson_from(rng, lambda, k, acc);
    }
  }
  /// Above this rate sample_poisson runs the reference loop (see there).
  static constexpr double kProductMaxLambda = 600.0;
  /// Uniform index in [0, n) by masked rejection (portable; n >= 1).
  template <typename Gen>
  [[nodiscard]] static std::uint64_t draw_index(Gen& rng, std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("workload: draw_index(0)");
    if (n == 1) return 0;  // no draw: zero-entropy picks must not advance rng
    std::uint64_t mask = n - 1;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    for (;;) {
      const std::uint64_t r = rng() & mask;
      if (r < n) return r;
    }
  }
  /// The seed of the churn stream the engine draws from, for a given
  /// engine seed: a reference model that seeds its own generator with it
  /// replays the identical draw sequence.
  [[nodiscard]] static constexpr std::uint64_t churn_seed(std::uint64_t seed) {
    return seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  }

 private:
  /// The reference loop from its partial sum `acc` after `k` arrivals.
  template <typename Gen>
  [[nodiscard]] static std::uint64_t poisson_from(Gen& rng, double lambda,
                                                  std::uint64_t k,
                                                  double acc) {
    while (acc <= lambda) {
      ++k;
      acc += -std::log(1.0 - u01(rng));
    }
    return k;
  }

  void flush_domain(std::uint32_t d);
  /// Cell (g, slot) of domain `d` went 0 → 1 (cell_up) or 1 → 0
  /// (cell_down): edge load, transition counters, the observer. Kept out
  /// of tick()'s member loops, which reach them once per transition.
  void cell_up(std::uint32_t g, std::uint32_t slot, std::uint32_t d);
  void cell_down(std::uint32_t g, std::uint32_t slot, std::uint32_t d);
  /// The slot holding the (k+1)-th member of a group in slot order, given
  /// its block and cell counts: the first slot whose prefix sum exceeds k.
  /// Requires k below the group's total.
  [[nodiscard]] static std::uint32_t find_member_slot(
      const std::uint32_t* blocks, const std::uint32_t* cells,
      std::uint64_t k);

  Spec spec_;
  std::uint32_t domain_count_;
  std::vector<std::uint32_t> roots_;
  net::Mt64 churn_rng_;

  // Per-group derived process parameters.
  std::vector<double> weights_;              // normalized zipf
  std::vector<std::uint32_t> spans_;         // domain-affinity span
  std::vector<std::uint32_t> offsets_;       // span window start
  std::vector<std::uint64_t> packets_per_tick_;
  std::vector<FlashCrowd> flashes_;          // sorted by start_tick

  // Cell state, flattened per group at cell_base_[g]; block b of group g
  // sums the counts of its slots [b * kBlockSlots, (b + 1) * kBlockSlots).
  static constexpr std::uint32_t kBlockSlots = 16;
  std::vector<std::size_t> cell_base_;       // groups + 1 entries
  std::vector<std::uint32_t> counts_;        // members per cell
  std::vector<std::size_t> block_base_;      // groups + 1 entries
  std::vector<std::uint32_t> block_counts_;  // members per block
  std::vector<std::uint32_t> hops_;          // cached hops while nonzero
  std::vector<std::uint64_t> group_total_;
  std::vector<double> poisson_scratch_;     // sample_poisson's (1 − u) values

  // Per-domain aggregates.
  std::vector<std::uint64_t> domain_members_;
  std::vector<std::uint64_t> load_rate_;     // packet-hops per tick
  std::vector<std::uint64_t> load_acc_;      // flushed packet-hops
  std::vector<std::int64_t> load_flushed_at_;

  std::int64_t ticks_done_ = 0;
  std::uint64_t members_total_ = 0;
  std::uint64_t members_peak_ = 0;
  std::uint64_t joins_total_ = 0;
  std::uint64_t leaves_total_ = 0;
  std::uint64_t ups_ = 0;
  std::uint64_t downs_ = 0;
  std::uint64_t active_cells_ = 0;
  std::uint64_t active_groups_ = 0;

  HopsFn hops_fn_;
  TransitionObserver observer_;
};

}  // namespace workload
