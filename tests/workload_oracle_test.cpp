// Differential oracle for the workload engine (src/workload/engine.hpp).
//
// The engine evolves member counts with per-block sums for leave
// sampling and lazy per-domain load accumulators; the reference model
// here replays the SAME {seed, spec} with the dumbest possible state —
// plain per-cell vectors, linear scans, per-tick load summation. Both
// consume one canonical draw sequence (the churn stream seeded with
// Engine::churn_seed, the engine's own poisson/draw_index primitives,
// groups in rank order, joins before leaves), so after any number of
// ticks every observable must agree EXACTLY: per-domain member counts,
// per-group totals, the full 0↔nonzero transition sequence in draw
// order, and the per-domain tree-edge load totals (integers — no
// tolerance). The engine draws from net::Mt64 and the reference from
// std::mt19937_64, so the grid also checks that the two generators
// agree.
//
// The engine draws its Poisson counts with Engine::sample_poisson, a
// running product that falls back on the reference sum only where
// rounding could make the two disagree; the sampler half demands the
// reference Engine::poisson's count and generator state after each of
// over a million calls, on a grid of rates, outside the product's range
// and at rates chosen to land inside the rounding band.
//
// The statistical half checks the processes themselves: the Zipf
// rank-frequency slope of realized joins matches -zipf_alpha, and total
// arrivals match the configured Poisson rate (diurnal and flash
// disabled, so the mean is exact).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "net/rng.hpp"
#include "workload/engine.hpp"
#include "workload/spec.hpp"

namespace workload {
namespace {

// The synthetic topology both sides query at 0→1 transitions. Zero for
// some (group, domain) pairs, so the no-load path is exercised too.
std::uint32_t synthetic_hops(std::uint32_t g, std::uint32_t d) {
  return (g + 2 * d) % 5;
}

struct RefTransition {
  std::int64_t tick;
  std::uint32_t group;
  std::uint32_t domain;
  bool up;

  bool operator==(const RefTransition&) const = default;
};

/// The brute-force reference: same inputs, independent state evolution.
/// Process parameters (weights, spans, slot→domain mapping, flash
/// schedule, packet budgets) are read from a const Engine — that is the
/// shared process *definition*; everything the engine optimizes (member
/// sampling, load accounting) is recomputed the slow way here.
class RefModel {
 public:
  RefModel(const Spec& spec, const Engine& params, std::uint32_t domains,
           std::uint64_t seed)
      : leaves_by_slot(params.groups()),
        spec_(spec),
        params_(params),
        rng_(Engine::churn_seed(seed)),
        counts_(params.groups()),
        hops_(params.groups()),
        domain_members_(domains, 0),
        edge_load_(domains, 0) {
    for (std::uint32_t g = 0; g < params.groups(); ++g) {
      counts_[g].assign(params.span_of(g), 0);
      hops_[g].assign(params.span_of(g), 0);
      leaves_by_slot[g].assign(params.span_of(g), 0);
    }
  }

  void tick() {
    const double diurnal = params_.diurnal_factor(tick_);
    for (std::uint32_t g = 0; g < params_.groups(); ++g) {
      const double join_rate = spec_.arrivals_per_second *
                               params_.group_weight(g) * diurnal *
                               params_.flash_factor(g, tick_) *
                               spec_.tick_seconds;
      const std::uint64_t n_join = Engine::poisson(rng_, join_rate);
      for (std::uint64_t j = 0; j < n_join; ++j) {
        const auto slot = static_cast<std::uint32_t>(
            Engine::draw_index(rng_, params_.span_of(g)));
        join(g, slot);
      }
      std::uint64_t total = 0;
      for (const std::uint64_t c : counts_[g]) total += c;
      const double leave_rate = static_cast<double>(total) *
                                spec_.tick_seconds /
                                spec_.mean_lifetime_seconds;
      const std::uint64_t n_leave =
          std::min<std::uint64_t>(total, Engine::poisson(rng_, leave_rate));
      for (std::uint64_t j = 0; j < n_leave; ++j) {
        std::uint64_t k = Engine::draw_index(rng_, total);
        // Linear scan: the k-th member in slot order.
        std::uint32_t slot = 0;
        while (k >= counts_[g][slot]) {
          k -= counts_[g][slot];
          ++slot;
        }
        leave(g, slot);
        --total;
      }
    }
    ++tick_;
    // Per-tick load: every cell nonzero AFTER this tick's churn carries
    // its packet budget × the hops cached at its latest 0→1 transition.
    // (A cell that went to zero this tick contributes nothing — exactly
    // the engine's flush-at-transition semantics.)
    for (std::uint32_t g = 0; g < params_.groups(); ++g) {
      for (std::uint32_t slot = 0; slot < counts_[g].size(); ++slot) {
        if (counts_[g][slot] != 0 && hops_[g][slot] != 0) {
          edge_load_[params_.slot_domain(g, slot)] +=
              params_.packets_per_tick(g) * hops_[g][slot];
        }
      }
    }
  }

  std::uint64_t members = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::vector<RefTransition> transitions;
  std::vector<std::vector<std::uint64_t>> leaves_by_slot;  // [group][slot]

  [[nodiscard]] const std::vector<std::uint64_t>& domain_members() const {
    return domain_members_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& edge_load() const {
    return edge_load_;
  }
  [[nodiscard]] std::uint64_t group_total(std::uint32_t g) const {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_[g]) total += c;
    return total;
  }

 private:
  void join(std::uint32_t g, std::uint32_t slot) {
    const std::uint32_t d = params_.slot_domain(g, slot);
    if (counts_[g][slot]++ == 0) {
      hops_[g][slot] = synthetic_hops(g, d);
      transitions.push_back({tick_, g, d, true});
    }
    ++domain_members_[d];
    ++members;
    ++joins;
  }

  void leave(std::uint32_t g, std::uint32_t slot) {
    const std::uint32_t d = params_.slot_domain(g, slot);
    if (--counts_[g][slot] == 0) {
      hops_[g][slot] = 0;
      transitions.push_back({tick_, g, d, false});
    }
    --domain_members_[d];
    --members;
    ++leaves;
    ++leaves_by_slot[g][slot];
  }

  Spec spec_;
  const Engine& params_;
  std::mt19937_64 rng_;
  std::vector<std::vector<std::uint64_t>> counts_;
  std::vector<std::vector<std::uint32_t>> hops_;
  std::vector<std::uint64_t> domain_members_;
  std::vector<std::uint64_t> edge_load_;
  std::int64_t tick_ = 0;
};

Spec oracle_spec() {
  Spec spec;
  spec.enabled = true;
  spec.groups = 24;
  spec.zipf_alpha = 0.8;
  spec.arrivals_per_second = 2.0;
  spec.mean_lifetime_seconds = 900.0;
  spec.tick_seconds = 60.0;
  spec.sim_days = 72.0 * 60.0 / 86400.0;  // 72 ticks
  spec.diurnal_amplitude = 0.5;
  spec.flash_crowds = 3;
  spec.flash_multiplier = 6.0;
  spec.flash_duration_seconds = 600.0;
  spec.span_base = 12;
  spec.span_alpha = 0.7;
  spec.packets_per_second = 2.5;
  return spec;
}

// ------------------------------------------------- the differential grid

/// Ticks an engine and the reference model side by side over the whole
/// horizon and checks that every observable agrees. Hands back the
/// reference's leaves per (group, slot) through `leaves_by_slot`, so
/// callers can check where the leaves landed.
void expect_replay_matches(
    const Spec& spec, std::uint32_t domains,
    const std::vector<std::uint32_t>& roots, std::uint64_t seed,
    std::vector<std::vector<std::uint64_t>>* leaves_by_slot = nullptr) {
  Engine engine(spec, domains, roots, seed);
  engine.set_hops_fn(synthetic_hops);
  std::vector<RefTransition> engine_transitions;
  engine.set_transition_observer([&](const Transition& t) {
    engine_transitions.push_back({t.tick, t.group, t.domain, t.up});
  });

  RefModel ref(spec, engine, domains, seed);

  std::vector<std::uint64_t> engine_load(domains, 0);
  for (std::int64_t i = 0; i < spec.ticks(); ++i) {
    engine.tick();
    ref.tick();
    // Mid-run checkpoints: drains partition the totals, so draining at
    // arbitrary points must not change the per-domain sums.
    if (i == spec.ticks() / 3 || i == spec.ticks() - 1) {
      engine.drain_loads(
          [&](std::uint32_t d, std::uint64_t delta) { engine_load[d] += delta; });
      ASSERT_EQ(ref.members, engine.members_total()) << "tick " << i;
      for (std::uint32_t d = 0; d < domains; ++d) {
        ASSERT_EQ(ref.domain_members()[d], engine.members_in_domain(d))
            << "tick " << i << " domain " << d;
        ASSERT_EQ(ref.edge_load()[d], engine_load[d])
            << "tick " << i << " domain " << d;
      }
    }
  }

  EXPECT_EQ(ref.members, engine.members_total());
  EXPECT_EQ(ref.joins, engine.joins_total());
  EXPECT_EQ(ref.leaves, engine.leaves_total());
  for (std::uint32_t g = 0; g < engine.groups(); ++g) {
    EXPECT_EQ(ref.group_total(g), engine.group_members(g)) << "group " << g;
  }

  // The exact transition sequence, in draw order — this is the sequence
  // the session layer turns into real BGMP joins/prunes.
  ASSERT_EQ(ref.transitions.size(), engine_transitions.size());
  for (std::size_t i = 0; i < ref.transitions.size(); ++i) {
    EXPECT_EQ(ref.transitions[i], engine_transitions[i]) << "transition " << i;
  }
  std::uint64_t ups = 0;
  std::uint64_t downs = 0;
  for (const RefTransition& t : ref.transitions) (t.up ? ups : downs)++;
  EXPECT_EQ(ups, engine.up_transitions());
  EXPECT_EQ(downs, engine.down_transitions());
  EXPECT_EQ(ups - downs, engine.active_cells());

  // Bookkeeping invariants on the engine's own aggregates.
  std::uint64_t by_domain = 0;
  for (std::uint32_t d = 0; d < domains; ++d) {
    by_domain += engine.members_in_domain(d);
  }
  EXPECT_EQ(by_domain, engine.members_total());

  // Two engines from the same inputs agree bit-for-bit.
  Engine twin(spec, domains, roots, seed);
  twin.set_hops_fn(synthetic_hops);
  for (std::int64_t i = 0; i < spec.ticks(); ++i) twin.tick();
  EXPECT_EQ(twin.digest(), engine.digest());
  if (leaves_by_slot != nullptr) *leaves_by_slot = ref.leaves_by_slot;
}

class WorkloadOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadOracle, EngineMatchesBruteForceReplayExactly) {
  const std::uint64_t seed = GetParam();
  const Spec spec = oracle_spec();
  // Seed-varied topology size, roots spread over the domains.
  const std::uint32_t domains = 24 + static_cast<std::uint32_t>(seed % 3) * 16;
  std::vector<std::uint32_t> roots;
  for (int g = 0; g < spec.groups; ++g) {
    roots.push_back(static_cast<std::uint32_t>((g * 7 + seed) % domains));
  }
  expect_replay_matches(spec, domains, roots, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadOracle,
                         ::testing::Range<std::uint64_t>(1, 17));

// Every group spans GetParam() slots. The engine finds a leaving member
// by scanning 16-slot blocks and then cells, so spans that stop short of,
// at and just past a block edge, and one of 1023 slots (64 blocks, the
// last holding 15), must replay exactly too, with leaves drawn from the
// last block.
class WorkloadBlocks : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WorkloadBlocks, SpanEdgesMatchBruteForceReplay) {
  const std::uint32_t span = GetParam();
  Spec spec = oracle_spec();
  spec.groups = 4;
  spec.span_base = static_cast<int>(span);
  spec.span_alpha = 0.0;  // every group spans span_base slots
  const std::uint32_t domains = 1024;  // 1023 eligible slots per group
  const std::vector<std::uint32_t> roots = {0, 5, 511, 1023};

  std::vector<std::vector<std::uint64_t>> leaves;
  expect_replay_matches(spec, domains, roots, /*seed=*/3, &leaves);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_EQ(leaves.size(), 4u);
  std::uint64_t last_block_leaves = 0;
  for (const std::vector<std::uint64_t>& by_slot : leaves) {
    ASSERT_EQ(by_slot.size(), span);
    for (std::uint32_t slot = (span - 1) / 16 * 16; slot < span; ++slot) {
      last_block_leaves += by_slot[slot];
    }
  }
  EXPECT_GT(last_block_leaves, 0u);
}

INSTANTIATE_TEST_SUITE_P(Spans, WorkloadBlocks,
                         ::testing::Values(1u, 15u, 16u, 17u, 1023u));

// ------------------------------------------------------ the Poisson sampler

/// One generator per side from the same seed: after every call the
/// engine's sampler must return the reference's count and leave its
/// generator in the reference's state, i.e. have made the same draws.
class SamplerPair {
 public:
  explicit SamplerPair(std::uint64_t seed) : reference_(seed), sampler_(seed) {}
  explicit SamplerPair(const net::Mt64& state)
      : reference_(state), sampler_(state) {}

  ::testing::AssertionResult draw(double lambda) {
    ++calls_;
    const std::uint64_t want = Engine::poisson(reference_, lambda);
    const std::uint64_t got =
        Engine::sample_poisson(sampler_, lambda, scratch_);
    if (got != want) {
      return ::testing::AssertionFailure()
             << "lambda " << lambda << ": count " << got << ", reference "
             << want;
    }
    if (!(sampler_ == reference_)) {
      return ::testing::AssertionFailure()
             << "lambda " << lambda << ": generator state differs";
    }
    return ::testing::AssertionSuccess();
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  net::Mt64 reference_;
  net::Mt64 sampler_;
  std::vector<double> scratch_;
  std::uint64_t calls_ = 0;
};

TEST(WorkloadSampler, MatchesReferenceOnALogGridOfRates) {
  // 65 rates from 1e-9 to the product cap, log-spaced, cycled 1000 times
  // along one stream per seed over 16 seeds: 1,040,000 calls.
  std::vector<double> rates;
  constexpr int kPoints = 64;
  for (int i = 0; i < kPoints; ++i) {
    rates.push_back(1e-9 * std::pow(Engine::kProductMaxLambda / 1e-9,
                                    static_cast<double>(i) / kPoints));
  }
  rates.push_back(Engine::kProductMaxLambda);
  std::uint64_t calls = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SamplerPair pair(seed);
    for (int sweep = 0; sweep < 1000; ++sweep) {
      for (const double lambda : rates) {
        ASSERT_TRUE(pair.draw(lambda)) << "seed " << seed;
      }
    }
    calls += pair.calls();
  }
  EXPECT_GE(calls, 1'000'000u);
}

TEST(WorkloadSampler, MatchesReferenceOutsideTheProductRange) {
  // Rates at or below zero draw nothing; rates above the cap (and NaN)
  // take the reference loop itself.
  const double cap = Engine::kProductMaxLambda;
  const std::vector<double> rates = {
      0.0, -0.0, -1e-300, -1.0, -std::numeric_limits<double>::infinity(),
      std::nextafter(cap, 2 * cap), cap + 0.5, cap + 1.0, 700.0, 1000.0,
      std::numeric_limits<double>::quiet_NaN()};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SamplerPair pair(seed);
    for (int sweep = 0; sweep < 50; ++sweep) {
      for (const double lambda : rates) {
        ASSERT_TRUE(pair.draw(lambda)) << "seed " << seed;
      }
    }
  }
  net::Mt64 a(5);
  const net::Mt64 b(5);
  std::vector<double> scratch;
  EXPECT_EQ(Engine::sample_poisson(a, -3.0, scratch), 0u);
  EXPECT_EQ(a, b) << "a rate <= 0 advanced the generator";
}

TEST(WorkloadSampler, MatchesReferenceWhenTheRateIsAPartialSum) {
  // A rate equal to the reference's own partial sum A_j (replayed from
  // the same state), or one ulp either side of it, puts step j inside the
  // rounding band: the product cannot tell A_j <= lambda from
  // A_j > lambda, and only the recomputed reference sum decides right.
  std::uint64_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    net::Mt64 stream(seed);
    for (int round = 0; round < 200; ++round) {
      const int j = 1 + (round * 37 + static_cast<int>(seed)) % 700;
      // The reference's partial sums from the current state, exactly as
      // Engine::poisson accumulates them.
      net::Mt64 replay = stream;
      double acc = -std::log(1.0 - Engine::u01(replay));
      double lambda = acc;
      for (int step = 1; step < j; ++step) {
        acc += -std::log(1.0 - Engine::u01(replay));
        if (acc > Engine::kProductMaxLambda) break;
        lambda = acc;
      }
      for (const double rate :
           {lambda, std::nextafter(lambda, 0.0),
            std::nextafter(lambda, Engine::kProductMaxLambda)}) {
        if (rate <= 0.0) continue;
        SamplerPair pair(stream);
        ASSERT_TRUE(pair.draw(rate))
            << "seed " << seed << " round " << round << " j " << j;
        ++cases;
      }
      (void)stream();  // move on to a fresh stretch of the stream
    }
  }
  EXPECT_GE(cases, 9000u);
}

// ------------------------------------------------------ process statistics

TEST(WorkloadProcesses, ZipfRankFrequencySlopeMatchesAlpha) {
  // High-rate, leave-free, unmodulated run: realized joins per group are
  // proportional to the Zipf weights, so the log-log rank-frequency
  // slope over the popular ranks must recover -alpha.
  Spec spec;
  spec.enabled = true;
  spec.groups = 64;
  spec.zipf_alpha = 0.8;
  spec.arrivals_per_second = 100.0;
  spec.mean_lifetime_seconds = 1.0e12;  // effectively no leaves
  spec.tick_seconds = 60.0;
  spec.sim_days = 120.0 * 60.0 / 86400.0;  // 120 ticks, ~720k joins
  spec.diurnal_amplitude = 0.0;
  spec.flash_crowds = 0;
  spec.span_base = 16;

  std::vector<std::uint32_t> roots(64, 0);
  Engine engine(spec, /*domain_count=*/40, roots, /*seed=*/7);
  for (std::int64_t i = 0; i < spec.ticks(); ++i) engine.tick();

  // Least-squares slope of log(count) on log(rank) over ranks 1..16
  // (each has >= ~8k samples, so Poisson noise is far below the
  // tolerance).
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  const int ranks = 16;
  for (int r = 1; r <= ranks; ++r) {
    const double x = std::log(static_cast<double>(r));
    const double y = std::log(
        static_cast<double>(engine.group_members(static_cast<std::uint32_t>(r - 1))));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = ranks;
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(slope, -spec.zipf_alpha, 0.1)
      << "rank-frequency slope should recover -zipf_alpha";
}

TEST(WorkloadProcesses, PoissonArrivalTotalsMatchConfiguredRate) {
  // Same unmodulated setup: total joins over the horizon estimate
  // arrivals_per_second x horizon with relative sd ~ 1/sqrt(720k).
  Spec spec;
  spec.enabled = true;
  spec.groups = 64;
  spec.arrivals_per_second = 100.0;
  spec.mean_lifetime_seconds = 1.0e12;
  spec.tick_seconds = 60.0;
  spec.sim_days = 120.0 * 60.0 / 86400.0;
  spec.diurnal_amplitude = 0.0;
  spec.flash_crowds = 0;
  spec.span_base = 16;

  std::vector<std::uint32_t> roots(64, 0);
  Engine engine(spec, /*domain_count=*/40, roots, /*seed=*/11);
  for (std::int64_t i = 0; i < spec.ticks(); ++i) engine.tick();

  const double expected =
      spec.arrivals_per_second * spec.tick_seconds * 120.0;
  EXPECT_NEAR(static_cast<double>(engine.joins_total()), expected,
              expected * 0.02);
}

TEST(WorkloadProcesses, PoissonPrimitiveMeanAndVariance) {
  std::mt19937_64 rng(123);
  const double lambda = 5.0;
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double k = static_cast<double>(Engine::poisson(rng, lambda));
    sum += k;
    sum_sq += k * k;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, lambda, 0.1);   // ~6 sigma of the mean estimator
  EXPECT_NEAR(var, lambda, 0.5);    // Poisson: variance == mean
}

TEST(WorkloadProcesses, SingletonDrawConsumesNoEntropy) {
  // draw_index(1) must not advance the stream: a rank whose span is 1
  // would otherwise shift every later draw when spans are re-derived.
  net::Mt64 a(99);
  net::Mt64 b(99);
  EXPECT_EQ(Engine::draw_index(a, 1), 0u);
  EXPECT_EQ(a, b) << "draw_index(1) advanced the generator";
  EXPECT_EQ(a(), b());
}

TEST(WorkloadProcesses, TicksPastTheHorizonAreNoOps) {
  Spec spec = Spec::small();
  spec.groups = 4;
  std::vector<std::uint32_t> roots(4, 0);
  Engine engine(spec, 8, roots, 5);
  for (std::int64_t i = 0; i < spec.ticks(); ++i) engine.tick();
  const std::uint64_t digest = engine.digest();
  const TickStats extra = engine.tick();
  EXPECT_EQ(extra.joins, 0u);
  EXPECT_EQ(extra.leaves, 0u);
  EXPECT_EQ(engine.digest(), digest);
  EXPECT_EQ(engine.ticks_done(), spec.ticks());
}

}  // namespace
}  // namespace workload
