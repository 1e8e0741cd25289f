// Scale-ladder regression tests (ctest label: scale).
//
// Two gates keep the Internet-scale work honest:
//
//  * Behavior: the 256-domain converged-RIB digest is pinned to the value
//    committed in BENCH_macro.json. The arena RIB, route interning, flat
//    target lists and incremental path maintenance are all pure storage /
//    observation changes — any drift in decision order, RNG draws or
//    message economy flips this digest.
//  * Memory: a 1k-domain smoke run (capped ladder shape) must keep
//    core.state_bytes_per_domain under a committed budget, so state that
//    silently grows superlinearly fails here before the 10k CI rung.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/internet.hpp"
#include "eval/scenario.hpp"
#include "net/rng.hpp"

namespace eval {
namespace {

/// The committed 256-domain digest (BENCH_macro.json, seed 1). Moved
/// once, when arming a link-direction drain timer at the current
/// timestamp started always taking a fresh seq (Network::arm_direction):
/// same-instant drains re-ordered and the whole ladder was re-baselined.
constexpr std::uint64_t kDigest256 = 8763681109611083281ULL;

/// Per-domain routing-state budget for the capped 1k rung. Measured at
/// 67,833 B/domain with flat prefix maps under the RIBs and Adj-RIB-Out,
/// against 107,521 B with trie-backed tables: the margin allows allocator
/// and capacity jitter, and a return to the trie fails the test.
constexpr double kStateBytesBudget1k = 80.0 * 1024.0;

ScenarioSpec ladder_spec(int domains) {
  ScenarioSpec spec;
  spec.domains = domains;
  spec.groups = 128;
  spec.joins = 4;
  spec.seed = 1;
  if (domains > 512) {  // the >512 rungs cap shape (see eval/scenario.hpp)
    spec.max_tops = 64;
    spec.active_children = 256;
    spec.flap_pairs = 2;
  }
  return spec;
}

struct RunResult {
  std::uint64_t digest = 0;
  double state_bytes_per_domain = 0.0;
};

RunResult run_ladder_rung(const ScenarioSpec& spec) {
  core::Internet net(spec.seed);
  const BuiltScenario topo = build_scenario(net, spec);
  phase_claim(net, topo);
  net::Rng rng = make_workload_rng(spec.seed);
  (void)phase_groups(net, spec, topo, rng);
  phase_flap(net, spec, topo);
  RunResult r;
  r.state_bytes_per_domain =
      net.metrics_snapshot().gauge_value("core.state_bytes_per_domain");
  r.digest = rib_digest(net);
  return r;
}

TEST(ScaleLadder, Digest256MatchesCommittedBaseline) {
  const RunResult r = run_ladder_rung(ladder_spec(256));
  EXPECT_EQ(r.digest, kDigest256);
  EXPECT_GT(r.state_bytes_per_domain, 0.0);
}

TEST(ScaleLadder, Smoke1kStaysUnderStateBudget) {
  const RunResult r = run_ladder_rung(ladder_spec(1024));
  ASSERT_GT(r.state_bytes_per_domain, 0.0);
  EXPECT_LT(r.state_bytes_per_domain, kStateBytesBudget1k);
}

}  // namespace
}  // namespace eval
