// Scale-ladder regression tests (ctest label: scale).
//
// Three gates keep the Internet-scale work honest:
//
//  * Behavior: the 256-domain converged-RIB, path and tree digests are
//    pinned to the values committed in BENCH_macro.json. The arena RIB,
//    route interning, flat target lists and incremental path maintenance
//    are all pure storage / observation changes — drift in RNG draws or
//    message economy flips rib_digest, and a tie broken toward a
//    different neighbour, which rib_digest cannot see, flips the other
//    two. The scheduler's work is pinned exactly too: events run,
//    messages sent and deliveries batched inline. A delivery-batching
//    guard off by one seq keeps every digest and moves events_run by
//    0.6%, inside the 25% that macro_scenario --check allows.
//  * Attribution: at 256 domains the exact per-domain counters add up to
//    the scalar counters they break down.
//  * Memory: a 1k-domain smoke run (capped ladder shape) must keep
//    core.state_bytes_per_domain under a committed budget, so state that
//    silently grows superlinearly fails here before the 10k CI rung.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

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
/// eval::path_digest and eval::tree_digest of the same run. Both moved,
/// and the three counters below with them, when a BGP speaker began to
/// send one update batch per drain instead of one per received update:
/// merged updates change arrival order, and a tie between equal routes
/// goes to the first arrival. rib_digest did not move.
constexpr std::uint64_t kPathDigest256 = 5643169710173232335ULL;
constexpr std::uint64_t kTreeDigest256 = 5064287289737542965ULL;
/// events_run, messages_sent and deliveries_batched of the same run.
constexpr std::uint64_t kEventsRun256 = 37721;
constexpr std::uint64_t kMessagesSent256 = 49902;
constexpr std::uint64_t kDeliveriesBatched256 = 13649;

/// Per-domain routing-state budget for the capped 1k rung. Measured at
/// 26,249 B/domain with the unicast view and the G-RIB on flat prefix
/// maps of 16-byte slots and 28-byte candidate slots (37,376 B with the
/// 48-byte candidate and 20-byte map slots they replaced, which fails
/// this budget). The margin allows allocator and capacity jitter.
constexpr double kStateBytesBudget1k = 32.0 * 1024.0;

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
  std::uint64_t path_digest = 0;
  std::uint64_t tree_digest = 0;
  std::uint64_t events_run = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t deliveries_batched = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_sent_by_domain = 0;  // sum of the per-AS values
  std::uint64_t delivered = 0;
  std::uint64_t delivered_by_domain = 0;     // sum of the per-domain values
  double state_bytes_per_domain = 0.0;
};

/// Sums the per-key values of a sharded instrument one key at a time.
std::uint64_t sum_of_keys(const obs::Snapshot& snap, std::string_view name) {
  const obs::ShardedSample* sample = snap.find_sharded(name);
  if (sample == nullptr) return 0;
  std::uint64_t sum = 0;
  for (std::uint64_t key = 0; key < sample->values.size(); ++key) {
    sum += sample->value(key);
  }
  return sum;
}

RunResult run_ladder_rung(const ScenarioSpec& spec) {
  core::Internet net(spec.seed);
  const BuiltScenario topo = build_scenario(net, spec);
  phase_claim(net, topo);
  net::Rng rng = make_workload_rng(spec.seed);
  (void)phase_groups(net, spec, topo, rng);
  phase_flap(net, spec, topo);
  const obs::Snapshot snap = net.metrics_snapshot();
  RunResult r;
  r.state_bytes_per_domain = snap.gauge_value("core.state_bytes_per_domain");
  r.events_run = net.events().events_run();
  r.messages_sent = snap.counter_value("net.messages_sent");
  r.deliveries_batched = snap.counter_value("net.deliveries_batched");
  r.updates_sent = snap.counter_value("bgp.updates_sent");
  r.updates_sent_by_domain = sum_of_keys(snap, "bgp.updates_sent.by_domain");
  r.delivered = snap.counter_value("net.messages_delivered");
  r.delivered_by_domain = sum_of_keys(snap, "net.messages_delivered.by_domain");
  r.digest = rib_digest(net);
  r.path_digest = path_digest(net);
  r.tree_digest = tree_digest(net);
  return r;
}

TEST(ScaleLadder, Digest256MatchesCommittedBaseline) {
  const RunResult r = run_ladder_rung(ladder_spec(256));
  EXPECT_EQ(r.digest, kDigest256);
  EXPECT_EQ(r.path_digest, kPathDigest256);
  EXPECT_EQ(r.tree_digest, kTreeDigest256);
  EXPECT_EQ(r.events_run, kEventsRun256);
  EXPECT_EQ(r.messages_sent, kMessagesSent256);
  EXPECT_EQ(r.deliveries_batched, kDeliveriesBatched256);
  EXPECT_GT(r.state_bytes_per_domain, 0.0);
}

TEST(ScaleLadder, PerDomainCountsAddUpAt256) {
  // Per-domain attribution is exact: at 256 domains every domain sends and
  // receives, and the per-key values still add up to the scalar counters
  // they break down.
  const RunResult r = run_ladder_rung(ladder_spec(256));
  EXPECT_GT(r.updates_sent, 0u);
  EXPECT_EQ(r.updates_sent_by_domain, r.updates_sent);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_EQ(r.delivered_by_domain, r.delivered);
}

TEST(ScaleLadder, Smoke1kStaysUnderStateBudget) {
  const RunResult r = run_ladder_rung(ladder_spec(1024));
  ASSERT_GT(r.state_bytes_per_domain, 0.0);
  EXPECT_LT(r.state_bytes_per_domain, kStateBytesBudget1k);
}

}  // namespace
}  // namespace eval
