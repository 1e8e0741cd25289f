// Tests for the evaluation models: the four tree-type path-length models
// of Figure 4 (on hand-checked topologies and as ordering properties on
// random graphs) and the Figure-2 MASC allocation simulation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/masc_sim.hpp"
#include "eval/scenario.hpp"
#include "eval/tree_model.hpp"
#include "net/rng.hpp"
#include "obs/metrics.hpp"
#include "topology/generators.hpp"

namespace eval {
namespace {

using topology::Graph;
using topology::NodeId;

// Hand-checked topology:
//
//        0 (root)
//       / .
//      1   2
//      |   |
//      3   4
//       . /
//        5 (source side)
//
Graph hexagon() {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 5);
  g.add_edge(4, 5);
  return g;
}

TEST(TreeModel, ShortestPathLengths) {
  const Graph g = hexagon();
  const TreeModel model(g, {.root = 0, .source = 5, .receivers = {3, 4, 0}});
  EXPECT_EQ(model.path_lengths(TreeType::kShortestPath),
            (std::vector<std::uint32_t>{1, 1, 3}));
}

TEST(TreeModel, UnidirectionalDetoursViaRoot) {
  const Graph g = hexagon();
  const TreeModel model(g, {.root = 0, .source = 5, .receivers = {3, 4}});
  // d(5,0)=3; receiver 3: 3 + d(0,3)=2 → 5; same for 4.
  EXPECT_EQ(model.path_lengths(TreeType::kUnidirectional),
            (std::vector<std::uint32_t>{5, 5}));
}

TEST(TreeModel, BidirectionalEntersTreeEarly) {
  const Graph g = hexagon();
  const TreeModel model(g, {.root = 0, .source = 5, .receivers = {3, 4}});
  // Tree: 3-1-0 and 4-2-0. Source 5's rootward path (via BFS parent)
  // hits the tree at 3 or 4 after one hop.
  const auto lengths = model.path_lengths(TreeType::kBidirectional);
  ASSERT_EQ(lengths.size(), 2u);
  // One receiver is the entry itself (1 hop); the other is across the
  // tree: entry→root→other side = 1 + 2 + 2 = 5.
  EXPECT_EQ(std::min(lengths[0], lengths[1]), 1u);
  EXPECT_EQ(std::max(lengths[0], lengths[1]), 5u);
  EXPECT_LE(model.source_entry(), 4u);
  EXPECT_GE(model.source_entry(), 3u);
}

TEST(TreeModel, HybridBranchesRecoverShortPaths) {
  const Graph g = hexagon();
  const TreeModel model(g, {.root = 0, .source = 5, .receivers = {3, 4}});
  // Both receivers are adjacent to the source: branches make both 1 hop.
  EXPECT_EQ(model.path_lengths(TreeType::kHybrid),
            (std::vector<std::uint32_t>{1, 1}));
}

TEST(TreeModel, SourceOnTreeHasZeroEntryCost) {
  const Graph g = hexagon();
  // Source 1 lies on receiver 3's path to the root.
  const TreeModel model(g, {.root = 0, .source = 1, .receivers = {3}});
  EXPECT_EQ(model.source_entry(), 1u);
  EXPECT_EQ(model.path_lengths(TreeType::kBidirectional),
            (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(model.path_lengths(TreeType::kShortestPath),
            (std::vector<std::uint32_t>{1}));
}

TEST(TreeModel, ReceiverEqualsSourceDomain) {
  const Graph g = hexagon();
  const TreeModel model(g, {.root = 0, .source = 5, .receivers = {5}});
  EXPECT_EQ(model.path_lengths(TreeType::kShortestPath),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(model.path_lengths(TreeType::kHybrid),
            (std::vector<std::uint32_t>{0}));
}

TEST(TreeModel, BranchJoinStopsAtTreeOrSource) {
  const Graph g = hexagon();
  const TreeModel model(g, {.root = 0, .source = 5, .receivers = {3, 4}});
  // Receiver 3 is adjacent to the source: its branch join walk starts at
  // its next hop toward the source — which is the source domain itself
  // (an on-tree receiver still branches past itself, Figure 3(b)).
  EXPECT_EQ(model.branch_join(3), 5u);
  // The source domain itself never branches.
  EXPECT_EQ(model.branch_join(5), 5u);
}

TEST(TreeModel, TreeEdgeCounts) {
  const Graph g = hexagon();
  const TreeModel model(g, {.root = 0, .source = 5, .receivers = {3, 4}});
  // SPT: 5-3, 5-4 → 2 edges.
  EXPECT_EQ(model.tree_edges(TreeType::kShortestPath), 2u);
  // Unidirectional: tree 0-1-3, 0-2-4 (4 edges) + injection path (3).
  EXPECT_EQ(model.tree_edges(TreeType::kUnidirectional), 7u);
  // Bidirectional: same 4 tree edges + 1 entry hop.
  EXPECT_EQ(model.tree_edges(TreeType::kBidirectional), 5u);
}

TEST(TreeModel, RejectsUnreachableReceivers) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(TreeModel(g, {.root = 0, .source = 0, .receivers = {2}}),
               std::invalid_argument);
}

TEST(RatiosVsSpt, ComputesAverageAndMax) {
  const PathLengthRatios r =
      ratios_vs_spt({2, 4, 1}, {4, 4, 3});
  EXPECT_DOUBLE_EQ(r.average, (2.0 + 1.0 + 3.0) / 3.0);
  EXPECT_DOUBLE_EQ(r.maximum, 3.0);
  EXPECT_THROW((void)ratios_vs_spt({1}, {1, 2}), std::invalid_argument);
}

TEST(RatiosVsSpt, ZeroSptGuard) {
  // receiver == source domain: SPT length 0 is clamped to 1.
  const PathLengthRatios r = ratios_vs_spt({0}, {2});
  EXPECT_DOUBLE_EQ(r.maximum, 2.0);
}

// Property: on random AS-like graphs, the tree types obey the dominance
// order SPT <= hybrid <= bidirectional <= unidirectional per receiver.
TEST(TreeModelProperty, DominanceOrderHolds) {
  net::Rng rng(101);
  const Graph g = topology::make_as_level(400, 2, rng);
  for (int trial = 0; trial < 20; ++trial) {
    GroupScenario scenario;
    scenario.root = static_cast<NodeId>(rng.index(g.node_count()));
    scenario.source = static_cast<NodeId>(rng.index(g.node_count()));
    for (int i = 0; i < 30; ++i) {
      scenario.receivers.push_back(
          static_cast<NodeId>(rng.index(g.node_count())));
    }
    const TreeModel model(g, scenario);
    const auto spt = model.path_lengths(TreeType::kShortestPath);
    const auto uni = model.path_lengths(TreeType::kUnidirectional);
    const auto bidir = model.path_lengths(TreeType::kBidirectional);
    const auto hybrid = model.path_lengths(TreeType::kHybrid);
    for (std::size_t i = 0; i < spt.size(); ++i) {
      ASSERT_LE(spt[i], hybrid[i]);
      ASSERT_LE(hybrid[i], bidir[i]);
      ASSERT_LE(bidir[i], uni[i]);
    }
  }
}

// Property: bidirectional paths never exceed twice... they are bounded by
// d(source,root) + d(root,receiver) (they shortcut at the entry/LCA).
TEST(TreeModelProperty, BidirectionalBoundedByRootDetour) {
  net::Rng rng(102);
  const Graph g = topology::make_as_level(300, 2, rng);
  GroupScenario scenario;
  scenario.root = 5;
  scenario.source = 17;
  for (int i = 0; i < 50; ++i) {
    scenario.receivers.push_back(
        static_cast<NodeId>(rng.index(g.node_count())));
  }
  const TreeModel model(g, scenario);
  const auto bidir = model.path_lengths(TreeType::kBidirectional);
  const auto uni = model.path_lengths(TreeType::kUnidirectional);
  for (std::size_t i = 0; i < bidir.size(); ++i) {
    ASSERT_LE(bidir[i], uni[i]);
  }
}


TEST(TrafficConcentration, SharedTreesLoadTreeLinksPerSender) {
  // Line 0-1-2-3 with root 0, members {0, 3}: each of the two senders'
  // packets crosses every tree link once on the bidirectional tree, so
  // the hottest link carries 2; the SPT case is identical here (one path).
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<NodeId> members{0, 3};
  const LinkLoad bidir =
      traffic_concentration(g, 0, members, TreeType::kBidirectional);
  EXPECT_EQ(bidir.max_load, 2);
  EXPECT_EQ(bidir.links_used, 3u);
  const LinkLoad spt =
      traffic_concentration(g, 0, members, TreeType::kShortestPath);
  EXPECT_EQ(spt.max_load, 2);
}

TEST(TrafficConcentration, UnidirectionalConcentratesAtRoot) {
  // Star around root 0 with members on three spokes: every packet goes up
  // to the RP and down all member spokes. A sender's own spoke carries
  // its packet up once and down once (2), and other members' packets once
  // each: max load = 1 (up) + #other members... here members {1,2,3}:
  // each spoke link carries: own send up (1) + every sender's copy down
  // (3, including its own bounced back) = 4.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const std::vector<NodeId> members{1, 2, 3};
  const LinkLoad uni =
      traffic_concentration(g, 0, members, TreeType::kUnidirectional);
  EXPECT_EQ(uni.max_load, 4);
  // Bidirectional flow never bounces at the root: up once, down twice.
  const LinkLoad bidir =
      traffic_concentration(g, 0, members, TreeType::kBidirectional);
  EXPECT_EQ(bidir.max_load, 3);
}

TEST(TrafficConcentration, HybridAddsBranchLoad) {
  net::Rng rng(77);
  const Graph g = topology::make_as_level(200, 2, rng);
  std::vector<NodeId> members;
  for (int i = 0; i < 12; ++i) {
    members.push_back(static_cast<NodeId>(rng.index(g.node_count())));
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  const LinkLoad bidir =
      traffic_concentration(g, members[0], members,
                            TreeType::kBidirectional);
  const LinkLoad hybrid =
      traffic_concentration(g, members[0], members, TreeType::kHybrid);
  // Branches add links and load but never reduce the link count below the
  // tree's.
  EXPECT_GE(hybrid.links_used, bidir.links_used);
  EXPECT_GE(hybrid.max_load, 1);
}

// ----------------------------------------------- scenario member dedup

TEST(ScenarioPhases, TrackMembersDedupsPicksAndDeliversOncePerMember) {
  // Regression for the track_members dedup in phase_groups: member picks
  // that repeat a domain (or hit the initiator) are dropped from the
  // member set WITHOUT skipping the RNG draw, so each unique member
  // domain joins exactly once and receives exactly one copy per send.
  core::Internet net(7);
  ScenarioSpec spec;
  spec.domains = 12;
  spec.groups = 3;
  spec.joins = 48;  // four draws per domain: duplicates are guaranteed
  spec.track_members = true;
  const BuiltScenario topo = build_scenario(net, spec);
  phase_claim(net, topo);
  net::Rng rng = make_workload_rng(spec.seed);
  const std::vector<LiveGroup> live = phase_groups(net, spec, topo, rng);
  ASSERT_FALSE(live.empty());

  std::uint64_t unique_members = 0;
  for (const LiveGroup& l : live) {
    EXPECT_LT(l.members.size(), static_cast<std::size_t>(spec.joins))
        << "48 draws over 12 domains cannot all be unique — dedup is off";
    EXPECT_GT(l.members.size(), 0u);
    EXPECT_FALSE(l.members.contains(l.root_index))
        << "the initiator must never join its own group as a member";
    EXPECT_LT(l.members.size(), net.domain_count());
    unique_members += l.members.size();
  }

  // One packet per group: exactly one delivery per unique member domain.
  // A broken dedup that double-joined would double-report deliveries.
  const std::uint64_t before =
      net.metrics_snapshot().counter_value("core.deliveries");
  for (const LiveGroup& l : live) l.root->send(l.group);
  net.settle();
  const std::uint64_t after =
      net.metrics_snapshot().counter_value("core.deliveries");
  EXPECT_EQ(after - before, unique_members);
}

TEST(ScenarioPhases, TrackMembersDrawsTheSameStreamAsFireAndForget) {
  // The dedup consumes one draw per pick regardless of outcome, so the
  // RNG leaves phase_groups in the same state either way — chaos resumes
  // the identical churn schedule whether or not membership is tracked.
  ScenarioSpec tracked;
  tracked.domains = 12;
  tracked.groups = 3;
  tracked.joins = 48;
  tracked.track_members = true;
  ScenarioSpec legacy = tracked;
  legacy.track_members = false;

  net::Rng rng_a = make_workload_rng(1);
  net::Rng rng_b = make_workload_rng(1);
  {
    core::Internet net(1);
    const BuiltScenario topo = build_scenario(net, tracked);
    phase_claim(net, topo);
    (void)phase_groups(net, tracked, topo, rng_a);
  }
  {
    core::Internet net(1);
    const BuiltScenario topo = build_scenario(net, legacy);
    phase_claim(net, topo);
    (void)phase_groups(net, legacy, topo, rng_b);
  }
  EXPECT_EQ(rng_a.index(1u << 20), rng_b.index(1u << 20));
}

// ------------------------------------------------------------- Figure 2

MascSimParams small_params() {
  MascSimParams p;
  p.top_level_domains = 4;
  p.children_per_top = 6;
  p.horizon = net::SimTime::days(120);
  p.seed = 42;
  return p;
}

TEST(MascSim, RunsAndServesAllRequests) {
  const MascSimResult result = run_masc_sim(small_params());
  EXPECT_EQ(result.allocation_failures, 0);
  EXPECT_TRUE(result.invariants_ok);
  EXPECT_GT(result.requests_served, 1000u);  // 24 children, ~60 reqs each
  EXPECT_EQ(result.samples.size(), 120u);
}

TEST(MascSim, UtilizationConvergesToReasonableBand) {
  const MascSimResult result = run_masc_sim(small_params());
  const MascSimSample steady = result.steady_state(60.0);
  // Two-level hierarchy with a 75% per-level target → ~40-65% overall
  // (the paper's Figure 2(a) converges to ~50%).
  EXPECT_GT(steady.utilization, 0.30);
  EXPECT_LT(steady.utilization, 0.85);
}

TEST(MascSim, GribSizeSettlesAfterStartupTransient) {
  const MascSimResult result = run_masc_sim(small_params());
  // Startup: demand ramps for 30 days (nothing expires), so the prefix
  // count peaks early; steady state must not keep growing.
  double max_first_half = 0.0;
  double max_last_quarter = 0.0;
  for (const MascSimSample& s : result.samples) {
    if (s.day < 60) max_first_half = std::max(max_first_half, s.grib_average);
    if (s.day >= 90) {
      max_last_quarter = std::max(max_last_quarter, s.grib_average);
    }
  }
  EXPECT_LE(max_last_quarter, max_first_half * 1.5);
  EXPECT_GT(max_last_quarter, 0.0);
}

TEST(MascSim, AggregationKeepsGribFarBelowBlockCount) {
  const MascSimResult result = run_masc_sim(small_params());
  const MascSimSample steady = result.steady_state(60.0);
  // ~24 children × ~15 outstanding blocks ≈ 360 blocks, but the G-RIB
  // holds only aggregated prefixes (the paper: 37 500 blocks vs 175
  // routes).
  const double outstanding_blocks =
      static_cast<double>(steady.requested_addresses) / 256.0;
  EXPECT_LT(steady.grib_average, outstanding_blocks / 2.0);
}

TEST(MascSim, DeterministicPerSeed) {
  const MascSimResult a = run_masc_sim(small_params());
  const MascSimResult b = run_masc_sim(small_params());
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].utilization, b.samples[i].utilization);
    EXPECT_DOUBLE_EQ(a.samples[i].grib_average, b.samples[i].grib_average);
  }
  MascSimParams other = small_params();
  other.seed = 43;
  const MascSimResult c = run_masc_sim(other);
  bool diverged = false;
  for (std::size_t i = 0; i < a.samples.size() && i < c.samples.size(); ++i) {
    if (a.samples[i].utilization != c.samples[i].utilization) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

/// FNV-1a over every sample's integer columns.
std::uint64_t series_digest(const MascSimResult& result) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  for (const MascSimSample& s : result.samples) {
    mix(s.grib_max);
    mix(s.requested_addresses);
    mix(s.top_level_claimed);
    mix(s.children_claimed);
    mix(s.total_prefixes);
  }
  return h;
}

TEST(MascSim, SeriesArePinned) {
  // The Figure-2 series and request counts of two small hierarchies, one
  // mesh and one over four exchanges, pinned: a change to the claim
  // search, the registry or the pool that moves any claim shows up here.
  const MascSimResult mesh = run_masc_sim(small_params());
  EXPECT_EQ(series_digest(mesh), 0xC6024E28AE010655ull);
  EXPECT_EQ(mesh.requests_served, 1443u);
  // With six children per top the exchange slices never bind and the
  // series equals the mesh's; with ten they do.
  MascSimParams p = small_params();
  p.exchanges = 4;
  p.children_per_top = 10;
  const MascSimResult exchanges = run_masc_sim(p);
  EXPECT_EQ(series_digest(exchanges), 0xA31A39C07D8DAE20ull);
  EXPECT_EQ(exchanges.requests_served, 2356u);
}

TEST(MascSim, ExpansionPolicyVariantsRun) {
  for (const masc::ExpansionPolicy policy :
       {masc::ExpansionPolicy::kPaper, masc::ExpansionPolicy::kDoubleOnly,
        masc::ExpansionPolicy::kNewPrefixOnly}) {
    MascSimParams p = small_params();
    p.horizon = net::SimTime::days(60);
    p.pool.expansion = policy;
    const MascSimResult result = run_masc_sim(p);
    EXPECT_GT(result.requests_served, 0u) << to_string(policy);
  }
}

TEST(MascSim, ClaimStrategyVariantsRun) {
  for (const masc::ClaimStrategy strategy :
       {masc::ClaimStrategy::kRandomBlockFirstSub,
        masc::ClaimStrategy::kFirstFit,
        masc::ClaimStrategy::kRandomBlockRandomSub}) {
    MascSimParams p = small_params();
    p.horizon = net::SimTime::days(60);
    p.pool.strategy = strategy;
    const MascSimResult result = run_masc_sim(p);
    EXPECT_EQ(result.allocation_failures, 0) << to_string(strategy);
  }
}


TEST(MascSim, ExchangePartitionsConfineTopLevelClaims) {
  // §4.4: with the space partitioned among exchanges, every top-level
  // claim stays inside its exchange's slice, and the hierarchy still
  // serves all requests.
  MascSimParams p = small_params();
  p.exchanges = 4;
  const MascSimResult result = run_masc_sim(p);
  EXPECT_EQ(result.allocation_failures, 0);
  EXPECT_TRUE(result.invariants_ok);
  const MascSimSample steady = result.steady_state(60.0);
  EXPECT_GT(steady.utilization, 0.1);
}

TEST(MascSim, ExchangeCountBeyondTopsStillWorks) {
  MascSimParams p = small_params();
  p.exchanges = 16;  // more exchanges than the 4 top-level domains
  p.horizon = net::SimTime::days(60);
  const MascSimResult result = run_masc_sim(p);
  EXPECT_EQ(result.allocation_failures, 0);
}

TEST(MascSim, RejectsEmptyHierarchy) {
  MascSimParams p;
  p.top_level_domains = 0;
  EXPECT_THROW((void)run_masc_sim(p), std::invalid_argument);
}

}  // namespace
}  // namespace eval
