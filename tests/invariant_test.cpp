// The chaos harness under ctest (label: chaos): a grid of seeded failure
// schedules must run violation-free and quiesce, the runs must be exactly
// reproducible from their config, and the detection machinery itself is
// tested by injecting the §4.1 bug the overlap checker exists to catch
// (skipping the MASC waiting period) and requiring a replayable violation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bgp/messages.hpp"
#include "bgp/speaker.hpp"
#include "check/invariant.hpp"
#include "core/internet.hpp"
#include "eval/chaos.hpp"

namespace eval {
namespace {

ChaosConfig grid_cell(std::uint64_t seed, int domains) {
  ChaosConfig config;
  config.seed = seed;
  config.domains = domains;
  config.steps = 12;
  config.check_every = 3;
  return config;
}

std::string transcript(const ChaosResult& r) {
  std::string out = "seed " + std::to_string(r.config.seed) + ", " +
                    std::to_string(r.config.domains) + " domains:\n";
  for (const std::string& line : r.schedule) out += "  " + line + "\n";
  for (const ChaosViolation& v : r.violations) {
    out += "  VIOLATION step " + std::to_string(v.step) + " [" +
           v.invariant + "] " + v.subject + ": " + v.detail + "\n";
  }
  if (!r.quiesced) out += "  (network did not quiesce after final heal)\n";
  return out;
}

// ------------------------------------------------------------------ grid

class ChaosGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChaosGrid, RunsViolationFreeAndQuiesces) {
  const auto [domains, seed] = GetParam();
  const ChaosResult r =
      run_chaos(grid_cell(static_cast<std::uint64_t>(seed), domains));
  EXPECT_TRUE(r.passed()) << transcript(r);
  EXPECT_GT(r.checks_run, 0u);
}

// 2 topology sizes x 16 seeds = 32 cells.
INSTANTIATE_TEST_SUITE_P(
    Cells, ChaosGrid,
    ::testing::Combine(::testing::Values(12, 24), ::testing::Range(1, 17)));

// ------------------------------------------------------- chaos + workload

/// A chaos-scale workload: ticks aligned with the step gap, lifetimes
/// short enough that membership churns (and trees join/prune) inside a
/// 12-step run, a couple of flash crowds inside the horizon.
workload::Spec chaos_workload(const ChaosConfig& config) {
  workload::Spec w = workload::Spec::small();
  w.tick_seconds = config.step_gap.to_seconds();
  w.sim_days =
      2.0 * config.steps * config.step_gap.to_seconds() / 86400.0 + 1.0 / 96.0;
  w.groups = 12;
  w.arrivals_per_second = 20.0;
  w.mean_lifetime_seconds = 300.0;
  w.span_base = 8;
  w.flash_crowds = 2;
  w.flash_duration_seconds = 120.0;
  return w;
}

ChaosConfig workload_cell(std::uint64_t seed, int domains) {
  ChaosConfig config = grid_cell(seed, domains);
  config.workload = chaos_workload(config);
  return config;
}

class ChaosWorkloadGrid : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(ChaosWorkloadGrid, RunsViolationFreeWithLiveMembershipChurn) {
  // Every invariant (lease overlap, G-RIB consistency, quiescence) must
  // keep holding while the aggregate member layer drives joins/prunes
  // through the same trees the perturbations are tearing at.
  const auto [domains, seed] = GetParam();
  const ChaosResult r =
      run_chaos(workload_cell(static_cast<std::uint64_t>(seed), domains));
  EXPECT_TRUE(r.passed()) << transcript(r);
  EXPECT_GT(r.checks_run, 0u);
  EXPECT_GT(r.workload_ticks, 0);
  EXPECT_GT(r.workload_members, 0u)
      << "workload never built membership — the layer is inert";
}

// 2 topology sizes x 8 seeds = 16 cells (chaos label: nightly budget).
INSTANTIATE_TEST_SUITE_P(
    Cells, ChaosWorkloadGrid,
    ::testing::Combine(::testing::Values(12, 24), ::testing::Range(1, 9)));

// --------------------------------------------------------------- determinism

TEST(ChaosDeterminism, EqualConfigsProduceEqualRuns) {
  const ChaosConfig config = grid_cell(5, 16);
  const ChaosResult a = run_chaos(config);
  const ChaosResult b = run_chaos(config);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.quiesced, b.quiesced);
}

TEST(ChaosDeterminism, WorkloadRunsReplayToTheSameEngineDigest) {
  const ChaosConfig config = workload_cell(5, 16);
  const ChaosResult a = run_chaos(config);
  const ChaosResult b = run_chaos(config);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.workload_members, b.workload_members);
  EXPECT_EQ(a.workload_ticks, b.workload_ticks);
  ASSERT_NE(a.workload_engine_digest, 0u);
  EXPECT_EQ(a.workload_engine_digest, b.workload_engine_digest);
}

// ----------------------------------------------------------- fault injection

ChaosConfig injected_cell(std::uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  config.domains = 16;
  config.steps = 4;
  config.check_every = 1;  // the overlap window is narrow
  config.inject_skip_waiting_period = true;
  return config;
}

TEST(ChaosInjection, SkippedWaitingPeriodIsCaughtByOverlapChecker) {
  const ChaosResult r = run_chaos(injected_cell(1));
  ASSERT_FALSE(r.violations.empty())
      << "the injected bug went undetected:\n" << transcript(r);
  EXPECT_FALSE(r.passed());
  bool overlap_seen = false;
  for (const ChaosViolation& v : r.violations) {
    if (v.invariant == "masc-overlap") overlap_seen = true;
  }
  EXPECT_TRUE(overlap_seen)
      << "violations found, but none from masc-overlap:\n" << transcript(r);
}

TEST(ChaosInjection, ViolationReplaysExactlyFromSeed) {
  // The {seed, step, schedule} triple a failure dumps must reproduce the
  // identical violations when the config is replayed.
  const ChaosConfig config = injected_cell(2);
  const ChaosResult a = run_chaos(config);
  const ChaosResult b = run_chaos(config);
  ASSERT_FALSE(a.violations.empty());
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.schedule, b.schedule);
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].step, b.violations[i].step);
    EXPECT_EQ(a.violations[i].invariant, b.violations[i].invariant);
    EXPECT_EQ(a.violations[i].subject, b.violations[i].subject);
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail);
  }
}

// ------------------------------------------------- Adj-RIB-Out agreement

/// Three domains in a line, A - B - C, each announcing its unicast prefix,
/// converged.
struct Line {
  core::Internet net{1};
  core::Domain& a = net.add_domain({.id = 1, .name = "A",
                                    .announce_unicast = true});
  core::Domain& b = net.add_domain({.id = 2, .name = "B",
                                    .announce_unicast = true});
  core::Domain& c = net.add_domain({.id = 3, .name = "C",
                                    .announce_unicast = true});
  Line() {
    net.link(a, b, bgp::Relationship::kLateral);
    net.link(b, c, bgp::Relationship::kLateral);
    net.settle();
  }

  /// Delivers `route` for `prefix` to B as if A had sent it — an update
  /// A's Adj-RIB-Out never recorded.
  void forge_from_a(const net::Prefix& prefix, const bgp::Route& route) {
    bgp::Speaker& speaker = b.speaker(0);
    auto update = std::make_unique<bgp::UpdateMessage>();
    update->deltas.push_back(bgp::UpdateMessage::Delta{
        bgp::RouteType::kUnicast, prefix, route});
    speaker.on_message(speaker.peer_channel(0), std::move(update));
    net.settle();
  }
};

std::vector<check::Violation> adj_rib_out_violations(core::Internet& net) {
  std::vector<check::Violation> out;
  check::BgpAdjRibOutInvariant().check(net, out);
  return out;
}

TEST(AdjRibOutChecker, ConvergedStateIsClean) {
  Line line;
  EXPECT_TRUE(adj_rib_out_violations(line.net).empty());
  EXPECT_TRUE(check::CheckerSuite::standard().run(line.net, true).empty());
}

TEST(AdjRibOutChecker, ForgedAnnouncementIsCaught) {
  Line line;
  const net::Prefix forged = net::Prefix::parse("10.200.0.0/16");
  line.forge_from_a(forged, bgp::Route{bgp::PathRef::intern({1}), 1, 100});
  ASSERT_TRUE(line.b.speaker(0).lookup(bgp::RouteType::kUnicast,
                                       net::Ipv4Addr::parse("10.200.0.1")));
  const std::vector<check::Violation> found =
      adj_rib_out_violations(line.net);
  // Only the A -> B session disagrees: B re-announced the route to C and
  // recorded that in its own Adj-RIB-Out.
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, "bgp-adj-rib-out");
  EXPECT_NE(found[0].subject.find(forged.to_string()), std::string::npos)
      << found[0].subject;
  bool in_suite = false;
  for (const check::Violation& v :
       check::CheckerSuite::standard().run(line.net, true)) {
    if (v.invariant == "bgp-adj-rib-out") in_suite = true;
  }
  EXPECT_TRUE(in_suite);
}

TEST(AdjRibOutChecker, ForgedPathIsCaught) {
  Line line;
  // A really announced its own prefix with path [1]; B now holds [1 7].
  line.forge_from_a(line.a.unicast_prefix(),
                    bgp::Route{bgp::PathRef::intern({1, 7}), 1, 100});
  const std::vector<check::Violation> found =
      adj_rib_out_violations(line.net);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].detail.find("but the peer holds"), std::string::npos)
      << found[0].detail;
}

// -------------------------------------------------------- bgmp-acyclic

/// Forged group routes make A and B each resolve the other as the next hop
/// toward a root domain (AS 9) that does not exist, so the shared tree of
/// a group in that range cycles between them. C hangs off B and D off A;
/// their routes, and so their tree branches, lead into the loop.
TEST(BgmpAcyclicChecker, ForgedRouteLoopReportsEveryWalkIntoIt) {
  core::Internet net{1};
  core::Domain& a = net.add_domain({.id = 1, .name = "A"});
  core::Domain& b = net.add_domain({.id = 2, .name = "B"});
  core::Domain& c = net.add_domain({.id = 3, .name = "C"});
  core::Domain& d = net.add_domain({.id = 4, .name = "D"});
  net.link(a, b, bgp::Relationship::kLateral);
  net.link(b, c, bgp::Relationship::kCustomer);
  net.link(a, d, bgp::Relationship::kCustomer);
  net.settle();
  const net::Prefix range = net::Prefix::parse("224.9.0.0/16");
  const auto forge = [&](core::Domain& at, bgp::DomainId via) {
    bgp::Speaker& speaker = at.speaker(0);
    auto update = std::make_unique<bgp::UpdateMessage>();
    update->deltas.push_back(bgp::UpdateMessage::Delta{
        bgp::RouteType::kGroup, range,
        bgp::Route{bgp::PathRef::intern({via, 9}), 9, 100}});
    speaker.on_message(speaker.peer_channel(0), std::move(update));
  };
  forge(a, 2);  // A's peer 0 is B
  forge(b, 1);  // B's peer 0 is A
  net.settle();
  const net::Ipv4Addr group = net::Ipv4Addr::parse("224.9.1.1");
  for (core::Domain* member : {&a, &c, &d}) member->host_join(group);
  net.settle();

  std::vector<check::Violation> found;
  check::BgmpAcyclicInvariant().check(net, found);
  // Walks start in router order A, B, C, D. A's walk reports the loop at
  // A and implicates B; C's and D's walks enter it at B and at A.
  const auto at = [&](core::Domain& domain) {
    const std::string name = domain.bgmp_router(0).name();
    return std::pair(name + " (*," + group.to_string() + ")",
                     "parent chain cycles through " + name);
  };
  std::vector<std::pair<std::string, std::string>> reported;
  for (const check::Violation& v : found) {
    EXPECT_EQ(v.invariant, "bgmp-acyclic");
    reported.emplace_back(v.subject, v.detail);
  }
  EXPECT_EQ(reported, (std::vector<std::pair<std::string, std::string>>{
                          at(a), at(b), at(a)}));
}

}  // namespace
}  // namespace eval
