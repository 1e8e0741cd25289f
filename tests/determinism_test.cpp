// Determinism regression: two runs of the same mid-size scenario with the
// same seed must agree byte-for-byte — metrics snapshot JSON, every
// domain's final RIBs, and the MASC allocation state. Guards the
// simulation's reproducibility against accidental ordering dependence in
// the batched-update and lazy-cancel plumbing (iteration order of pending
// maps, heap tie-breaks, cache effects).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bgp/speaker.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/scenario.hpp"
#include "masc/node.hpp"
#include "net/prefix.hpp"
#include "obs/metrics.hpp"
#include "workload/session.hpp"

namespace core {
namespace {

struct RunResult {
  std::string metrics_json;
  /// Per domain: "<name> U:<unicast rib> G:<group rib> P:<held prefixes>".
  std::vector<std::string> domains;
};

RunResult run_once(std::uint64_t seed) {
  Internet net(seed);
  constexpr int kTops = 3;
  constexpr int kDomains = 12;
  std::vector<Domain*> tops;
  std::vector<Domain*> children;
  for (int i = 0; i < kDomains; ++i) {
    std::string name = i < kTops ? "T" : "C";
    name += std::to_string(i + 1);
    Domain& d = net.add_domain(
        {.id = static_cast<bgp::DomainId>(i + 1), .name = std::move(name)});
    d.announce_unicast();
    (i < kTops ? tops : children).push_back(&d);
  }
  for (int i = 0; i < kTops; ++i) {
    net.link(*tops[i], *tops[(i + 1) % kTops]);
    for (int j = i + 1; j < kTops; ++j) net.masc_siblings(*tops[i], *tops[j]);
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    Domain& parent = *tops[i % kTops];
    net.link(parent, *children[i], bgp::Relationship::kCustomer);
    net.masc_parent(*children[i], parent);
  }

  for (Domain* t : tops) {
    t->masc_node().set_spaces({net::multicast_space()});
    t->masc_node().request_space(65536);
  }
  net.settle();
  for (Domain* c : children) c->masc_node().request_space(256);
  net.settle();

  // Group lifetime plus a perturbation, to exercise the batched-update
  // reconvergence path.
  std::vector<std::pair<Domain*, Group>> live;
  for (Domain* c : children) {
    auto lease = c->create_group();
    if (!lease.has_value()) {
      net.settle();
      lease = c->create_group();
    }
    if (lease.has_value()) live.emplace_back(c, lease->address);
  }
  net.settle();
  for (std::size_t i = 0; i < live.size(); ++i) {
    net.domain((i * 5 + 1) % kDomains).host_join(live[i].second);
  }
  net.settle();
  net.set_link_state(*tops[0], *tops[1], false);
  net.settle();
  net.set_link_state(*tops[0], *tops[1], true);
  net.settle();
  for (auto& [root, group] : live) root->send(group);
  net.settle();

  RunResult result;
  const obs::Snapshot snapshot = net.metrics_snapshot();
  std::ostringstream json;
  snapshot.write_json(json);
  result.metrics_json = json.str();
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    Domain& d = net.domain(i);
    std::ostringstream line;
    line << d.name();
    line << " U:";
    for (const auto& [p, r] :
         d.speaker().rib(bgp::RouteType::kUnicast).best_routes()) {
      line << p.to_string() << "<as" << r.origin_as << "," << r.as_path.size()
           << ">";
    }
    line << " G:";
    for (const auto& [p, r] :
         d.speaker().rib(bgp::RouteType::kGroup).best_routes()) {
      line << p.to_string() << "<as" << r.origin_as << "," << r.as_path.size()
           << ">";
    }
    line << " P:";
    for (const auto& held : d.masc_node().pool().prefixes()) {
      line << held.prefix.to_string() << ";";
    }
    result.domains.push_back(line.str());
  }
  return result;
}

TEST(Determinism, SameSeedRunsAreByteIdentical) {
  const RunResult a = run_once(21);
  const RunResult b = run_once(21);
  ASSERT_EQ(a.domains.size(), b.domains.size());
  for (std::size_t i = 0; i < a.domains.size(); ++i) {
    EXPECT_EQ(a.domains[i], b.domains[i]) << "domain " << i;
  }
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

/// A scenario run with the aggregate workload attached: the engine's
/// churn is applied between event-queue runs, so a rerun with the same
/// seed must reproduce its digest, the converged RIBs and every metric
/// byte for byte.
struct WorkloadRun {
  std::string metrics_json;
  std::uint64_t rib_digest = 0;
  std::uint64_t engine_digest = 0;
  std::uint64_t members = 0;
  std::uint64_t tree_joins = 0;
};

WorkloadRun run_workload_once(std::uint64_t seed) {
  Internet net(seed);
  eval::ScenarioSpec spec;
  spec.domains = 24;
  spec.seed = seed;
  spec.groups = 6;
  spec.joins = 2;
  spec.workload = workload::Spec::small();
  spec.workload.groups = 12;
  spec.workload.sim_days = 1.0 / 24.0;  // 30 ticks of 120 s
  const eval::BuiltScenario topo = eval::build_scenario(net, spec);
  eval::phase_claim(net, topo);
  net::Rng rng = eval::make_workload_rng(spec.seed);
  (void)eval::phase_groups(net, spec, topo, rng);
  std::unique_ptr<workload::Session> session =
      eval::phase_workload(net, spec, topo);
  WorkloadRun result;
  if (session != nullptr) {
    session->run();
    const workload::SessionReport report = session->report();
    result.engine_digest = report.engine_digest;
    result.members = report.members_total;
    result.tree_joins = report.tree_joins;
  }
  result.rib_digest = eval::rib_digest(net);
  std::ostringstream json;
  net.metrics_snapshot().write_json(json);
  result.metrics_json = json.str();
  return result;
}

TEST(Determinism, WorkloadRerunsAreByteIdentical) {
  for (const std::uint64_t seed : {3u, 9u}) {
    const WorkloadRun a = run_workload_once(seed);
    ASSERT_GT(a.members, 0u) << "seed " << seed;
    ASSERT_GT(a.tree_joins, 0u) << "seed " << seed;
    const WorkloadRun b = run_workload_once(seed);
    EXPECT_EQ(a.engine_digest, b.engine_digest) << "seed " << seed;
    EXPECT_EQ(a.rib_digest, b.rib_digest) << "seed " << seed;
    EXPECT_EQ(a.metrics_json, b.metrics_json) << "seed " << seed;
  }
}

TEST(Determinism, DifferentSeedsStillConvergeToEquivalentTopology) {
  // Seeds change timing jitter, not the converged outcome: every domain
  // ends up holding address space and the same number of RIB entries.
  const RunResult a = run_once(21);
  const RunResult c = run_once(22);
  ASSERT_EQ(a.domains.size(), c.domains.size());
  for (std::size_t i = 0; i < a.domains.size(); ++i) {
    EXPECT_FALSE(a.domains[i].empty());
    EXPECT_FALSE(c.domains[i].empty());
  }
}

}  // namespace
}  // namespace core
