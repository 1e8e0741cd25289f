// Cross-layer integration tests:
//
//  * protocol-vs-model: trees built by the real BGMP implementation over
//    real BGP must produce exactly the per-receiver path lengths the
//    Figure-4 closed-form models predict (bidirectional and hybrid), when
//    the models are fed the protocol's own converged next hops;
//  * the full MASC→BGP→BGMP pipeline: a group created through the MAAS is
//    rooted at the initiator's domain and reachable end to end;
//  * MASC protocol node vs allocation-level simulation agreement on a
//    small scenario.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/masc_sim.hpp"
#include "eval/scenario.hpp"
#include "eval/tree_model.hpp"
#include "topology/generators.hpp"

namespace core {
namespace {

using net::Ipv4Addr;
using net::Prefix;
using topology::NodeId;

const Group kGroup = Ipv4Addr::parse("224.0.128.1");

/// eval::tree_digest after the hybrid check's seeds. Seed 55 builds (S,G)
/// branches through RPF lookups toward a source announced after the
/// peerings came up; seed 44 builds none.
constexpr std::uint64_t kHybridTreeDigest44 = 13350426827291273697ULL;
constexpr std::uint64_t kHybridTreeDigest55 = 17362985706833364865ULL;

// Extracts the converged rootward/sourceward forwarding tree from the
// protocol's RIBs: parent[d] = the domain of d's next hop for `addr` in
// `type`, dist[d] = AS-path length.
topology::BfsTree tree_from_ribs(Internet& net,
                                 const std::vector<Domain*>& domains,
                                 bgp::RouteType type, Ipv4Addr addr,
                                 NodeId root) {
  std::map<const bgp::Speaker*, NodeId> speaker_to_node;
  for (NodeId n = 0; n < domains.size(); ++n) {
    speaker_to_node[&domains[n]->speaker()] = n;
  }
  (void)net;
  topology::BfsTree tree;
  tree.source = root;
  tree.dist.assign(domains.size(), topology::kUnreachable);
  tree.parent.assign(domains.size(), topology::kUnreachable);
  for (NodeId n = 0; n < domains.size(); ++n) {
    const auto hit = domains[n]->speaker().lookup(type, addr);
    if (!hit) continue;
    if (hit->next_hop == nullptr) {
      tree.dist[n] = 0;
      tree.parent[n] = n;
    } else {
      tree.dist[n] = static_cast<std::uint32_t>(hit->route->as_path.size());
      tree.parent[n] = speaker_to_node.at(hit->next_hop);
    }
  }
  return tree;
}

struct HopsLog {
  std::map<const Domain*, std::vector<int>> hops;
  void attach(Internet& net) {
    net.set_delivery_observer([this](const Delivery& d) {
      hops[d.domain].push_back(d.hops);
    });
  }
  void clear() { hops.clear(); }
};

class ProtocolVsModel : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 120;

  /// `tree_digest`, when given, receives the final eval::tree_digest,
  /// which pins the (S,G) branches the RPF lookups built.
  void run_check(std::uint64_t seed, bool hybrid,
                 std::uint64_t* tree_digest = nullptr) {
    net::Rng rng(seed);
    const topology::Graph graph = topology::make_as_level(kNodes, 2, rng);
    Internet net;
    HopsLog log;
    log.attach(net);
    const std::vector<Domain*> domains = net.build_from_graph(graph);

    eval::GroupScenario scenario;
    scenario.root = static_cast<NodeId>(rng.index(kNodes));
    scenario.source = static_cast<NodeId>(rng.index(kNodes));
    std::set<NodeId> receiver_set;
    while (receiver_set.size() < 15) {
      receiver_set.insert(static_cast<NodeId>(rng.index(kNodes)));
    }
    receiver_set.erase(scenario.source);  // keep hop counts unambiguous
    scenario.receivers.assign(receiver_set.begin(), receiver_set.end());

    domains[scenario.root]->originate_group_range(
        Prefix::parse("224.0.128.0/24"));
    domains[scenario.source]->announce_unicast();
    net.settle();
    for (const NodeId r : scenario.receivers) {
      domains[r]->host_join(kGroup);
    }
    net.settle();

    // Feed the model the protocol's own converged next hops so that
    // equal-cost tie-breaks match exactly.
    const Ipv4Addr source_host = domains[scenario.source]->host_address(1);
    const topology::BfsTree from_root = tree_from_ribs(
        net, domains, bgp::RouteType::kGroup, kGroup, scenario.root);
    const topology::BfsTree from_source =
        tree_from_ribs(net, domains, bgp::RouteType::kUnicast, source_host,
                       scenario.source);
    const eval::TreeModel model(graph, scenario, from_root, from_source);

    std::set<NodeId> branchers;
    if (hybrid) {
      // Rational receivers: build a branch only where the model says it
      // helps (the Figure-4 hybrid-tree policy).
      const auto bidir =
          model.path_lengths(eval::TreeType::kBidirectional);
      const auto hyb = model.path_lengths(eval::TreeType::kHybrid);
      for (std::size_t i = 0; i < scenario.receivers.size(); ++i) {
        if (hyb[i] < bidir[i]) {
          branchers.insert(scenario.receivers[i]);
          domains[scenario.receivers[i]]->build_source_branch(source_host,
                                                              kGroup);
        }
      }
      net.settle();
    }

    log.clear();
    domains[scenario.source]->send(kGroup);
    net.settle();

    // Branch copies serve branchers on their branch paths; the shared
    // tree serves everyone else untouched — the hybrid model exactly.
    (void)branchers;
    const auto expected = model.path_lengths(
        hybrid ? eval::TreeType::kHybrid : eval::TreeType::kBidirectional);
    for (std::size_t i = 0; i < scenario.receivers.size(); ++i) {
      const Domain* d = domains[scenario.receivers[i]];
      const auto it = log.hops.find(d);
      ASSERT_NE(it, log.hops.end())
          << "receiver " << scenario.receivers[i] << " got no data (seed "
          << seed << ")";
      ASSERT_EQ(it->second.size(), 1u)
          << "receiver " << scenario.receivers[i] << " duplicates (seed "
          << seed << ")";
      EXPECT_EQ(it->second[0], static_cast<int>(expected[i]))
          << "receiver " << scenario.receivers[i] << " (seed " << seed
          << ", hybrid=" << hybrid << ")";
    }
    if (tree_digest != nullptr) *tree_digest = eval::tree_digest(net);
  }
};

TEST_F(ProtocolVsModel, BidirectionalTreePathLengthsMatch) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    run_check(seed, /*hybrid=*/false);
  }
}

TEST_F(ProtocolVsModel, HybridTreePathLengthsMatch) {
  // Source branches follow the RPF lookups toward the source, so these
  // pins move if the unicast choice those lookups read moves.
  std::uint64_t digest = 0;
  run_check(44, /*hybrid=*/true, &digest);
  EXPECT_EQ(digest, kHybridTreeDigest44);
  run_check(55, /*hybrid=*/true, &digest);
  EXPECT_EQ(digest, kHybridTreeDigest55);
}

// ----------------------------------------------- full-architecture pipeline

TEST(FullPipeline, MascToMaasToBgmpEndToEnd) {
  // Three domains: top-level T (claims from 224/4), child C (claims from
  // T), plus a remote member domain M. A group created by C's MAAS is
  // rooted in C; a member in M joins and data flows.
  Internet net;
  Domain& t = net.add_domain({.id = 1, .name = "T"});
  Domain& c = net.add_domain({.id = 2, .name = "C"});
  Domain& m = net.add_domain({.id = 3, .name = "M"});
  HopsLog log;
  log.attach(net);
  net.link(t, c, bgp::Relationship::kCustomer);
  net.link(t, m, bgp::Relationship::kLateral);
  net.masc_parent(c, t);
  for (Domain* d : {&t, &c, &m}) d->announce_unicast();

  // Top level claims from the whole multicast space (§4.4).
  t.masc_node().set_spaces({net::multicast_space()});
  t.masc_node().request_space(65536);
  net.settle();
  ASSERT_EQ(t.masc_node().pool().prefixes().size(), 1u);

  // The child's MAAS triggers claiming through MASC on first allocation.
  auto lease = c.create_group();
  EXPECT_FALSE(lease.has_value());  // claim is asynchronous (48h wait)
  net.settle();                     // waiting period elapses
  lease = c.create_group();
  ASSERT_TRUE(lease.has_value());
  const Group group = lease->address;

  // The group's root domain is the initiator's: C self-originates the
  // covering group route. M, beyond the aggregating parent T, sees only
  // T's aggregate (§4.3.2) — packets still reach C through T's
  // more-specific entry.
  const auto at_c = c.speaker().lookup(bgp::RouteType::kGroup, group);
  ASSERT_TRUE(at_c.has_value());
  EXPECT_EQ(at_c->next_hop, nullptr);  // locally rooted
  const auto hit = m.speaker().lookup(bgp::RouteType::kGroup, group);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->route->origin_as, t.id());  // the aggregate

  // A member in M joins; a host in C sends; data arrives.
  m.host_join(group);
  net.settle();
  c.send(group);
  net.settle();
  const auto got = log.hops.find(&m);
  ASSERT_NE(got, log.hops.end());
  EXPECT_EQ(got->second.size(), 1u);
  EXPECT_EQ(got->second[0], 2);  // C → T → M
}

TEST(FullPipeline, GroupRouteAggregationAcrossHierarchy) {
  // T originates its /16; C's /24 claim (inside T's /16) must not be
  // advertised beyond T (§4.3.2).
  Internet net;
  Domain& t = net.add_domain({.id = 1, .name = "T"});
  Domain& c = net.add_domain({.id = 2, .name = "C"});
  Domain& m = net.add_domain({.id = 3, .name = "M"});
  net.link(t, c, bgp::Relationship::kCustomer);
  net.link(t, m, bgp::Relationship::kLateral);
  net.masc_parent(c, t);
  t.masc_node().set_spaces({net::multicast_space()});
  t.masc_node().request_space(65536);
  net.settle();
  c.masc_node().request_space(256);
  net.settle();
  ASSERT_EQ(c.masc_node().pool().prefixes().size(), 1u);
  // M sees exactly one group route: T's aggregate.
  EXPECT_EQ(m.speaker().rib(bgp::RouteType::kGroup).size(), 1u);
  // T holds both (its own /16 and C's more-specific).
  EXPECT_EQ(t.speaker().rib(bgp::RouteType::kGroup).size(), 2u);
}

// -------------------------------------- MASC protocol vs allocation model

TEST(MascLayers, ProtocolAndSimulationAgreeOnClaimChoice) {
  // Same scenario both ways: one top-level domain (deterministic
  // first-fit), one request of 256 addresses from an empty space. The
  // protocol node and the allocation-level machinery must claim the same
  // prefix (both call the shared choose_claim).
  masc::PoolParams pool;
  pool.strategy = masc::ClaimStrategy::kFirstFit;

  // Protocol side.
  net::EventQueue events;
  net::Network network(events);
  masc::MascNode::Params params;
  params.pool = pool;
  masc::MascNode node(network, 1, "X", params, 7);
  std::vector<Prefix> granted;
  node.set_callbacks({[&](const Prefix& p, net::SimTime) {
                        granted.push_back(p);
                      },
                      nullptr,
                      nullptr});
  node.set_spaces({net::multicast_space()});
  node.request_space(256);
  events.run(100000);
  ASSERT_EQ(granted.size(), 1u);

  // Allocation-level side.
  masc::ClaimRegistry registry;
  net::Rng rng(7);
  const auto chosen = masc::choose_claim(
      std::vector<Prefix>{net::multicast_space()}, registry, 24,
      net::SimTime{}, rng, pool.strategy);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(granted[0], *chosen);
}

}  // namespace
}  // namespace core
