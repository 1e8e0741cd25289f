// Additional coverage: network drop-when-down semantics, BGP route-change
// listeners, MASC adjacency claiming and pool aggregation, MascNode ageing
// under periodic renewal, PIM-SM RP pinning through the core glue, and
// branch-copy data semantics.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "bgp/speaker.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "masc/claim_algorithm.hpp"
#include "masc/node.hpp"
#include "migp/pim_sm.hpp"
#include "net/event.hpp"
#include "net/network.hpp"

namespace {

using net::Ipv4Addr;
using net::Prefix;
using net::SimTime;

// ------------------------------------------------ network drop semantics

struct TextMsg final : net::Message {
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string text;
  [[nodiscard]] std::string describe() const override { return text; }
};

class Sink final : public net::Endpoint {
 public:
  explicit Sink(std::string n) : name_(std::move(n)) {}
  void on_message(net::ChannelId, std::unique_ptr<net::Message> m) override {
    received.push_back(m->describe());
  }
  [[nodiscard]] std::string name() const override { return name_; }
  std::vector<std::string> received;

 private:
  std::string name_;
};

TEST(NetworkDrop, DropWhenDownLosesMessages) {
  net::EventQueue q;
  net::Network network(q);
  Sink a("a"), b("b");
  const auto ch = network.connect(a, b);
  network.set_drop_when_down(ch, true);
  network.set_up(ch, false);
  network.send(ch, a, std::make_unique<TextMsg>("lost"));
  network.set_up(ch, true);
  network.send(ch, a, std::make_unique<TextMsg>("kept"));
  q.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0], "kept");
  EXPECT_EQ(network.messages_dropped(), 1u);
}

TEST(NetworkDrop, DefaultHoldsMessagesAcrossPartition) {
  net::EventQueue q;
  net::Network network(q);
  Sink a("a"), b("b");
  const auto ch = network.connect(a, b);
  network.set_up(ch, false);
  network.send(ch, a, std::make_unique<TextMsg>("held"));
  network.set_up(ch, true);
  q.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(network.messages_dropped(), 0u);
}

// --------------------------------------------- BGP route-change listener

TEST(RouteChangeListener, FiresOnInstallReplaceAndLoss) {
  net::EventQueue q;
  net::Network network(q);
  bgp::Speaker s1(network, 1, "s1");
  bgp::Speaker s2(network, 2, "s2");
  std::vector<std::pair<bgp::RouteType, Prefix>> events;
  s2.add_route_change_listener(
      [&](bgp::RouteType type, const Prefix& prefix) {
        events.emplace_back(type, prefix);
      });
  const auto ch = bgp::Speaker::connect(s1, s2, bgp::Relationship::kLateral);
  s1.originate(bgp::RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  q.run();
  ASSERT_EQ(events.size(), 1u);  // install
  EXPECT_EQ(events[0].first, bgp::RouteType::kGroup);
  EXPECT_EQ(events[0].second, Prefix::parse("224.1.0.0/16"));
  network.set_up(ch, false);  // loss
  q.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].second, Prefix::parse("224.1.0.0/16"));
}

TEST(RouteChangeListener, SilentOnNoOpUpdates) {
  net::EventQueue q;
  net::Network network(q);
  bgp::Speaker s1(network, 1, "s1");
  bgp::Speaker s2(network, 2, "s2");
  bgp::Speaker::connect(s1, s2, bgp::Relationship::kLateral);
  s1.originate(bgp::RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  q.run();
  int fired = 0;
  s2.add_route_change_listener(
      [&](bgp::RouteType, const Prefix&) { ++fired; });
  s1.originate(bgp::RouteType::kGroup,
               Prefix::parse("224.1.0.0/16"));  // idempotent
  q.run();
  EXPECT_EQ(fired, 0);
}

// --------------------------------------------- unicast announcement cost

TEST(AnnounceUnicast, SendsOneUpdatePerExternalPeer) {
  // RPF checks read the unicast view, so announcing a domain's prefix
  // into live peerings is one update per peer. A separate M-RIB copy of
  // the prefix would go out as a second wave of updates.
  core::Internet net;
  core::Domain& a = net.add_domain({.id = 1, .name = "A"});
  core::Domain& b = net.add_domain({.id = 2, .name = "B"});
  core::Domain& c = net.add_domain({.id = 3, .name = "C"});
  net.link(a, b, bgp::Relationship::kCustomer);
  net.link(a, c, bgp::Relationship::kCustomer);
  net.settle();
  const auto updates_sent = [&net] {
    return net.metrics_snapshot().counter_value("bgp.updates_sent");
  };
  const std::uint64_t before = updates_sent();
  a.announce_unicast();
  net.settle();
  EXPECT_EQ(updates_sent() - before, 2u);
}

// ------------------------------------------------ MASC adjacency claiming

TEST(ChooseClaimNear, PrefersSpaceAdjacentToOwnPrefixes) {
  masc::ClaimRegistry registry;
  const SimTime now = SimTime::days(1);
  const SimTime later = SimTime::days(31);
  // Own prefix sits at 224.64.0.0/24; a competitor holds space far away.
  ASSERT_TRUE(registry.claim(Prefix::parse("224.64.0.0/24"), 1, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("230.0.0.0/24"), 2, later, now));
  const std::vector<Prefix> own{Prefix::parse("224.64.0.0/24")};
  const std::vector<Prefix> spaces{net::multicast_space()};
  net::Rng rng(5);
  const auto chosen =
      masc::choose_claim_near(own, spaces, registry, 24, now, rng);
  ASSERT_TRUE(chosen.has_value());
  // The nearest free /24 inside the own prefix's parent block.
  EXPECT_EQ(*chosen, Prefix::parse("224.64.1.0/24"));
  // And the pair CIDR-aggregates.
  EXPECT_TRUE(net::aggregate(Prefix::parse("224.64.0.0/24"), *chosen)
                  .has_value());
}

TEST(ChooseClaimNear, FallsBackWhenNeighbourhoodFull) {
  masc::ClaimRegistry registry;
  const SimTime now = SimTime::days(1);
  const SimTime later = SimTime::days(31);
  // Own /24 inside a /8 whose remainder a competitor owns entirely.
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.0.0/24"), 1, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.1.0/24"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.2.0/23"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.4.0/22"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.8.0/21"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.16.0/20"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.32.0/19"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.64.0/18"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.128.0/17"), 2, later, now));
  ASSERT_TRUE(registry.claim(Prefix::parse("224.1.0.0/16"), 2, later, now));
  const std::vector<Prefix> own{Prefix::parse("224.0.0.0/24")};
  const std::vector<Prefix> spaces{net::multicast_space()};
  net::Rng rng(5);
  const auto chosen =
      masc::choose_claim_near(own, spaces, registry, 24, now, rng);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_TRUE(chosen->length() == 24);
  EXPECT_FALSE(registry.conflicting(*chosen, now).has_value());
}

// ----------------------------------------------- MascNode periodic usage

TEST(MascNodeAging, ActiveRangeRenewsWhileBlocksLive) {
  net::EventQueue events;
  net::Network network(events);
  masc::MascNode::Params params;
  params.claim_lifetime = SimTime::days(30);
  masc::MascNode node(network, 1, "X", params, 9);
  std::vector<Prefix> released;
  node.set_callbacks({nullptr,
                      [&](const Prefix& p) { released.push_back(p); },
                      nullptr});
  node.set_spaces({net::multicast_space()});
  node.request_space(256);
  events.run(100000);
  ASSERT_EQ(node.pool().prefixes().size(), 1u);
  // A long-lived allocation keeps the range alive across its expiry.
  ASSERT_TRUE(node.pool()
                  .request_block(256, events.now(), SimTime::days(365))
                  .has_value());
  events.run_until(events.now() + SimTime::days(40));
  node.age_now();
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(node.pool().prefixes().size(), 1u);
}

// ------------------------------------------------------ PIM-SM RP pinning

TEST(PimSmIntegration, RpPinnedToBestExitRouter) {
  // §5.1: "it might make exit router A3 the Rendezvous-Point". With a
  // PIM-SM domain, the core glue pins the group's RP to the best exit
  // toward the root domain.
  core::Internet net;
  topology::Graph two(2);
  two.add_edge(0, 1);
  core::Domain& root = net.add_domain({.id = 1, .name = "root"});
  core::Domain& member =
      net.add_domain({.id = 2,
                      .name = "member",
                      .protocol = migp::Protocol::kPimSm,
                      .internal_graph = two,
                      .borders = {0, 1}});
  net.link(root, member, bgp::Relationship::kLateral, 0, 0);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();
  const core::Group group = Ipv4Addr::parse("224.0.128.1");
  member.host_join(group, /*at=*/1);
  net.settle();
  auto* pim = dynamic_cast<migp::PimSmMigp*>(&member.migp());
  ASSERT_NE(pim, nullptr);
  // Border 0 peers with the root: it is the exit, hence the RP.
  EXPECT_EQ(pim->rp_for(group), 0u);
}

TEST(PimSmIntegration, DataFlowsThroughPimSmDomain) {
  core::Internet net;
  topology::Graph three(3);
  three.add_edge(0, 1);
  three.add_edge(1, 2);
  core::Domain& root = net.add_domain({.id = 1, .name = "root"});
  core::Domain& mid =
      net.add_domain({.id = 2,
                      .name = "mid",
                      .protocol = migp::Protocol::kPimSm,
                      .internal_graph = three,
                      .borders = {0, 2}});
  core::Domain& leaf = net.add_domain({.id = 3, .name = "leaf"});
  std::map<const core::Domain*, int> copies;
  net.set_delivery_observer(
      [&](const core::Delivery& d) { ++copies[d.domain]; });
  net.link(root, mid, bgp::Relationship::kLateral, 0, 0);
  net.link(mid, leaf, bgp::Relationship::kLateral, 1, 0);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  root.announce_unicast();
  net.settle();
  const core::Group group = Ipv4Addr::parse("224.0.128.1");
  leaf.host_join(group);
  mid.host_join(group, /*at=*/1);  // member deep inside the PIM-SM domain
  net.settle();
  root.send(group);
  net.settle();
  EXPECT_EQ(copies[&leaf], 1);
  EXPECT_EQ(copies[&mid], 1);
}

// ------------------------------------------------- branch-copy semantics

TEST(BranchCopies, BrancherOnRootwardPathStillServesTree) {
  // source -- brancher -- root, plus member hanging off the root: the
  // brancher domain sits ON the source's rootward path AND holds a branch.
  // Its branch must not swallow the rootward flow feeding the tree.
  core::Internet net;
  core::Domain& root = net.add_domain({.id = 1, .name = "root"});
  core::Domain& brancher = net.add_domain({.id = 2, .name = "brancher"});
  core::Domain& source = net.add_domain({.id = 3, .name = "source"});
  core::Domain& member = net.add_domain({.id = 4, .name = "member"});
  std::map<const core::Domain*, std::vector<int>> hops;
  net.set_delivery_observer([&](const core::Delivery& d) {
    hops[d.domain].push_back(d.hops);
  });
  net.link(root, brancher);
  net.link(brancher, source);
  net.link(root, member);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  source.announce_unicast();
  net.settle();
  const core::Group group = Ipv4Addr::parse("224.0.128.1");
  brancher.host_join(group);
  member.host_join(group);
  net.settle();
  const Ipv4Addr s = source.host_address(1);
  brancher.build_source_branch(s, group);
  net.settle();
  hops.clear();
  source.send(group);
  net.settle();
  // The brancher gets one copy at branch distance (1 hop), and the member
  // across the root still gets its tree copy (3 hops via the brancher).
  ASSERT_EQ(hops[&brancher].size(), 1u);
  EXPECT_EQ(hops[&brancher][0], 1);
  ASSERT_EQ(hops[&member].size(), 1u);
  EXPECT_EQ(hops[&member][0], 3);
}

TEST(BranchCopies, TeardownOfSharedTreeLeavesBranchWorking) {
  core::Internet net;
  core::Domain& root = net.add_domain({.id = 1, .name = "root"});
  core::Domain& brancher = net.add_domain({.id = 2, .name = "brancher"});
  core::Domain& source = net.add_domain({.id = 3, .name = "source"});
  std::map<const core::Domain*, std::vector<int>> hops;
  net.set_delivery_observer([&](const core::Delivery& d) {
    hops[d.domain].push_back(d.hops);
  });
  net.link(root, brancher);
  net.link(root, source);
  net.link(source, brancher);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  source.announce_unicast();
  net.settle();
  const core::Group group = Ipv4Addr::parse("224.0.128.1");
  brancher.host_join(group);
  net.settle();
  const Ipv4Addr s = source.host_address(1);
  brancher.build_source_branch(s, group);
  net.settle();
  hops.clear();
  source.send(group);
  net.settle();
  ASSERT_EQ(hops[&brancher].size(), 1u);
  EXPECT_EQ(hops[&brancher][0], 1);  // via the branch
}

}  // namespace
