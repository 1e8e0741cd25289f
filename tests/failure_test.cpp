// Failure-injection tests: BGP session resets and BGMP tree repair under
// link failures (the §3 stability requirement — trees should survive and
// re-form rather than strand members).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "bgp/speaker.hpp"
#include "check/invariant.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "net/event.hpp"
#include "net/network.hpp"

namespace core {
namespace {

using net::Ipv4Addr;
using net::Prefix;

const Group kGroup = Ipv4Addr::parse("224.0.128.1");

// ------------------------------------------------------------ BGP resets

struct BgpNet {
  net::EventQueue events;
  net::Network network{events};
  std::vector<std::unique_ptr<bgp::Speaker>> speakers;

  bgp::Speaker& speaker(bgp::DomainId as, const std::string& name) {
    speakers.push_back(std::make_unique<bgp::Speaker>(network, as, name));
    return *speakers.back();
  }
  void settle() { events.run(2'000'000); }
};

TEST(BgpFailure, SessionLossFlushesLearnedRoutes) {
  BgpNet t;
  bgp::Speaker& s1 = t.speaker(1, "s1");
  bgp::Speaker& s2 = t.speaker(2, "s2");
  const net::ChannelId ch =
      bgp::Speaker::connect(s1, s2, bgp::Relationship::kLateral);
  s1.originate(bgp::RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  ASSERT_TRUE(s2.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                  .has_value());
  t.network.set_up(ch, false);
  t.settle();
  // Hold-timer semantics: the learned route is gone.
  EXPECT_FALSE(s2.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                   .has_value());
  EXPECT_EQ(s2.rib(bgp::RouteType::kGroup).size(), 0u);
}

TEST(BgpFailure, SessionRecoveryResynchronizesFullTable) {
  BgpNet t;
  bgp::Speaker& s1 = t.speaker(1, "s1");
  bgp::Speaker& s2 = t.speaker(2, "s2");
  const net::ChannelId ch =
      bgp::Speaker::connect(s1, s2, bgp::Relationship::kLateral);
  s1.originate(bgp::RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  s1.originate(bgp::RouteType::kUnicast, Prefix::parse("10.1.0.0/16"));
  t.settle();
  t.network.set_up(ch, false);
  t.settle();
  // Changes during the outage must surface after re-establishment.
  s1.originate(bgp::RouteType::kGroup, Prefix::parse("239.0.0.0/8"));
  s1.withdraw(bgp::RouteType::kUnicast, Prefix::parse("10.1.0.0/16"));
  t.settle();
  t.network.set_up(ch, true);
  t.settle();
  EXPECT_TRUE(s2.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                  .has_value());
  EXPECT_TRUE(s2.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("239.1.1.1"))
                  .has_value());
  EXPECT_FALSE(s2.lookup(bgp::RouteType::kUnicast, Ipv4Addr::parse("10.1.0.1"))
                   .has_value());
}

TEST(BgpFailure, FailoverToAlternatePath) {
  // Triangle: s3 prefers the direct link to s1; when it dies, the route
  // via s2 takes over; when it heals, the direct route returns.
  BgpNet t;
  bgp::Speaker& s1 = t.speaker(1, "s1");
  bgp::Speaker& s2 = t.speaker(2, "s2");
  bgp::Speaker& s3 = t.speaker(3, "s3");
  bgp::Speaker::connect(s1, s2, bgp::Relationship::kLateral);
  bgp::Speaker::connect(s2, s3, bgp::Relationship::kLateral);
  const net::ChannelId direct =
      bgp::Speaker::connect(s1, s3, bgp::Relationship::kLateral);
  s1.originate(bgp::RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  ASSERT_EQ(s3.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                ->next_hop,
            &s1);
  t.network.set_up(direct, false);
  t.settle();
  const auto via_s2 =
      s3.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"));
  ASSERT_TRUE(via_s2.has_value());
  EXPECT_EQ(via_s2->next_hop, &s2);
  EXPECT_EQ(via_s2->route->as_path.size(), 2u);
  t.network.set_up(direct, true);
  t.settle();
  EXPECT_EQ(s3.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                ->next_hop,
            &s1);
}

TEST(BgpFailure, InFlightUpdatesDieWithTheSession) {
  // Regression (found by the chaos checkers): an update already in flight
  // on a drop-when-down channel used to be delivered after the session
  // reset, resurrecting a route the flush had just removed — a candidate
  // pointing at a dead session.
  BgpNet t;
  bgp::Speaker& s1 = t.speaker(1, "s1");
  bgp::Speaker& s2 = t.speaker(2, "s2");
  const net::ChannelId ch =
      bgp::Speaker::connect(s1, s2, bgp::Relationship::kLateral);
  s1.originate(bgp::RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  // No settle: the update is still in flight when the session resets.
  t.network.set_up(ch, false);
  t.settle();
  EXPECT_FALSE(s2.lookup(bgp::RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                   .has_value());
  EXPECT_EQ(s2.rib(bgp::RouteType::kGroup).size(), 0u);
}

// -------------------------------------------------------- BGMP tree repair

struct RingNet {
  // root --- t1 --- member      (short path via t1)
  //   \------ t2 -----/          (backup path via t2)
  Internet net;
  Domain& root;
  Domain& t1;
  Domain& t2;
  Domain& member;
  std::map<const Domain*, std::vector<int>> hops;

  RingNet()
      : root(net.add_domain({.id = 1, .name = "root"})),
        t1(net.add_domain({.id = 2, .name = "t1"})),
        t2(net.add_domain({.id = 3, .name = "t2"})),
        member(net.add_domain({.id = 4, .name = "member"})) {
    net.set_delivery_observer([this](const Delivery& d) {
      hops[d.domain].push_back(d.hops);
    });
    net.link(root, t1);
    net.link(t1, member);
    net.link(root, t2);
    net.link(t2, member);
    root.originate_group_range(Prefix::parse("224.0.128.0/24"));
    root.announce_unicast();
    net.settle();
  }
};

TEST(BgmpFailure, TreeRepairsAroundFailedLink) {
  RingNet r;
  r.member.host_join(kGroup);
  r.net.settle();
  // The join went via one transit (say t1, the first-created path).
  const bool via_t1 = r.t1.bgmp_router().on_tree(kGroup);
  Domain& used = via_t1 ? r.t1 : r.t2;
  Domain& spare = via_t1 ? r.t2 : r.t1;
  ASSERT_FALSE(spare.bgmp_router().on_tree(kGroup));

  // Kill the member-side link of the used path.
  r.net.set_link_state(r.member, used, false);
  r.net.settle();
  // The tree re-formed through the spare transit.
  EXPECT_TRUE(r.member.bgmp_router().on_tree(kGroup));
  EXPECT_TRUE(spare.bgmp_router().on_tree(kGroup));

  r.hops.clear();
  r.root.send(kGroup);
  r.net.settle();
  ASSERT_EQ(r.hops[&r.member].size(), 1u);
  EXPECT_EQ(r.hops[&r.member][0], 2);
}

TEST(BgmpFailure, UpstreamSideStateIsPrunedOrExpired) {
  RingNet r;
  r.member.host_join(kGroup);
  r.net.settle();
  const bool via_t1 = r.t1.bgmp_router().on_tree(kGroup);
  Domain& used = via_t1 ? r.t1 : r.t2;
  r.net.set_link_state(r.member, used, false);
  r.net.settle();
  // The old transit lost its only child: its entry is gone and it told
  // the root; the root keeps serving the repaired path only.
  EXPECT_FALSE(used.bgmp_router().on_tree(kGroup));
  const bgmp::GroupEntry* at_root = r.root.bgmp_router().star_entry(kGroup);
  ASSERT_NE(at_root, nullptr);
  EXPECT_EQ(at_root->children.size(), 1u);
}

TEST(BgmpFailure, RootSideLinkFailureAlsoRepairs) {
  RingNet r;
  r.member.host_join(kGroup);
  r.net.settle();
  const bool via_t1 = r.t1.bgmp_router().on_tree(kGroup);
  Domain& used = via_t1 ? r.t1 : r.t2;
  // Kill the ROOT-side link of the used path: the transit's parent dies.
  r.net.set_link_state(r.root, used, false);
  r.net.settle();
  r.hops.clear();
  r.root.send(kGroup);
  r.net.settle();
  ASSERT_EQ(r.hops[&r.member].size(), 1u) << "member lost the group";
}

TEST(BgmpFailure, MemberSurvivesRepeatedFlaps) {
  RingNet r;
  r.member.host_join(kGroup);
  r.net.settle();
  for (int flap = 0; flap < 3; ++flap) {
    r.net.set_link_state(r.member, r.t1, false);
    r.net.settle();
    r.net.set_link_state(r.member, r.t1, true);
    r.net.settle();
  }
  r.hops.clear();
  r.root.send(kGroup);
  r.net.settle();
  EXPECT_EQ(r.hops[&r.member].size(), 1u);
}

TEST(BgmpFailure, TotalPartitionThenRecoveryViaRejoin) {
  RingNet r;
  r.member.host_join(kGroup);
  r.net.settle();
  // Cut both paths: repair has nowhere to go.
  r.net.set_link_state(r.member, r.t1, false);
  r.net.set_link_state(r.member, r.t2, false);
  r.net.settle();
  r.hops.clear();
  r.root.send(kGroup);
  r.net.settle();
  EXPECT_TRUE(r.hops[&r.member].empty());
  // Heal; a leave/re-join restores the tree (repair retries were spent).
  r.net.set_link_state(r.member, r.t1, true);
  r.net.set_link_state(r.member, r.t2, true);
  r.net.settle();
  r.member.host_leave(kGroup);
  r.net.settle();
  r.member.host_join(kGroup);
  r.net.settle();
  r.hops.clear();
  r.root.send(kGroup);
  r.net.settle();
  EXPECT_EQ(r.hops[&r.member].size(), 1u);
}

std::string violations_text(const std::vector<check::Violation>& violations) {
  std::string out;
  for (const check::Violation& v : violations) {
    out += "[" + v.invariant + "] " + v.subject + ": " + v.detail + "\n";
  }
  return out;
}

TEST(BgmpFailure, MemberCrashRestartRejoinsAndReconverges) {
  // §4.1 crash model: BGMP soft state dies with the router, but MIGP
  // membership and MASC allocations are stable storage. After the restart
  // the domain re-expresses membership, the tree re-forms, and the full
  // invariant suite holds on the converged state.
  RingNet r;
  r.member.host_join(kGroup);
  r.net.settle();
  r.net.crash_restart_domain(r.member);
  r.net.settle();
  EXPECT_TRUE(r.member.bgmp_router().on_tree(kGroup));
  r.hops.clear();
  r.root.send(kGroup);
  r.net.settle();
  ASSERT_EQ(r.hops[&r.member].size(), 1u) << "member lost the group";
  const auto violations = check::CheckerSuite::standard().run(r.net, true);
  EXPECT_TRUE(violations.empty()) << violations_text(violations);
}

TEST(BgmpFailure, TransitCrashRestartRepairsTree) {
  // Crashing the transit the tree runs through: its (*,G) state is gone
  // silently; downstream repair re-forms the tree (via either transit) and
  // the checkers find no stale or asymmetric state afterwards.
  RingNet r;
  r.member.host_join(kGroup);
  r.net.settle();
  const bool via_t1 = r.t1.bgmp_router().on_tree(kGroup);
  Domain& used = via_t1 ? r.t1 : r.t2;
  r.net.crash_restart_domain(used);
  r.net.settle();
  r.hops.clear();
  r.root.send(kGroup);
  r.net.settle();
  ASSERT_EQ(r.hops[&r.member].size(), 1u) << "member lost the group";
  const auto violations = check::CheckerSuite::standard().run(r.net, true);
  EXPECT_TRUE(violations.empty()) << violations_text(violations);
}

TEST(BgmpFailure, SourceBranchDropsWithItsPeering) {
  // root--mid--member plus a direct source--member link used by a branch;
  // when that link dies the branch state disappears and delivery falls
  // back to the shared tree.
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& mid = net.add_domain({.id = 2, .name = "mid"});
  Domain& member = net.add_domain({.id = 3, .name = "member"});
  Domain& source = net.add_domain({.id = 4, .name = "source"});
  std::map<const Domain*, std::vector<int>> hops;
  net.set_delivery_observer(
      [&](const Delivery& d) { hops[d.domain].push_back(d.hops); });
  net.link(root, mid);
  net.link(mid, member);
  net.link(root, source);
  net.link(source, member);  // shortcut for the branch
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  source.announce_unicast();
  net.settle();
  member.host_join(kGroup);
  net.settle();
  const Ipv4Addr s = source.host_address(1);
  member.build_source_branch(s, kGroup);
  net.settle();
  hops.clear();
  source.send(kGroup);
  net.settle();
  ASSERT_EQ(hops[&member].size(), 1u);
  EXPECT_EQ(hops[&member][0], 1);  // native via the branch

  net.set_link_state(source, member, false);
  net.settle();
  EXPECT_EQ(member.bgmp_router().source_entry(s, kGroup), nullptr);
  hops.clear();
  source.send(kGroup);
  net.settle();
  ASSERT_EQ(hops[&member].size(), 1u);
  EXPECT_EQ(hops[&member][0], 3);  // back on the shared tree via the root
}


TEST(BgmpStability, TreeMigratesWhenBetterPathAppears) {
  // member joins via a 3-hop path; a direct root--member link then comes
  // up. BGP converges on the 1-hop route and the route-change listener
  // migrates the tree parent (make-before-break), shortening delivery.
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& t1 = net.add_domain({.id = 2, .name = "t1"});
  Domain& t2 = net.add_domain({.id = 3, .name = "t2"});
  Domain& member = net.add_domain({.id = 4, .name = "member"});
  std::map<const Domain*, std::vector<int>> hops;
  net.set_delivery_observer(
      [&](const Delivery& d) { hops[d.domain].push_back(d.hops); });
  net.link(root, t1);
  net.link(t1, t2);
  net.link(t2, member);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();
  member.host_join(kGroup);
  net.settle();
  hops.clear();
  root.send(kGroup);
  net.settle();
  ASSERT_EQ(hops[&member].size(), 1u);
  EXPECT_EQ(hops[&member][0], 3);

  net.link(root, member);  // the shortcut appears
  net.settle();
  hops.clear();
  root.send(kGroup);
  net.settle();
  ASSERT_EQ(hops[&member].size(), 1u);
  EXPECT_EQ(hops[&member][0], 1);
  // The old path's state was pruned away.
  EXPECT_FALSE(t1.bgmp_router().on_tree(kGroup));
  EXPECT_FALSE(t2.bgmp_router().on_tree(kGroup));
}

TEST(BgmpStability, MigrationDampedNotPerUpdate) {
  // Multiple BGP updates inside one damping window cause at most one
  // re-resolution (the §3 stability requirement: trees "should not be
  // reshaped frequently").
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& member = net.add_domain({.id = 2, .name = "member"});
  net.link(root, member);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();
  member.host_join(kGroup);
  net.settle();
  const bgmp::GroupEntry* before = member.bgmp_router().star_entry(kGroup);
  ASSERT_NE(before, nullptr);
  const auto parent_before = before->parent;
  // Churn an unrelated covering route repeatedly.
  for (int i = 0; i < 5; ++i) {
    root.originate_group_range(Prefix::parse("224.0.0.0/16"));
    root.withdraw_group_range(Prefix::parse("224.0.0.0/16"));
  }
  net.settle();
  const bgmp::GroupEntry* after = member.bgmp_router().star_entry(kGroup);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->parent, parent_before);  // stable tree
}

// ------------------------------------------------- MASC across partitions

TEST(MascFailure, ClaimsSurvivePartitionsViaHeldDelivery) {
  // MASC peerings use held-message semantics (not session resets): a claim
  // sent into a partition arrives when it heals — within the waiting
  // period nothing is lost. (The protocol-level behavior is covered in
  // masc_test; this pins the channel semantics through the core wiring.)
  Internet net;
  Domain& top = net.add_domain({.id = 1, .name = "top"});
  Domain& child = net.add_domain({.id = 2, .name = "child"});
  net.link(top, child, bgp::Relationship::kCustomer);
  net.masc_parent(child, top);
  top.masc_node().set_spaces({net::multicast_space()});
  top.masc_node().request_space(65536);
  net.settle();
  child.masc_node().request_space(256);
  net.settle();
  EXPECT_EQ(child.masc_node().pool().prefixes().size(), 1u);
  EXPECT_EQ(child.masc_node().collisions_suffered(), 0);
}

}  // namespace
}  // namespace core
