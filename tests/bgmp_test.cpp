// Tests for BGMP through the assembled architecture (core::Internet):
// bidirectional shared trees, root-domain behaviour, join/prune teardown,
// non-member senders, multi-border-router domains with internal (MIGP)
// targets, encapsulation, and source-specific branches — including the
// paper's Figure 3(a)/(b) scenarios end to end. One lone router with a
// recording domain service pins the exact sequence of MIGP border-state
// joins and leaves.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgmp/router.hpp"
#include "bgp/speaker.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "net/event.hpp"
#include "net/network.hpp"
#include "net/prefix.hpp"
#include "obs/record.hpp"
#include "topology/generators.hpp"

namespace core {
namespace {

using net::Ipv4Addr;
using net::Prefix;

const Group kGroup = Ipv4Addr::parse("224.0.128.1");

// Flat target containers must keep std::map/std::set semantics: sorted
// iteration, refcount slots created at zero, erase by key or iterator.
TEST(TargetList, KeepsMapSemantics) {
  // Fake routers never dereferenced: keys are built directly so the test
  // controls the stable `order` field (normally the peer's domain id).
  bgmp::Router* const fake_a = reinterpret_cast<bgmp::Router*>(0x10);
  bgmp::Router* const fake_b = reinterpret_cast<bgmp::Router*>(0x20);
  const bgmp::TargetKey key_a{bgmp::TargetKey::Kind::kPeer, fake_a, 1};
  const bgmp::TargetKey key_b{bgmp::TargetKey::Kind::kPeer, fake_b, 2};
  bgmp::TargetList list;
  EXPECT_TRUE(list.empty());
  ++list[key_b];
  ++list[key_a];
  ++list[key_a];
  ++list[bgmp::TargetKey::migp()];
  EXPECT_EQ(list.size(), 3u);
  EXPECT_TRUE(list.contains(bgmp::TargetKey::migp()));
  // Iteration is sorted by TargetKey: migp before peers, peers by their
  // stable domain-id order — never by pointer value.
  std::vector<bgmp::TargetKey> order;
  for (const auto& [key, refs] : list) {
    (void)refs;
    order.push_back(key);
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], bgmp::TargetKey::migp());
  EXPECT_EQ(order[1], key_a);
  EXPECT_EQ(order[2], key_b);
  const auto it = list.find(key_a);
  ASSERT_NE(it, list.end());
  EXPECT_EQ(it->second, 2);
  EXPECT_EQ(list.erase(key_b), 1u);
  EXPECT_EQ(list.erase(key_b), 0u);
  list.erase(list.find(bgmp::TargetKey::migp()));
  EXPECT_EQ(list.size(), 1u);
}

TEST(TargetSet, DeduplicatesAndSorts) {
  bgmp::Router* const fake = reinterpret_cast<bgmp::Router*>(0x10);
  const bgmp::TargetKey key{bgmp::TargetKey::Kind::kPeer, fake, 1};
  bgmp::TargetSet set;
  set.insert(key);
  set.insert(bgmp::TargetKey::migp());
  set.insert(key);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(bgmp::TargetKey::migp()));
  EXPECT_TRUE(set.contains(key));
}

struct DeliveryLog {
  std::vector<Delivery> entries;

  void attach(Internet& internet) {
    internet.set_delivery_observer(
        [this](const Delivery& d) { entries.push_back(d); });
  }
  [[nodiscard]] int count_for(const Domain& d) const {
    int n = 0;
    for (const auto& e : entries) {
      if (e.domain == &d) ++n;
    }
    return n;
  }
  [[nodiscard]] std::optional<int> hops_for(const Domain& d) const {
    for (const auto& e : entries) {
      if (e.domain == &d) return e.hops;
    }
    return std::nullopt;
  }
  void clear() { entries.clear(); }
};

// ---------------------------------------------------------- simple chains

// Root R -- T -- M (member domain two hops from the root).
struct Chain {
  Internet net;
  Domain& root;
  Domain& transit;
  Domain& member;
  DeliveryLog log;

  Chain()
      : root(net.add_domain({.id = 1, .name = "R"})),
        transit(net.add_domain({.id = 2, .name = "T"})),
        member(net.add_domain({.id = 3, .name = "M"})) {
    log.attach(net);
    net.link(root, transit);
    net.link(transit, member);
    root.originate_group_range(Prefix::parse("224.0.128.0/24"));
    root.announce_unicast();
    transit.announce_unicast();
    member.announce_unicast();
    net.settle();
  }
};

TEST(Bgmp, JoinPropagatesTowardRootDomain) {
  Chain c;
  c.member.host_join(kGroup);
  c.net.settle();
  // The member domain's border router, the transit router and the root
  // router all hold (*,G) state.
  EXPECT_TRUE(c.member.bgmp_router().on_tree(kGroup));
  EXPECT_TRUE(c.transit.bgmp_router().on_tree(kGroup));
  EXPECT_TRUE(c.root.bgmp_router().on_tree(kGroup));
  // Transit's entry: parent toward root, child toward member.
  const bgmp::GroupEntry* entry = c.transit.bgmp_router().star_entry(kGroup);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->parent.has_value());
  EXPECT_EQ(entry->parent->peer, &c.root.bgmp_router());
  EXPECT_EQ(entry->children.size(), 1u);
}

TEST(Bgmp, DataFlowsFromRootMemberToMember) {
  Chain c;
  c.member.host_join(kGroup);
  c.root.host_join(kGroup);
  c.net.settle();
  c.log.clear();
  c.root.send(kGroup);
  c.net.settle();
  // Exactly one delivery at each member domain; the remote one 2 hops.
  EXPECT_EQ(c.log.count_for(c.member), 1);
  EXPECT_EQ(c.log.count_for(c.root), 1);
  EXPECT_EQ(c.log.hops_for(c.member), 2);
  EXPECT_EQ(c.log.hops_for(c.root), 0);
}

TEST(Bgmp, BidirectionalFlowFromLeafMember) {
  Chain c;
  c.member.host_join(kGroup);
  c.root.host_join(kGroup);
  c.net.settle();
  c.log.clear();
  c.member.send(kGroup);
  c.net.settle();
  EXPECT_EQ(c.log.count_for(c.root), 1);
  EXPECT_EQ(c.log.hops_for(c.root), 2);
  // The sender's own domain delivery carries 0 hops.
  EXPECT_EQ(c.log.hops_for(c.member), 0);
}

TEST(Bgmp, NonMemberSenderDataReachesTree) {
  // §3/§5.2: senders need not be members. A domain with no members and no
  // tree state sends; data travels toward the root domain and reaches
  // members when it hits the tree.
  Chain c;
  c.member.host_join(kGroup);
  c.net.settle();
  c.log.clear();
  c.transit.send(kGroup);  // transit domain hosts the (non-member) sender
  c.net.settle();
  EXPECT_EQ(c.log.count_for(c.member), 1);
  EXPECT_EQ(c.log.hops_for(c.member), 1);  // transit → member directly
  EXPECT_EQ(c.log.count_for(c.transit), 0);
}

TEST(Bgmp, SenderBeyondRootReachesMembersThroughRoot) {
  Chain c;
  c.member.host_join(kGroup);
  c.net.settle();
  c.log.clear();
  c.root.send(kGroup);  // root domain hosts a non-member sender
  c.net.settle();
  EXPECT_EQ(c.log.count_for(c.member), 1);
  EXPECT_EQ(c.log.hops_for(c.member), 2);
}

TEST(Bgmp, NoMembersAnywhereDataDies) {
  Chain c;
  c.log.clear();
  c.transit.send(kGroup);
  c.net.settle();
  EXPECT_TRUE(c.log.entries.empty());
  // No stray state was created by data packets.
  EXPECT_FALSE(c.root.bgmp_router().on_tree(kGroup));
}

TEST(Bgmp, LeaveTearsDownTree) {
  Chain c;
  c.member.host_join(kGroup);
  c.net.settle();
  ASSERT_TRUE(c.root.bgmp_router().on_tree(kGroup));
  c.member.host_leave(kGroup);
  c.net.settle();
  // §5.2: prunes propagate rootward and the tree is torn down.
  EXPECT_FALSE(c.member.bgmp_router().on_tree(kGroup));
  EXPECT_FALSE(c.transit.bgmp_router().on_tree(kGroup));
  EXPECT_FALSE(c.root.bgmp_router().on_tree(kGroup));
  // Data now dies quietly.
  c.log.clear();
  c.transit.send(kGroup);
  c.net.settle();
  EXPECT_TRUE(c.log.entries.empty());
}

TEST(Bgmp, SecondMemberDomainSharesTreeSegments) {
  // Star: root in the middle, two member domains on opposite sides.
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "R"});
  Domain& m1 = net.add_domain({.id = 2, .name = "M1"});
  Domain& m2 = net.add_domain({.id = 3, .name = "M2"});
  DeliveryLog log;
  log.attach(net);
  net.link(root, m1);
  net.link(root, m2);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  m1.announce_unicast();
  net.settle();
  m1.host_join(kGroup);
  m2.host_join(kGroup);
  net.settle();
  const bgmp::GroupEntry* entry = root.bgmp_router().star_entry(kGroup);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->children.size(), 2u);
  log.clear();
  m1.send(kGroup);
  net.settle();
  // m2 receives exactly one copy via the root, 2 hops.
  EXPECT_EQ(log.count_for(m2), 1);
  EXPECT_EQ(log.hops_for(m2), 2);
}

TEST(Bgmp, MembersJoinLocallyRootedGroup) {
  Chain c;
  c.root.host_join(kGroup);
  c.net.settle();
  // The root domain's designated router holds the entry with an MIGP
  // parent (§5.2: "its MIGP component as the parent target").
  const bgmp::GroupEntry* entry = c.root.bgmp_router().star_entry(kGroup);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->parent.has_value());
  EXPECT_EQ(entry->parent->kind, bgmp::TargetKey::Kind::kMigp);
}

// ------------------------------------------------ multi-border-router (A)

// Figure 3(a)'s shape, reduced: domain A has three border routers A1
// (toward E), A2 (toward C), A3 (toward B, the root). C joins; data from a
// sender in E must transit A and reach C and B's member.
struct Figure3Core {
  Internet net;
  Domain& a;
  Domain& b;  // root
  Domain& c;
  Domain& e;
  DeliveryLog log;

  // A's internal graph: A1=0, A2=1, A3=2 in a triangle.
  static topology::Graph triangle() {
    topology::Graph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(0, 2);
    return g;
  }

  Figure3Core()
      : a(net.add_domain({.id = 10,
                          .name = "A",
                          .internal_graph = triangle(),
                          .borders = {0, 1, 2}})),
        b(net.add_domain({.id = 20, .name = "B"})),
        c(net.add_domain({.id = 30, .name = "C"})),
        e(net.add_domain({.id = 50, .name = "E"})) {
    log.attach(net);
    net.link(e, a, bgp::Relationship::kLateral, 0, 0);  // E1 -- A1
    net.link(c, a, bgp::Relationship::kProvider, 0, 1); // C1 -- A2
    net.link(b, a, bgp::Relationship::kProvider, 0, 2); // B1 -- A3
    b.originate_group_range(Prefix::parse("224.0.128.0/24"));
    for (Domain* d : {&a, &b, &c, &e}) d->announce_unicast();
    net.settle();
  }
};

TEST(Bgmp, JoinThroughMultiRouterDomainUsesMigpTargets) {
  Figure3Core f;
  f.c.host_join(kGroup);
  f.net.settle();
  // A2 (border index 1) is C's entry: its parent target is the MIGP
  // component (next hop toward root is internal peer A3), child C1.
  const bgmp::GroupEntry* a2 = f.a.bgmp_router(1).star_entry(kGroup);
  ASSERT_NE(a2, nullptr);
  ASSERT_TRUE(a2->parent.has_value());
  EXPECT_EQ(a2->parent->kind, bgmp::TargetKey::Kind::kMigp);
  ASSERT_EQ(a2->children.size(), 1u);
  EXPECT_EQ(a2->children.begin()->first.peer, &f.c.bgmp_router());

  // A3 (border index 2): parent external B1, child the MIGP component.
  const bgmp::GroupEntry* a3 = f.a.bgmp_router(2).star_entry(kGroup);
  ASSERT_NE(a3, nullptr);
  ASSERT_TRUE(a3->parent.has_value());
  EXPECT_EQ(a3->parent->kind, bgmp::TargetKey::Kind::kPeer);
  EXPECT_EQ(a3->parent->peer, &f.b.bgmp_router());
  EXPECT_TRUE(a3->children.contains(bgmp::TargetKey::migp()));

  // A1 (border 0) is not on the tree.
  EXPECT_FALSE(f.a.bgmp_router(0).on_tree(kGroup));
}

TEST(Bgmp, TransitDataFromNonTreeBorderReachesAllMembers) {
  // Figure 3(a)'s data flow: a host in E (no members) sends. E1 forwards
  // toward the root; A1 (no state) moves it through A's MIGP; the on-tree
  // borders distribute it to C and B.
  Figure3Core f;
  f.c.host_join(kGroup);
  f.b.host_join(kGroup);
  f.net.settle();
  f.log.clear();
  f.e.send(kGroup);
  f.net.settle();
  EXPECT_EQ(f.log.count_for(f.c), 1);
  EXPECT_EQ(f.log.count_for(f.b), 1);
  EXPECT_EQ(f.log.count_for(f.e), 0);
  EXPECT_EQ(f.log.count_for(f.a), 0);  // A has no members
  // E→A = 1 hop, A→C = 2nd hop; A→B = 2nd hop.
  EXPECT_EQ(f.log.hops_for(f.c), 2);
  EXPECT_EQ(f.log.hops_for(f.b), 2);
}

TEST(Bgmp, MembersInsideTransitDomainAreServed) {
  Figure3Core f;
  f.a.host_join(kGroup, /*at=*/1);  // member attached at A2's router
  f.c.host_join(kGroup);
  f.net.settle();
  f.log.clear();
  f.c.send(kGroup);
  f.net.settle();
  EXPECT_EQ(f.log.count_for(f.a), 1);
}

// --------------------------------------------- source-specific branches

// Figure 3(b), reduced to its essence: domain F runs DVMRP (RPF-strict)
// and has two border routers: F1 on the shared tree toward the root B,
// and F2 with a shortcut link toward the source domain D. Data from D
// arrives at F1 on the shared tree, fails the internal RPF check (F's
// best exit toward D is F2), gets encapsulated F1→F2, and F2 then builds
// a source-specific branch toward D and prunes the encapsulated path.
struct Figure3b {
  Internet net;
  Domain& b;  // root
  Domain& d;  // source domain
  Domain& f;  // member domain with two borders
  DeliveryLog log;

  static topology::Graph pair_graph() {
    topology::Graph g(2);
    g.add_edge(0, 1);
    return g;
  }

  Figure3b()
      : b(net.add_domain({.id = 20, .name = "B"})),
        d(net.add_domain({.id = 40, .name = "D"})),
        f(net.add_domain({.id = 60,
                          .name = "F",
                          .internal_graph = pair_graph(),
                          .borders = {0, 1}})) {
    log.attach(net);
    net.link(b, f, bgp::Relationship::kLateral, 0, 0);  // B1 -- F1
    net.link(b, d, bgp::Relationship::kLateral, 0, 0);  // B1 -- D1
    net.link(d, f, bgp::Relationship::kLateral, 0, 1);  // D1 -- F2 shortcut
    b.originate_group_range(Prefix::parse("224.0.128.0/24"));
    for (Domain* dom : {&b, &d, &f}) dom->announce_unicast();
    net.settle();
  }
};

TEST(Bgmp, SharedTreeDeliveryTriggersEncapsulationAndBranch) {
  Figure3b fig;
  // Members in F join via F's best exit toward the root (F1, border 0:
  // F1—B1 is one hop; F2 would be two).
  fig.f.host_join(kGroup, /*at=*/0);
  fig.net.settle();
  ASSERT_TRUE(fig.f.bgmp_router(0).on_tree(kGroup));
  EXPECT_FALSE(fig.f.bgmp_router(1).on_tree(kGroup));

  fig.log.clear();
  fig.d.send(kGroup);
  fig.net.settle();
  // The member received the data (first copy via encapsulation F1→F2).
  EXPECT_GE(fig.log.count_for(fig.f), 1);
  // F2 established the (S,G) branch toward D.
  const Ipv4Addr source = fig.d.host_address(1);
  const bgmp::SourceEntry* sg =
      fig.f.bgmp_router(1).source_entry(source, kGroup);
  ASSERT_NE(sg, nullptr);
  ASSERT_TRUE(sg->parent.has_value());
  EXPECT_EQ(sg->parent->peer, &fig.d.bgmp_router());
  // D1 is in the source domain: the branch join stopped there with an
  // (S,G) entry whose child is F2.
  const bgmp::SourceEntry* at_d =
      fig.d.bgmp_router().source_entry(source, kGroup);
  ASSERT_NE(at_d, nullptr);
  EXPECT_TRUE(at_d->children.contains(
      bgmp::TargetKey::external(&fig.f.bgmp_router(1))));
}

TEST(Bgmp, AfterBranchDataTakesShortPathAndEncapsulationStops) {
  Figure3b fig;
  fig.f.host_join(kGroup, /*at=*/0);
  fig.net.settle();
  fig.d.send(kGroup);  // first packet: shared tree + encapsulation + branch
  fig.net.settle();
  fig.log.clear();
  fig.d.send(kGroup);  // second packet: native via the branch D1→F2
  fig.net.settle();
  ASSERT_EQ(fig.log.count_for(fig.f), 1);
  EXPECT_EQ(fig.log.hops_for(fig.f), 1);  // D→F direct, not D→B→F
}

TEST(Bgmp, BranchSuppressedWhenDisabled) {
  Figure3b fig;
  fig.f.bgmp_router(1).set_auto_source_branch(false);
  fig.f.host_join(kGroup, /*at=*/0);
  fig.net.settle();
  fig.d.send(kGroup);
  fig.net.settle();
  const Ipv4Addr source = fig.d.host_address(1);
  EXPECT_EQ(fig.f.bgmp_router(1).source_entry(source, kGroup), nullptr);
  // Deliveries continue via encapsulation on every packet.
  fig.log.clear();
  fig.d.send(kGroup);
  fig.net.settle();
  EXPECT_EQ(fig.log.count_for(fig.f), 1);
  EXPECT_EQ(fig.log.hops_for(fig.f), 2);  // still via the root
}

TEST(Bgmp, ExplicitSourceBranchRequest) {
  // A receiver domain may build the branch proactively (the Figure-4
  // hybrid-tree evaluation drives this path).
  Figure3b fig;
  fig.f.host_join(kGroup, /*at=*/0);
  fig.net.settle();
  const Ipv4Addr source = fig.d.host_address(1);
  fig.f.build_source_branch(source, kGroup);
  fig.net.settle();
  fig.log.clear();
  fig.d.send(kGroup);
  fig.net.settle();
  ASSERT_EQ(fig.log.count_for(fig.f), 1);
  EXPECT_EQ(fig.log.hops_for(fig.f), 1);
}

// ---------------------------------------------------- MIGP border state

/// A DomainService that records every migp_border_state call. A lone
/// router's control plane needs nothing else from its domain.
class RecordingService final : public bgmp::DomainService {
 public:
  struct Call {
    Group group;
    bool join;
    bool operator==(const Call&) const = default;
  };
  std::vector<Call> calls;

  bool deliver_data(bgmp::Router&, Ipv4Addr, Group, int) override {
    return true;
  }
  void rootward_transit(bgmp::Router&, bgmp::Router&, Ipv4Addr, Group,
                        int) override {}
  void encapsulate(bgmp::Router&, bgmp::Router&, Ipv4Addr, Group,
                   int) override {}
  bool deliver_decapsulated(bgmp::Router&, bgmp::Router&, Ipv4Addr, Group,
                            int) override {
    return true;
  }
  bgmp::Router* rpf_exit(Ipv4Addr) override { return nullptr; }
  bool needs_encapsulated_delivery(bgmp::Router&, Group) override {
    return false;
  }
  void relay_control(bgmp::Router&, bgmp::Router&,
                     const bgmp::ControlMessage&) override {}
  void migp_border_state(bgmp::Router&, Group group, bool join) override {
    calls.push_back({group, join});
  }
};

/// One border router of a domain that roots the groups and hosts the
/// source, so every entry it creates has the MIGP component as parent and
/// no control message leaves it. `peer` stands for a second border router
/// of the same domain that relays joins and prunes through the MIGP.
struct LoneRouter {
  net::EventQueue events;
  net::Network network{events};
  bgp::Speaker speaker{network, 1, "s1"};
  bgp::Speaker peer_speaker{network, 1, "s1b"};
  RecordingService service;
  bgmp::Router router{network, speaker, service, "r1"};
  bgmp::Router peer{network, peer_speaker, service, "r1b"};
  const Ipv4Addr source = Ipv4Addr::parse("10.0.0.5");

  LoneRouter() {
    speaker.originate(bgp::RouteType::kGroup,
                      Prefix::parse("224.0.128.0/24"));
    speaker.originate(bgp::RouteType::kUnicast, Prefix::parse("10.0.0.0/24"));
    router.set_prune_lifetime(net::SimTime::seconds(10));
  }

  void internal(bgmp::ControlMessage::Kind kind, Group group,
                Ipv4Addr src = Ipv4Addr{}) {
    bgmp::ControlMessage msg;
    msg.kind = kind;
    msg.group = group;
    msg.source = src;
    router.internal_control(peer, msg);
  }
  /// The calls since the last take().
  std::vector<RecordingService::Call> take() {
    return std::exchange(service.calls, {});
  }
};

Group group_n(std::uint32_t n) {
  return Ipv4Addr{Ipv4Addr::parse("224.0.128.0").value() + n};
}

using Calls = std::vector<RecordingService::Call>;

TEST(BgmpBorderState, JoinAnnouncesOnceAndTeardownWithdraws) {
  LoneRouter t;
  const Group g = group_n(1);
  // A member join that creates the (*,G) entry joins the MIGP.
  t.router.local_members_present(g);
  ASSERT_TRUE(t.router.on_tree(g));
  EXPECT_EQ(t.take(), (Calls{{g, true}}));
  // A second joiner (an internal peer) shares the entry: no new call.
  t.internal(bgmp::ControlMessage::Kind::kJoinGroup, g);
  EXPECT_EQ(t.take(), Calls{});
  // The first leave keeps the entry; the last tears it down and leaves.
  t.router.local_members_absent(g);
  EXPECT_TRUE(t.router.on_tree(g));
  EXPECT_EQ(t.take(), Calls{});
  t.internal(bgmp::ControlMessage::Kind::kPruneGroup, g);
  EXPECT_FALSE(t.router.on_tree(g));
  EXPECT_EQ(t.take(), (Calls{{g, false}}));
  // A prune for a group with no state changes nothing.
  t.internal(bgmp::ControlMessage::Kind::kPruneGroup, g);
  EXPECT_EQ(t.take(), Calls{});
}

TEST(BgmpBorderState, SourceBranchHoldsStateWithoutAStarEntry) {
  LoneRouter t;
  const Group g = group_n(2);
  t.router.local_members_present(g);
  t.router.local_members_absent(g);
  EXPECT_EQ(t.take(), (Calls{{g, true}, {g, false}}));
  // After the (*,G) entry is gone, a source branch joins on its own.
  t.router.request_source_branch(t.source, g);
  ASSERT_NE(t.router.source_entry(t.source, g), nullptr);
  EXPECT_FALSE(t.router.on_tree(g));
  EXPECT_EQ(t.take(), (Calls{{g, true}}));
  // A (*,G) entry created and torn down beside it changes nothing: the
  // state is held throughout.
  t.router.local_members_present(g);
  t.router.local_members_absent(g);
  EXPECT_FALSE(t.router.on_tree(g));
  EXPECT_EQ(t.take(), Calls{});
  // Pruned to no children, the (S,G) entry stays until its soft state
  // expires; then the border state goes with it.
  t.internal(bgmp::ControlMessage::Kind::kPruneSource, g, t.source);
  EXPECT_EQ(t.take(), Calls{});
  t.events.run();
  EXPECT_EQ(t.router.source_entry(t.source, g), nullptr);
  EXPECT_EQ(t.take(), (Calls{{g, false}}));
}

TEST(BgmpBorderState, SourceBranchBeforeStarEntryIsNotAnnouncedTwice) {
  LoneRouter t;
  const Group g = group_n(3);
  t.router.request_source_branch(t.source, g);
  EXPECT_EQ(t.take(), (Calls{{g, true}}));
  t.router.local_members_present(g);
  t.internal(bgmp::ControlMessage::Kind::kJoinGroup, g);
  ASSERT_TRUE(t.router.on_tree(g));
  EXPECT_EQ(t.take(), Calls{});
  t.internal(bgmp::ControlMessage::Kind::kPruneGroup, g);
  t.router.local_members_absent(g);
  EXPECT_FALSE(t.router.on_tree(g));
  EXPECT_EQ(t.take(), Calls{});
}

TEST(BgmpBorderState, CrashWithdrawsEveryHeldGroupOnceInGroupOrder) {
  LoneRouter t;
  // Set up out of group order, mixing the places the state is held:
  // (*,G) entries (1, 4), (S,G) alone (2), (S,G) then (*,G) (5), and a
  // group whose state came and went (3).
  t.router.local_members_present(group_n(4));
  t.router.request_source_branch(t.source, group_n(2));
  t.router.request_source_branch(t.source, group_n(5));
  t.router.local_members_present(group_n(5));
  t.router.local_members_present(group_n(1));
  t.router.local_members_present(group_n(3));
  t.router.local_members_absent(group_n(3));
  t.take();
  t.router.lose_all_state();
  EXPECT_EQ(t.take(), (Calls{{group_n(1), false},
                             {group_n(2), false},
                             {group_n(4), false},
                             {group_n(5), false}}));
  EXPECT_EQ(t.router.entry_count(), 0u);
  // Nothing is held any more: a rejoin announces afresh, a second crash
  // withdraws only that.
  t.router.local_members_present(group_n(2));
  EXPECT_EQ(t.take(), (Calls{{group_n(2), true}}));
  t.router.lose_all_state();
  EXPECT_EQ(t.take(), (Calls{{group_n(2), false}}));
}

// ---------------------------------------------------------- (*,G) table

TEST(BgmpGroupTable, RouteChangeReresolvesOnlyForRangesHoldingAGroup) {
  LoneRouter t;
  t.router.local_members_present(group_n(5));
  const std::size_t idle = t.events.pending();
  // G-RIB changes for ranges just below and just above the group: no
  // group inside, nothing to re-resolve.
  t.speaker.originate(bgp::RouteType::kGroup, Prefix::parse("224.0.128.0/30"));
  t.speaker.originate(bgp::RouteType::kGroup, Prefix::parse("224.0.128.8/29"));
  EXPECT_EQ(t.events.pending(), idle);
  // A range covering the group schedules one re-resolve, and a second
  // change before it runs adds none.
  t.speaker.originate(bgp::RouteType::kGroup, Prefix::parse("224.0.128.4/30"));
  EXPECT_EQ(t.events.pending(), idle + 1);
  t.speaker.originate(bgp::RouteType::kGroup, Prefix::parse("224.0.128.4/31"));
  EXPECT_EQ(t.events.pending(), idle + 1);
  t.events.run();
  EXPECT_TRUE(t.router.on_tree(group_n(5)));
}

/// The (*,G) joins and prunes each router sends, read from the network's
/// span stream: "JOIN <group> -> <receiver>" in send order.
class ControlLog {
 public:
  explicit ControlLog(Internet& net) {
    net.network().stream().add_sink(sink_);
    net.network().stream().set_span_rate(1.0);
  }
  /// Forgets everything logged so far.
  void mark() { from_ = sink_->records().size(); }
  [[nodiscard]] std::vector<std::string> sent_by(Domain& d) const {
    const std::string router = d.bgmp_router().name();
    std::vector<std::string> out;
    const auto& records = sink_->records();
    for (std::size_t i = from_; i < records.size(); ++i) {
      const obs::Record& r = records[i];
      if (r.kind != obs::Record::Kind::kSend || r.from != router) continue;
      for (const char* kind : {"JOIN", "PRUNE"}) {
        const std::string prefix = std::string("BGMP ") + kind + "(*,G) G=";
        if (r.text.rfind(prefix, 0) == 0) {
          out.push_back(std::string(kind) + " " +
                        r.text.substr(prefix.size()) + " -> " + r.to);
        }
      }
    }
    return out;
  }

 private:
  std::shared_ptr<obs::MemorySink> sink_ = std::make_shared<obs::MemorySink>();
  std::size_t from_ = 0;
};

/// Groups joined out of address order, so a walk in any other order shows.
const std::vector<Group> kScrambled = {group_n(9), group_n(2), group_n(5)};

TEST(BgmpGroupTable, ReresolveMovesParentsInGroupOrder) {
  // m prefers lateral a over provider b toward root r. When a loses r,
  // m's G-RIB route moves to b and every (*,G) parent migrates: join b,
  // then prune a, group by group in address order.
  Internet net;
  Domain& r = net.add_domain({.id = 1, .name = "r"});
  Domain& a = net.add_domain({.id = 2, .name = "a"});
  Domain& b = net.add_domain({.id = 3, .name = "b"});
  Domain& m = net.add_domain({.id = 4, .name = "m"});
  net.link(r, a);
  net.link(r, b);
  net.link(m, a, bgp::Relationship::kLateral);
  net.link(m, b, bgp::Relationship::kProvider);
  r.originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();
  for (const Group g : kScrambled) m.host_join(g);
  net.settle();
  ASSERT_EQ(m.bgmp_router().star_entry(group_n(2))->parent,
            bgmp::TargetKey::external(&a.bgmp_router()));
  ControlLog log(net);
  net.set_link_state(r, a, false);
  net.settle();
  EXPECT_EQ(log.sent_by(m),
            (std::vector<std::string>{
                "JOIN 224.0.128.2 -> b/bgmp", "PRUNE 224.0.128.2 -> a/bgmp",
                "JOIN 224.0.128.5 -> b/bgmp", "PRUNE 224.0.128.5 -> a/bgmp",
                "JOIN 224.0.128.9 -> b/bgmp", "PRUNE 224.0.128.9 -> a/bgmp"}));
}

TEST(BgmpGroupTable, ChannelDownPrunesAndRejoinsInGroupOrder) {
  // t carries m's groups toward root r and has a longer way round through
  // u. Losing m empties every entry: prunes to r in group order. Losing r
  // orphans them: rejoins through u in group order.
  Internet net;
  Domain& r = net.add_domain({.id = 1, .name = "r"});
  Domain& t = net.add_domain({.id = 2, .name = "t"});
  Domain& u = net.add_domain({.id = 3, .name = "u"});
  Domain& m = net.add_domain({.id = 4, .name = "m"});
  Domain& n = net.add_domain({.id = 5, .name = "n"});
  net.link(r, t);
  net.link(t, u);
  net.link(u, r);
  net.link(t, m);
  net.link(t, n);
  r.originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();
  for (const Group g : kScrambled) m.host_join(g);
  net.settle();
  ControlLog log(net);
  net.set_link_state(t, m, false);
  net.settle();
  EXPECT_EQ(log.sent_by(t), (std::vector<std::string>{
                                "PRUNE 224.0.128.2 -> r/bgmp",
                                "PRUNE 224.0.128.5 -> r/bgmp",
                                "PRUNE 224.0.128.9 -> r/bgmp"}));
  for (const Group g : kScrambled) n.host_join(g);
  net.settle();
  log.mark();
  net.set_link_state(r, t, false);
  net.settle();
  EXPECT_EQ(log.sent_by(t), (std::vector<std::string>{
                                "JOIN 224.0.128.2 -> u/bgmp",
                                "JOIN 224.0.128.5 -> u/bgmp",
                                "JOIN 224.0.128.9 -> u/bgmp"}));
}

TEST(BgmpGroupTable, RestartRejoinsInGroupOrder) {
  Internet net;
  Domain& r = net.add_domain({.id = 1, .name = "r"});
  Domain& m = net.add_domain({.id = 2, .name = "m"});
  net.link(r, m);
  r.originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();
  for (const Group g : kScrambled) m.host_join(g);
  net.settle();
  EXPECT_EQ(m.migp().groups_with_members(),
            (std::vector<Group>{group_n(2), group_n(5), group_n(9)}));
  ControlLog log(net);
  m.crash();
  m.restart();
  EXPECT_EQ(log.sent_by(m), (std::vector<std::string>{
                                "JOIN 224.0.128.2 -> r/bgmp",
                                "JOIN 224.0.128.5 -> r/bgmp",
                                "JOIN 224.0.128.9 -> r/bgmp"}));
}

// ------------------------------------------------------------- properties

// Property: on random trees of member domains, every member receives
// exactly one copy from any sender, and path lengths equal the hop counts.
TEST(BgmpProperty, ExactlyOneCopyPerMemberAcrossRandomTopology) {
  net::Rng rng(77);
  const topology::Graph graph = topology::make_as_level(40, 2, rng);
  Internet net;
  DeliveryLog log;
  log.attach(net);
  const std::vector<Domain*> domains = net.build_from_graph(graph);
  domains[0]->originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();

  std::set<std::size_t> members;
  for (int i = 0; i < 12; ++i) members.insert(rng.index(domains.size()));
  for (const std::size_t m : members) {
    domains[m]->host_join(kGroup);
  }
  net.settle();

  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t sender = rng.index(domains.size());
    domains[sender]->announce_unicast();
    net.settle();
    log.clear();
    domains[sender]->send(kGroup);
    net.settle();
    for (const std::size_t m : members) {
      if (m == sender) continue;
      EXPECT_EQ(log.count_for(*domains[m]), 1)
          << "member " << m << " sender " << sender;
    }
    // Non-members got nothing.
    for (const auto& e : log.entries) {
      bool is_member = false;
      for (const std::size_t m : members) {
        if (e.domain == domains[m]) is_member = true;
      }
      EXPECT_TRUE(is_member || e.domain == domains[sender]);
    }
  }
}

// Property: prune teardown leaves no residual state anywhere.
TEST(BgmpProperty, FullTeardownAfterAllLeaves) {
  net::Rng rng(78);
  const topology::Graph graph = topology::make_as_level(30, 2, rng);
  Internet net;
  const std::vector<Domain*> domains = net.build_from_graph(graph);
  domains[0]->originate_group_range(Prefix::parse("224.0.128.0/24"));
  net.settle();
  std::vector<std::size_t> members;
  for (int i = 0; i < 8; ++i) members.push_back(rng.index(domains.size()));
  for (const std::size_t m : members) domains[m]->host_join(kGroup);
  net.settle();
  for (const std::size_t m : members) domains[m]->host_leave(kGroup);
  net.settle();
  for (const auto* d : domains) {
    EXPECT_FALSE(const_cast<Domain*>(d)->bgmp_router().on_tree(kGroup));
  }
}

}  // namespace
}  // namespace core
