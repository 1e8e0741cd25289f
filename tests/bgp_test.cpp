// Tests for the BGP substrate: decision process, update propagation, iBGP
// best-exit selection, group-route aggregation (§4.3.2) and policy as
// selective propagation (§2/§4.2).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bgp/adj_rib_out.hpp"
#include "bgp/messages.hpp"
#include "bgp/rib.hpp"
#include "bgp/route_table.hpp"
#include "bgp/speaker.hpp"
#include "bgp/types.hpp"
#include "net/event.hpp"
#include "net/network.hpp"

namespace bgp {
namespace {

using net::Ipv4Addr;
using net::Prefix;

// ---------------------------------------------------------------- decision

Candidate make_candidate(PeerIndex via, std::vector<DomainId> path,
                         int local_pref, std::uint32_t exit_uid,
                         bool internal = false) {
  Candidate c;
  c.route = Route{PathRef::intern(path), 1, local_pref};
  c.via = via;
  c.internal = internal;
  c.exit_uid = exit_uid;
  return c;
}

TEST(Decision, LocalOriginationWins) {
  const Candidate local = make_candidate(kLocalPeer, {}, 100, 5);
  const Candidate learned = make_candidate(0, {2}, 200, 1);
  EXPECT_TRUE(better(local, learned));
  EXPECT_FALSE(better(learned, local));
}

TEST(Decision, HigherLocalPrefWins) {
  const Candidate customer = make_candidate(0, {2, 3, 4}, 100, 9);
  const Candidate provider = make_candidate(1, {5}, 80, 1);
  EXPECT_TRUE(better(customer, provider));
}

TEST(Decision, ShorterPathBreaksLocalPrefTie) {
  const Candidate shorter = make_candidate(0, {2}, 100, 9);
  const Candidate longer = make_candidate(1, {3, 4}, 100, 1);
  EXPECT_TRUE(better(shorter, longer));
}

TEST(Decision, LowestExitUidBreaksFinalTie) {
  const Candidate low = make_candidate(0, {2}, 100, 3);
  const Candidate high = make_candidate(1, {3}, 100, 7);
  EXPECT_TRUE(better(low, high));
  EXPECT_FALSE(better(high, low));
}

TEST(RibEntry, UpsertSelectsAndReportsChanges) {
  RibEntry entry;
  EXPECT_TRUE(entry.upsert(make_candidate(0, {2, 3}, 100, 5)));
  EXPECT_EQ(entry.best()->via, 0u);
  // Worse candidate: no change.
  EXPECT_FALSE(entry.upsert(make_candidate(1, {2, 3, 4}, 100, 6)));
  EXPECT_EQ(entry.best()->via, 0u);
  // Better candidate: change.
  EXPECT_TRUE(entry.upsert(make_candidate(2, {7}, 100, 9)));
  EXPECT_EQ(entry.best()->via, 2u);
  // Replacing the best with an equal route: no change reported.
  EXPECT_FALSE(entry.upsert(make_candidate(2, {7}, 100, 9)));
}

TEST(RibEntry, RemoveFallsBackToNextBest) {
  RibEntry entry;
  entry.upsert(make_candidate(0, {2}, 100, 5));
  entry.upsert(make_candidate(1, {2, 3}, 100, 6));
  EXPECT_TRUE(entry.remove(0));
  ASSERT_NE(entry.best(), nullptr);
  EXPECT_EQ(entry.best()->via, 1u);
  EXPECT_TRUE(entry.remove(1));
  EXPECT_EQ(entry.best(), nullptr);
  EXPECT_FALSE(entry.remove(1));  // absent: no-op
}

TEST(Rib, RemovingAbsentPrefixOrCandidateChangesNothing) {
  Rib rib;
  const Prefix held = Prefix::parse("224.0.0.0/16");
  rib.upsert(held, make_candidate(0, {2}, 100, 5));
  rib.upsert(held, make_candidate(1, {2, 3}, 100, 6));
  const std::size_t size = rib.size();
  const std::size_t candidates = rib.candidate_count();
  EXPECT_EQ(candidates, 2u);
  // Replacing a peer's candidate appends nothing.
  rib.upsert(held, make_candidate(1, {2, 3, 4}, 100, 6));
  EXPECT_EQ(rib.candidate_count(), candidates);

  // Absent prefix: a pure lookup, no entry left behind.
  const RibEntry* entry = rib.find(held);
  EXPECT_FALSE(rib.remove(Prefix::parse("224.1.0.0/16"), 0, &entry));
  EXPECT_EQ(entry, nullptr);
  EXPECT_EQ(rib.size(), size);
  EXPECT_EQ(rib.candidate_count(), candidates);
  EXPECT_EQ(rib.find(Prefix::parse("224.1.0.0/16")), nullptr);

  // Absent candidate under a held prefix: same.
  EXPECT_FALSE(rib.remove(held, 7));
  EXPECT_EQ(rib.size(), size);
  EXPECT_EQ(rib.candidate_count(), candidates);

  // A real removal still counts, and the last one erases the entry.
  EXPECT_TRUE(rib.remove(held, 0, &entry));
  EXPECT_NE(entry, nullptr);
  EXPECT_EQ(rib.candidate_count(), candidates - 1);
  EXPECT_TRUE(rib.remove(held, 1, &entry));
  EXPECT_EQ(entry, nullptr);
  EXPECT_EQ(rib.size(), 0u);
  EXPECT_EQ(rib.candidate_count(), 0u);
}

TEST(Rib, LongestMatchFallsBackAfterLongestIsRemoved) {
  Rib rib;
  const Prefix p8 = Prefix::parse("224.0.0.0/8");
  const Prefix p16 = Prefix::parse("224.0.0.0/16");
  const Prefix p24 = Prefix::parse("224.0.0.0/24");
  rib.upsert(p8, make_candidate(0, {2}, 100, 5));
  rib.upsert(p16, make_candidate(1, {3}, 100, 6));
  rib.upsert(p24, make_candidate(2, {4}, 100, 7));
  const Ipv4Addr addr = Ipv4Addr::parse("224.0.0.9");
  ASSERT_TRUE(rib.longest_match(addr).has_value());
  EXPECT_EQ(rib.longest_match(addr)->first, p24);

  // Removing the /24's only candidate erases the last /24 in the table.
  EXPECT_TRUE(rib.remove(p24, 2));
  const auto hit = rib.longest_match(addr);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, p16);
  EXPECT_EQ(hit->second->via, 1u);
}

// -------------------------------------------------------------- AdjRibOut

RouteRef route_ref(DomainId origin) {
  return RouteRef::intern(Route{PathRef::intern({origin}), origin, 100});
}

TEST(AdjRibOut, RowLivesWhileAnyCellIsSet) {
  AdjRibOut out;
  out.add_column();
  out.add_column();
  const Prefix p = Prefix::parse("224.2.0.0/16");
  const RouteRef r = route_ref(9);
  std::uint32_t row = out.find(p);
  EXPECT_EQ(row, AdjRibOut::kNoRow);
  EXPECT_FALSE(out.assign(p, row, 0, r).has_value());
  ASSERT_NE(row, AdjRibOut::kNoRow);
  EXPECT_FALSE(out.assign(p, row, 1, r).has_value());
  EXPECT_EQ(out.cell(row, 0), r);
  EXPECT_EQ(out.find(p), row);

  EXPECT_EQ(out.clear(p, row, 0), r);
  EXPECT_NE(row, AdjRibOut::kNoRow);  // peer 1's cell keeps the row
  EXPECT_FALSE(out.cell(row, 0).has_value());
  EXPECT_EQ(out.clear(p, row, 1), r);
  EXPECT_EQ(row, AdjRibOut::kNoRow);
  EXPECT_EQ(out.find(p), AdjRibOut::kNoRow);
}

TEST(AdjRibOut, NewColumnKeepsExistingCells) {
  AdjRibOut out;
  out.add_column();
  const Prefix a = Prefix::parse("224.3.0.0/16");
  const Prefix b = Prefix::parse("224.4.0.0/16");
  const RouteRef ra = route_ref(3);
  const RouteRef rb = route_ref(4);
  std::uint32_t row_a = AdjRibOut::kNoRow;
  std::uint32_t row_b = AdjRibOut::kNoRow;
  out.assign(a, row_a, 0, ra);
  out.assign(b, row_b, 0, rb);
  out.add_column();  // a peering added after rows exist
  EXPECT_EQ(out.cell(out.find(a), 0), ra);
  EXPECT_EQ(out.cell(out.find(b), 0), rb);
  EXPECT_FALSE(out.cell(out.find(a), 1).has_value());
  out.assign(a, row_a, 1, ra);

  // Clearing peer 0's column drops b's row only.
  out.clear_column(0);
  EXPECT_EQ(out.find(b), AdjRibOut::kNoRow);
  ASSERT_NE(out.find(a), AdjRibOut::kNoRow);
  std::vector<Prefix> column;
  out.for_each_in_column(1, [&](const Prefix& p, const RouteRef& ref) {
    column.push_back(p);
    EXPECT_EQ(ref, ra);
  });
  EXPECT_EQ(column, std::vector<Prefix>{a});
}

// ------------------------------------------------------------- environment

struct TestNet {
  net::EventQueue events;
  net::Network network{events};
  std::vector<std::unique_ptr<Speaker>> speakers;

  Speaker& speaker(DomainId as, const std::string& name) {
    speakers.push_back(std::make_unique<Speaker>(network, as, name));
    return *speakers.back();
  }
  void settle() { events.run(2'000'000); }
};

// ------------------------------------------------------ basic propagation

TEST(Speaker, PropagatesRouteAcrossALine) {
  TestNet t;
  // AS1 -- AS2 -- AS3 in a line.
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker& s3 = t.speaker(3, "s3");
  Speaker::connect(s1, s2, Relationship::kLateral);
  Speaker::connect(s2, s3, Relationship::kLateral);
  s1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();

  const auto at3 = s3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3"));
  ASSERT_TRUE(at3.has_value());
  EXPECT_EQ(at3->prefix, Prefix::parse("224.1.0.0/16"));
  EXPECT_EQ(at3->next_hop, &s2);
  EXPECT_EQ(at3->route->origin_as, 1u);
  EXPECT_EQ(at3->route->as_path, (std::vector<DomainId>{2, 1}));

  const auto at1 = s1.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3"));
  ASSERT_TRUE(at1.has_value());
  EXPECT_EQ(at1->next_hop, nullptr);  // locally originated: root domain
}

TEST(Speaker, UnicastAndGroupViewsAreIndependent) {
  TestNet t;
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker::connect(s1, s2, Relationship::kLateral);
  s1.originate(RouteType::kUnicast, Prefix::parse("10.1.0.0/16"));
  s1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  EXPECT_TRUE(s2.lookup(RouteType::kUnicast, Ipv4Addr::parse("10.1.2.3")));
  EXPECT_FALSE(s2.lookup(RouteType::kGroup, Ipv4Addr::parse("10.1.2.3")));
  EXPECT_FALSE(
      s2.lookup(RouteType::kUnicast, Ipv4Addr::parse("224.1.2.3")).has_value());
  EXPECT_TRUE(s2.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")));
}

TEST(Speaker, LateOriginationReachesExistingPeers) {
  TestNet t;
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker::connect(s1, s2, Relationship::kLateral);
  t.settle();
  s1.originate(RouteType::kGroup, Prefix::parse("239.0.0.0/8"));
  t.settle();
  EXPECT_TRUE(s2.lookup(RouteType::kGroup, Ipv4Addr::parse("239.1.1.1")));
}

TEST(Speaker, LatePeeringGetsFullTable) {
  TestNet t;
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  s1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  s1.originate(RouteType::kUnicast, Prefix::parse("10.1.0.0/16"));
  t.settle();
  Speaker::connect(s1, s2, Relationship::kLateral);
  t.settle();
  EXPECT_TRUE(s2.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")));
  EXPECT_TRUE(s2.lookup(RouteType::kUnicast, Ipv4Addr::parse("10.1.2.3")));
}

TEST(Speaker, PeeringAddedAfterRowsExistGetsFullTable) {
  TestNet t;
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker& s3 = t.speaker(3, "s3");
  const Prefix group = Prefix::parse("224.1.0.0/16");
  s1.originate(RouteType::kGroup, group);
  Speaker::connect(s1, s2, Relationship::kLateral);
  t.settle();
  Speaker::connect(s1, s3, Relationship::kLateral);
  t.settle();
  std::vector<std::pair<PeerIndex, Prefix>> sent;
  s1.for_each_advertised(
      RouteType::kGroup, [&](const Prefix& p, PeerIndex peer,
                             const Route& route) {
        sent.emplace_back(peer, p);
        EXPECT_EQ(route.as_path, std::vector<DomainId>{1});
      });
  EXPECT_EQ(sent, (std::vector<std::pair<PeerIndex, Prefix>>{{0, group},
                                                              {1, group}}));
  EXPECT_TRUE(s3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")));
  s1.withdraw(RouteType::kGroup, group);
  t.settle();
  EXPECT_FALSE(s2.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")));
  EXPECT_FALSE(s3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")));
}

TEST(Speaker, WithdrawPropagates) {
  TestNet t;
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker& s3 = t.speaker(3, "s3");
  Speaker::connect(s1, s2, Relationship::kLateral);
  Speaker::connect(s2, s3, Relationship::kLateral);
  s1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  ASSERT_TRUE(s3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")));
  s1.withdraw(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  EXPECT_FALSE(
      s3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")).has_value());
  EXPECT_EQ(s3.rib(RouteType::kGroup).size(), 0u);
}

TEST(Speaker, PrefersShorterPathAcrossTriangle) {
  TestNet t;
  // Triangle 1-2, 2-3, 1-3: s3 should reach AS1 directly, not via AS2.
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker& s3 = t.speaker(3, "s3");
  Speaker::connect(s1, s2, Relationship::kLateral);
  Speaker::connect(s2, s3, Relationship::kLateral);
  Speaker::connect(s1, s3, Relationship::kLateral);
  s1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  const auto hit = s3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->next_hop, &s1);
  EXPECT_EQ(hit->route->as_path.size(), 1u);
}

TEST(Speaker, RecoversWhenBestPathWithdrawn) {
  TestNet t;
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker& s3 = t.speaker(3, "s3");
  Speaker::connect(s1, s2, Relationship::kLateral);
  Speaker::connect(s2, s3, Relationship::kLateral);
  Speaker::connect(s1, s3, Relationship::kLateral);
  s1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  // Remove the direct 1-3 route by withdrawing… we cannot remove peerings,
  // so withdraw and re-originate reachable only via 2 is modelled by
  // s1->s3 session going down.
  // Simplest equivalent: verify the s3 entry has both candidates.
  const RibEntry* entry =
      s3.rib(RouteType::kGroup).find(Prefix::parse("224.1.0.0/16"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->candidates().size(), 2u);
}

TEST(Speaker, RejectsLoopedPaths) {
  TestNet t;
  // Square 1-2-3-4-1. AS1 originates. Every AS must still converge with
  // loop-free paths (the loop check drops updates whose path contains the
  // receiver).
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker& s3 = t.speaker(3, "s3");
  Speaker& s4 = t.speaker(4, "s4");
  Speaker::connect(s1, s2, Relationship::kLateral);
  Speaker::connect(s2, s3, Relationship::kLateral);
  Speaker::connect(s3, s4, Relationship::kLateral);
  Speaker::connect(s4, s1, Relationship::kLateral);
  s1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  for (Speaker* s : {&s2, &s3, &s4}) {
    const auto hit =
        s->lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->route->contains_as(s->as()));
  }
  // s3 is two hops from AS1 either way.
  EXPECT_EQ(s3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                ->route->as_path.size(),
            2u);
}

// ----------------------------------------------------------------- iBGP

TEST(Speaker, IbgpElectsSingleBestExit) {
  TestNet t;
  // Domain A (AS10) has two border routers a1, a2 (iBGP full mesh). Both
  // have external routes to AS1's prefix with equal path length. All of
  // A's routers must agree on one exit (lowest uid — a1, created first).
  Speaker& x1 = t.speaker(1, "x1");
  Speaker& x2 = t.speaker(1, "x2");
  Speaker& a1 = t.speaker(10, "a1");
  Speaker& a2 = t.speaker(10, "a2");
  Speaker& a3 = t.speaker(10, "a3");
  Speaker::connect(a1, a2, Relationship::kInternal);
  Speaker::connect(a1, a3, Relationship::kInternal);
  Speaker::connect(a2, a3, Relationship::kInternal);
  Speaker::connect(x1, a1, Relationship::kLateral);
  Speaker::connect(x2, a2, Relationship::kLateral);
  Speaker::connect(x1, x2, Relationship::kInternal);
  x1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  x2.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();

  const auto at1 = a1.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"));
  const auto at2 = a2.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"));
  const auto at3 = a3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"));
  ASSERT_TRUE(at1 && at2 && at3);
  // a1 is the best exit: it uses its external peer; a2 and a3 point at a1.
  EXPECT_EQ(at1->next_hop, &x1);
  EXPECT_FALSE(at1->internal);
  EXPECT_EQ(at2->next_hop, &a1);
  EXPECT_TRUE(at2->internal);
  EXPECT_EQ(at3->next_hop, &a1);
  EXPECT_TRUE(at3->internal);
}

TEST(Speaker, IbgpLearnedRoutesNotReflected) {
  TestNet t;
  // a1 learns externally; a2 learns from a1 over iBGP; a3 peers only with
  // a2. Without route reflection, a3 must NOT learn the route.
  Speaker& x1 = t.speaker(1, "x1");
  Speaker& a1 = t.speaker(10, "a1");
  Speaker& a2 = t.speaker(10, "a2");
  Speaker& a3 = t.speaker(10, "a3");
  Speaker::connect(x1, a1, Relationship::kLateral);
  Speaker::connect(a1, a2, Relationship::kInternal);
  Speaker::connect(a2, a3, Relationship::kInternal);  // not full mesh!
  x1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  EXPECT_TRUE(a2.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1")));
  EXPECT_FALSE(a3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1"))
                   .has_value());
}

TEST(Speaker, InternalPeeringRequiresSameAs) {
  TestNet t;
  Speaker& s1 = t.speaker(1, "s1");
  Speaker& s2 = t.speaker(2, "s2");
  Speaker& s3 = t.speaker(1, "s3");
  EXPECT_THROW(Speaker::connect(s1, s2, Relationship::kInternal),
               std::invalid_argument);
  EXPECT_THROW(Speaker::connect(s1, s3, Relationship::kLateral),
               std::invalid_argument);
}

// ------------------------------------------------------------ aggregation

TEST(Speaker, AggregationSuppressesCoveredChildRoutes) {
  TestNet t;
  // Paper §4.2/§4.3.2: B (child) injects 224.0.128.0/24; A (parent)
  // originates 224.0.0.0/16; D peers with A. D must see only the /16,
  // while A's own routers hold the more-specific /24.
  Speaker& b1 = t.speaker(20, "b1");
  Speaker& a1 = t.speaker(10, "a1");
  Speaker& d1 = t.speaker(30, "d1");
  Speaker::connect(b1, a1, Relationship::kProvider);
  Speaker::connect(a1, d1, Relationship::kLateral);
  a1.originate(RouteType::kGroup, Prefix::parse("224.0.0.0/16"));
  b1.originate(RouteType::kGroup, Prefix::parse("224.0.128.0/24"));
  t.settle();

  // A holds both routes.
  EXPECT_EQ(a1.rib(RouteType::kGroup).size(), 2u);
  const auto a_hit =
      a1.lookup(RouteType::kGroup, Ipv4Addr::parse("224.0.128.1"));
  ASSERT_TRUE(a_hit.has_value());
  EXPECT_EQ(a_hit->prefix, Prefix::parse("224.0.128.0/24"));
  EXPECT_EQ(a_hit->next_hop, &b1);

  // D sees only the aggregate; packets toward 224.0.128.1 go to A.
  EXPECT_EQ(d1.rib(RouteType::kGroup).size(), 1u);
  const auto d_hit =
      d1.lookup(RouteType::kGroup, Ipv4Addr::parse("224.0.128.1"));
  ASSERT_TRUE(d_hit.has_value());
  EXPECT_EQ(d_hit->prefix, Prefix::parse("224.0.0.0/16"));
  EXPECT_EQ(d_hit->next_hop, &a1);
}

TEST(Speaker, AggregationRespectsOriginationOrder) {
  TestNet t;
  // The child's /24 arrives BEFORE the parent originates its /16: the
  // parent must then withdraw the now-covered /24 from external peers.
  Speaker& b1 = t.speaker(20, "b1");
  Speaker& a1 = t.speaker(10, "a1");
  Speaker& d1 = t.speaker(30, "d1");
  Speaker::connect(b1, a1, Relationship::kProvider);
  Speaker::connect(a1, d1, Relationship::kLateral);
  b1.originate(RouteType::kGroup, Prefix::parse("224.0.128.0/24"));
  t.settle();
  EXPECT_EQ(d1.rib(RouteType::kGroup).size(), 1u);  // the /24, for now
  a1.originate(RouteType::kGroup, Prefix::parse("224.0.0.0/16"));
  t.settle();
  EXPECT_EQ(d1.rib(RouteType::kGroup).size(), 1u);
  EXPECT_TRUE(
      d1.rib(RouteType::kGroup).find(Prefix::parse("224.0.0.0/16")) !=
      nullptr);
  EXPECT_TRUE(
      d1.rib(RouteType::kGroup).find(Prefix::parse("224.0.128.0/24")) ==
      nullptr);
}

TEST(Speaker, WithdrawingAggregateReexposesSpecifics) {
  TestNet t;
  Speaker& b1 = t.speaker(20, "b1");
  Speaker& a1 = t.speaker(10, "a1");
  Speaker& d1 = t.speaker(30, "d1");
  Speaker::connect(b1, a1, Relationship::kProvider);
  Speaker::connect(a1, d1, Relationship::kLateral);
  a1.originate(RouteType::kGroup, Prefix::parse("224.0.0.0/16"));
  b1.originate(RouteType::kGroup, Prefix::parse("224.0.128.0/24"));
  t.settle();
  a1.withdraw(RouteType::kGroup, Prefix::parse("224.0.0.0/16"));
  t.settle();
  // The /24 must now be visible at D (reachability preserved).
  const auto d_hit =
      d1.lookup(RouteType::kGroup, Ipv4Addr::parse("224.0.128.1"));
  ASSERT_TRUE(d_hit.has_value());
  EXPECT_EQ(d_hit->prefix, Prefix::parse("224.0.128.0/24"));
}

TEST(Speaker, NestedOwnOriginationsSuppressUntilTheLastIsWithdrawn) {
  TestNet t;
  // One view with two own originations, the /16 inside the /8: B's /24
  // stays suppressed at D while either covers it.
  Speaker& b1 = t.speaker(20, "b1");
  Speaker& a1 = t.speaker(10, "a1");
  Speaker& d1 = t.speaker(30, "d1");
  Speaker::connect(b1, a1, Relationship::kProvider);
  Speaker::connect(a1, d1, Relationship::kLateral);
  const Prefix p8 = Prefix::parse("224.0.0.0/8");
  const Prefix p16 = Prefix::parse("224.0.0.0/16");
  const Prefix p24 = Prefix::parse("224.0.128.0/24");
  a1.originate(RouteType::kGroup, p8);
  a1.originate(RouteType::kGroup, p16);
  b1.originate(RouteType::kGroup, p24);
  t.settle();
  const Rib& at_d = d1.rib(RouteType::kGroup);
  EXPECT_NE(at_d.find(p8), nullptr);
  EXPECT_NE(at_d.find(p16), nullptr);
  EXPECT_EQ(at_d.find(p24), nullptr);

  a1.withdraw(RouteType::kGroup, p16);
  t.settle();
  EXPECT_NE(at_d.find(p8), nullptr);
  EXPECT_EQ(at_d.find(p16), nullptr);
  EXPECT_EQ(at_d.find(p24), nullptr);  // the /8 still covers it

  a1.withdraw(RouteType::kGroup, p8);
  t.settle();
  EXPECT_EQ(at_d.find(p8), nullptr);
  const auto d_hit =
      d1.lookup(RouteType::kGroup, Ipv4Addr::parse("224.0.128.1"));
  ASSERT_TRUE(d_hit.has_value());
  EXPECT_EQ(d_hit->prefix, p24);
  EXPECT_EQ(d_hit->next_hop, &a1);
}

TEST(Speaker, AggregationOffPropagatesEverything) {
  TestNet t;
  Speaker& b1 = t.speaker(20, "b1");
  Speaker& a1 = t.speaker(10, "a1");
  Speaker& d1 = t.speaker(30, "d1");
  Speaker::connect(b1, a1, Relationship::kProvider);
  Speaker::connect(a1, d1, Relationship::kLateral);
  a1.set_aggregation(false);
  a1.originate(RouteType::kGroup, Prefix::parse("224.0.0.0/16"));
  b1.originate(RouteType::kGroup, Prefix::parse("224.0.128.0/24"));
  t.settle();
  EXPECT_EQ(d1.rib(RouteType::kGroup).size(), 2u);
}

// ----------------------------------------------------------------- policy

TEST(Speaker, GaoRexfordBlocksValleyTransit) {
  TestNet t;
  // c (AS3) is a customer of both p1 (AS1) and p2 (AS2). p1 originates a
  // prefix; with Gao–Rexford export at c, p2 must NOT learn it through c
  // (no valley transit), but c itself must.
  Speaker& p1 = t.speaker(1, "p1");
  Speaker& p2 = t.speaker(2, "p2");
  Speaker& c = t.speaker(3, "c");
  Speaker::connect(p1, c, Relationship::kCustomer,
                   net::SimTime::milliseconds(10), ExportPolicy::kGaoRexford,
                   ExportPolicy::kGaoRexford);
  Speaker::connect(p2, c, Relationship::kCustomer,
                   net::SimTime::milliseconds(10), ExportPolicy::kGaoRexford,
                   ExportPolicy::kGaoRexford);
  p1.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  EXPECT_TRUE(c.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1")));
  EXPECT_FALSE(
      p2.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1")).has_value());
}

TEST(Speaker, GaoRexfordExportsCustomerRoutesUpward) {
  TestNet t;
  // Customer routes DO go to providers: c originates, p1 must learn it.
  Speaker& p1 = t.speaker(1, "p1");
  Speaker& c = t.speaker(3, "c");
  Speaker::connect(p1, c, Relationship::kCustomer,
                   net::SimTime::milliseconds(10), ExportPolicy::kGaoRexford,
                   ExportPolicy::kGaoRexford);
  c.originate(RouteType::kGroup, Prefix::parse("224.3.0.0/16"));
  t.settle();
  EXPECT_TRUE(p1.lookup(RouteType::kGroup, Ipv4Addr::parse("224.3.0.1")));
}

TEST(Speaker, GaoRexfordBlocksProviderRoutesToLateralPeer) {
  TestNet t;
  // b learns a route from its provider a; b peers laterally with d.
  // Provider-learned routes must not be exported to lateral peers.
  Speaker& a = t.speaker(1, "a");
  Speaker& b = t.speaker(2, "b");
  Speaker& d = t.speaker(3, "d");
  Speaker::connect(a, b, Relationship::kCustomer,
                   net::SimTime::milliseconds(10), ExportPolicy::kGaoRexford,
                   ExportPolicy::kGaoRexford);
  Speaker::connect(b, d, Relationship::kLateral,
                   net::SimTime::milliseconds(10), ExportPolicy::kGaoRexford,
                   ExportPolicy::kGaoRexford);
  a.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  t.settle();
  EXPECT_TRUE(b.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1")));
  EXPECT_FALSE(
      d.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.0.1")).has_value());
}

TEST(Speaker, CustomerRoutePreferredOverLateral) {
  TestNet t;
  // s has the same prefix reachable via a customer and a lateral peer; the
  // customer route must win despite equal path lengths.
  Speaker& origin = t.speaker(5, "origin");
  Speaker& cust = t.speaker(2, "cust");
  Speaker& lat = t.speaker(3, "lat");
  Speaker& s = t.speaker(1, "s");
  Speaker::connect(origin, cust, Relationship::kLateral);
  Speaker::connect(origin, lat, Relationship::kLateral);
  Speaker::connect(s, cust, Relationship::kCustomer);
  Speaker::connect(s, lat, Relationship::kLateral);
  origin.originate(RouteType::kGroup, Prefix::parse("224.5.0.0/16"));
  t.settle();
  const auto hit = s.lookup(RouteType::kGroup, Ipv4Addr::parse("224.5.0.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->next_hop, &cust);
}

// ----------------------------------------------------- figure-1 scenario

TEST(Speaker, Figure1GroupRouteDistribution) {
  TestNet t;
  // Figure 1: A's border routers A1..A4 (iBGP mesh); B1 advertises B's
  // range 224.0.128.0/24 to A3. All of A's routers must resolve the root
  // domain of 224.0.128.1 via A3 toward B1; A3 uses B1 directly.
  Speaker& a1 = t.speaker(10, "A1");
  Speaker& a2 = t.speaker(10, "A2");
  Speaker& a3 = t.speaker(10, "A3");
  Speaker& a4 = t.speaker(10, "A4");
  Speaker& b1 = t.speaker(20, "B1");
  Speaker* as_a[] = {&a1, &a2, &a3, &a4};
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      Speaker::connect(*as_a[i], *as_a[j], Relationship::kInternal);
    }
  }
  Speaker::connect(a3, b1, Relationship::kCustomer);
  b1.originate(RouteType::kGroup, Prefix::parse("224.0.128.0/24"));
  t.settle();

  const auto at3 = a3.lookup(RouteType::kGroup, Ipv4Addr::parse("224.0.128.1"));
  ASSERT_TRUE(at3.has_value());
  EXPECT_EQ(at3->next_hop, &b1);
  EXPECT_FALSE(at3->internal);
  for (Speaker* s : {&a1, &a2, &a4}) {
    const auto hit =
        s->lookup(RouteType::kGroup, Ipv4Addr::parse("224.0.128.1"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->next_hop, &a3) << s->name();
    EXPECT_TRUE(hit->internal);
  }
}

// --------------------------------------------------------- update batches

/// a -- s -- b in a line: s's peer 0 is a, its peer 1 is b. Tests forge
/// updates into s as if a had sent them and watch what s sends b.
struct Relay {
  TestNet t;
  Speaker& a = t.speaker(1, "a");
  Speaker& s = t.speaker(2, "s");
  Speaker& b = t.speaker(3, "b");

  Relay() {
    Speaker::connect(a, s, Relationship::kLateral);
    Speaker::connect(s, b, Relationship::kLateral);
    t.settle();
  }

  /// Hands `deltas` to s as one update from a, in a drain of its own
  /// outside the event queue.
  void forge_from_a(const std::vector<UpdateMessage::Delta>& deltas) {
    auto update = std::make_unique<UpdateMessage>();
    for (const UpdateMessage::Delta& d : deltas) update->deltas.push_back(d);
    net::SmallFunction<void()> deliveries = [&] {
      s.on_message(s.peer_channel(0), std::move(update));
    };
    s.on_drain(deliveries);
  }
};

Route route_via(std::vector<DomainId> path) {
  return Route{PathRef::intern(path), path.back(), 100};
}

/// a -- s, with b and c downstream of s. Every update a sends at one
/// instant reaches s in one drain: a has no other peer, so nothing else is
/// pending between them.
struct Fork {
  TestNet t;
  Speaker& a = t.speaker(1, "a");
  Speaker& s = t.speaker(2, "s");
  Speaker& b = t.speaker(3, "b");
  Speaker& c = t.speaker(4, "c");

  Fork() {
    Speaker::connect(a, s, Relationship::kLateral);
    Speaker::connect(s, b, Relationship::kLateral);
    Speaker::connect(s, c, Relationship::kLateral);
    t.settle();
  }

  [[nodiscard]] std::uint64_t batched() {
    return t.network.metrics().counter("net.deliveries_batched").value();
  }
};

TEST(SpeakerBatch, UpdatesOfOneDrainLeaveAsOneUpdatePerPeer) {
  Fork f;
  constexpr int kUpdates = 5;
  const std::uint64_t batched = f.batched();
  const std::uint64_t sent = f.t.network.messages_sent();
  // Each origination flushes its own update: kUpdates messages from a.
  for (int i = 0; i < kUpdates; ++i) {
    f.a.originate(RouteType::kGroup,
                  Prefix::parse("224." + std::to_string(i + 1) + ".0.0/16"));
  }
  ASSERT_EQ(f.t.network.messages_sent(), sent + kUpdates);
  f.t.settle();
  // They rode one drain into s: the first one's event carried the rest,
  // and s's one update per link carries nothing more...
  EXPECT_EQ(f.batched(), batched + kUpdates - 1);
  // ...so s sent b and c one update each, not one per received update;
  // b and c, whose only peer is s, send nothing back.
  EXPECT_EQ(f.t.network.messages_sent(), sent + kUpdates + 2);
  for (int i = 0; i < kUpdates; ++i) {
    const Ipv4Addr addr =
        Ipv4Addr::parse("224." + std::to_string(i + 1) + ".2.3");
    EXPECT_TRUE(f.b.lookup(RouteType::kGroup, addr)) << i;
    EXPECT_TRUE(f.c.lookup(RouteType::kGroup, addr)) << i;
  }
}

TEST(SpeakerBatch, AnnounceThenWithdrawInOneDrainSendsNothing) {
  Fork f;
  const Prefix p = Prefix::parse("224.1.0.0/16");
  const std::uint64_t batched = f.batched();
  const std::uint64_t sent = f.t.network.messages_sent();
  f.a.originate(RouteType::kGroup, p);
  f.a.withdraw(RouteType::kGroup, p);
  ASSERT_EQ(f.t.network.messages_sent(), sent + 2);
  f.t.settle();
  EXPECT_EQ(f.batched(), batched + 1);
  // s applied both, and its announcement to b and c netted out with the
  // withdrawal before the drain's end.
  EXPECT_EQ(f.t.network.messages_sent(), sent + 2);
  EXPECT_EQ(f.s.advertised(RouteType::kGroup, 1, p), nullptr);
  EXPECT_EQ(f.s.advertised(RouteType::kGroup, 2, p), nullptr);
  const Ipv4Addr addr = Ipv4Addr::parse("224.1.2.3");
  EXPECT_FALSE(f.s.lookup(RouteType::kGroup, addr));
  EXPECT_FALSE(f.b.lookup(RouteType::kGroup, addr));
  EXPECT_FALSE(f.c.lookup(RouteType::kGroup, addr));
}

TEST(SpeakerBatch, UpdateOutsideADrainThrows) {
  Relay r;
  auto update = std::make_unique<UpdateMessage>();
  update->deltas.push_back(UpdateMessage::Delta{
      RouteType::kGroup, Prefix::parse("224.1.0.0/16"), route_via({1})});
  EXPECT_THROW(r.s.on_message(r.s.peer_channel(0), std::move(update)),
               std::logic_error);
}

TEST(SpeakerBatch, AnnounceThenWithdrawInOneUpdateSendsNothing) {
  Relay r;
  const Prefix p = Prefix::parse("224.1.0.0/16");
  const std::uint64_t sent = r.t.network.messages_sent();
  r.forge_from_a({{RouteType::kGroup, p, route_via({1})},
                  {RouteType::kGroup, p, std::nullopt}});
  // The announcement to b and its withdrawal net out within the batch.
  EXPECT_EQ(r.t.network.messages_sent(), sent);
  EXPECT_EQ(r.s.advertised(RouteType::kGroup, 1, p), nullptr);
  r.t.settle();
  EXPECT_FALSE(r.b.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3")));
}

TEST(SpeakerBatch, TwoChangesToOneKeyLeaveOneDeltaWithTheLastRouteAndStamp) {
  Relay r;
  r.t.events.run_until(net::SimTime::seconds(10));
  const Prefix p = Prefix::parse("224.1.0.0/16");
  obs::Histogram& latency =
      r.t.network.metrics().histogram("bgp.route_convergence_latency");
  const std::uint64_t samples = latency.count();
  const double sum = latency.sum();
  const std::uint64_t sent = r.t.network.messages_sent();
  r.forge_from_a({{RouteType::kGroup, p, route_via({1}),
                   net::SimTime::seconds(2)},
                  {RouteType::kGroup, p, route_via({7, 1}),
                   net::SimTime::seconds(7)}});
  EXPECT_EQ(r.t.network.messages_sent(), sent + 1);
  r.t.settle();
  const auto at_b = r.b.lookup(RouteType::kGroup, Ipv4Addr::parse("224.1.2.3"));
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(at_b->route->as_path, (std::vector<DomainId>{2, 7, 1}));
  // s flips twice (8 s and 3 s after the two stamps); b flips once, 10 ms
  // later, on the one delta, which carries the last stamp (7 s).
  EXPECT_EQ(latency.count(), samples + 3);
  EXPECT_NEAR(latency.sum() - sum, 8.0 + 3.0 + 3.01, 1e-9);
}

TEST(SpeakerBatch, FlushedUpdateListsDeltasInTypeThenPrefixOrder) {
  Relay r;
  std::vector<std::pair<RouteType, Prefix>> seen;
  r.b.add_route_change_listener([&](RouteType type, const Prefix& prefix) {
    seen.emplace_back(type, prefix);
  });
  const Prefix g2 = Prefix::parse("224.2.0.0/16");
  const Prefix g1 = Prefix::parse("224.1.0.0/16");
  const Prefix u2 = Prefix::parse("10.2.0.0/16");
  const Prefix u1 = Prefix::parse("10.1.0.0/16");
  const std::uint64_t sent = r.t.network.messages_sent();
  r.forge_from_a({{RouteType::kGroup, g2, route_via({1})},
                  {RouteType::kUnicast, u2, route_via({1})},
                  {RouteType::kGroup, g1, route_via({1})},
                  {RouteType::kUnicast, u1, route_via({1})}});
  EXPECT_EQ(r.t.network.messages_sent(), sent + 1);
  r.t.settle();
  // b applies the deltas in message order; each one flips its best route.
  EXPECT_EQ(seen, (std::vector<std::pair<RouteType, Prefix>>{
                      {RouteType::kUnicast, u1},
                      {RouteType::kUnicast, u2},
                      {RouteType::kGroup, g1},
                      {RouteType::kGroup, g2}}));
}

TEST(SpeakerBatch, SessionLostMidBatchDropsOnlyThatPeersDeltas) {
  TestNet t;
  Speaker& hub = t.speaker(1, "hub");
  Speaker& x = t.speaker(2, "x");
  Speaker& y = t.speaker(3, "y");
  Speaker& z = t.speaker(4, "z");
  Speaker::connect(hub, x, Relationship::kLateral);
  const net::ChannelId to_y = Speaker::connect(hub, y, Relationship::kLateral);
  Speaker::connect(hub, z, Relationship::kLateral);
  t.settle();
  // The first best-route change takes y's session down, after the fan-out
  // has queued a delta for every peer but before the batch flushes.
  bool cut = false;
  hub.add_route_change_listener([&](RouteType, const Prefix&) {
    if (!cut) t.network.set_up(to_y, false);
    cut = true;
  });
  const std::uint64_t sent = t.network.messages_sent();
  hub.originate(RouteType::kGroup, Prefix::parse("224.1.0.0/16"));
  EXPECT_TRUE(cut);
  EXPECT_EQ(t.network.messages_sent(), sent + 2);  // x and z only
  EXPECT_EQ(t.network.messages_dropped(), 0u);
  t.settle();
  const Ipv4Addr addr = Ipv4Addr::parse("224.1.2.3");
  EXPECT_TRUE(x.lookup(RouteType::kGroup, addr));
  EXPECT_FALSE(y.lookup(RouteType::kGroup, addr));
  EXPECT_TRUE(z.lookup(RouteType::kGroup, addr));
  // The returning session's full sync delivers what the cut dropped.
  t.network.set_up(to_y, true);
  t.settle();
  EXPECT_TRUE(y.lookup(RouteType::kGroup, addr));
}

TEST(SpeakerBatch, HubMapsEachChannelToItsOwnPeerIndex) {
  TestNet t;
  Speaker& hub = t.speaker(1, "hub");
  std::vector<Speaker*> spokes;
  std::vector<net::ChannelId> between;  // spoke-to-spoke channels
  for (DomainId as = 2; as < 42; ++as) {
    spokes.push_back(&t.speaker(as, "spoke" + std::to_string(as)));
    Speaker::connect(hub, *spokes.back(), Relationship::kCustomer);
    if (spokes.size() >= 2) {
      // Interleaved channels the hub is not on keep its ids non-contiguous.
      between.push_back(Speaker::connect(*spokes[spokes.size() - 2],
                                         *spokes.back(),
                                         Relationship::kLateral));
    }
  }
  ASSERT_EQ(hub.peer_count(), spokes.size());
  for (PeerIndex i = 0; i < hub.peer_count(); ++i) {
    const net::ChannelId channel = hub.peer_channel(i);
    EXPECT_EQ(hub.find_peer(channel), i);
    EXPECT_EQ(hub.peer_speaker(i), spokes[i]);
    // The spoke's end of the same channel is its own first peering.
    EXPECT_EQ(spokes[i]->find_peer(channel), 0u);
  }
  for (const net::ChannelId channel : between) {
    EXPECT_EQ(hub.find_peer(channel), kLocalPeer);
  }
  EXPECT_EQ(hub.find_peer(net::ChannelId{100000}), kLocalPeer);
}

// --------------------------------------------------------------- PathTable

TEST(PathTable, InterningIsCanonical) {
  const PathRef a = PathRef::intern({7, 8, 9});
  const PathRef b = PathRef::intern({7, 8, 9});
  const PathRef c = PathRef::intern({7, 8});
  EXPECT_EQ(a.id(), b.id());  // hash-consing: same hops, same handle
  EXPECT_EQ(a, b);
  EXPECT_NE(a.id(), c.id());
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a == std::vector<DomainId>({7, 8, 9}));
  EXPECT_FALSE(a == std::vector<DomainId>({7, 8}));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.contains(8));
  EXPECT_FALSE(a.contains(10));
}

TEST(PathTable, EmptyPathIsIdZeroAndFree) {
  const PathRef empty;
  EXPECT_EQ(empty.id(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(PathRef::intern(nullptr, 0).id(), 0u);
  EXPECT_EQ(empty, PathRef::intern({}));
}

TEST(PathTable, PrependBuildsTheExportPath) {
  const PathRef tail = PathRef::intern({5, 6});
  const PathRef full = tail.prepend(4);
  EXPECT_TRUE(full == std::vector<DomainId>({4, 5, 6}));
  // Prepending onto the empty path yields the one-hop origin path.
  const PathRef origin = PathRef().prepend(9);
  EXPECT_TRUE(origin == std::vector<DomainId>({9}));
  // And the result is canonical with a direct intern of the same hops.
  EXPECT_EQ(full.id(), PathRef::intern({4, 5, 6}).id());
}

TEST(PathTable, RefcountFreesAndRecyclesIds) {
  const auto live_before = PathTable::instance().stats().live_paths;
  std::uint32_t freed_id = 0;
  {
    const PathRef only = PathRef::intern({1000001, 1000002});
    freed_id = only.id();
    EXPECT_EQ(PathTable::instance().stats().live_paths, live_before + 1);
    const PathRef copy = only;  // copies share the entry…
    EXPECT_EQ(PathTable::instance().stats().live_paths, live_before + 1);
    EXPECT_EQ(copy.id(), only.id());
  }
  // …and when the last ref dies the entry is gone: re-interning a new
  // path recycles the freed id instead of growing the table.
  EXPECT_EQ(PathTable::instance().stats().live_paths, live_before);
  const PathRef next = PathRef::intern({1000003});
  EXPECT_EQ(next.id(), freed_id);
}

TEST(PathTable, StatsCountHitsAndMisses) {
  PathTable::instance().reset_stats();
  const PathRef a = PathRef::intern({2000001, 2000002});  // miss
  const PathRef b = PathRef::intern({2000001, 2000002});  // hit
  const PathRef c = PathRef::intern({2000003});           // miss
  (void)a;
  (void)b;
  (void)c;
  const PathTable::Stats stats = PathTable::instance().stats();
  EXPECT_EQ(stats.interned, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);
}

TEST(PathTable, MoveTransfersOwnershipWithoutRefTraffic) {
  const auto live_before = PathTable::instance().stats().live_paths;
  PathRef a = PathRef::intern({3000001, 3000002, 3000003});
  const std::uint32_t id = a.id();
  PathRef b = std::move(a);
  EXPECT_EQ(b.id(), id);
  EXPECT_EQ(a.id(), 0u);  // moved-from is the empty path
  EXPECT_EQ(PathTable::instance().stats().live_paths, live_before + 1);
  b = PathRef();  // releasing the only ref frees the entry
  EXPECT_EQ(PathTable::instance().stats().live_paths, live_before);
}

TEST(PathTable, SurvivesBucketGrowth) {
  // Intern enough distinct paths to force several rehashes, then verify
  // canonical lookup still works for all of them.
  std::vector<PathRef> keep;
  keep.reserve(300);
  for (DomainId i = 0; i < 300; ++i) {
    keep.push_back(PathRef::intern({4000000 + i, 4100000 + i}));
  }
  for (DomainId i = 0; i < 300; ++i) {
    EXPECT_EQ(PathRef::intern({4000000 + i, 4100000 + i}).id(),
              keep[i].id());
  }
}

// ------------------------------------------------------------- RouteTable

TEST(RouteTable, InternsEqualRoutesToOneId) {
  const Route r1{PathRef::intern({11, 12}), 12, 100};
  const Route r2 = r1;
  const Route other{PathRef::intern({11, 13}), 13, 100};
  const RouteRef a = RouteRef::intern(r1);
  const RouteRef b = RouteRef::intern(r2);
  const RouteRef c = RouteRef::intern(other);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(a.get(), r1);
  EXPECT_EQ(c.get(), other);
}

TEST(RouteTable, ReleasedIdsAreReused) {
  const auto live_before = RouteTable::instance().stats().live_routes;
  std::uint32_t freed_id = 0;
  {
    const RouteRef held =
        RouteRef::intern(Route{PathRef::intern({21}), 21, 100});
    freed_id = held.id();
    EXPECT_EQ(RouteTable::instance().stats().live_routes, live_before + 1);
  }
  EXPECT_EQ(RouteTable::instance().stats().live_routes, live_before);
  // The slot is recycled for the next distinct route.
  const RouteRef next =
      RouteRef::intern(Route{PathRef::intern({22}), 22, 100});
  EXPECT_EQ(next.id(), freed_id);
}

TEST(RouteTable, EqualAttributesUnderTwoPrefixesShareOneId) {
  // A route carries no prefix, so one origin's equal attributes under two
  // prefixes are one interned entry...
  const Route attrs{PathRef::intern({31, 32}), 32, 100};
  const RouteRef first = RouteRef::intern(attrs);
  const auto live = RouteTable::instance().stats().live_routes;
  const RouteRef second =
      RouteRef::intern(Route{PathRef::intern({31, 32}), 32, 100});
  EXPECT_EQ(first.id(), second.id());
  EXPECT_EQ(RouteTable::instance().stats().live_routes, live);

  // ...while each prefix keeps its own Adj-RIB-Out row and cell.
  AdjRibOut out;
  out.add_column();
  const Prefix p1 = Prefix::parse("224.20.0.0/16");
  const Prefix p2 = Prefix::parse("224.21.0.0/16");
  std::uint32_t row1 = AdjRibOut::kNoRow;
  std::uint32_t row2 = AdjRibOut::kNoRow;
  out.assign(p1, row1, 0, first);
  out.assign(p2, row2, 0, second);
  ASSERT_NE(row1, AdjRibOut::kNoRow);
  ASSERT_NE(row2, AdjRibOut::kNoRow);
  EXPECT_NE(row1, row2);
  EXPECT_EQ(out.cell(row1, 0), out.cell(row2, 0));
  EXPECT_EQ(out.clear(p1, row1, 0), first);
  EXPECT_EQ(out.find(p1), AdjRibOut::kNoRow);
  ASSERT_EQ(out.find(p2), row2);
  EXPECT_EQ(out.cell(row2, 0).get(), attrs);
}

TEST(RouteTable, NullRefIsInert) {
  RouteRef ref;
  EXPECT_FALSE(ref.has_value());
  const RouteRef copy = ref;
  EXPECT_FALSE(copy.has_value());
  EXPECT_EQ(ref, copy);
}

}  // namespace
}  // namespace bgp
