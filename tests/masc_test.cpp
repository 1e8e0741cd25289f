// Tests for MASC: the claim registry, the §4.3.3 claim algorithm (with the
// paper's worked example), the domain pool and its expansion policy, the
// MAAS address server, and the message-level claim–collide protocol
// (Figure-1 scenario, winner resolution, partitions, lifetimes).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "masc/claim_algorithm.hpp"
#include "masc/maas.hpp"
#include "masc/node.hpp"
#include "masc/pool.hpp"
#include "masc/registry.hpp"
#include "net/event.hpp"
#include "net/network.hpp"
#include "net/rng.hpp"

namespace masc {
namespace {

using net::Ipv4Addr;
using net::Prefix;
using net::SimTime;

const SimTime kNow = SimTime::days(10);
const SimTime kLater = SimTime::days(40);

// ---------------------------------------------------------------- registry

TEST(ClaimRegistry, ClaimAndCollision) {
  ClaimRegistry reg;
  EXPECT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  // Another owner claiming an overlapping range collides.
  EXPECT_FALSE(reg.claim(Prefix::parse("224.0.1.0/24"), 2, kLater, kNow));
  EXPECT_FALSE(reg.claim(Prefix::parse("224.0.1.0/25"), 2, kLater, kNow));
  EXPECT_FALSE(reg.claim(Prefix::parse("224.0.0.0/16"), 2, kLater, kNow));
  // Disjoint ranges are fine.
  EXPECT_TRUE(reg.claim(Prefix::parse("224.0.2.0/24"), 2, kLater, kNow));
  EXPECT_EQ(reg.owner_of(Prefix::parse("224.0.1.0/24"), kNow), 1u);
}

TEST(ClaimRegistry, OwnRenewalAndDoubling) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  // Renewal: same owner, same prefix, later expiry.
  EXPECT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1,
                        kLater + SimTime::days(30), kNow));
  EXPECT_EQ(reg.size(), 1u);
  // Doubling: own claim of the parent folds the child claim in.
  EXPECT_TRUE(reg.claim(Prefix::parse("224.0.0.0/23"), 1, kLater, kNow));
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.owner_of(Prefix::parse("224.0.0.0/23"), kNow), 1u);
}

TEST(ClaimRegistry, ExpiredClaimsAreClaimable) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  EXPECT_FALSE(reg.is_free(Prefix::parse("224.0.1.0/24"), kNow));
  // After expiry the range is treated as unallocated (§4.3.1).
  EXPECT_TRUE(reg.is_free(Prefix::parse("224.0.1.0/24"), kLater));
  EXPECT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 2,
                        kLater + SimTime::days(30), kLater));
}

TEST(ClaimRegistry, RejectsAlreadyExpiredClaims) {
  ClaimRegistry reg;
  EXPECT_THROW(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kNow, kNow),
               std::invalid_argument);
}

TEST(ClaimRegistry, ConflictingReportsTheBlocker) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 7, kLater, kNow));
  const auto hit = reg.conflicting(Prefix::parse("224.0.0.0/16"), kNow);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, Prefix::parse("224.0.1.0/24"));
  EXPECT_EQ(hit->second.owner, 7u);
  EXPECT_FALSE(reg.conflicting(Prefix::parse("225.0.0.0/16"), kNow));
}

TEST(ClaimRegistry, PurgeDropsExpiredEntries) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.2.0/24"), 2,
                        kLater + SimTime::days(30), kNow));
  reg.purge_expired(kLater);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ClaimRegistry, FreePrefixesDecomposesSpace) {
  // The paper's worked example: with 224.0.1/24 and 239/8 allocated out of
  // 224/4, the largest free sub-prefixes are 228/6 and 232/6.
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  ASSERT_TRUE(reg.claim(Prefix::parse("239.0.0.0/8"), 2, kLater, kNow));
  const auto free = reg.free_prefixes(net::multicast_space(), kNow);
  // All free prefixes are disjoint, cover space minus claims, and none
  // overlaps a claim.
  std::uint64_t covered = 0;
  for (const Prefix& f : free) {
    covered += f.size();
    EXPECT_FALSE(f.overlaps(Prefix::parse("224.0.1.0/24")));
    EXPECT_FALSE(f.overlaps(Prefix::parse("239.0.0.0/8")));
  }
  EXPECT_EQ(covered, net::multicast_space().size() - 256 - (1u << 24));
  // And 228/6, 232/6 are among them as maximal blocks.
  const std::set<Prefix> free_set(free.begin(), free.end());
  EXPECT_TRUE(free_set.contains(Prefix::parse("228.0.0.0/6")));
  EXPECT_TRUE(free_set.contains(Prefix::parse("232.0.0.0/6")));
}

TEST(ClaimRegistry, FreePrefixesEmptyWhenFullyClaimed) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.0.0/4"), 1, kLater, kNow));
  EXPECT_TRUE(reg.free_prefixes(net::multicast_space(), kNow).empty());
  // And the whole space when nothing is claimed.
  ClaimRegistry empty;
  const auto free = empty.free_prefixes(net::multicast_space(), kNow);
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(free[0], net::multicast_space());
}

// --------------------------------------------------------- claim algorithm

TEST(ClaimAlgorithm, MaskLengthFor) {
  EXPECT_EQ(mask_length_for(1), 32);
  EXPECT_EQ(mask_length_for(2), 31);
  EXPECT_EQ(mask_length_for(256), 24);
  EXPECT_EQ(mask_length_for(257), 23);
  EXPECT_EQ(mask_length_for(1024), 22);  // the §4.3.3 example
  EXPECT_THROW((void)mask_length_for(0), std::invalid_argument);
}

TEST(ClaimAlgorithm, ShortestFreePrefixesMatchesPaperExample) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  ASSERT_TRUE(reg.claim(Prefix::parse("239.0.0.0/8"), 2, kLater, kNow));
  const std::vector<Prefix> spaces{net::multicast_space()};
  const auto shortest = shortest_free_prefixes(spaces, reg, kNow);
  EXPECT_EQ(shortest, (std::vector<Prefix>{Prefix::parse("228.0.0.0/6"),
                                           Prefix::parse("232.0.0.0/6")}));
}

TEST(ClaimAlgorithm, ChoosesFirstSubprefixOfRandomShortestBlock) {
  // §4.3.3: "If a domain requires 1024 addresses … it randomly chooses
  // either 228.0/22 or 232.0/22 as these are the first /22 prefixes inside
  // each unallocated /6 range."
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  ASSERT_TRUE(reg.claim(Prefix::parse("239.0.0.0/8"), 2, kLater, kNow));
  const std::vector<Prefix> spaces{net::multicast_space()};
  net::Rng rng(3);
  std::set<Prefix> seen;
  for (int i = 0; i < 64; ++i) {
    const auto got = choose_claim(spaces, reg, 22, kNow, rng);
    ASSERT_TRUE(got.has_value());
    seen.insert(*got);
  }
  EXPECT_EQ(seen, (std::set<Prefix>{Prefix::parse("228.0.0.0/22"),
                                    Prefix::parse("232.0.0.0/22")}));
}

TEST(ClaimAlgorithm, FirstFitIsDeterministicLowest) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  ASSERT_TRUE(reg.claim(Prefix::parse("239.0.0.0/8"), 2, kLater, kNow));
  const std::vector<Prefix> spaces{net::multicast_space()};
  net::Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    const auto got =
        choose_claim(spaces, reg, 22, kNow, rng, ClaimStrategy::kFirstFit);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, Prefix::parse("228.0.0.0/22"));
  }
}

TEST(ClaimAlgorithm, RandomSubStrategyStaysInsideBlock) {
  ClaimRegistry reg;
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 1, kLater, kNow));
  ASSERT_TRUE(reg.claim(Prefix::parse("239.0.0.0/8"), 2, kLater, kNow));
  const std::vector<Prefix> spaces{net::multicast_space()};
  net::Rng rng(9);
  for (int i = 0; i < 32; ++i) {
    const auto got = choose_claim(spaces, reg, 22, kNow, rng,
                                  ClaimStrategy::kRandomBlockRandomSub);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(Prefix::parse("228.0.0.0/6").contains(*got) ||
                Prefix::parse("232.0.0.0/6").contains(*got));
  }
}

TEST(ClaimAlgorithm, ReturnsNulloptWhenNoBlockFitsDesiredSize) {
  ClaimRegistry reg;
  // Claim everything except one /26.
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.0.64/26"), 99, kLater, kNow));
  const std::vector<Prefix> spaces{Prefix::parse("224.0.0.64/26")};
  // Registry holds the /26 as claimed by 99; a /24 cannot fit in spaces.
  ClaimRegistry empty;
  net::Rng rng(1);
  EXPECT_EQ(choose_claim(spaces, empty, 24, kNow, rng), std::nullopt);
  EXPECT_TRUE(choose_claim(spaces, empty, 26, kNow, rng).has_value());
}

TEST(ClaimAlgorithm, CanDoubleChecksSiblingAndSpace) {
  ClaimRegistry reg;
  const std::vector<Prefix> spaces{Prefix::parse("224.0.0.0/16")};
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.0.0/24"), 1, kLater, kNow));
  EXPECT_TRUE(can_double(Prefix::parse("224.0.0.0/24"), spaces, reg, kNow));
  // Sibling taken by someone else → cannot double.
  ASSERT_TRUE(reg.claim(Prefix::parse("224.0.1.0/24"), 2, kLater, kNow));
  EXPECT_FALSE(can_double(Prefix::parse("224.0.0.0/24"), spaces, reg, kNow));
  // Doubling out of the parent space is not allowed.
  ClaimRegistry reg2;
  const std::vector<Prefix> small_space{Prefix::parse("224.0.0.0/24")};
  ASSERT_TRUE(reg2.claim(Prefix::parse("224.0.0.0/24"), 1, kLater, kNow));
  EXPECT_FALSE(
      can_double(Prefix::parse("224.0.0.0/24"), small_space, reg2, kNow));
}

// -------------------------------------------------------------------- pool

PoolParams pool_params() { return PoolParams{}; }

TEST(DomainPool, BlockAllocationAndCapacity) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  const auto block = pool.request_block(256, kNow, SimTime::days(30));
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->range, Prefix::parse("224.0.1.0/24"));
  // Full: next request must fail.
  EXPECT_FALSE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  EXPECT_DOUBLE_EQ(pool.utilization(), 1.0);
}

TEST(DomainPool, BlocksPackFirstFit) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/22"), kLater);
  const auto b1 = pool.request_block(256, kNow, SimTime::days(30));
  const auto b2 = pool.request_block(256, kNow, SimTime::days(30));
  ASSERT_TRUE(b1 && b2);
  EXPECT_EQ(b1->range, Prefix::parse("224.0.0.0/24"));
  EXPECT_EQ(b2->range, Prefix::parse("224.0.1.0/24"));
  EXPECT_EQ(pool.allocated_addresses(), 512u);
  // Releasing the first block frees its slot for reuse.
  EXPECT_TRUE(pool.release_block(b1->id));
  const auto b3 = pool.request_block(256, kNow, SimTime::days(30));
  ASSERT_TRUE(b3.has_value());
  EXPECT_EQ(b3->range, Prefix::parse("224.0.0.0/24"));
}

TEST(DomainPool, InactivePrefixesServeNoNewBlocks) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater, /*active=*/false);
  EXPECT_FALSE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
}

TEST(DomainPool, RoundsOddSizesUpToPowerOfTwo) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/23"), kLater);
  const auto block = pool.request_block(300, kNow, SimTime::days(30));
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->range.size(), 512u);
}

TEST(DomainPool, AgeExpiresBlocksAndRecyclesPrefixes) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kNow + SimTime::days(30));
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(5)).has_value());
  // At day 30 the block (5-day life) is gone and the prefix lapses.
  const auto released = pool.age(kNow + SimTime::days(30));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], Prefix::parse("224.0.1.0/24"));
  EXPECT_EQ(pool.claimed_addresses(), 0u);
}

TEST(DomainPool, AgeRenewsPrefixesStillInUse) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kNow + SimTime::days(30));
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(60)).has_value());
  const auto released = pool.age(kNow + SimTime::days(30));
  EXPECT_TRUE(released.empty());  // renewed because a block is live
  EXPECT_EQ(pool.prefixes().size(), 1u);
  EXPECT_GT(pool.prefixes()[0].expires, kNow + SimTime::days(30));
}

TEST(DomainPool, ApplyDoubleMergesIntoParent) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  pool.apply_double(Prefix::parse("224.0.1.0/24"), kLater);
  ASSERT_EQ(pool.prefixes().size(), 1u);
  EXPECT_EQ(pool.prefixes()[0].prefix, Prefix::parse("224.0.0.0/23"));
  // The old block still fits inside; capacity doubled.
  EXPECT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
}

TEST(DomainPool, RemovePrefixGuardsLiveBlocks) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  EXPECT_THROW(pool.remove_prefix(Prefix::parse("224.0.1.0/24")),
               std::logic_error);
  const auto destroyed =
      pool.remove_prefix_force(Prefix::parse("224.0.1.0/24"));
  EXPECT_EQ(destroyed.size(), 1u);
  EXPECT_TRUE(pool.prefixes().empty());
}

TEST(DomainPool, RejectsOverlappingPrefixes) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/16"), kLater);
  EXPECT_THROW(pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater),
               std::invalid_argument);
}

// ------------------------------------------------------- expansion policy

TEST(ExpansionPolicy, FirstRequestClaimsJustSufficientPrefix) {
  DomainPool pool(1, pool_params());
  const auto plan =
      pool.plan_expansion(256, [](const Prefix&) { return true; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->kind, ExpansionPlan::Kind::kNewPrefix);
  EXPECT_EQ(plan->new_len, 24);
}

TEST(ExpansionPolicy, DoublesWhenPostDoubleUtilizationMeetsTarget) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  // Demand 256+256 = 512; doubling to /23 gives utilization 1.0 >= 0.75.
  const auto plan =
      pool.plan_expansion(256, [](const Prefix&) { return true; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->kind, ExpansionPlan::Kind::kDouble);
  EXPECT_EQ(plan->target, Prefix::parse("224.0.1.0/24"));
}

TEST(ExpansionPolicy, SkipsDoublingWhenSiblingTaken) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  const auto plan =
      pool.plan_expansion(256, [](const Prefix&) { return false; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->kind, ExpansionPlan::Kind::kNewPrefix);
  EXPECT_EQ(plan->new_len, 24);
}

TEST(ExpansionPolicy, SkipsDoublingWhenUtilizationWouldDropBelowTarget) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/20"), kLater);  // 4096 addrs
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  // Demand 512 into 8192 after doubling = 6% << 75% → claim small prefix
  // instead. (Capacity exists but assume fragmentation forced the call.)
  const auto plan =
      pool.plan_expansion(256, [](const Prefix&) { return true; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->kind, ExpansionPlan::Kind::kNewPrefix);
}

TEST(ExpansionPolicy, SoftCapAllowsExtraSmallPrefixes) {
  // The two-prefix goal is soft: at two active prefixes a just-sufficient
  // claim is still preferred over halving the occupancy by doubling.
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  pool.add_prefix(Prefix::parse("224.0.3.0/24"), kLater);
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  const auto plan =
      pool.plan_expansion(256, [](const Prefix&) { return false; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->kind, ExpansionPlan::Kind::kNewPrefix);
  EXPECT_EQ(plan->new_len, 24);
}

TEST(ExpansionPolicy, RenumbersAtHardCapWithNoDoubling) {
  // At twice the goal (the hard cap) with no doublable prefix, a single
  // new prefix sized for the whole current usage is claimed.
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  pool.add_prefix(Prefix::parse("224.0.3.0/24"), kLater);
  pool.add_prefix(Prefix::parse("224.0.5.0/24"), kLater);
  pool.add_prefix(Prefix::parse("224.0.7.0/24"), kLater);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  }
  const auto plan =
      pool.plan_expansion(256, [](const Prefix&) { return false; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->kind, ExpansionPlan::Kind::kRenumber);
  // Usage 768 + deficit 256 = 1024 → /22.
  EXPECT_EQ(plan->new_len, 22);
}

TEST(DomainPool, AggregatePrefixesMergesSiblings) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/24"), kLater);
  pool.add_prefix(Prefix::parse("224.0.2.0/24"), kLater);
  EXPECT_TRUE(pool.aggregate_prefixes().empty());  // not siblings
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  pool.add_prefix(Prefix::parse("224.0.3.0/24"), kLater);
  const auto merges = pool.aggregate_prefixes();
  // 0+1 → /23, 2+3 → /23, then the two /23s → /22: three merges.
  EXPECT_EQ(merges.size(), 3u);
  ASSERT_EQ(pool.prefixes().size(), 1u);
  EXPECT_EQ(pool.prefixes()[0].prefix, Prefix::parse("224.0.0.0/22"));
}

TEST(DomainPool, AggregateKeepsActiveAndInactiveApart) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/24"), kLater, /*active=*/true);
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater, /*active=*/false);
  EXPECT_TRUE(pool.aggregate_prefixes().empty());
  EXPECT_EQ(pool.prefixes().size(), 2u);
}

TEST(ExpansionPolicy, DoubleOnlyNeverClaimsNewPrefixes) {
  PoolParams params;
  params.expansion = ExpansionPolicy::kDoubleOnly;
  DomainPool pool(1, params);
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  const auto blocked =
      pool.plan_expansion(256, [](const Prefix&) { return false; });
  EXPECT_FALSE(blocked.has_value());
  const auto doubled =
      pool.plan_expansion(256, [](const Prefix&) { return true; });
  ASSERT_TRUE(doubled.has_value());
  EXPECT_EQ(doubled->kind, ExpansionPlan::Kind::kDouble);
}

TEST(ExpansionPolicy, NewPrefixOnlyNeverDoubles) {
  PoolParams params;
  params.expansion = ExpansionPolicy::kNewPrefixOnly;
  DomainPool pool(1, params);
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  ASSERT_TRUE(pool.request_block(256, kNow, SimTime::days(30)).has_value());
  const auto plan =
      pool.plan_expansion(256, [](const Prefix&) { return true; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_NE(plan->kind, ExpansionPlan::Kind::kDouble);
}

// -------------------------------------------------------------------- MAAS

TEST(Maas, LeasesUniqueAddressesFromPoolBlocks) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  Maas maas(pool, {}, nullptr);
  std::set<Ipv4Addr> seen;
  for (int i = 0; i < 200; ++i) {
    const auto lease = maas.allocate(kNow, SimTime::days(7));
    ASSERT_TRUE(lease.has_value());
    EXPECT_TRUE(Prefix::parse("224.0.1.0/24").contains(lease->address));
    EXPECT_TRUE(seen.insert(lease->address).second) << "duplicate address";
  }
  EXPECT_EQ(maas.leased_count(), 200u);
}

TEST(Maas, LeaseLifetimeBoundedByBlockLifetime) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  Maas::Params params;
  params.block_lifetime = SimTime::days(10);
  Maas maas(pool, params, nullptr);
  const auto lease = maas.allocate(kNow, SimTime::days(90));
  ASSERT_TRUE(lease.has_value());
  // §4.3.1: the app wanted 90 days but the space only lives 10 more.
  EXPECT_EQ(lease->expires, kNow + SimTime::days(10));
}

TEST(Maas, ReleaseAndReuse) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  Maas maas(pool, {}, nullptr);
  const auto lease = maas.allocate(kNow, SimTime::days(7));
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(maas.release(lease->address));
  EXPECT_FALSE(maas.release(lease->address));
  const auto again = maas.allocate(kNow, SimTime::days(7));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->address, lease->address);  // reused from the free list
}

TEST(Maas, RenewExtendsLease) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  Maas maas(pool, {}, nullptr);
  const auto lease = maas.allocate(kNow, SimTime::days(7));
  ASSERT_TRUE(lease.has_value());
  const auto renewed =
      maas.renew(lease->address, kNow + SimTime::days(6), SimTime::days(7));
  ASSERT_TRUE(renewed.has_value());
  EXPECT_GT(renewed->expires, lease->expires);
  EXPECT_FALSE(
      maas.renew(Ipv4Addr::parse("225.0.0.1"), kNow, SimTime::days(7)));
}

TEST(Maas, EscalatesToMascWhenPoolDry) {
  DomainPool pool(1, pool_params());
  int escalations = 0;
  Maas maas(pool, {}, [&](std::uint64_t addresses) {
    ++escalations;
    // Simulate a synchronous MASC grant.
    pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
    EXPECT_GE(addresses, 256u);
    return true;
  });
  const auto lease = maas.allocate(kNow, SimTime::days(7));
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(escalations, 1);
}

TEST(Maas, FailsCleanlyWhenNoSpaceAnywhere) {
  DomainPool pool(1, pool_params());
  Maas maas(pool, {}, [](std::uint64_t) { return false; });
  EXPECT_FALSE(maas.allocate(kNow, SimTime::days(7)).has_value());
}

TEST(Maas, AgeDropsExpiredLeases) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.1.0/24"), kLater);
  Maas maas(pool, {}, nullptr);
  ASSERT_TRUE(maas.allocate(kNow, SimTime::days(7)).has_value());
  maas.age(kNow + SimTime::days(8));
  EXPECT_EQ(maas.leased_count(), 0u);
}


TEST(Maas, ShortLeasesDrawFromShortLivedBlocks) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/22"), kLater);
  Maas maas(pool, {}, nullptr);
  // A day-scale lease and a month-scale lease land in different blocks
  // (§4.3.1's two-pool policy).
  const auto short_lease = maas.allocate(kNow, SimTime::hours(4));
  const auto long_lease = maas.allocate(kNow, SimTime::days(20));
  ASSERT_TRUE(short_lease && long_lease);
  EXPECT_EQ(maas.short_block_count(kNow), 1u);
  EXPECT_EQ(maas.long_block_count(kNow), 1u);
  // The short lease is additionally capped by its short-lived block.
  EXPECT_LE(short_lease->expires, kNow + SimTime::days(3));
  EXPECT_EQ(long_lease->expires, kNow + SimTime::days(20));
}

TEST(Maas, ShortTermSpikeDrainsQuickly) {
  // §4.3.1: the day-scale pool takes care of "short-term increases in
  // demand" — a burst of short leases stops consuming pool space days
  // later, while the steady long-lease block persists.
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/20"), kLater);
  Maas maas(pool, {}, nullptr);
  ASSERT_TRUE(maas.allocate(kNow, SimTime::days(25)).has_value());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(maas.allocate(kNow, SimTime::hours(6)).has_value());
  }
  EXPECT_GE(maas.short_block_count(kNow), 3u);
  const std::uint64_t at_peak = pool.allocated_addresses();
  // Five days later the spike's blocks have expired and returned.
  const SimTime later = kNow + SimTime::days(5);
  maas.age(later);
  (void)pool.age(later);
  EXPECT_EQ(maas.short_block_count(later), 0u);
  EXPECT_EQ(maas.long_block_count(later), 1u);
  EXPECT_LE(pool.allocated_addresses(), at_peak / 4);
}

TEST(Maas, ShortAndLongFreeListsStaySeparate) {
  DomainPool pool(1, pool_params());
  pool.add_prefix(Prefix::parse("224.0.0.0/22"), kLater);
  Maas maas(pool, {}, nullptr);
  const auto s = maas.allocate(kNow, SimTime::hours(4));
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(maas.release(s->address));
  // A long lease must NOT reuse the short-pool address.
  const auto l = maas.allocate(kNow, SimTime::days(20));
  ASSERT_TRUE(l.has_value());
  EXPECT_NE(l->address, s->address);
  // A new short lease reuses it.
  const auto s2 = maas.allocate(kNow, SimTime::hours(4));
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s2->address, s->address);
}

// ----------------------------------------------------------- protocol node

struct ProtoNet {
  net::EventQueue events;
  net::Network network{events};
  std::vector<std::unique_ptr<MascNode>> nodes;
  std::vector<Prefix> granted;
  std::vector<Prefix> released;
  int failures = 0;

  MascNode& node(DomainId id, const std::string& name,
                 MascNode::Params params = {}) {
    nodes.push_back(
        std::make_unique<MascNode>(network, id, name, params, 1000 + id));
    MascNode& n = *nodes.back();
    n.set_callbacks(MascNode::Callbacks{
        [this](const Prefix& p, SimTime) { granted.push_back(p); },
        [this](const Prefix& p) { released.push_back(p); },
        [this](std::uint64_t) { ++failures; },
    });
    return n;
  }
};

TEST(MascNode, TopLevelClaimSurvivesWaitingPeriod) {
  ProtoNet t;
  MascNode& a = t.node(10, "A");
  a.set_spaces({net::multicast_space()});
  a.request_space(65536);  // a /16
  t.events.run_until(SimTime::hours(47));
  EXPECT_TRUE(t.granted.empty());  // still waiting
  EXPECT_TRUE(a.has_pending_claim());
  t.events.run_until(SimTime::hours(49));
  ASSERT_EQ(t.granted.size(), 1u);
  EXPECT_EQ(t.granted[0].length(), 16);
  EXPECT_EQ(a.pool().claimed_addresses(), 65536u);
  EXPECT_FALSE(a.has_pending_claim());
}

TEST(MascNode, SimultaneousClaimsCollideAndLoserRetries) {
  // Two top-level siblings with deterministic first-fit claiming: both
  // pick the same range; the lower domain id wins; the loser re-claims a
  // different range. Both end up with disjoint space.
  ProtoNet t;
  MascNode::Params params;
  params.pool.strategy = ClaimStrategy::kFirstFit;
  MascNode& a = t.node(10, "A", params);
  MascNode& b = t.node(20, "B", params);
  MascNode::connect(a, b, MascNode::PeerKind::kSibling);
  a.set_spaces({net::multicast_space()});
  b.set_spaces({net::multicast_space()});
  a.request_space(65536);
  t.events.run_until(net::SimTime::milliseconds(1));
  b.request_space(65536);  // later timestamp → loses
  t.events.run(1'000'000);
  ASSERT_EQ(t.granted.size(), 2u);
  EXPECT_FALSE(t.granted[0].overlaps(t.granted[1]));
  EXPECT_EQ(b.collisions_suffered(), 1);
  EXPECT_EQ(a.collisions_suffered(), 0);
  EXPECT_EQ(a.pool().claimed_addresses(), 65536u);
  EXPECT_EQ(b.pool().claimed_addresses(), 65536u);
}

TEST(MascNode, TieBreaksByDomainIdWhenTimestampsEqual) {
  ProtoNet t;
  MascNode::Params params;
  params.pool.strategy = ClaimStrategy::kFirstFit;
  MascNode& a = t.node(10, "A", params);
  MascNode& b = t.node(20, "B", params);
  MascNode::connect(a, b, MascNode::PeerKind::kSibling);
  a.set_spaces({net::multicast_space()});
  b.set_spaces({net::multicast_space()});
  // Same instant: both claim 224.0.0.0/16 at t=0.
  a.request_space(65536);
  b.request_space(65536);
  t.events.run(1'000'000);
  ASSERT_EQ(t.granted.size(), 2u);
  EXPECT_FALSE(t.granted[0].overlaps(t.granted[1]));
  // Lower domain id (A) must have won the contested range.
  EXPECT_EQ(a.collisions_suffered(), 0);
  EXPECT_EQ(b.collisions_suffered(), 1);
}

TEST(MascNode, ChildClaimsFromParentSpaceAndSiblingsLearnViaParent) {
  // Figure 1: A holds 224.0.0.0/16; children B and C claim sub-ranges.
  // C's claim reaches B through A (claims propagate via the parent), so
  // B's next claim avoids C's range.
  ProtoNet t;
  MascNode::Params params;
  params.pool.strategy = ClaimStrategy::kFirstFit;
  MascNode& a = t.node(10, "A", params);
  MascNode& b = t.node(20, "B", params);
  MascNode& c = t.node(30, "C", params);
  a.set_spaces({net::multicast_space()});
  a.request_space(65536);
  t.events.run(1'000'000);
  ASSERT_EQ(a.pool().prefixes().size(), 1u);
  const Prefix a_space = a.pool().prefixes()[0].prefix;

  MascNode::connect(b, a, MascNode::PeerKind::kParent);
  MascNode::connect(c, a, MascNode::PeerKind::kParent);
  t.events.run(1'000'000);
  EXPECT_EQ(b.spaces(), (std::vector<Prefix>{a_space}));

  c.request_space(256);
  t.events.run(1'000'000);
  b.request_space(256);
  t.events.run(1'000'000);
  ASSERT_EQ(t.granted.size(), 3u);  // A's /16, C's /24, B's /24
  const Prefix c_range = t.granted[1];
  const Prefix b_range = t.granted[2];
  EXPECT_TRUE(a_space.contains(c_range));
  EXPECT_TRUE(a_space.contains(b_range));
  EXPECT_FALSE(b_range.overlaps(c_range));
  EXPECT_EQ(b.collisions_suffered(), 0);  // avoided, not collided
}

TEST(MascNode, CollisionAcrossPartitionHealsToOneWinner) {
  // B and C are siblings whose channel is partitioned while both claim the
  // same range. The 48h waiting period spans the partition: claims are
  // delivered when it heals, and exactly one winner remains.
  ProtoNet t;
  MascNode::Params params;
  params.pool.strategy = ClaimStrategy::kFirstFit;
  MascNode& b = t.node(20, "B", params);
  MascNode& c = t.node(30, "C", params);
  MascNode::connect(b, c, MascNode::PeerKind::kSibling);
  b.set_spaces({net::multicast_space()});
  c.set_spaces({net::multicast_space()});
  t.network.set_up(net::ChannelId{0}, false);
  b.request_space(256);
  t.events.run_until(SimTime::hours(1));
  c.request_space(256);
  t.events.run_until(SimTime::hours(24));
  t.network.set_up(net::ChannelId{0}, true);  // heal within waiting period
  t.events.run(1'000'000);
  ASSERT_EQ(t.granted.size(), 2u);
  EXPECT_FALSE(t.granted[0].overlaps(t.granted[1]));
  EXPECT_EQ(b.collisions_suffered(), 0);  // earlier claim time wins
  EXPECT_EQ(c.collisions_suffered(), 1);
}

TEST(MascNode, LapsedUnusedRangeIsReleased) {
  ProtoNet t;
  MascNode::Params params;
  params.claim_lifetime = SimTime::days(30);
  MascNode& a = t.node(10, "A", params);
  a.set_spaces({net::multicast_space()});
  a.request_space(256);
  t.events.run(1'000'000);
  ASSERT_EQ(t.granted.size(), 1u);
  // No blocks were ever allocated; at day 31 the range lapses.
  t.events.run_until(SimTime::days(31));
  a.age_now();
  ASSERT_EQ(t.released.size(), 1u);
  EXPECT_EQ(t.released[0], t.granted[0]);
  EXPECT_EQ(a.pool().claimed_addresses(), 0u);
}

TEST(MascNode, SecondRequestDoublesHeldPrefix) {
  ProtoNet t;
  MascNode::Params params;
  params.pool.strategy = ClaimStrategy::kFirstFit;
  MascNode& a = t.node(10, "A", params);
  a.set_spaces({net::multicast_space()});
  a.request_space(256);
  t.events.run(1'000'000);
  ASSERT_EQ(a.pool().prefixes().size(), 1u);
  const Prefix first = a.pool().prefixes()[0].prefix;
  // Fill it so the next request must expand.
  ASSERT_TRUE(a.pool()
                  .request_block(256, t.events.now(), SimTime::days(30))
                  .has_value());
  a.request_space(256);
  t.events.run(1'000'000);
  ASSERT_EQ(a.pool().prefixes().size(), 1u);
  EXPECT_EQ(a.pool().prefixes()[0].prefix, *first.parent());
  // Doubling reported as release of the old half + grant of the merged.
  ASSERT_EQ(t.granted.size(), 2u);
  EXPECT_EQ(t.granted[1], *first.parent());
}

TEST(MascNode, FailsWhenNoSpaceConfigured) {
  ProtoNet t;
  MascNode& a = t.node(10, "A");
  a.request_space(256);
  t.events.run(1'000'000);
  EXPECT_EQ(t.failures, 1);
  EXPECT_TRUE(t.granted.empty());
}

}  // namespace
}  // namespace masc
