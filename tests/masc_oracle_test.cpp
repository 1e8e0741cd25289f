// Differential tests for the MASC allocation state machines against
// brute-force oracles: ClaimRegistry vs. a flat interval list replaying
// the documented claim/fold semantics, and
// DomainPool vs. exhaustive scans of its own published invariants —
// blocks aligned, disjoint, inside active prefixes, and a request
// succeeding exactly when a free aligned slot exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "masc/pool.hpp"
#include "masc/registry.hpp"
#include "masc/types.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "net/time.hpp"

namespace masc {
namespace {

using net::Prefix;
using net::SimTime;

// ----------------------------------------------------- registry vs oracle

/// Brute-force reference for ClaimRegistry: a flat entry list with O(n)
/// scans, replaying the header-documented semantics directly.
class RegistryOracle {
 public:
  struct Entry {
    Prefix prefix;
    DomainId owner;
    SimTime expires;
  };

  bool claim(const Prefix& prefix, DomainId owner, SimTime expires,
             SimTime now) {
    for (const Entry& e : entries_) {
      if (e.expires > now && e.owner != owner && e.prefix.overlaps(prefix)) {
        return false;  // collision with a live foreign claim
      }
    }
    // Fold live own overlaps into the new claim; an exact-prefix entry is
    // replaced regardless (an expired one is overwritten).
    std::erase_if(entries_, [&](const Entry& e) {
      return (e.expires > now && e.owner == owner &&
              e.prefix.overlaps(prefix)) ||
             e.prefix == prefix;
    });
    entries_.push_back({prefix, owner, expires});
    return true;
  }

  void release(const Prefix& prefix) {
    std::erase_if(entries_, [&](const Entry& e) { return e.prefix == prefix; });
  }

  void purge_expired(SimTime now) {
    std::erase_if(entries_, [&](const Entry& e) { return e.expires <= now; });
  }

  [[nodiscard]] bool is_free(const Prefix& prefix, SimTime now) const {
    return std::none_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return e.expires > now && e.prefix.overlaps(prefix);
    });
  }

  [[nodiscard]] std::optional<DomainId> owner_of(const Prefix& prefix,
                                                 SimTime now) const {
    for (const Entry& e : entries_) {
      if (e.prefix == prefix && e.expires > now) return e.owner;
    }
    return std::nullopt;
  }

  /// The claim conflicting() must report: the outermost live claim
  /// containing `prefix`, else the first live claim strictly inside it in
  /// (base, length) order.
  [[nodiscard]] std::optional<Entry> conflicting(const Prefix& prefix,
                                                 SimTime now) const {
    const Entry* outer = nullptr;
    const Entry* inner = nullptr;
    for (const Entry& e : entries_) {
      if (e.expires <= now) continue;
      if (e.prefix.contains(prefix)) {
        if (outer == nullptr || e.prefix.length() < outer->prefix.length()) {
          outer = &e;
        }
      } else if (prefix.contains(e.prefix)) {
        if (inner == nullptr || e.prefix < inner->prefix) inner = &e;
      }
    }
    if (outer != nullptr) return *outer;
    if (inner != nullptr) return *inner;
    return std::nullopt;
  }

  /// Stored entries, expired ones included until a purge.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Live claims as a comparable sorted set.
  [[nodiscard]] std::vector<std::tuple<std::uint32_t, int, DomainId>> claims(
      SimTime now) const {
    std::vector<std::tuple<std::uint32_t, int, DomainId>> out;
    for (const Entry& e : entries_) {
      if (e.expires > now) {
        out.emplace_back(e.prefix.base().value(), e.prefix.length(), e.owner);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Maximal free decomposition of `space` — same recursion as the
  /// registry, but over the flat list's overlap predicate.
  void free_prefixes(const Prefix& space, SimTime now,
                     std::vector<Prefix>& out) const {
    if (is_free(space, now)) {
      out.push_back(space);
      return;
    }
    const bool covered =
        std::any_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
          return e.expires > now && e.prefix.contains(space);
        });
    if (covered || space.length() == 32) return;
    free_prefixes(space.left_child(), now, out);
    free_prefixes(space.right_child(), now, out);
  }

 private:
  std::vector<Entry> entries_;
};

std::vector<std::tuple<std::uint32_t, int, DomainId>> live_claims(
    const ClaimRegistry& registry, SimTime now) {
  std::vector<std::tuple<std::uint32_t, int, DomainId>> out;
  for (const auto& [prefix, entry] : registry.claims(now)) {
    out.emplace_back(prefix.base().value(), prefix.length(), entry.owner);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Draws claims in the shapes MASC makes inside 224/8 — nested claims
/// around a few busy centres, doubling moves (a recent claim's parent or
/// sibling) and scatter — and probes of every length 0..32, near a
/// centre or a recent claim, inside 224/8 or anywhere in the address
/// space.
class ClaimSource {
 public:
  ClaimSource(net::Rng& rng, const Prefix& space) : rng_(rng), space_(space) {
    for (int i = 0; i < 6; ++i) centres_.push_back(inside(space_, 9, 14));
  }

  Prefix claim() {
    switch (rng_.uniform_int(0, 3)) {
      case 0: {  // nested around a centre
        const Prefix& c = centres_[rng_.index(centres_.size())];
        return inside(c, c.length(), std::min(c.length() + 10, 32));
      }
      case 1:  // doubling
        if (!recent_.empty()) {
          const Prefix& p = recent_[rng_.index(recent_.size())];
          const std::optional<Prefix> next =
              rng_.uniform_int(0, 1) == 0 ? p.parent() : p.sibling();
          if (next && space_.contains(*next)) return *next;
        }
        [[fallthrough]];
      default:  // scatter: deep enough to nest, shallow enough to collide
        return inside(space_, 10, 16);
    }
  }

  void remember(const Prefix& p) {
    recent_.push_back(p);
    if (recent_.size() > 32) recent_.erase(recent_.begin());
  }

  Prefix probe() {
    const int len = static_cast<int>(rng_.uniform_int(0, 32));
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return Prefix::containing(
            address_in(centres_[rng_.index(centres_.size())]), len);
      case 1:  // where claims made at different times nest
        if (!recent_.empty()) {
          return Prefix::containing(
              address_in(recent_[rng_.index(recent_.size())]), len);
        }
        [[fallthrough]];
      case 2:
        return Prefix::containing(address_in(space_), len);
      default:
        return Prefix::containing(address_in(Prefix{}), len);
    }
  }

 private:
  net::Ipv4Addr address_in(const Prefix& p) {
    const auto offset = static_cast<std::uint64_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(p.size()) - 1));
    return net::Ipv4Addr{static_cast<std::uint32_t>(p.base().value() + offset)};
  }
  Prefix inside(const Prefix& p, int min_len, int max_len) {
    return Prefix::containing(
        address_in(p), static_cast<int>(rng_.uniform_int(min_len, max_len)));
  }

  net::Rng& rng_;
  Prefix space_;
  std::vector<Prefix> centres_;
  std::vector<Prefix> recent_;
};

TEST(RegistryOracle, RandomClaimChurnMatchesBruteForce) {
  const Prefix space = Prefix::parse("224.0.0.0/8");
  net::Rng rng(0xC1A1Full);
  ClaimSource source(rng, space);
  ClaimRegistry registry;
  RegistryOracle oracle;
  SimTime now = SimTime::seconds(0);

  std::vector<Prefix> touched;
  for (int op = 0; op < 4000; ++op) {
    now = now + SimTime::seconds(rng.uniform_int(0, 30));
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 6) {  // claim
      const Prefix p = source.claim();
      const auto owner = static_cast<DomainId>(rng.uniform_int(1, 4));
      const SimTime expires = now + SimTime::seconds(rng.uniform_int(1, 600));
      const bool won = registry.claim(p, owner, expires, now);
      EXPECT_EQ(won, oracle.claim(p, owner, expires, now))
          << "claim " << p.to_string() << " by " << owner << " at op " << op;
      if (won) source.remember(p);
      touched.push_back(p);
    } else if (kind < 8 && !touched.empty()) {  // release
      const Prefix p = touched[rng.index(touched.size())];
      registry.release(p);
      oracle.release(p);
    } else {  // purge
      registry.purge_expired(now);
      oracle.purge_expired(now);
    }
    ASSERT_EQ(registry.size(), oracle.size()) << "at op " << op;

    // Probe agreement every step. One probe in four looks back in time:
    // an entry that had lapsed when a later claim overlapped it is live
    // again then, so live claims can nest.
    for (int probe = 0; probe < 4; ++probe) {
      const Prefix p = source.probe();
      const SimTime back = SimTime::seconds(rng.uniform_int(0, 600));
      const SimTime at = probe == 0 && back < now ? now - back : now;
      ASSERT_EQ(registry.is_free(p, at), oracle.is_free(p, at))
          << "is_free(" << p.to_string() << ") diverged at op " << op;
      const auto got = registry.conflicting(p, at);
      const auto want = oracle.conflicting(p, at);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "conflicting(" << p.to_string() << ") at op " << op;
      if (got.has_value()) {
        ASSERT_EQ(got->first, want->prefix)
            << "conflicting(" << p.to_string() << ") at op " << op;
        ASSERT_EQ(got->second.owner, want->owner);
      }
      ASSERT_EQ(registry.owner_of(p, at), oracle.owner_of(p, at));
    }
    if (op % 50 == 0) {
      ASSERT_EQ(live_claims(registry, now), oracle.claims(now))
          << "live claim sets diverged at op " << op;
      const Prefix sub = source.probe();
      const SimTime back = SimTime::seconds(rng.uniform_int(0, 600));
      const SimTime earlier = back < now ? now - back : now;
      for (const auto& [within, at] :
           {std::pair{space, now}, std::pair{sub, now}, std::pair{sub, earlier}}) {
        std::vector<Prefix> expect;
        oracle.free_prefixes(within, at, expect);
        ASSERT_EQ(registry.free_prefixes(within, at), expect)
            << "free decomposition of " << within.to_string()
            << " diverged at op " << op;
      }
    }
  }
}

TEST(RegistryRegression, ExpiredDeepEntryDoesNotShadowLiveAncestor) {
  // Found by the differential test: expiry is lazy, and the overlap scan
  // used to consult only the DEEPEST stored ancestor of a probe. An
  // expired /12 sitting on the path masked a live /10 above it, so space
  // inside a live claim was reported free (and could be claimed again).
  ClaimRegistry registry;
  const SimTime start = SimTime::seconds(0);
  ASSERT_TRUE(registry.claim(Prefix::parse("224.16.0.0/12"), 2,
                             SimTime::seconds(100), start));
  const SimTime later = SimTime::seconds(200);  // the /12 has now lapsed
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.0.0/10"), 1,
                             SimTime::days(1), later));
  const Prefix probe = Prefix::parse("224.16.0.0/14");  // under both
  EXPECT_FALSE(registry.is_free(probe, later));
  const auto hit = registry.conflicting(probe, later);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second.owner, 1u);  // the live /10, not the expired /12
  // And the whole /10 decomposes to no free space at all.
  EXPECT_TRUE(
      registry.free_prefixes(Prefix::parse("224.0.0.0/10"), later).empty());
}

// --------------------------------------------------------- pool vs oracle

struct PoolModel {
  /// Mirror of the pool's published state, rebuilt from its accessors.
  std::vector<ClaimedPrefix> prefixes;
  std::vector<Block> blocks;
};

PoolModel snapshot(const DomainPool& pool, const std::set<std::uint64_t>& ids,
                   const std::vector<Block>& ours) {
  PoolModel m;
  m.prefixes = pool.prefixes();
  for (const Block& b : ours) {
    if (ids.contains(b.id)) m.blocks.push_back(b);
  }
  return m;
}

/// Brute force: does any active prefix contain a free, aligned slot of
/// `len`? (The pool's own first-fit placement must succeed iff this does.)
bool slot_exists(const PoolModel& m, int len) {
  for (const ClaimedPrefix& cp : m.prefixes) {
    if (!cp.active || cp.prefix.length() > len) continue;
    const std::uint64_t slots = 1ull << (len - cp.prefix.length());
    for (std::uint64_t s = 0; s < slots; ++s) {
      const Prefix candidate = cp.prefix.subprefix_at(len, s);
      const bool occupied =
          std::any_of(m.blocks.begin(), m.blocks.end(), [&](const Block& b) {
            return b.range.overlaps(candidate);
          });
      if (!occupied) return true;
    }
  }
  return false;
}

TEST(PoolOracle, RandomBlockChurnKeepsPublishedInvariants) {
  PoolParams params;
  params.strategy = ClaimStrategy::kFirstFit;  // deterministic placement
  params.max_prefixes = 4;
  DomainPool pool(1, params);
  net::Rng rng(0xB10C5ull);
  SimTime now = SimTime::seconds(0);

  // Hand the pool a few /24s out of disjoint space, as MASC would.
  const std::vector<Prefix> claimable = {
      Prefix::parse("224.1.1.0/24"), Prefix::parse("224.1.3.0/24"),
      Prefix::parse("224.9.0.0/24"), Prefix::parse("225.4.4.0/24")};
  std::size_t next_claim = 0;
  pool.add_prefix(claimable[next_claim++], now + SimTime::days(30));

  std::vector<Block> issued;       // every block ever returned
  std::set<std::uint64_t> live;    // ids we have not released / seen expire
  for (int op = 0; op < 2000; ++op) {
    now = now + SimTime::seconds(rng.uniform_int(0, 120));
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 6) {  // request
      const std::uint64_t addresses = 1ull << rng.uniform_int(0, 6);
      const int len = mask_length_for(addresses);
      const PoolModel before = snapshot(pool, live, issued);
      const SimTime lifetime = SimTime::seconds(rng.uniform_int(60, 3600));
      const auto block = pool.request_block(addresses, now, lifetime);
      ASSERT_EQ(block.has_value(), slot_exists(before, len))
          << "request_block(" << addresses << ") at op " << op
          << " disagrees with the brute-force free-slot scan";
      if (block) {
        // Aligned, correctly sized, inside an active prefix, disjoint from
        // every other live block.
        EXPECT_EQ(block->range.length(), len);
        EXPECT_TRUE(std::any_of(
            before.prefixes.begin(), before.prefixes.end(),
            [&](const ClaimedPrefix& cp) {
              return cp.active && cp.prefix.contains(block->range);
            }));
        for (const Block& other : before.blocks) {
          EXPECT_FALSE(other.range.overlaps(block->range))
              << block->range.to_string() << " overlaps live block "
              << other.range.to_string() << " at op " << op;
        }
        issued.push_back(*block);
        live.insert(block->id);
      } else if (pool.prefixes().size() <
                 static_cast<std::size_t>(params.max_prefixes) &&
                 next_claim < claimable.size()) {
        // Out of space: grow like the owner would after a claim.
        pool.add_prefix(claimable[next_claim++], now + SimTime::days(30));
      }
    } else if (kind < 8 && !live.empty()) {  // release
      auto it = live.begin();
      std::advance(it, rng.index(live.size()));
      EXPECT_TRUE(pool.release_block(*it));
      live.erase(it);
    } else {  // age
      (void)pool.age(now);
      std::erase_if(live, [&](std::uint64_t id) {
        const auto it =
            std::find_if(issued.begin(), issued.end(),
                         [&](const Block& b) { return b.id == id; });
        return it != issued.end() && it->expires <= now;
      });
    }

    // Cross-check the aggregate accounting every step.
    ASSERT_EQ(pool.live_block_count(), live.size()) << "at op " << op;
    std::uint64_t allocated = 0;
    for (const Block& b : issued) {
      if (live.contains(b.id)) {
        allocated += 1ull << (32 - b.range.length());
      }
    }
    ASSERT_EQ(pool.allocated_addresses(), allocated) << "at op " << op;
  }
  // Releasing everything must leave the pool empty of allocations.
  for (const std::uint64_t id : live) EXPECT_TRUE(pool.release_block(id));
  EXPECT_EQ(pool.allocated_addresses(), 0u);
  EXPECT_EQ(pool.live_block_count(), 0u);
}

}  // namespace
}  // namespace masc
