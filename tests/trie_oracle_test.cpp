// Differential test: the path-compressed PrefixTrie against a brute-force
// std::map oracle, over randomized insert/erase/lookup sequences shaped
// like the library's real workloads — nested claim hierarchies, doubling
// (parent/sibling) patterns, and plain scatter. Every divergence in
// find/longest_match/overlaps_any/entries is a trie bug by construction.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"
#include "net/rng.hpp"

namespace net {
namespace {

/// Brute-force reference: a sorted map plus O(n) scans.
class Oracle {
 public:
  bool insert(const Prefix& p, int v) {
    const bool added = !map_.contains(key(p));
    map_[key(p)] = {p, v};
    return added;
  }
  bool erase(const Prefix& p) { return map_.erase(key(p)) > 0; }

  [[nodiscard]] const int* find(const Prefix& p) const {
    const auto it = map_.find(key(p));
    return it == map_.end() ? nullptr : &it->second.second;
  }

  [[nodiscard]] std::optional<std::pair<Prefix, int>> longest_match(
      Ipv4Addr addr) const {
    std::optional<std::pair<Prefix, int>> best;
    for (const auto& [k, pv] : map_) {
      if (pv.first.contains(addr) &&
          (!best || pv.first.length() > best->first.length())) {
        best = pv;
      }
    }
    return best;
  }

  [[nodiscard]] std::optional<std::pair<Prefix, int>> longest_match(
      const Prefix& p) const {
    std::optional<std::pair<Prefix, int>> best;
    for (const auto& [k, pv] : map_) {
      if (pv.first.contains(p) &&
          (!best || pv.first.length() > best->first.length())) {
        best = pv;
      }
    }
    return best;
  }

  [[nodiscard]] bool overlaps_any(const Prefix& p) const {
    for (const auto& [k, pv] : map_) {
      if (pv.first.overlaps(p)) return true;
    }
    return false;
  }

  /// Entries in trie traversal order: base ascending, ancestors first.
  [[nodiscard]] std::vector<std::pair<Prefix, int>> entries() const {
    std::vector<std::pair<Prefix, int>> out;
    out.reserve(map_.size());
    for (const auto& [k, pv] : map_) out.push_back(pv);
    return out;
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  // (base, length) sorts identically to the trie's value-first DFS.
  static std::pair<std::uint32_t, int> key(const Prefix& p) {
    return {p.base().value(), p.length()};
  }
  std::map<std::pair<std::uint32_t, int>, std::pair<Prefix, int>> map_;
};

/// Draws prefixes biased toward overlap: a handful of "claim centers"
/// whose subtrees keep colliding, parent/sibling derivations (the MASC
/// doubling walk), and uniform scatter across 224/4.
class PrefixSource {
 public:
  explicit PrefixSource(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 8; ++i) {
      centers_.push_back(random_prefix(8, 14));
    }
  }

  Prefix next() {
    switch (rng_.uniform_int(0, 3)) {
      case 0: {  // inside a claim center: nested / overlapping
        const Prefix& c = centers_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(centers_.size()) -
                                    1))];
        const int len = static_cast<int>(
            rng_.uniform_int(c.length(), std::min(c.length() + 12, 32)));
        const std::uint32_t span = c.length() == 0
                                       ? ~std::uint32_t{0}
                                       : (~std::uint32_t{0} >> c.length());
        const std::uint32_t addr =
            c.base().value() |
            (static_cast<std::uint32_t>(rng_.uniform_int(0, span)) & span);
        return Prefix::containing(Ipv4Addr{addr}, len);
      }
      case 1: {  // doubling pattern: a recent prefix's parent or buddy
        if (!recent_.empty()) {
          const Prefix p = recent_[static_cast<std::size_t>(
              rng_.uniform_int(0,
                               static_cast<std::int64_t>(recent_.size()) - 1))];
          if (const auto up = p.parent(); up.has_value()) return *up;
        }
        return random_prefix(8, 28);
      }
      default:
        return random_prefix(8, 28);
    }
  }

  void remember(const Prefix& p) {
    recent_.push_back(p);
    if (recent_.size() > 64) recent_.erase(recent_.begin());
  }

  Ipv4Addr probe() {
    // Half the probes land inside centers (hit-heavy), half anywhere.
    if (rng_.uniform_int(0, 1) == 0 && !centers_.empty()) {
      const Prefix& c = centers_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(centers_.size()) - 1))];
      const std::uint32_t span =
          c.length() == 0 ? ~std::uint32_t{0} : (~std::uint32_t{0} >> c.length());
      return Ipv4Addr{c.base().value() |
                      (static_cast<std::uint32_t>(rng_.uniform_int(0, span)) &
                       span)};
    }
    return Ipv4Addr{0xE0000000u | static_cast<std::uint32_t>(
                                      rng_.uniform_int(0, 0x0FFFFFFF))};
  }

 private:
  Prefix random_prefix(int min_len, int max_len) {
    const int len = static_cast<int>(rng_.uniform_int(min_len, max_len));
    return Prefix::containing(
        Ipv4Addr{0xE0000000u |
                 static_cast<std::uint32_t>(rng_.uniform_int(0, 0x0FFFFFFF))},
        len);
  }

  net::Rng rng_;
  std::vector<Prefix> centers_;
  std::vector<Prefix> recent_;
};

void check_equivalent(const PrefixTrie<int>& trie, const Oracle& oracle,
                      PrefixSource& source, int probes) {
  ASSERT_EQ(trie.size(), oracle.size());
  ASSERT_EQ(trie.entries(), oracle.entries());
  for (int i = 0; i < probes; ++i) {
    const Ipv4Addr addr = source.probe();
    const auto got = trie.longest_match(addr);
    const auto want = oracle.longest_match(addr);
    ASSERT_EQ(got.has_value(), want.has_value()) << addr.to_string();
    if (got.has_value()) {
      EXPECT_EQ(got->first, want->first) << addr.to_string();
      EXPECT_EQ(*got->second, want->second);
    }
  }
}

TEST(TrieOracle, RandomizedMutationsMatchBruteForce) {
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    PrefixTrie<int> trie;
    Oracle oracle;
    PrefixSource source(seed);
    net::Rng rng(seed * 31 + 5);
    std::vector<Prefix> alive;

    for (int step = 0; step < 4000; ++step) {
      const auto roll = rng.uniform_int(0, 99);
      if (roll < 55 || alive.empty()) {  // insert
        const Prefix p = source.next();
        const int v = static_cast<int>(rng.uniform_int(0, 1 << 20));
        ASSERT_EQ(trie.insert(p, v), oracle.insert(p, v))
            << "step " << step << " insert " << p.to_string();
        source.remember(p);
        alive.push_back(p);
      } else if (roll < 85) {  // erase (sometimes a never-inserted key)
        Prefix p = rng.uniform_int(0, 4) == 0
                       ? source.next()
                       : alive[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(alive.size()) - 1))];
        ASSERT_EQ(trie.erase(p), oracle.erase(p))
            << "step " << step << " erase " << p.to_string();
      } else if (roll < 92) {  // exact find + prefix-form longest match
        const Prefix p = source.next();
        const int* got = trie.find(p);
        const int* want = oracle.find(p);
        ASSERT_EQ(got != nullptr, want != nullptr) << p.to_string();
        if (got != nullptr) {
          EXPECT_EQ(*got, *want);
        }
        const auto lm = trie.longest_match(p);
        const auto olm = oracle.longest_match(p);
        ASSERT_EQ(lm.has_value(), olm.has_value()) << p.to_string();
        if (lm.has_value()) {
          EXPECT_EQ(lm->first, olm->first);
        }
      } else {  // overlap query
        const Prefix p = source.next();
        ASSERT_EQ(trie.overlaps_any(p), oracle.overlaps_any(p))
            << "step " << step << " overlaps " << p.to_string();
      }
      if (step % 500 == 499) check_equivalent(trie, oracle, source, 64);
    }
    check_equivalent(trie, oracle, source, 512);
  }
}

}  // namespace
}  // namespace net
