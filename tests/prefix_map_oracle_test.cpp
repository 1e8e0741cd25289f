// Differential test: the flat PrefixMap against a std::map<Prefix, int>
// brute force, over randomized find/get_or_insert/erase/longest_match/
// for_each/for_each_within sequences. The key source mixes /0 and /32
// keys, nested prefixes sharing one base, and scatter over a few
// addresses, so probe runs collide and lengths come and go. Directed
// tests pin backward-shift deletion inside a probe run and across the end
// of the slot array. The walk order the RIB digests depend on is the
// std::map's (base, length) order, checked on every full comparison.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"
#include "net/prefix_map.hpp"
#include "net/rng.hpp"

namespace net {

/// Reads slot placement (friend of PrefixMap).
struct PrefixMapLayout {
  template <typename T>
  static std::size_t capacity(const PrefixMap<T>& map) {
    return map.slots_.size();
  }
  template <typename T>
  static std::size_t home(const PrefixMap<T>& map, const Prefix& p) {
    return map.home(p.base().value(), p.length());
  }
  template <typename T>
  static std::uint64_t lengths_present(const PrefixMap<T>& map) {
    return map.len_mask_;
  }
  template <typename T>
  static std::optional<std::size_t> slot_of(const PrefixMap<T>& map,
                                            const Prefix& p) {
    const auto* hit = map.probe(p.base().value(), p.length());
    if (hit == nullptr) return std::nullopt;
    return static_cast<std::size_t>(hit - map.slots_.data());
  }
};

namespace {

using Oracle = std::map<Prefix, int>;

std::vector<std::pair<Prefix, int>> walk(const PrefixMap<int>& map) {
  std::vector<std::pair<Prefix, int>> out;
  map.for_each([&](const Prefix& p, int v) { out.emplace_back(p, v); });
  return out;
}

std::vector<std::pair<Prefix, int>> walk_within(const PrefixMap<int>& map,
                                                const Prefix& within) {
  std::vector<std::pair<Prefix, int>> out;
  map.for_each_within(within,
                      [&](const Prefix& p, int v) { out.emplace_back(p, v); });
  return out;
}

std::optional<std::pair<Prefix, int>> oracle_longest_match(
    const Oracle& oracle, Ipv4Addr addr) {
  std::optional<std::pair<Prefix, int>> best;
  for (const auto& [p, v] : oracle) {
    if (p.contains(addr) && (!best || p.length() > best->first.length())) {
      best = {p, v};
    }
  }
  return best;
}

void expect_longest_match(const PrefixMap<int>& map, const Oracle& oracle,
                          Ipv4Addr addr) {
  const auto got = map.longest_match(addr);
  const auto want = oracle_longest_match(oracle, addr);
  ASSERT_EQ(got.has_value(), want.has_value()) << addr.to_string();
  if (got.has_value()) {
    EXPECT_EQ(got->first, want->first) << addr.to_string();
    EXPECT_EQ(*got->second, want->second) << addr.to_string();
  }
}

/// Keys over a handful of addresses at every length, so the same base
/// recurs at many lengths (nested /8, /16, /24 ... of one address) and
/// /0 and /32 keys come up regularly.
class KeySource {
 public:
  explicit KeySource(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 6; ++i) addrs_.push_back(random_addr());
  }

  Prefix next() {
    const Ipv4Addr addr =
        rng_.uniform_int(0, 3) == 0 ? random_addr() : addrs_[rng_.index(6)];
    switch (rng_.uniform_int(0, 9)) {
      case 0:
        return Prefix::containing(addr, 0);
      case 1:
        return Prefix::containing(addr, 32);
      case 2:
      case 3:
        return Prefix::containing(addr, 8 * static_cast<int>(
                                                rng_.uniform_int(1, 3)));
      default:
        return Prefix::containing(addr,
                                  static_cast<int>(rng_.uniform_int(0, 32)));
    }
  }

  Ipv4Addr probe() {
    if (rng_.uniform_int(0, 1) == 0) return addrs_[rng_.index(6)];
    return random_addr();
  }

  Rng& rng() { return rng_; }

 private:
  Ipv4Addr random_addr() {
    return Ipv4Addr{static_cast<std::uint32_t>(
        rng_.uniform_int(0, std::int64_t{0xFFFFFFFF}))};
  }

  Rng rng_;
  std::vector<Ipv4Addr> addrs_;
};

/// One random operation against both tables.
void step(PrefixMap<int>& map, Oracle& oracle, KeySource& keys,
          int insert_weight) {
  Rng& rng = keys.rng();
  const auto roll = rng.uniform_int(0, 99);
  if (roll < insert_weight) {
    const Prefix p = keys.next();
    const int v = static_cast<int>(rng.uniform_int(1, 1 << 20));
    int& slot = map.get_or_insert(p);
    const auto it = oracle.find(p);
    ASSERT_EQ(slot, it == oracle.end() ? 0 : it->second) << p.to_string();
    slot = v;
    oracle[p] = v;
  } else if (roll < 80) {
    // Erase a held key most of the time, an arbitrary one otherwise.
    Prefix p = keys.next();
    if (!oracle.empty() && rng.uniform_int(0, 3) != 0) {
      p = std::next(oracle.begin(),
                    static_cast<std::ptrdiff_t>(rng.index(oracle.size())))
              ->first;
    }
    ASSERT_EQ(map.erase(p), oracle.erase(p) > 0) << p.to_string();
  } else if (roll < 90) {
    const Prefix p = keys.next();
    const int* got = map.find(p);
    const auto it = oracle.find(p);
    ASSERT_EQ(got != nullptr, it != oracle.end()) << p.to_string();
    if (got != nullptr) {
      EXPECT_EQ(*got, it->second);
    }
  } else if (roll < 97) {
    expect_longest_match(map, oracle, keys.probe());
  } else {
    const Prefix within = keys.next();
    std::vector<std::pair<Prefix, int>> want;
    for (const auto& [p, v] : oracle) {
      if (within.contains(p)) want.emplace_back(p, v);
    }
    ASSERT_EQ(walk_within(map, within), want) << within.to_string();
  }
}

void check_equivalent(const PrefixMap<int>& map, const Oracle& oracle) {
  ASSERT_EQ(map.size(), oracle.size());
  const std::vector<std::pair<Prefix, int>> want(oracle.begin(),
                                                 oracle.end());
  ASSERT_EQ(walk(map), want);
  for (const auto& [p, v] : oracle) {
    const int* got = map.find(p);
    ASSERT_NE(got, nullptr) << p.to_string();
    EXPECT_EQ(*got, v);
  }
}

TEST(PrefixMapOracle, RandomizedOperationsMatchBruteForce) {
  for (const std::uint64_t seed : {3u, 41u, 977u}) {
    PrefixMap<int> map;
    Oracle oracle;
    KeySource keys(seed);
    // Grow from empty through several doublings, drain back down, then
    // churn at a small size where probe runs wrap the slot array.
    for (const int insert_weight : {70, 20, 40}) {
      for (int i = 0; i < 3000; ++i) {
        step(map, oracle, keys, insert_weight);
        if (HasFatalFailure()) return;
        if (i % 250 == 249) check_equivalent(map, oracle);
      }
      check_equivalent(map, oracle);
    }
  }
}

TEST(PrefixMap, NestedKeysSharingABaseAndExtremeLengths) {
  PrefixMap<int> map;
  const Prefix p0 = Prefix::parse("0.0.0.0/0");
  const Prefix p8 = Prefix::parse("224.0.0.0/8");
  const Prefix p16 = Prefix::parse("224.0.0.0/16");
  const Prefix p24 = Prefix::parse("224.0.0.0/24");
  const Prefix p32 = Prefix::parse("224.0.0.9/32");
  const Ipv4Addr addr = Ipv4Addr::parse("224.0.0.9");
  map.get_or_insert(p24) = 24;
  map.get_or_insert(p8) = 8;
  map.get_or_insert(p16) = 16;
  EXPECT_FALSE(map.longest_match(Ipv4Addr::parse("10.0.0.1")).has_value());
  map.get_or_insert(p0) = 0;
  map.get_or_insert(p32) = 32;
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(walk(map), (std::vector<std::pair<Prefix, int>>{
                           {p0, 0}, {p8, 8}, {p16, 16}, {p24, 24}, {p32, 32}}));
  EXPECT_EQ(map.longest_match(Ipv4Addr::parse("10.0.0.1"))->first, p0);
  std::uint64_t lengths = (1ull << 0) | (1ull << 8) | (1ull << 16) |
                          (1ull << 24) | (1ull << 32);
  EXPECT_EQ(PrefixMapLayout::lengths_present(map), lengths);

  // Erasing the last key of each length clears its bit, and longest_match
  // falls back to the next longest.
  const std::vector<Prefix> longest_first = {p32, p24, p16, p8, p0};
  for (std::size_t i = 0; i < longest_first.size(); ++i) {
    const auto hit = map.longest_match(addr);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->first, longest_first[i]);
    EXPECT_EQ(*hit->second, longest_first[i].length());
    EXPECT_TRUE(map.erase(longest_first[i]));
    EXPECT_FALSE(map.erase(longest_first[i]));
    lengths &= ~(1ull << longest_first[i].length());
    EXPECT_EQ(PrefixMapLayout::lengths_present(map), lengths);
  }
  EXPECT_FALSE(map.longest_match(addr).has_value());
  EXPECT_TRUE(map.empty());
}

/// The first `count` /24 keys (scanning 224.0.0.0 upward) whose probe run
/// starts at `slot` in `map`'s current slot array.
std::vector<Prefix> keys_homed_at(const PrefixMap<int>& map, std::size_t slot,
                                  std::size_t count) {
  std::vector<Prefix> out;
  for (std::uint32_t i = 0; out.size() < count; ++i) {
    const Prefix p = Prefix::containing(Ipv4Addr{0xE0000000u + (i << 8)}, 24);
    if (PrefixMapLayout::home(map, p) == slot) out.push_back(p);
  }
  return out;
}

TEST(PrefixMap, EraseInsideAProbeRunShiftsTheRestBack) {
  PrefixMap<int> map;
  map.get_or_insert(Prefix::parse("10.0.0.0/8")) = -1;  // sizes the array
  ASSERT_EQ(PrefixMapLayout::capacity(map), 8u);
  map.erase(Prefix::parse("10.0.0.0/8"));
  const std::vector<Prefix> run = keys_homed_at(map, 3, 3);
  for (int i = 0; i < 3; ++i) map.get_or_insert(run[i]) = i;
  EXPECT_EQ(PrefixMapLayout::slot_of(map, run[2]), 5u);

  ASSERT_TRUE(map.erase(run[1]));
  EXPECT_EQ(PrefixMapLayout::slot_of(map, run[0]), 3u);
  EXPECT_EQ(PrefixMapLayout::slot_of(map, run[2]), 4u);
  EXPECT_EQ(*map.find(run[2]), 2);
  EXPECT_EQ(map.find(run[1]), nullptr);
}

TEST(PrefixMap, EraseAcrossTheEndOfTheSlotArray) {
  PrefixMap<int> map;
  map.get_or_insert(Prefix::parse("10.0.0.0/8")) = -1;
  ASSERT_EQ(PrefixMapLayout::capacity(map), 8u);
  map.erase(Prefix::parse("10.0.0.0/8"));
  // Two keys homed at the last slot (the second wraps to slot 0) and one
  // homed at slot 0, displaced to slot 1.
  const std::vector<Prefix> last = keys_homed_at(map, 7, 2);
  const Prefix first = keys_homed_at(map, 0, 1)[0];
  map.get_or_insert(last[0]) = 70;
  map.get_or_insert(last[1]) = 71;
  map.get_or_insert(first) = 0;
  ASSERT_EQ(PrefixMapLayout::slot_of(map, last[1]), 0u);
  ASSERT_EQ(PrefixMapLayout::slot_of(map, first), 1u);

  ASSERT_TRUE(map.erase(last[0]));
  EXPECT_EQ(PrefixMapLayout::slot_of(map, last[1]), 7u);
  EXPECT_EQ(PrefixMapLayout::slot_of(map, first), 0u);
  EXPECT_EQ(*map.find(last[1]), 71);
  EXPECT_EQ(*map.find(first), 0);
  EXPECT_EQ(map.find(last[0]), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

}  // namespace
}  // namespace net
