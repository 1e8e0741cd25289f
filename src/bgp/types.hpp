// Route types and route attributes for the multiprotocol BGP substrate.
//
// The paper (§2) relies on the MBGP extension carrying "multiple types of
// routes … and consequently multiple logical views of the routing table".
// Two views exist here: the unicast RIB, which also serves RPF checks, and
// the G-RIB holding the *group routes* MASC injects. The paper's M-RIB
// matters only where multicast and unicast topologies diverge, and every
// topology here is congruent (DESIGN.md, Substitutions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/path_table.hpp"

namespace bgp {

/// The logical routing-table views of §2 (MBGP route types).
enum class RouteType : std::uint8_t {
  kUnicast = 0,  ///< unicast reachability; RPF checks read it too
  kGroup = 1,    ///< G-RIB: group routes binding ranges to root domains
};
inline constexpr int kRouteTypeCount = 2;

[[nodiscard]] constexpr const char* to_string(RouteType type) {
  switch (type) {
    case RouteType::kUnicast: return "unicast";
    case RouteType::kGroup: return "g-rib";
  }
  return "?";
}

/// A route's path attributes, as carried in update messages. The prefix
/// it reaches is not part of the route: every holder already keys it by
/// prefix (the RIB entry, the Adj-RIB-Out row, the update delta), so equal
/// attributes under different prefixes are one route and intern to one id.
struct Route {
  /// AS path, nearest AS first — a 4-byte handle into the thread's
  /// hash-consed path table (see path_table.hpp), so copying a route bumps
  /// a refcount instead of cloning a vector and path equality is an id
  /// compare. Empty for a locally-originated route that has not yet
  /// crossed an external peering.
  PathRef as_path;
  /// The domain that originated the route (the root domain for group
  /// routes).
  DomainId origin_as = 0;
  /// BGP LOCAL_PREF: higher preferred. Set at eBGP import from the peering
  /// relationship; carried unchanged across iBGP.
  int local_pref = 100;

  [[nodiscard]] bool contains_as(DomainId as) const {
    return as_path.contains(as);
  }

  [[nodiscard]] std::string describe() const;

  friend bool operator==(const Route&, const Route&) = default;
};

static_assert(sizeof(Route) == 12, "a route is three 4-byte attributes");

/// The relationship of a peering session, from one speaker's point of view.
/// Mirrors the provider/customer structure of §2's policy discussion.
enum class Relationship : std::uint8_t {
  kInternal,  ///< iBGP: same domain
  kCustomer,  ///< the peer is our customer
  kProvider,  ///< the peer is our provider
  kLateral,   ///< settlement-free peer
};

[[nodiscard]] constexpr Relationship reverse(Relationship rel) {
  switch (rel) {
    case Relationship::kCustomer: return Relationship::kProvider;
    case Relationship::kProvider: return Relationship::kCustomer;
    case Relationship::kInternal: return Relationship::kInternal;
    case Relationship::kLateral: return Relationship::kLateral;
  }
  return Relationship::kLateral;
}

[[nodiscard]] constexpr const char* to_string(Relationship rel) {
  switch (rel) {
    case Relationship::kInternal: return "internal";
    case Relationship::kCustomer: return "customer";
    case Relationship::kProvider: return "provider";
    case Relationship::kLateral: return "lateral";
  }
  return "?";
}

/// Default LOCAL_PREF assigned at eBGP import: prefer customer routes, then
/// lateral peers, then providers (the standard economic ordering).
[[nodiscard]] constexpr int default_local_pref(Relationship rel) {
  switch (rel) {
    case Relationship::kCustomer: return 100;
    case Relationship::kLateral: return 90;
    case Relationship::kProvider: return 80;
    case Relationship::kInternal: return 100;  // not used at import
  }
  return 100;
}

}  // namespace bgp
