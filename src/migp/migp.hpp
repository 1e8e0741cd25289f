// The Multicast Interior Gateway Protocol (MIGP) interface.
//
// A central claim of the paper is MIGP independence (§3, §5): each domain
// runs whatever multicast routing protocol suits it internally, and the
// BGMP component on its border routers interacts with that protocol only
// through a narrow surface — membership notifications, border-router group
// state, and data injection. This header is that surface; DVMRP, PIM-DM,
// PIM-SM, CBT and MOSPF implement it over the domain's internal router
// graph.
//
// The protocol differences BGMP actually feels are preserved:
//  * flood-and-prune protocols (DVMRP, PIM-DM) deliver a first packet
//    everywhere and enforce RPF toward the source's best exit router, so a
//    packet entering at the wrong border router is dropped — the reason
//    BGMP needs encapsulation and source-specific branches (§5.3);
//  * PIM-SM detours data through a rendezvous point on a unidirectional
//    shared tree;
//  * CBT forwards bidirectionally on a core-based tree;
//  * MOSPF floods membership and routes on per-source shortest-path trees.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/ip.hpp"

namespace migp {

/// Index of a router inside one domain's internal graph.
using RouterId = std::uint32_t;

/// A multicast group address.
using Group = net::Ipv4Addr;

/// Outcome of injecting one data packet into the domain.
struct DataDelivery {
  /// False if the protocol's RPF check rejected the packet at the
  /// injection point (wrong entry border router for this source); nothing
  /// was delivered. The injecting BGMP component must encapsulate to the
  /// correct border router instead (§5.3).
  bool rpf_accepted = true;
  /// Routers with local members that received the packet.
  std::vector<RouterId> member_routers;
  /// Border routers whose MIGP component received the packet (excluding
  /// the injection router); BGMP forwards onward from these.
  std::vector<RouterId> border_routers;
  /// Internal link traversals consumed (traffic-cost accounting; a flood
  /// counts every edge it crosses).
  int internal_hops = 0;
  /// True if this packet was flooded domain-wide (before prune state).
  bool flooded = false;
};

/// Receives domain-level membership transitions, the MIGP-specific
/// mechanism (e.g. DVMRP Domain Wide Reports, §5) abstracted: fired when a
/// group gains its first local member / loses its last one.
class MembershipListener {
 public:
  virtual ~MembershipListener() = default;
  virtual void on_group_present(Group group) = 0;
  virtual void on_group_absent(Group group) = 0;
};

class Migp {
 public:
  /// Resolves the border router that is the domain's best exit toward an
  /// external source address — the target of internal RPF checks. Wired by
  /// the domain glue to BGP unicast lookups.
  using RpfExitFn = std::function<RouterId(net::Ipv4Addr source)>;

  virtual ~Migp() = default;

  [[nodiscard]] virtual std::string protocol_name() const = 0;

  /// Registers the listener for membership transitions (at most one).
  virtual void set_listener(MembershipListener* listener) = 0;

  // -- membership ---------------------------------------------------------
  /// A host attached to `at` joined/left `group`. Join/leave pairs must
  /// balance per router.
  virtual void host_join(RouterId at, Group group) = 0;
  virtual void host_leave(RouterId at, Group group) = 0;
  [[nodiscard]] virtual bool has_members(Group group) const = 0;
  [[nodiscard]] virtual bool router_has_members(RouterId at,
                                                Group group) const = 0;
  /// Every group with at least one local member, in address order. Host
  /// membership survives a border-router crash, so restart recovery
  /// re-expresses exactly this set to the new BGMP state.
  [[nodiscard]] virtual std::vector<Group> groups_with_members() const = 0;

  // -- border-router group state (driven by BGMP) --------------------------
  /// The BGMP component at `border` joined `group` on the inter-domain
  /// tree: data for the group inside the domain must also reach `border`.
  virtual void border_join(RouterId border, Group group) = 0;
  virtual void border_leave(RouterId border, Group group) = 0;

  // -- data plane ----------------------------------------------------------
  /// Injects one packet at `at` (the first-hop router of a local sender,
  /// or the entry border router for external data).
  virtual DataDelivery inject(RouterId at, net::Ipv4Addr source, Group group,
                              bool source_is_external) = 0;

  /// Unicast hop count between two internal routers (used for BGMP
  /// encapsulation/transit cost accounting).
  [[nodiscard]] virtual int unicast_hops(RouterId from, RouterId to) const = 0;
};

}  // namespace migp
