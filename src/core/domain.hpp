// A Domain assembles the full per-domain protocol stack of the paper's
// architecture: an internal router graph running a MIGP, border routers
// each pairing a BGP speaker with a BGMP component, a MASC node acquiring
// multicast address ranges, and a MAAS leasing group addresses to local
// initiators.
//
// The Domain implements bgmp::DomainService — the bridge between the BGMP
// components and the MIGP — and migp::MembershipListener — the
// MIGP-specific join notification (Domain Wide Reports etc.) that tells
// the group's best exit router to join the inter-domain tree.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgmp/router.hpp"
#include "bgp/speaker.hpp"
#include "masc/maas.hpp"
#include "masc/node.hpp"
#include "migp/factory.hpp"
#include "net/network.hpp"
#include "topology/graph.hpp"

namespace core {

class Internet;

using Group = net::Ipv4Addr;

/// Reports one data delivery to this domain's members: `source`, the
/// group, and the inter-domain hop count the packet accumulated.
struct Delivery {
  const class Domain* domain;
  net::Ipv4Addr source;
  Group group;
  int hops;
  std::size_t member_routers;
};

class Domain final : public bgmp::DomainService,
                     public migp::MembershipListener {
 public:
  struct Config {
    bgp::DomainId id = 0;
    std::string name;
    migp::Protocol protocol = migp::Protocol::kDvmrp;
    /// Internal router graph; a single router by default.
    std::optional<topology::Graph> internal_graph;
    /// Which internal routers are border routers; {0} by default.
    std::vector<migp::RouterId> borders{0};
    /// Whether to originate the domain's unicast prefix into BGP at
    /// construction (off for very large evaluations, where only source
    /// domains announce).
    bool announce_unicast = false;
  };

  Domain(Internet& internet, Config config);
  ~Domain() override;

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  // -- identity ------------------------------------------------------------
  [[nodiscard]] bgp::DomainId id() const { return config_.id; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  /// The domain's position in its Internet: Internet::domain(index()) is
  /// this domain.
  [[nodiscard]] std::size_t index() const { return index_; }
  /// The domain's unicast address block (10.x.y.0/24, derived from id).
  [[nodiscard]] net::Prefix unicast_prefix() const;
  /// A host address inside the domain (host index 1..254).
  [[nodiscard]] net::Ipv4Addr host_address(int host = 1) const;

  // -- components ------------------------------------------------------------
  [[nodiscard]] std::size_t border_count() const { return borders_.size(); }
  [[nodiscard]] bgp::Speaker& speaker(std::size_t border = 0);
  [[nodiscard]] bgmp::Router& bgmp_router(std::size_t border = 0);
  [[nodiscard]] migp::Migp& migp() { return *migp_; }
  [[nodiscard]] masc::MascNode& masc_node() { return *masc_; }
  [[nodiscard]] masc::Maas& maas() { return *maas_; }

  /// Announces the unicast prefix from every border router (for domains
  /// that will source data; RPF checks toward them read it).
  void announce_unicast();

  /// Directly originates a multicast range as this domain's (bypassing
  /// MASC — used by evaluations that study BGMP in isolation); injected as
  /// a group route at every border router.
  void originate_group_range(const net::Prefix& range);
  void withdraw_group_range(const net::Prefix& range);

  /// Leases a group address from the domain's MAAS (the group initiator
  /// path: the group is rooted here because the address comes from this
  /// domain's MASC range).
  [[nodiscard]] std::optional<masc::AddressLease> create_group(
      net::SimTime lifetime = net::SimTime::days(30));

  // -- membership & data -----------------------------------------------------
  /// A host attached to internal router `at` joins/leaves `group`.
  void host_join(Group group, migp::RouterId at = 0);
  void host_leave(Group group, migp::RouterId at = 0);
  /// A host attached to `at` sends one packet to `group`.
  void send(Group group, migp::RouterId at = 0, int host = 1);

  /// Asks the border router(s) to build a source-specific branch toward
  /// `source` (§5.3), as a receiver domain would after deciding the shared
  /// tree path to this source is poor.
  void build_source_branch(net::Ipv4Addr source, Group group);

  // -- failure injection -----------------------------------------------------
  /// Border-router crash: every border's BGMP soft state and the domain's
  /// join bookkeeping vanish silently. Host membership (MIGP state) and
  /// MASC allocations (stable storage, §4.1) survive. Peers learn of the
  /// crash only through session resets — Internet::crash_restart_domain
  /// bounces the channels around this call.
  void crash();
  /// Restart recovery: re-expresses local membership so the (new) best
  /// exit routers rejoin the inter-domain trees.
  void restart();

  // -- bgmp::DomainService ---------------------------------------------------
  bool deliver_data(bgmp::Router& self, net::Ipv4Addr source, Group group,
                    int hops) override;
  void rootward_transit(bgmp::Router& self, bgmp::Router& next,
                        net::Ipv4Addr source, Group group, int hops) override;
  void encapsulate(bgmp::Router& self, bgmp::Router& to,
                   net::Ipv4Addr source, Group group, int hops) override;
  bool deliver_decapsulated(bgmp::Router& self, bgmp::Router& encapsulator,
                            net::Ipv4Addr source, Group group,
                            int hops) override;
  bgmp::Router* rpf_exit(net::Ipv4Addr source) override;
  bool needs_encapsulated_delivery(bgmp::Router& self, Group group) override;
  void relay_control(bgmp::Router& self, bgmp::Router& to,
                     const bgmp::ControlMessage& msg) override;
  void migp_border_state(bgmp::Router& self, Group group, bool join) override;

  // -- migp::MembershipListener ----------------------------------------------
  void on_group_present(Group group) override;
  void on_group_absent(Group group) override;

 private:
  struct Border {
    migp::RouterId internal_id;
    std::unique_ptr<bgp::Speaker> speaker;
    std::unique_ptr<bgmp::Router> bgmp;
  };

  [[nodiscard]] Border& border_of(const bgmp::Router& router);
  [[nodiscard]] migp::RouterId internal_id_of(const bgmp::Router& router);
  /// The border router that is this domain's best exit toward the group's
  /// root domain (or a designated border when the domain itself is root).
  [[nodiscard]] bgmp::Router* exit_router_for_group(Group group);
  [[nodiscard]] bgmp::Router* router_for_speaker(const bgp::Speaker* speaker);
  [[nodiscard]] bool source_is_external(net::Ipv4Addr source) const;
  /// Distributes a MIGP DataDelivery: reports members, hands the packet to
  /// the other border routers (Arrival::kMigp).
  void fan_out_delivery(const migp::DataDelivery& delivery,
                        const bgmp::Router* origin,
                        const bgmp::Router* also_exclude,
                        net::Ipv4Addr source, Group group, int hops);
  void wire_masc_callbacks();

  Internet& internet_;
  Config config_;
  std::size_t index_;
  std::unique_ptr<migp::Migp> migp_;
  std::vector<Border> borders_;
  std::unique_ptr<masc::MascNode> masc_;
  std::unique_ptr<masc::Maas> maas_;
  /// Which border router joined the inter-domain tree per group (so the
  /// leave goes to the same router even if routes churned). Never walked,
  /// so hashed.
  std::unordered_map<Group, bgmp::Router*> joined_via_;
};

}  // namespace core
