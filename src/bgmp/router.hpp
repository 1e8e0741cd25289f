// The BGMP component of a domain border router (§5).
//
// Each border router pairs a BGMP component with a BGP speaker (for G-RIB
// and unicast RPF lookups) and a view of its domain's MIGP (through the
// DomainService interface, implemented by the core glue). BGMP components
// of different domains hold persistent peerings over which they exchange
// joins, prunes and data; components of the same domain coordinate through
// the domain's MIGP — the single "MIGP component" target.
//
// Implemented behaviours, with their paper sections:
//  * bidirectional shared trees rooted at the group's root domain (§5.2);
//  * join/prune propagation toward the root via G-RIB lookups (§5.2);
//  * forwarding of data from non-member senders toward the root domain
//    until it hits the tree (§3 "conformance to IP service model", §5.2);
//  * encapsulation to the RPF-correct border router when the domain's
//    MIGP rejects data entering at a shared-tree router (§5.3);
//  * source-specific branches: joins toward a source that stop at the
//    shared tree or the source domain, and the prune of the encapsulated
//    path once native data flows (§5.3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "bgp/speaker.hpp"
#include "bgmp/messages.hpp"
#include "bgmp/types.hpp"

namespace bgmp {

class Router;

/// How data/control arrived at a router — governs the forwarding rules.
struct Arrival {
  enum class Kind : std::uint8_t {
    kExternal,  ///< from an external BGMP peer
    kMigp,      ///< multicast delivery inside the own domain
    kTransit,   ///< unicast rootward/sourceward transit from an internal peer
    kEncap,     ///< encapsulated delivery from an internal shared-tree router
  };
  Kind kind = Kind::kMigp;
  Router* peer = nullptr;  // for kExternal/kTransit/kEncap: the sender
};

/// Services a BGMP component obtains from its domain (implemented over the
/// MIGP by the core glue; by fakes in unit tests).
class DomainService {
 public:
  virtual ~DomainService() = default;

  /// Multicast-injects data into the domain at `self`: local members and
  /// the other border routers holding group state receive it (each border
  /// router sees Arrival::kMigp). Returns false if the MIGP's RPF check
  /// rejected the packet (wrong entry router for this source) — the caller
  /// must encapsulate to rpf_exit() instead (§5.3).
  virtual bool deliver_data(Router& self, net::Ipv4Addr source, Group group,
                            int hops) = 0;

  /// Moves a rootward packet through the domain when the next hop toward
  /// the root is an internal peer ("transmits the packet through the MIGP
  /// … to reach the next hop border router", §5.2). The implementation
  /// injects at the RPF-correct entry (a DVMRP-style broadcast reaches
  /// every border router); on-tree borders then continue along the tree;
  /// only if none exist is the packet tunnelled to `next` (delivered with
  /// Arrival::kTransit) to keep moving rootward.
  virtual void rootward_transit(Router& self, Router& next,
                                net::Ipv4Addr source, Group group,
                                int hops) = 0;

  /// Encapsulates data to internal border router `to` (the RPF-correct
  /// entry point for `source`). Delivered with Arrival::kEncap.
  virtual void encapsulate(Router& self, Router& to, net::Ipv4Addr source,
                           Group group, int hops) = 0;

  /// Injects decapsulated data at `self`. Both `self` and `encapsulator`
  /// are excluded from the fan-out: the delivery completes the
  /// encapsulator's own send into its MIGP target, so neither router may
  /// receive the packet back (that bounce is the B↔F ping-pong loop).
  virtual bool deliver_decapsulated(Router& self, Router& encapsulator,
                                    net::Ipv4Addr source, Group group,
                                    int hops) = 0;

  /// The border router that is this domain's best exit toward `source`.
  virtual Router* rpf_exit(net::Ipv4Addr source) = 0;

  /// Whether the domain actually needs data for `group` delivered inside
  /// it (local members, or another border router holding tree state).
  /// Gates encapsulation: a pure transit router whose MIGP rejected a
  /// packet must not tunnel it around the domain — re-injection at a
  /// different border can re-export the packet and loop it (the policy-
  /// asymmetry scenario of footnote 10).
  virtual bool needs_encapsulated_delivery(Router& self, Group group) = 0;

  /// Relays a BGMP control message to an internal peer through the MIGP
  /// (§5.2: joins to "an internal BGMP peer" travel via the MIGP).
  virtual void relay_control(Router& self, Router& to,
                             const ControlMessage& msg) = 0;

  /// Adds/removes this border router's group state in the MIGP so domain
  /// data for `group` reaches it (or stops reaching it).
  virtual void migp_border_state(Router& self, Group group, bool join) = 0;
};

class Router final : public net::Endpoint {
 public:
  Router(net::Network& network, bgp::Speaker& speaker, DomainService& service,
         std::string name);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Establishes an external BGMP peering mirroring the eBGP peering
  /// between the two routers' speakers. Returns the channel (for link-
  /// failure experiments).
  static net::ChannelId connect(
      Router& a, Router& b,
      net::SimTime latency = net::SimTime::milliseconds(10));

  /// Registers a same-domain border router (internal BGMP peer, reachable
  /// through the MIGP).
  static void register_internal(Router& a, Router& b);

  // -- MIGP-driven entry points (called by the domain glue) ----------------
  /// The domain gained its first member of `group`; called on the group's
  /// best exit router (§5: the MIGP informs the best exit router). Adds an
  /// MIGP child target and joins toward the root domain.
  void local_members_present(Group group);
  /// The domain lost its last member.
  void local_members_absent(Group group);

  /// Data for `group` reached this border router from inside the domain
  /// (local sender, or multicast delivery on the internal tree).
  void data_from_migp(net::Ipv4Addr source, Group group, int hops);
  /// Unicast transit delivery (Arrival::kTransit).
  void data_transit(Router& from, net::Ipv4Addr source, Group group,
                    int hops);
  /// Encapsulated delivery (Arrival::kEncap): decapsulate and inject; may
  /// trigger a source-specific branch (§5.3).
  void data_encapsulated(Router& from, net::Ipv4Addr source, Group group,
                         int hops);

  /// Control relayed through the MIGP from an internal peer.
  void internal_control(Router& from, const ControlMessage& msg);

  /// Builds a source-specific branch toward `source` (§5.3): sends an
  /// (S,G) join toward the source; it stops at the shared tree or the
  /// source domain.
  void request_source_branch(net::Ipv4Addr source, Group group);

  /// Automatically build a source-specific branch after receiving
  /// encapsulated data (on by default; §5.3 "allowing the decapsulating
  /// border router the option").
  void set_auto_source_branch(bool enabled) { auto_branch_ = enabled; }

  // -- inspection ----------------------------------------------------------
  [[nodiscard]] const GroupEntry* star_entry(Group group) const;
  [[nodiscard]] const SourceEntry* source_entry(net::Ipv4Addr source,
                                                Group group) const;
  [[nodiscard]] bool on_tree(Group group) const {
    return star_entries_.contains(group);
  }
  [[nodiscard]] std::size_t entry_count() const {
    return star_entries_.size() + source_entries_.size();
  }
  /// The §7 "scaling forwarding entries" provision, quantified: the number
  /// of (*,G-prefix) entries this router would hold if sibling groups with
  /// identical target lists were stored as one aggregated entry ("BGMP has
  /// provisions for this by allowing (*,G-prefix) … state to be stored at
  /// the routers wherever the list of targets are the same").
  [[nodiscard]] std::size_t aggregated_star_count() const;
  /// Bytes of tree state held by this router: the (*,G) table's hash
  /// nodes, buckets and sorted keys, the (S,G) entry nodes, and every
  /// entry's flat target lists. Feeds the core.state_bytes_per_domain
  /// gauge.
  [[nodiscard]] std::size_t state_bytes() const;
  [[nodiscard]] bgp::Speaker& speaker() { return speaker_; }
  [[nodiscard]] const bgp::Speaker& speaker() const { return speaker_; }

  /// Full tree-state views for the invariant checkers, which walk the
  /// target-list graph across routers (bidirectionality, acyclicity,
  /// G-RIB consistency).
  [[nodiscard]] const GroupTable& star_entries() const {
    return star_entries_;
  }
  [[nodiscard]] const std::map<SourceGroup, SourceEntry>& source_entries()
      const {
    return source_entries_;
  }

  /// Models a router crash: all soft state (tree entries, MIGP border
  /// state, encapsulator bookkeeping) vanishes without notifying anyone —
  /// peers only find out when their transport sessions reset. The paper's
  /// soft-state robustness argument is that the tree re-converges from
  /// peers' reactions plus re-expressed membership; the chaos harness
  /// pairs this with session bounces and a rejoin.
  void lose_all_state();

  // net::Endpoint:
  void on_message(net::ChannelId channel,
                  std::unique_ptr<net::Message> msg) override;
  /// Peering loss: targets via the dead peer are removed; entries whose
  /// parent target died re-resolve toward the root once BGP reconverges
  /// (tree repair, after `repair_delay`). Source-specific state through
  /// the dead peer is dropped — branches re-form on demand.
  void on_channel_down(net::ChannelId channel) override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint64_t owner_id() const override {
    return speaker_.as();
  }

  void set_repair_delay(net::SimTime delay) { repair_delay_ = delay; }
  /// Prune state is soft: a fully-pruned (S,G) entry expires after this
  /// long and S's shared-tree flow resumes (receivers with live branches
  /// re-prune, data-driven). Default 3 minutes.
  void set_prune_lifetime(net::SimTime lifetime) {
    prune_lifetime_ = lifetime;
  }

 private:
  struct ExternalPeer {
    Router* router;
    net::ChannelId channel;
  };

  // -- control-plane handlers ----------------------------------------------
  void handle_control(const ControlMessage& msg, const TargetKey& from);
  void handle_join_group(Group group, const TargetKey& from);
  void handle_prune_group(Group group, const TargetKey& from);
  void handle_join_source(net::Ipv4Addr source, Group group,
                          const TargetKey& from);
  void handle_prune_source(net::Ipv4Addr source, Group group,
                           const TargetKey& from);

  // -- data plane ----------------------------------------------------------
  void handle_data(net::Ipv4Addr source, Group group, int hops,
                   const Arrival& arrival, bool branch_copy);
  void forward_to_target(const TargetKey& target, net::Ipv4Addr source,
                         Group group, int hops, bool branch_copy);
  /// Bidirectional (*,G) fan-out: every target except the arrival, with
  /// the MIGP component optionally suppressed (members already served by
  /// a branch copy).
  void forward_star(const GroupEntry& entry,
                    const std::optional<TargetKey>& exclude,
                    bool suppress_migp, net::Ipv4Addr source, Group group,
                    int hops);
  /// Forwards toward the root domain when this router has no state (§5.2).
  void forward_rootward(net::Ipv4Addr source, Group group, int hops,
                        const Arrival& arrival);

  // -- helpers --------------------------------------------------------------
  /// Resolves the next hop toward the root domain for `group` from the
  /// G-RIB: the parent target plus, for internal next hops, the internal
  /// router the join must be relayed to. nullopt: no route. parent-with-
  /// null-relay: locally rooted (parent is the MIGP component).
  struct RootwardHop {
    TargetKey parent;
    Router* relay = nullptr;  // internal router to relay control to
    bool self_rooted = false;
  };
  [[nodiscard]] std::optional<RootwardHop> rootward(Group group) const;
  /// Same, toward a source, from the unicast view (the RPF lookup).
  [[nodiscard]] std::optional<RootwardHop> sourceward(
      net::Ipv4Addr source) const;

  void send_control(const TargetKey& to, Router* relay,
                    ControlMessage::Kind kind, net::Ipv4Addr source,
                    Group group);
  [[nodiscard]] Router* external_router_for(const bgp::Speaker* speaker) const;
  [[nodiscard]] Router* internal_router_for(const bgp::Speaker* speaker) const;
  /// The external peering on `channel` (nullptr: none), read from the
  /// index connect() stored on the channel.
  [[nodiscard]] const ExternalPeer* peer_by_channel(
      net::ChannelId channel) const;
  [[nodiscard]] const ExternalPeer* peer_by_router(const Router* r) const;

  /// Adds a child target (refcounted); creates the entry and joins toward
  /// the root on first creation. Returns the entry and whether this call
  /// created it. A join chain never erases (*,G) state, and the table
  /// never moves an entry (GroupTable), so the pointer outlives the
  /// synchronous relays its own join makes.
  std::pair<GroupEntry*, bool> add_star_child(Group group,
                                              const TargetKey& child);
  /// Removes one reference; tears the entry down when empty (§5.2: "the
  /// multicast distribution tree is torn down as members leave").
  void remove_star_child(Group group, const TargetKey& child);
  /// Erases `group`'s (*,G) entry. A border bit it held moves to
  /// migp_state_, where the sync that follows settles it against the (S,G)
  /// state.
  void erase_star(Group group, const GroupEntry& entry);
  /// Joins or leaves the group's MIGP border state as the (*,G) entry
  /// `star` (nullptr: none) and the group's (S,G) entries require.
  void sync_migp_state(Group group, GroupEntry* star);
  void sync_migp_state(Group group);  ///< looks the (*,G) entry up

  /// Re-resolves the rootward parent of an orphaned (*,G) entry; retries
  /// while BGP has no (live) route toward the root domain.
  void repair_group(Group group, int attempts_left);
  /// Migrates every (*,G) parent to the current G-RIB next hop (tree
  /// stability under route churn; damped by repair_delay).
  void reresolve_parents();

  SourceEntry& get_or_copy_source_entry(net::Ipv4Addr source, Group group);
  /// Schedules the soft-state expiry of a fully-pruned (S,G) entry.
  void schedule_prune_expiry(net::Ipv4Addr source, Group group);

  net::Network& network_;
  bgp::Speaker& speaker_;
  DomainService& service_;
  std::string name_;

  /// bgmp.* counters in the network's registry — shared by every router on
  /// the network, so they aggregate per simulation.
  struct RouterMetrics {
    obs::Counter* joins_sent;
    obs::Counter* prunes_sent;
    obs::Counter* data_forwarded;
    obs::Counter* encapsulations;
    obs::Counter* source_branches_built;
    obs::Counter* entries_created;
    obs::Counter* entries_torn_down;
    /// Origination → tree merge/root, sampled where the join terminates.
    obs::Histogram* join_propagation_latency;
  };
  RouterMetrics metrics_;

  /// Origin time of the control operation currently being handled
  /// (negative = none): set around handle_control() from the message's
  /// origin_time, consulted by send_control() so the stamp survives
  /// hop-by-hop regeneration of control messages.
  net::SimTime control_origin_ = net::SimTime::nanoseconds(-1);

  bool auto_branch_ = true;
  net::SimTime repair_delay_ = net::SimTime::seconds(1);
  net::SimTime prune_lifetime_ = net::SimTime::minutes(3);
  bool reresolve_pending_ = false;

  std::vector<ExternalPeer> external_peers_;
  std::vector<Router*> internal_peers_;
  GroupTable star_entries_;
  std::map<SourceGroup, SourceEntry> source_entries_;
  /// Groups whose MIGP border state this router holds with no (*,G)
  /// entry, for (S,G) state alone; every other group's bit is the
  /// entry's GroupEntry::migp_border.
  std::set<Group> migp_state_;
  /// Encapsulating routers per (S,G) — the targets of the §5.3 prune once
  /// a source-specific branch delivers native data.
  std::map<SourceGroup, Router*> encapsulators_;
};

}  // namespace bgmp
