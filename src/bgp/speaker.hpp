// A BGP speaker: one per border router.
//
// Speakers hold the two MBGP routing-table views (unicast and G-RIB),
// exchange update messages over peering channels, run the decision process,
// and apply export policy. Two behaviours from the paper are first-class:
//
// * Group-route aggregation (§4.3.2): a speaker whose domain originates a
//   covering prefix does not propagate its children's more-specific group
//   routes to external peers — "the border routers of the parent domain
//   need not propagate their children's group routes explicitly".
// * Policy as selective propagation (§2, §4.2): provider/customer export
//   rules ("Gao–Rexford") limit which routes a domain will carry, for
//   multicast exactly as for unicast.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "bgp/adj_rib_out.hpp"
#include "bgp/messages.hpp"
#include "bgp/rib.hpp"
#include "bgp/route_table.hpp"
#include "bgp/types.hpp"

namespace bgp {

class Speaker;

/// Export policy applied on a peering, per direction.
enum class ExportPolicy : std::uint8_t {
  kAdvertiseAll,  ///< no policy filter
  /// Advertise to customers everything; to providers/laterals only routes
  /// that are locally originated or learned from customers (inferred from
  /// LOCAL_PREF >= 100, the standard encoding).
  kGaoRexford,
};

/// Result of a longest-prefix-match query against one RIB view, as consumed
/// by BGMP: which peer is the next hop toward the prefix's origin.
struct LookupResult {
  net::Prefix prefix;
  Route route;
  /// The speaker to forward toward; nullptr when the route is locally
  /// originated (this domain is the root/origin — §5.2's "no BGP next hop").
  Speaker* next_hop = nullptr;
  /// True if next_hop is an internal (same-domain) peer — the best exit
  /// router reached through the MIGP rather than directly.
  bool internal = false;
};

class Speaker final : public net::Endpoint {
 public:
  Speaker(net::Network& network, DomainId as, std::string name);

  Speaker(const Speaker&) = delete;
  Speaker& operator=(const Speaker&) = delete;

  /// Establishes a peering between two speakers. `a_sees_b` is the
  /// relationship from a's perspective (kInternal iff same domain, which is
  /// enforced). Each side immediately advertises its table to the other,
  /// as on BGP session establishment. Returns the channel (for
  /// link-failure experiments).
  static net::ChannelId connect(
      Speaker& a, Speaker& b, Relationship a_sees_b,
      net::SimTime latency = net::SimTime::milliseconds(10),
      ExportPolicy a_export = ExportPolicy::kAdvertiseAll,
      ExportPolicy b_export = ExportPolicy::kAdvertiseAll);

  /// Injects a locally-originated route (e.g. a MASC allocation as a group
  /// route). Idempotent.
  void originate(RouteType type, const net::Prefix& prefix);

  /// Withdraws a locally-originated route (e.g. an expired MASC range).
  void withdraw(RouteType type, const net::Prefix& prefix);

  [[nodiscard]] const Rib& rib(RouteType type) const {
    return ribs_[static_cast<std::size_t>(type)];
  }

  /// Longest-match lookup in one view; how BGMP resolves "the next hop
  /// towards the group's root domain".
  [[nodiscard]] std::optional<LookupResult> lookup(RouteType type,
                                                   net::Ipv4Addr addr) const;

  [[nodiscard]] DomainId as() const { return as_; }
  [[nodiscard]] std::uint32_t uid() const { return uid_; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint64_t owner_id() const override { return as_; }

  /// Turns §4.3.2's export-time aggregation on/off (on by default). With it
  /// off, every more-specific learned route is propagated — the ablation
  /// baseline for the G-RIB-size experiments.
  void set_aggregation(bool enabled);

  /// Registers a callback fired whenever a loc-RIB best route changes
  /// (installed, replaced or lost). BGMP uses it to migrate shared-tree
  /// parents when the path toward a root domain moves.
  using RouteChangeListener =
      std::function<void(RouteType, const net::Prefix&)>;
  void add_route_change_listener(RouteChangeListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Peers of this speaker (for wiring BGMP components to BGP peerings).
  [[nodiscard]] std::vector<Speaker*> peers() const;
  [[nodiscard]] std::optional<Relationship> relationship_with(
      const Speaker& peer) const;

  /// Session introspection for invariant checkers: the number of peerings
  /// (the PeerIndex range), the speaker behind one, whether its transport
  /// session is currently up, and its channel (the same id on both ends).
  /// A RIB candidate whose `via` names a down session is stale state the
  /// session teardown should have flushed.
  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }
  [[nodiscard]] Speaker* peer_speaker(PeerIndex index) const {
    return peers_.at(index).speaker;
  }
  [[nodiscard]] bool peer_session_up(PeerIndex index) const {
    return network_.is_up(peers_.at(index).channel);
  }
  [[nodiscard]] net::ChannelId peer_channel(PeerIndex index) const {
    return peers_.at(index).channel;
  }
  /// The peering on `channel`, or kLocalPeer when there is none: one read
  /// of the index connect() stored on the channel.
  [[nodiscard]] PeerIndex find_peer(net::ChannelId channel) const {
    const std::uint32_t index = network_.endpoint_index(channel, *this);
    return index == net::Network::kNoIndex ? kLocalPeer : index;
  }

  /// Read-only walk of what this speaker last announced in one view (its
  /// Adj-RIB-Out): `fn(prefix, peer, route)` per announced route, in
  /// address order, one table walk for every peer.
  template <typename Fn>
  void for_each_advertised(RouteType type, Fn&& fn) const {
    adj_rib_out_[static_cast<std::size_t>(type)].for_each_cell(
        [&](const net::Prefix& prefix, PeerIndex peer, const RouteRef& ref) {
          fn(prefix, peer, ref.get());
        });
  }

  /// What this speaker last announced to `peer` for `prefix` in one view
  /// (its Adj-RIB-Out cell), or nullptr.
  [[nodiscard]] const Route* advertised(RouteType type, PeerIndex peer,
                                        const net::Prefix& prefix) const;

  /// Bytes of routing state held by this speaker: the two RIB views
  /// (map slot arrays + candidate slots), the origin tables, and the two
  /// Adj-RIB-Out tables. Feeds the core.state_bytes_per_domain gauge.
  [[nodiscard]] std::size_t state_bytes() const;

  // net::Endpoint:
  /// One drain is one update batch, as a BGP router reads a socket's
  /// worth of UPDATEs before it runs its decision process: every update
  /// the drain delivers is applied first, and what they changed goes out
  /// when the drain ends, as at most one UpdateMessage per peer.
  void on_drain(net::SmallFunction<void()>& deliveries) override;
  /// Applies one received update, which must arrive inside on_drain's
  /// batch: outside any batch it throws std::logic_error, rather than
  /// leave its deltas queued for some later, unrelated flush.
  void on_message(net::ChannelId channel,
                  std::unique_ptr<net::Message> msg) override;
  /// Session loss: all routes learned over the peering are flushed and
  /// withdrawals cascade (BGP hold-timer expiry semantics).
  void on_channel_down(net::ChannelId channel) override;
  /// Session re-establishment: the full table is re-advertised.
  void on_channel_up(net::ChannelId channel) override;

 private:
  struct Peer {
    Speaker* speaker;
    net::ChannelId channel;
    Relationship relationship;
    ExportPolicy export_policy;
  };

  /// One Adj-RIB-Out change queued during the current update batch (see
  /// BatchScope): the cell as this sync found it (`before`) and as it left
  /// it (`latest`). Both are interned handles (null = absent/withdraw):
  /// ids are canonical, so the flush netting check is an id compare and a
  /// batch of applies costs refcount bumps, not Route copies.
  struct PendingDelta {
    PeerIndex peer;
    RouteType type;
    net::Prefix prefix;
    RouteRef before;
    RouteRef latest;
    net::SimTime origin_time;

    /// The coalescing key, in flush order.
    [[nodiscard]] auto key() const { return std::tie(peer, type, prefix); }
  };

  Rib& rib_mut(RouteType type) {
    return ribs_[static_cast<std::size_t>(type)];
  }

  /// RAII save/restore of the origin-stamp context (update_origin_ /
  /// remote_origin_) around one originate/withdraw/handle_update.
  class OriginScope {
   public:
    OriginScope(Speaker& speaker, net::SimTime origin, bool remote)
        : speaker_(speaker),
          prev_origin_(speaker.update_origin_),
          prev_remote_(speaker.remote_origin_) {
      speaker.update_origin_ = origin;
      speaker.remote_origin_ = remote;
    }
    ~OriginScope() {
      speaker_.update_origin_ = prev_origin_;
      speaker_.remote_origin_ = prev_remote_;
    }
    OriginScope(const OriginScope&) = delete;
    OriginScope& operator=(const OriginScope&) = delete;

   private:
    Speaker& speaker_;
    net::SimTime prev_origin_;
    bool prev_remote_;
  };

  /// RAII update batch: while a scope is open, sync_peer() accumulates
  /// per-peer deltas instead of sending; when the outermost scope closes,
  /// each peer receives at most ONE UpdateMessage carrying every coalesced
  /// delta. One drain (every update one delivery event hands this speaker,
  /// see on_drain), one originate/withdraw, or a session establishment's
  /// full table therefore costs at most one message per peer, not one per
  /// prefix or per received update.
  class BatchScope {
   public:
    explicit BatchScope(Speaker& speaker) : speaker_(speaker) {
      ++speaker.batch_depth_;
    }
    ~BatchScope() {
      if (--speaker_.batch_depth_ == 0) speaker_.flush_updates();
    }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    Speaker& speaker_;
  };

  PeerIndex add_peer(Speaker& peer, net::ChannelId channel, Relationship rel,
                     ExportPolicy export_policy);
  /// find_peer(), throwing for a channel this speaker is not on.
  [[nodiscard]] PeerIndex peer_by_channel(net::ChannelId channel) const;

  void handle_update(PeerIndex from, const UpdateMessage& update);

  /// Sends each peer's coalesced pending deltas as one UpdateMessage:
  /// sorts pending_ by (peer, type, prefix), coalesces each key's run to
  /// its first `before` and last `latest` and origin_time, drops runs that
  /// net out, and skips peers whose session is down.
  void flush_updates();

  /// Best-route change fan-out: notifies listeners and resyncs peers.
  /// `entry` is the loc-RIB entry the triggering mutation touched (nullptr
  /// when it was erased) — passed through so the fan-out does not repeat
  /// the lookup the mutation just performed.
  void best_changed(RouteType type, const net::Prefix& prefix,
                    const RibEntry* entry);

  /// Recomputes what peer `index` should see for (type, prefix) and sends
  /// the delta (announcement or withdrawal), if any.
  void sync_peer(RouteType type, const net::Prefix& prefix, PeerIndex index);
  /// Syncs every peer for one prefix; the overload without an entry looks
  /// the prefix up (used where no mutation pinpointed the entry).
  void sync_all_peers(RouteType type, const net::Prefix& prefix);
  void sync_all_peers(RouteType type, const net::Prefix& prefix,
                      const RibEntry* entry);
  /// Syncs peer `index` for every prefix in every view (session
  /// establishment): the loc-RIB plus the rows where its cell is set.
  void full_sync(PeerIndex index);
  /// Re-evaluates all loc-RIB prefixes strictly inside `prefix` — needed
  /// when an own origination appears/disappears and changes which
  /// more-specifics aggregation suppresses.
  void resync_specifics(RouteType type, const net::Prefix& prefix);

  /// Per-prefix export state shared across every peer in one sync fan-out:
  /// the loc-RIB best plus every part of the export decision that does not
  /// depend on the peer. Hoists the RIB lookup, the aggregation cover check
  /// and the eBGP route construction (an AS-path intern) out of the
  /// per-peer loop — the dominant BGP cost at the 10k rung, where each
  /// best-route change fans out to many peers.
  struct SyncContext {
    const Candidate* best = nullptr;        ///< nullptr: withdraw everywhere
    const Speaker* learned_from = nullptr;  ///< split-horizon target
    bool aggregation_suppressed = false;    ///< covered by an own origination
    bool gao_blocked = false;  ///< provenance is not customer-or-local
    /// The prepended/reset eBGP route — identical for every external peer
    /// that passes the per-peer filters, so it is built (and its AS path
    /// interned) lazily on the first peer that needs it, at most once.
    mutable std::optional<Route> ebgp_export;
    /// Lazily-interned handles for the two routes this fan-out can
    /// advertise (the iBGP-carried best and the eBGP export). Interned on
    /// the first peer that needs one and shared by the rest, so the
    /// Adj-RIB-Out agree check is an id compare per peer, not a Route
    /// compare, and the hash-cons lookup happens once per fan-out.
    mutable RouteRef internal_ref;
    mutable RouteRef ebgp_ref;
  };
  /// What one peer should be sent for the context's prefix: the route
  /// (nullptr = withdraw) plus the context's intern-cache slot for it.
  struct Desired {
    const Route* route = nullptr;
    RouteRef* ref = nullptr;  ///< non-null iff route is
  };
  [[nodiscard]] SyncContext make_sync_context(RouteType type,
                                              const net::Prefix& prefix) const;
  /// Same, with the loc-RIB entry already in hand (nullptr = no entry) —
  /// skips the exact-match descent.
  [[nodiscard]] SyncContext make_sync_context(RouteType type,
                                              const net::Prefix& prefix,
                                              const RibEntry* entry) const;
  /// The peer-dependent tail of the export decision (split horizon, iBGP
  /// reflection rules, loop suppression, relationship policy).
  [[nodiscard]] Desired desired_from_context(const SyncContext& ctx,
                                             const Peer& peer) const;
  /// Reconciles peer `index`'s cell of the prefix's Adj-RIB-Out row with
  /// `desired`, queueing the delta. `row` is the prefix's row (kNoRow:
  /// none); it is updated when the row is created or erased.
  void apply_desired(RouteType type, const net::Prefix& prefix,
                     PeerIndex index, std::uint32_t& row,
                     const Desired& desired);

  net::Network& network_;
  DomainId as_;
  std::string name_;
  std::uint32_t uid_;

  /// bgp.* counters in the network's registry — shared by every speaker on
  /// the network, so they aggregate per simulation.
  struct SpeakerMetrics {
    obs::Counter* updates_sent;
    /// Exact per-AS count of updates_sent.
    obs::Sharded* updates_sent_by_domain;
    obs::Counter* updates_received;
    obs::Counter* routes_announced;
    obs::Counter* routes_withdrawn;
    obs::Counter* routes_originated;
    /// Origination → this speaker's best route changing, sampled at every
    /// speaker a received update flips (the update carries origin_time).
    obs::Histogram* route_convergence_latency;
  };
  SpeakerMetrics metrics_;

  /// Origin time of the routing change being processed (negative = none):
  /// set around originate()/withdraw()/handle_update() and copied into
  /// updates sync_peer() sends, so the stamp survives re-advertisement.
  net::SimTime update_origin_ = net::SimTime::nanoseconds(-1);
  /// True while handling a *received* update — gates convergence-latency
  /// sampling so the originator's own (zero-latency) flip is not counted.
  bool remote_origin_ = false;

  bool aggregation_ = true;
  int batch_depth_ = 0;
  std::array<Rib, kRouteTypeCount> ribs_;
  /// Locally-originated prefixes per view (one per view on the ladder).
  std::array<std::vector<net::Prefix>, kRouteTypeCount> origins_;
  /// Last route announced to each peer, per view: one row of interned
  /// 4-byte handles per prefix, one cell per PeerIndex.
  std::array<AdjRibOut, kRouteTypeCount> adj_rib_out_;
  std::vector<Peer> peers_;
  /// Every delta queued in the current batch, for every peer, in queue
  /// order: queueing is an append, and flush_updates() sorts them into
  /// the (peer, type, prefix) order the wire needs.
  std::vector<PendingDelta> pending_;
  /// Capacity pending_ may keep between batches; a larger one is freed at
  /// flush. Most batches queue a handful of entries, but full-table syncs
  /// and hub fan-outs queue hundreds, and keeping those capacities on
  /// every speaker costs more peak memory than regrowing them does time.
  static constexpr std::size_t kPendingKeep = 64;
  std::vector<RouteChangeListener> listeners_;
};

}  // namespace bgp
