// The message-level MASC protocol node: listen and claim with collision
// detection (§4.1).
//
// A node advertises its space to its children, claims sub-ranges of its
// parent's space, announces claims to its parent and directly-connected
// siblings, waits out the claim waiting period (48 hours by default — long
// enough to span network partitions), resolves collisions by
// earliest-claim-then-lowest-domain-id, and on success commits the range:
// the owner's callback injects it into BGP as a group route and feeds the
// local MAAS.
//
// The same DomainPool policy object drives both this protocol node and the
// allocation-level Figure-2 simulation, so the algorithm under test is
// literally shared.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/event.hpp"
#include "net/network.hpp"
#include "net/rng.hpp"
#include "masc/claim_algorithm.hpp"
#include "masc/pool.hpp"
#include "masc/registry.hpp"
#include "masc/types.hpp"

namespace masc {

// ---------------------------------------------------------------- messages

/// Parent → children: the ranges children may claim from (§4.1: "A
/// advertises its address range … to all its children").
struct AdvertiseMessage final : net::Message {
  AdvertiseMessage() : net::Message(net::MessageKind::kMascAdvertise) {}
  std::vector<net::Prefix> spaces;
  [[nodiscard]] std::string describe() const override;
};

/// A claim (or renewal): propagated to the parent and siblings.
struct ClaimMessage final : net::Message {
  ClaimMessage() : net::Message(net::MessageKind::kMascClaim) {}
  net::Prefix prefix;
  DomainId claimant = 0;
  net::SimTime claim_time;  ///< timestamp for winner resolution
  net::SimTime expires;
  [[nodiscard]] std::string describe() const override;
};

/// Collision announcement: the addressee's claim on `prefix` lost.
struct CollisionMessage final : net::Message {
  CollisionMessage() : net::Message(net::MessageKind::kMascCollision) {}
  net::Prefix prefix;
  DomainId winner = 0;
  [[nodiscard]] std::string describe() const override;
};

/// Release of a previously held claim.
struct ReleaseMessage final : net::Message {
  ReleaseMessage() : net::Message(net::MessageKind::kMascRelease) {}
  net::Prefix prefix;
  DomainId claimant = 0;
  [[nodiscard]] std::string describe() const override;
};

// -------------------------------------------------------------------- node

class MascNode final : public net::Endpoint {
 public:
  struct Params {
    /// §4.1: "we believe 48 hours to be a realistic period of time to
    /// wait" for collision announcements.
    net::SimTime waiting_period = net::SimTime::hours(48);
    /// Lifetime attached to new claims.
    net::SimTime claim_lifetime = net::SimTime::days(30);
    /// Give up a request after this many collision-triggered retries.
    int max_retries = 16;
    PoolParams pool;
  };

  struct Callbacks {
    /// A claim survived the waiting period: the range now belongs to the
    /// domain (inject into BGP as a group route; §4.2).
    std::function<void(const net::Prefix&, net::SimTime expires)> on_granted;
    /// A held range lapsed or lost — withdraw its group route.
    std::function<void(const net::Prefix&)> on_released;
    /// A space request failed permanently (no free space / max retries).
    std::function<void(std::uint64_t addresses)> on_failed;
  };

  MascNode(net::Network& network, DomainId domain, std::string name,
           Params params, std::uint64_t rng_seed);

  MascNode(const MascNode&) = delete;
  MascNode& operator=(const MascNode&) = delete;

  /// Relationship of the far end of a MASC peering.
  enum class PeerKind { kParent, kChild, kSibling };

  /// Connects two nodes; `b_is` states what `b` is to `a` (kParent means b
  /// is a's parent; a is then registered as b's child, etc.). Returns the
  /// channel so topology owners can partition MASC peerings alongside the
  /// physical links they ride on.
  static net::ChannelId connect(
      MascNode& a, MascNode& b, PeerKind b_is,
      net::SimTime latency = net::SimTime::milliseconds(50));

  /// Configures the claiming space directly — for top-level domains, which
  /// claim "from the entire multicast address space, 224/4" (or from the
  /// exchange-point partition they are bootstrapped with, §4.4).
  void set_spaces(std::vector<net::Prefix> spaces);

  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Requests `addresses` more claimed space; drives the expansion policy
  /// and starts the claim–collide exchange. Safe to call repeatedly.
  void request_space(std::uint64_t addresses);

  /// Ages pool and registry; releases lapsed ranges (call periodically or
  /// before inspection).
  void age_now();

  [[nodiscard]] DomainPool& pool() { return pool_; }
  [[nodiscard]] const DomainPool& pool() const { return pool_; }
  [[nodiscard]] DomainId domain() const { return domain_; }
  [[nodiscard]] const std::vector<net::Prefix>& spaces() const {
    return spaces_;
  }
  [[nodiscard]] int collisions_suffered() const { return collisions_; }
  [[nodiscard]] bool has_pending_claim() const {
    return pending_.has_value();
  }

  /// Fault injection: overrides the claim waiting period (applies to
  /// claims started after the call). Shrinking it below the claim
  /// propagation latency deliberately breaks §4.1's safety argument —
  /// the chaos harness uses this to prove the overlap checker catches
  /// the resulting overlapping sibling allocations.
  void debug_set_waiting_period(net::SimTime period) {
    params_.waiting_period = period;
  }

  // net::Endpoint:
  void on_message(net::ChannelId channel,
                  std::unique_ptr<net::Message> msg) override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint64_t owner_id() const override { return domain_; }

 private:
  struct PeerLink {
    net::ChannelId channel;
    PeerKind kind;  // what the far end is to us
    DomainId domain;
  };

  struct PendingClaim {
    net::Prefix prefix;
    net::SimTime claim_time;
    net::SimTime expires;
    std::uint64_t request_addresses;  // original request, for retries
    bool is_double = false;
    bool renumber = false;  // old prefixes deactivate on grant
    net::Prefix double_target;  // held prefix being doubled
    net::EventId timer;
    int retries = 0;
    /// When the *request* started — preserved across collision retries so
    /// masc.claim_grant_latency measures request→grant, retries included.
    net::SimTime requested_at;
    /// First collision on this request (kTimeInfinity = none yet); basis
    /// of masc.collision_resolution_latency.
    net::SimTime first_collision_at = net::kTimeInfinity;
    /// Causal span carried across the waiting-period timer, so the grant's
    /// advertisements land on the same trace as the claim (and its
    /// collision / re-claim, which propagate it through retries).
    std::uint64_t trace_id = 0;
  };

  void handle_advertise(const PeerLink& from, const AdvertiseMessage& msg);
  void handle_claim(const PeerLink& from, const ClaimMessage& msg);
  void handle_child_claim(const PeerLink& from, const ClaimMessage& msg);
  void handle_collision(const PeerLink& from, const CollisionMessage& msg);
  void handle_release(const PeerLink& from, const ReleaseMessage& msg);

  /// Starts (or retries) the claim exchange for a space request.
  /// `requested_at` / `first_collision_at` / `trace_id` carry request
  /// context across retries (see PendingClaim).
  void start_claim(std::uint64_t addresses, int retries,
                   net::SimTime requested_at,
                   net::SimTime first_collision_at = net::kTimeInfinity,
                   std::uint64_t trace_id = 0);
  /// Counts the failure and fires the on_failed callback.
  void fail_request(std::uint64_t addresses);
  void send_claim(const net::Prefix& prefix, net::SimTime claim_time,
                  net::SimTime expires, std::uint64_t trace_id);
  void propagate_claim_to_children(const ClaimMessage& msg,
                                   const PeerLink& from);
  void claim_granted();
  void abort_pending_and_retry();
  void send_advertisements(std::uint64_t trace_id = 0);
  void send_collision_to(const PeerLink& to, const net::Prefix& prefix);

  /// True if `ours` beats `theirs` (§4.1 footnote: winner by timestamps,
  /// then domain ids).
  [[nodiscard]] bool we_win(net::SimTime our_time, net::SimTime their_time,
                            DomainId theirs) const;

  /// The link on `channel`, read from the index connect() stored on the
  /// channel; throws for a channel this node is not on.
  [[nodiscard]] const PeerLink& link(net::ChannelId channel) const;
  [[nodiscard]] net::SimTime now() const { return network_.events().now(); }

  net::Network& network_;
  DomainId domain_;
  std::string name_;
  Params params_;
  /// The claim generator (2.5 KB of state) is built from this seed the
  /// first time choose_claim needs it: most nodes never claim.
  std::uint64_t rng_seed_;
  std::unique_ptr<net::Rng> rng_;
  DomainPool pool_;
  Callbacks callbacks_;

  /// masc.* counters in the network's registry — shared by every node on
  /// the network, so they aggregate per simulation.
  struct NodeMetrics {
    obs::Counter* claims_sent;
    obs::Counter* claims_granted;
    obs::Counter* claims_released;
    obs::Counter* collisions_suffered;
    obs::Counter* requests_failed;
    obs::Counter* advertisements_sent;
    obs::Histogram* claim_grant_latency;          // request → grant, seconds
    obs::Histogram* collision_resolution_latency;  // 1st collision → grant
  };
  NodeMetrics metrics_;

  std::vector<net::Prefix> spaces_;
  /// Claims heard from siblings (and our own), with expiries — all within
  /// the space we claim from.
  ClaimRegistry known_claims_;
  /// Claims by our children within OUR held space (§4.1: "the parent
  /// domain … keeps track of how much of its current space has been
  /// allocated"). The parent arbitrates child-vs-child collisions.
  ClaimRegistry child_claims_;
  /// Claim timestamps of child claims, for arbitration.
  std::map<net::Prefix, net::SimTime> child_claim_times_;
  std::vector<PeerLink> links_;
  std::optional<PendingClaim> pending_;
  /// Claim timestamps of our held prefixes (for winner resolution on
  /// partition heal).
  std::map<net::Prefix, net::SimTime> held_claim_times_;
  int collisions_ = 0;
};

}  // namespace masc
