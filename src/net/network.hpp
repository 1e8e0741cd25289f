// Point-to-point message transport between protocol endpoints.
//
// BGP and BGMP peers exchange control messages over persistent TCP
// connections (§2, §5.2); MASC nodes exchange claims/collisions with parents
// and siblings. The `Network` models each peering as a full-duplex reliable
// in-order channel with a fixed one-way latency. Channels can be taken down
// to model network partitions (§4.1's waiting period exists precisely to
// span them); while a channel is down, messages queue and are delivered when
// it heals — the behaviour of TCP retransmission across an outage shorter
// than the session's hold time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/event.hpp"
#include "net/rng.hpp"
#include "net/small_function.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"

namespace net {

/// Cheap run-time tag identifying a concrete Message type, so receivers
/// dispatch with a switch + static_cast instead of a dynamic_cast chain
/// per candidate type on every delivery. Each protocol message type sets
/// its kind at construction; kOther is for ad-hoc (e.g. test) messages.
enum class MessageKind : std::uint8_t {
  kOther = 0,
  kBgpUpdate,
  kBgmpControl,
  kBgmpData,
  kMascAdvertise,
  kMascClaim,
  kMascCollision,
  kMascRelease,
};

/// Base class for every protocol message carried by the network.
struct Message {
  constexpr explicit Message(MessageKind kind_in = MessageKind::kOther)
      : kind(kind_in) {}
  virtual ~Message() = default;

  /// One-line rendering for traces.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Concrete-type tag for switch-based dispatch (set at construction).
  MessageKind kind = MessageKind::kOther;

  /// Causal span id (see obs/record.hpp). 0 = unassigned: send() stamps the
  /// message with the ambient trace id when sent from inside a delivery
  /// (the handler is reacting to the message being delivered), or with a
  /// fresh id when originated outside one. Handlers that carry causality
  /// across a timer (e.g. MASC's claim waiting period) stash the id and
  /// set this field explicitly on derived messages.
  std::uint64_t trace_id = 0;
};

enum class ChannelId : std::uint32_t {};

/// A protocol entity attached to channels (a BGP speaker, a BGMP component,
/// a MASC node, a host agent…).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Called when a message arrives on `channel`. Ownership transfers.
  virtual void on_message(ChannelId channel, std::unique_ptr<Message> msg) = 0;

  /// Brackets one drain: the one scheduled event that hands this endpoint
  /// a channel direction's same-instant run of messages
  /// (Network::drain_direction). `deliveries()` passes each of them to
  /// on_message, in order, and an override must call it exactly once. It
  /// runs once per drain, also when every message of the drain is
  /// discarded as epoch-dead. Work done after the call still runs under
  /// the trace id of the drain's last delivered message, so what it
  /// sends stays on that message's span. A BGP speaker reads the whole
  /// drain before it exports (bgp::Speaker). Default: just deliver.
  virtual void on_drain(SmallFunction<void()>& deliveries) { deliveries(); }

  /// Channel state transitions (partition start/heal). Default: ignore.
  virtual void on_channel_up(ChannelId /*channel*/) {}
  virtual void on_channel_down(ChannelId /*channel*/) {}

  /// Short name used in traces.
  [[nodiscard]] virtual std::string name() const = 0;

  /// The domain (AS) this endpoint belongs to, for per-domain metric
  /// attribution (obs::Sharded keys). 0 = unattributed — hosts,
  /// test endpoints and anything else outside a domain.
  [[nodiscard]] virtual std::uint64_t owner_id() const { return 0; }
};

/// Owns all channels and drives delivery through the event queue.
class Network {
 public:
  /// With `metrics == nullptr` the network owns a private registry;
  /// passing one in shares it (aggregating across networks). Either way
  /// protocol components reach it through metrics() — the single registry
  /// the whole stack attached to this network instruments into.
  explicit Network(EventQueue& events, obs::Metrics* metrics = nullptr);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// endpoint_index() of an endpoint that is not on the channel or gave no
  /// index when it was connected.
  static constexpr std::uint32_t kNoIndex = UINT32_MAX;

  /// Creates a full-duplex channel between two endpoints. Both endpoints
  /// must outlive the network. `a_index` / `b_index` are each side's own
  /// index for this peering (its slot in whatever peer table it keeps),
  /// stored on the channel so a delivery resolves the local peering with
  /// one read instead of a search.
  ChannelId connect(Endpoint& a, Endpoint& b,
                    SimTime one_way_latency = SimTime::milliseconds(10),
                    std::uint32_t a_index = kNoIndex,
                    std::uint32_t b_index = kNoIndex);

  /// The index `self` gave for its end of `channel` at connect time, or
  /// kNoIndex when `self` is not on it (or the id names no channel).
  [[nodiscard]] std::uint32_t endpoint_index(ChannelId id,
                                             const Endpoint& self) const {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= channels_.size()) return kNoIndex;
    const Channel& ch = channels_[idx];
    if (ch.b == &self) return ch.to_b.receiver_index;
    if (ch.a == &self) return ch.to_a.receiver_index;
    return kNoIndex;
  }

  /// Sends `msg` from `from` to its peer on `channel`. Delivery happens
  /// `latency` later via the event queue; messages queue while the channel
  /// is down and flush in order when it comes back up. Returns the trace
  /// id the message was stamped with (kept, inherited, or freshly
  /// assigned — see Message::trace_id), so originators can associate
  /// later responses with the span they started.
  std::uint64_t send(ChannelId channel, const Endpoint& from,
                     std::unique_ptr<Message> msg);

  /// Partition control. Transition notifications go to both endpoints.
  void set_up(ChannelId channel, bool up);
  // In-class so the call inlines: BGP consults this per peer on every
  // sync fan-out (tens of millions of calls at the 10k rung).
  [[nodiscard]] bool is_up(ChannelId channel) const {
    return this->channel(channel).up;
  }

  /// Loss semantics while down: by default messages queue and flush on
  /// heal (TCP retransmission across a short outage — what MASC's waiting
  /// period is designed to span). With drop-when-down, messages sent while
  /// the channel is down are lost (a reset transport session — BGP/BGMP
  /// peerings, which resynchronize explicitly on re-establishment), and
  /// taking the channel down also discards messages already in flight:
  /// a TCP reset kills unacknowledged segments, so nothing sent on the old
  /// session may surface on the new one.
  void set_drop_when_down(ChannelId channel, bool drop);
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return dropped_->value();
  }

  /// Adverse delivery conditions, applied to every channel. The transport
  /// stays reliable and in-order (the TCP abstraction BGP/BGMP/MASC sit
  /// on), so "loss" surfaces as retransmission delay and "reorder" as
  /// jitter absorbed by head-of-line blocking: a delayed message also
  /// delays everything sent after it on the same direction of the channel.
  struct Disturbance {
    /// Per-transmission drop probability; each drop costs one
    /// retransmit_delay, drawn repeatedly (geometric, capped).
    double loss_rate = 0.0;
    SimTime retransmit_delay = SimTime::milliseconds(200);
    /// Probability a message is jittered by up to max_jitter.
    double reorder_rate = 0.0;
    SimTime max_jitter = SimTime::milliseconds(40);
  };

  /// Enables the disturbance model, drawing from caller-owned `rng`
  /// (which must outlive the network or be detached with nullptr).
  /// Passing nullptr disables it; disabled costs zero RNG draws, so
  /// existing seeded runs are byte-identical.
  void set_disturbance(const Disturbance& disturbance, Rng* rng);
  [[nodiscard]] std::uint64_t messages_retransmitted() const {
    return retransmitted_->value();
  }

  /// The endpoint on the far side of `channel` from `self`.
  [[nodiscard]] Endpoint& peer_of(ChannelId channel,
                                  const Endpoint& self) const;

  /// Total messages handed to `send` / delivered to endpoints. Thin
  /// delegates over the registry counters net.messages_sent/_delivered.
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_->value(); }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return delivered_->value();
  }

  [[nodiscard]] EventQueue& events() { return events_; }

  /// The metrics registry this network (and every component attached to
  /// it) instruments into. Snapshot via `metrics().snapshot(...)`; the
  /// net.* gauges (channels, held messages, event-queue stats) refresh
  /// automatically at snapshot time.
  [[nodiscard]] obs::Metrics& metrics() { return *metrics_; }

  /// The record stream every component attached to this network logs
  /// into and every send/deliver/hold/drop is recorded to as a span,
  /// stamped with this network's event-queue time.
  [[nodiscard]] obs::Stream& stream() { return stream_; }

  /// The trace id of the message currently being delivered — or, in a
  /// drain's bracket after its deliveries, of the last one delivered (0
  /// outside a drain). send() consults this to propagate causality;
  /// handlers that defer work through timers capture it explicitly.
  [[nodiscard]] std::uint64_t current_trace_id() const {
    return active_trace_id_;
  }

  /// Reserves a fresh trace id without sending anything — for originators
  /// that fan one logical operation out over several messages (a MASC
  /// claim goes to the parent and every sibling) and want them on one span.
  std::uint64_t allocate_trace_id() { return ++next_trace_id_; }

  /// Monotonic per-network id for endpoints that tie-break on creation
  /// order (BGP's lowest-uid best-exit election). Scoped to the network —
  /// not a process-wide static — so concurrent simulations never share a
  /// counter and every run hands out the same sequence. Throws
  /// std::length_error once the 32-bit space is spent: a wrapped uid would
  /// silently reorder the lowest-uid tie-break.
  std::uint32_t allocate_uid() {
    if (next_uid_ == UINT32_MAX) {
      throw std::length_error("Network: endpoint uids exhausted");
    }
    return ++next_uid_;
  }

  /// Registers a callback fired on every message send and delivery.
  /// Convergence probes use this as their quiescence signal; callbacks
  /// must be cheap and must not send messages.
  void add_activity_listener(std::function<void()> listener) {
    activity_listeners_.push_back(std::move(listener));
  }

 private:
  struct QueuedMsg {
    Endpoint* to;
    std::unique_ptr<Message> msg;
    SimTime sent_at;  // original send time: held time counts as latency
  };
  /// Slab index meaning "none" (empty FIFO, end of chain or free list).
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// One message travelling a channel direction. Messages ride a FIFO per
  /// direction instead of per-message event closures: `seq` is reserved
  /// from the event queue at send time, so the message still occupies its
  /// exact (deliver_at, seq) slot in the global total order, but the queue
  /// holds at most one pending event per direction (the head's timer).
  struct InFlight {
    std::unique_ptr<Message> msg;
    SimTime deliver_at;
    SimTime sent_at;
    std::uint64_t seq;
    // Transport-session generation the message was sent under; a reset
    // (drop_when_down channel going down) strands it and it is discarded,
    // at its original delivery time, on epoch mismatch.
    std::uint32_t epoch;
    // The next message of the same direction (kNoSlot at the tail, where
    // every new entry starts), or the free-list link once released.
    std::uint32_t next = kNoSlot;
  };
  /// A direction's FIFO is a chain of flight_ slots, oldest first, so an
  /// idle direction owns no heap.
  struct Direction {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    // In-order floor: no delivery may be scheduled earlier than the
    // latest one already scheduled in this direction. Only binding under
    // disturbance jitter (fixed latency is monotone anyway).
    SimTime floor;
    // The receiving endpoint's index for the channel (Network::connect).
    // It fits in the struct's padding, so a Channel does not grow.
    std::uint32_t receiver_index = kNoIndex;
    bool timer_armed = false;  // one drain event pending for the head
    bool draining = false;     // re-arm deferred until the drain returns

    [[nodiscard]] bool empty() const { return head == kNoSlot; }
  };
  static_assert(sizeof(Direction) == 24, "receiver_index must fit padding");
  struct Channel {
    Channel(Endpoint* a_in, Endpoint* b_in, SimTime latency_in,
            std::uint32_t a_index, std::uint32_t b_index)
        : a(a_in), b(b_in), latency(latency_in) {
      to_a.receiver_index = a_index;
      to_b.receiver_index = b_index;
    }
    // Move-only: held messages are unique_ptrs, and vector reallocation
    // must move rather than attempt a copy.
    Channel(Channel&&) noexcept = default;
    Channel& operator=(Channel&&) noexcept = default;

    Endpoint* a;
    Endpoint* b;
    SimTime latency;
    bool up = true;
    bool drop_when_down = false;
    // Transport-session generation (see InFlight::epoch).
    std::uint32_t epoch = 0;
    Direction to_a;
    Direction to_b;
    // Messages held during a partition, per destination order of send.
    std::vector<QueuedMsg> held;
  };

  // Inline: every send/deliver/drain resolves its channel through these.
  Channel& channel(ChannelId id) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= channels_.size()) {
      throw std::out_of_range("Network: bad channel id");
    }
    return channels_[idx];
  }
  const Channel& channel(ChannelId id) const {
    return const_cast<Network*>(this)->channel(id);
  }
  /// Appends `item` to `dir`'s FIFO, reusing a freed slab slot first.
  void push_flight(Direction& dir, InFlight item);
  /// Unlinks `dir`'s head (which must exist) and frees its slot.
  InFlight pop_flight(Direction& dir);
  void deliver(ChannelId id, Endpoint& to, std::unique_ptr<Message> msg,
               SimTime sent_at);
  void schedule_delivery(ChannelId id, Endpoint* to,
                         std::unique_ptr<Message> msg, SimTime sent_at,
                         SimTime latency);
  /// Schedules the drain event for a direction's head message at its exact
  /// reserved (deliver_at, seq) position. No-op if already armed, mid-
  /// drain, or idle.
  void arm_direction(ChannelId id, bool toward_b);
  /// Delivers the direction's head, then keeps draining inline as long as
  /// the next message is provably the globally next event (same delivery
  /// instant and its reserved key precedes everything pending in the event
  /// queue) — one scheduled event carries a whole same-link batch without
  /// changing arrival order. The receiver's Endpoint::on_drain brackets
  /// the deliveries. Re-arms for the new head on exit.
  void drain_direction(ChannelId id, bool toward_b);
  [[nodiscard]] SimTime disturbance_delay();
  // Head-based pre-filter, inline: an unsampled chain skips building the
  // record (describe() allocates, and the sender is looked up only then),
  // and with spans off each send/deliver pays one compare.
  void record_span(obs::Record::Kind kind, const Message& msg, ChannelId id,
                   const Endpoint& to) {
    if (stream_.wants_span(msg.trace_id)) emit_span(kind, msg, id, to);
  }
  void emit_span(obs::Record::Kind kind, const Message& msg, ChannelId id,
                 const Endpoint& to);
  void notify_activity();

  EventQueue& events_;
  std::unique_ptr<obs::Metrics> owned_metrics_;  // when none was injected
  obs::Metrics* metrics_;
  // Cached instrument references (stable for the registry's lifetime).
  obs::Counter* sent_;
  obs::Counter* delivered_;
  obs::Counter* dropped_;
  obs::Counter* held_total_;  // messages that entered a partition queue
  obs::Counter* retransmitted_;  // disturbance-model extra transmissions
  obs::Counter* batched_;  // deliveries carried inline by another's event
  // Exact per-domain count of deliveries, keyed by the receiving
  // endpoint's owner_id() — which domain is hot, not just how much total.
  obs::Sharded* delivered_by_domain_;
  obs::Histogram* delivery_latency_;  // net.delivery_latency, seconds
  Disturbance disturbance_;
  Rng* disturbance_rng_ = nullptr;  // nullptr = disturbance disabled
  obs::Stream stream_;
  std::uint64_t next_trace_id_ = 0;
  std::uint32_t next_uid_ = 0;
  // Ambient trace id during on_message: deliver() sets it, and
  // drain_direction() restores the previous value once the drain's
  // bracket (Endpoint::on_drain) closes.
  std::uint64_t active_trace_id_ = 0;
  std::vector<std::function<void()>> activity_listeners_;
  std::vector<Channel> channels_;
  // Every direction's in-flight messages share this slab; delivered and
  // discarded slots go on the free list headed by free_flight_.
  std::vector<InFlight> flight_;
  std::uint32_t free_flight_ = kNoSlot;
};

}  // namespace net
