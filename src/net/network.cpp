#include "net/network.hpp"

#include <stdexcept>
#include <utility>

namespace net {

Network::Network(EventQueue& events, obs::Metrics* metrics)
    : events_(events),
      owned_metrics_(metrics == nullptr ? std::make_unique<obs::Metrics>()
                                        : nullptr),
      metrics_(metrics == nullptr ? owned_metrics_.get() : metrics),
      sent_(&metrics_->counter("net.messages_sent")),
      delivered_(&metrics_->counter("net.messages_delivered")),
      dropped_(&metrics_->counter("net.messages_dropped")),
      held_total_(&metrics_->counter("net.messages_held")),
      retransmitted_(&metrics_->counter("net.messages_retransmitted")),
      batched_(&metrics_->counter("net.deliveries_batched")),
      delivered_by_domain_(
          &metrics_->sharded("net.messages_delivered.by_domain")),
      delivery_latency_(&metrics_->histogram("net.delivery_latency")),
      stream_(events) {
  // Sampled state refreshes when a snapshot is taken, keeping reads off
  // the send/deliver hot paths.
  metrics_->add_refresh_hook([this]() {
    metrics_->gauge("net.channels").set(static_cast<double>(channels_.size()));
    std::size_t held = 0;
    std::size_t in_flight = 0;
    for (const Channel& ch : channels_) {
      held += ch.held.size();
      // Count only messages of the live transport session: entries whose
      // epoch predates a session reset are already dead (they will be
      // discarded at their delivery time) and must not inflate the gauge.
      for (const Direction* dir : {&ch.to_a, &ch.to_b}) {
        for (std::uint32_t i = dir->head; i != kNoSlot; i = flight_[i].next) {
          if (flight_[i].epoch == ch.epoch) ++in_flight;
        }
      }
    }
    metrics_->gauge("net.messages_in_partition_queues")
        .set(static_cast<double>(held));
    metrics_->gauge("net.messages_in_flight")
        .set(static_cast<double>(in_flight));
    metrics_->gauge("net.events_run")
        .set(static_cast<double>(events_.events_run()));
    metrics_->gauge("net.events_pending")
        .set(static_cast<double>(events_.pending()));
    metrics_->gauge("net.event_queue_high_water")
        .set(static_cast<double>(events_.heap_high_water()));
  });
}

Network::~Network() = default;

ChannelId Network::connect(Endpoint& a, Endpoint& b, SimTime one_way_latency,
                           std::uint32_t a_index, std::uint32_t b_index) {
  if (&a == &b) {
    throw std::invalid_argument("Network::connect: endpoint peered to itself");
  }
  channels_.emplace_back(&a, &b, one_way_latency, a_index, b_index);
  return ChannelId{static_cast<std::uint32_t>(channels_.size() - 1)};
}

void Network::emit_span(obs::Record::Kind kind, const Message& msg,
                        ChannelId id, const Endpoint& to) {
  obs::Record span;
  span.kind = kind;
  span.sim_time = events_.now();
  span.trace_id = msg.trace_id;
  span.from = peer_of(id, to).name();
  span.to = to.name();
  span.text = msg.describe();
  stream_.emit(span);
}

void Network::notify_activity() {
  for (const auto& listener : activity_listeners_) listener();
}

std::uint64_t Network::send(ChannelId id, const Endpoint& from,
                            std::unique_ptr<Message> msg) {
  Channel& ch = channel(id);
  Endpoint* to = nullptr;
  if (ch.a == &from) {
    to = ch.b;
  } else if (ch.b == &from) {
    to = ch.a;
  } else {
    throw std::invalid_argument("Network::send: endpoint not on channel");
  }
  sent_->inc();
  // Causal stamping: keep an explicit id, else inherit from the delivery
  // being handled, else start a fresh span.
  if (msg->trace_id == 0) {
    msg->trace_id = active_trace_id_ != 0 ? active_trace_id_
                                          : allocate_trace_id();
  }
  const std::uint64_t trace_id = msg->trace_id;
  obs::log_debug(stream_, "net", [&](auto& os) {
    os << from.name() << " -> " << to->name() << ": " << msg->describe();
  });
  notify_activity();
  if (!ch.up) {
    if (ch.drop_when_down) {
      dropped_->inc();
      record_span(obs::Record::Kind::kDrop, *msg, id, *to);
    } else {
      held_total_->inc();
      record_span(obs::Record::Kind::kHold, *msg, id, *to);
      ch.held.push_back(QueuedMsg{to, std::move(msg), events_.now()});
    }
    return trace_id;
  }
  record_span(obs::Record::Kind::kSend, *msg, id, *to);
  schedule_delivery(id, to, std::move(msg), events_.now(), ch.latency);
  return trace_id;
}

SimTime Network::disturbance_delay() {
  if (disturbance_rng_ == nullptr) return SimTime{};
  SimTime extra;
  // Geometric retransmission: each lost transmission costs one timeout.
  // Capped so a pathological loss_rate cannot stall the simulation.
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (!disturbance_rng_->chance(disturbance_.loss_rate)) break;
    retransmitted_->inc();
    extra = extra + disturbance_.retransmit_delay;
  }
  if (disturbance_.reorder_rate > 0.0 &&
      disturbance_rng_->chance(disturbance_.reorder_rate)) {
    extra = extra +
            disturbance_rng_->uniform_time(SimTime{}, disturbance_.max_jitter);
  }
  return extra;
}

void Network::schedule_delivery(ChannelId id, Endpoint* to,
                                std::unique_ptr<Message> msg, SimTime sent_at,
                                SimTime latency) {
  // Fixed per-channel latency plus FIFO event ordering keeps each direction
  // in order — the reliable in-order property BGP/BGMP expect from TCP.
  // Under disturbance, extra delay models retransmissions/jitter; the
  // per-direction floor turns any delay into head-of-line blocking so the
  // in-order property survives.
  Channel& ch = channel(id);
  SimTime deliver_at = events_.now() + latency + disturbance_delay();
  const bool toward_b = to == ch.b;
  Direction& dir = toward_b ? ch.to_b : ch.to_a;
  if (deliver_at < dir.floor) deliver_at = dir.floor;
  dir.floor = deliver_at;
  // The seq is reserved here — at the exact point the per-message closure
  // used to be scheduled — so the message keeps the same (deliver_at, seq)
  // slot in the global order it always had, while riding the direction's
  // FIFO instead of the event queue.
  push_flight(dir, InFlight{std::move(msg), deliver_at, sent_at,
                            events_.reserve_seq(), ch.epoch});
  arm_direction(id, toward_b);
}

void Network::push_flight(Direction& dir, InFlight item) {
  std::uint32_t slot;
  if (free_flight_ != kNoSlot) {
    slot = free_flight_;
    free_flight_ = flight_[slot].next;
    flight_[slot] = std::move(item);
  } else {
    slot = static_cast<std::uint32_t>(flight_.size());
    flight_.push_back(std::move(item));
  }
  if (dir.empty()) {
    dir.head = slot;
  } else {
    flight_[dir.tail].next = slot;
  }
  dir.tail = slot;
}

Network::InFlight Network::pop_flight(Direction& dir) {
  const std::uint32_t slot = dir.head;
  InFlight item = std::move(flight_[slot]);
  dir.head = item.next;
  if (dir.empty()) dir.tail = kNoSlot;
  flight_[slot].next = free_flight_;
  free_flight_ = slot;
  return item;
}

void Network::arm_direction(ChannelId id, bool toward_b) {
  Channel& ch = channel(id);
  Direction& dir = toward_b ? ch.to_b : ch.to_a;
  if (dir.timer_armed || dir.draining || dir.empty()) return;
  dir.timer_armed = true;
  InFlight& head = flight_[dir.head];
  // A head due at the current instant takes a fresh seq, placing its drain
  // after everything already scheduled for this instant rather than at its
  // original send-time position. Every committed digest and events_run
  // count was produced under this rule; dropping it re-orders same-instant
  // drains.
  if (head.deliver_at == events_.now()) head.seq = events_.reserve_seq();
  events_.schedule_reserved(
      head.deliver_at, head.seq,
      [this, id, toward_b]() { drain_direction(id, toward_b); },
      "net.deliver");
}

void Network::drain_direction(ChannelId id, bool toward_b) {
  Endpoint* to;
  {
    Channel& ch = channel(id);
    Direction& dir = toward_b ? ch.to_b : ch.to_a;
    dir.timer_armed = false;
    // Sends from handlers below land in this FIFO; defer re-arming so the
    // loop (not a nested schedule) decides what the head's event is.
    dir.draining = true;
    to = toward_b ? ch.b : ch.a;
  }
  SmallFunction<void()> deliveries = [this, id, toward_b, to] {
    bool first = true;
    for (;;) {
      // Re-fetch every iteration: a handler may connect() (reallocating
      // channels_) or mutate this direction.
      Channel& ch = channel(id);
      Direction& dir = toward_b ? ch.to_b : ch.to_a;
      if (dir.empty()) break;
      const bool carried = !first;
      if (carried) {
        // A follower may be carried by the head's event only if nothing
        // else can legally run first: same delivery instant, and its
        // reserved key precedes every key still pending in the queue. This
        // makes batching invisible to the global (time, seq) order.
        // peek_next_stored, not peek_next: a lazily-cancelled stored front
        // still blocks batching. peek_next would discard it and batch more,
        // changing events_run from what every committed run pins.
        const InFlight& next = flight_[dir.head];
        if (next.deliver_at != events_.now()) break;
        if (const auto pending = events_.peek_next_stored()) {
          const bool precedes =
              next.deliver_at < pending->at ||
              (pending->at == next.deliver_at && next.seq < pending->seq);
          if (!precedes) break;
        }
      }
      first = false;
      InFlight item = pop_flight(dir);
      // A TCP reset (drop_when_down channel going down) invalidates
      // in-flight segments: discard on session-epoch mismatch, at the
      // exact time the delivery would have happened.
      if (item.epoch != ch.epoch) {
        dropped_->inc();
        record_span(obs::Record::Kind::kDrop, *item.msg, id, *to);
        continue;
      }
      // Counted here, not at the batching decision: an epoch-dead follower
      // is discarded, never delivered, so it must not inflate the inline-
      // delivery count.
      if (carried) batched_->inc();
      deliver(id, *to, std::move(item.msg), item.sent_at);
    }
  };
  // deliver() leaves each message's id ambient, so the bracket's closing
  // work runs under the last one's. Closing the drain runs on throw too:
  // the previous id comes back, so a failing handler cannot leak its id
  // into unrelated events, and the direction is re-armed, so the messages
  // queued behind the failure still arrive if the caller runs on.
  const std::uint64_t prev = active_trace_id_;
  const auto close = [&] {
    active_trace_id_ = prev;
    Direction& dir = toward_b ? channel(id).to_b : channel(id).to_a;
    dir.draining = false;
    arm_direction(id, toward_b);
  };
  try {
    to->on_drain(deliveries);
  } catch (...) {
    close();
    throw;
  }
  close();
}

void Network::deliver(ChannelId id, Endpoint& to, std::unique_ptr<Message> msg,
                      SimTime sent_at) {
  delivered_->inc();
  delivered_by_domain_->add(to.owner_id());
  delivery_latency_->observe((events_.now() - sent_at).to_seconds());
  notify_activity();
  record_span(obs::Record::Kind::kDeliver, *msg, id, to);
  // Everything the handler sends synchronously is causally downstream of
  // this message; expose its id as the ambient trace context.
  active_trace_id_ = msg->trace_id;
  to.on_message(id, std::move(msg));
}

void Network::set_up(ChannelId id, bool up) {
  Channel& ch = channel(id);
  if (ch.up == up) return;
  ch.up = up;
  if (up) {
    // Flush held messages in their original order. Delivery latency is
    // measured from the original send, so the partition time shows up in
    // net.delivery_latency — exactly the outage the waiting period spans.
    // Swapped out first, so the healed channel keeps no held capacity.
    std::vector<QueuedMsg> held;
    held.swap(ch.held);
    for (QueuedMsg& queued : held) {
      record_span(obs::Record::Kind::kSend, *queued.msg, id, *queued.to);
      schedule_delivery(id, queued.to, std::move(queued.msg), queued.sent_at,
                        ch.latency);
    }
    ch.a->on_channel_up(id);
    ch.b->on_channel_up(id);
  } else {
    if (ch.drop_when_down) {
      // Session reset: everything still in flight dies with the session.
      ++ch.epoch;
    }
    ch.a->on_channel_down(id);
    ch.b->on_channel_down(id);
  }
}

void Network::set_disturbance(const Disturbance& disturbance, Rng* rng) {
  disturbance_ = disturbance;
  disturbance_rng_ = rng;
}

void Network::set_drop_when_down(ChannelId id, bool drop) {
  channel(id).drop_when_down = drop;
}

Endpoint& Network::peer_of(ChannelId id, const Endpoint& self) const {
  const Channel& ch = channel(id);
  if (ch.a == &self) return *ch.b;
  if (ch.b == &self) return *ch.a;
  throw std::invalid_argument("Network::peer_of: endpoint not on channel");
}

}  // namespace net
