#include "masc/node.hpp"

#include <algorithm>
#include <stdexcept>


namespace masc {

// ---------------------------------------------------------------- messages

std::string AdvertiseMessage::describe() const {
  std::string out = "MASC ADVERTISE";
  for (const net::Prefix& p : spaces) {
    out += ' ';
    out += p.to_string();
  }
  return out;
}

std::string ClaimMessage::describe() const {
  return "MASC CLAIM " + prefix.to_string() + " by AS" +
         std::to_string(claimant);
}

std::string CollisionMessage::describe() const {
  return "MASC COLLISION on " + prefix.to_string() + " (winner AS" +
         std::to_string(winner) + ")";
}

std::string ReleaseMessage::describe() const {
  return "MASC RELEASE " + prefix.to_string() + " by AS" +
         std::to_string(claimant);
}

// -------------------------------------------------------------------- node

MascNode::MascNode(net::Network& network, DomainId domain, std::string name,
                   Params params, std::uint64_t rng_seed)
    : network_(network),
      domain_(domain),
      name_(std::move(name)),
      params_(params),
      rng_seed_(rng_seed),
      pool_(domain, params.pool),
      metrics_{&network.metrics().counter("masc.claims_sent"),
               &network.metrics().counter("masc.claims_granted"),
               &network.metrics().counter("masc.claims_released"),
               &network.metrics().counter("masc.collisions_suffered"),
               &network.metrics().counter("masc.requests_failed"),
               &network.metrics().counter("masc.advertisements_sent"),
               &network.metrics().histogram("masc.claim_grant_latency"),
               &network.metrics().histogram(
                   "masc.collision_resolution_latency")} {}

net::ChannelId MascNode::connect(MascNode& a, MascNode& b, PeerKind b_is,
                                 net::SimTime latency) {
  const net::ChannelId channel = a.network_.connect(
      a, b, latency, static_cast<std::uint32_t>(a.links_.size()),
      static_cast<std::uint32_t>(b.links_.size()));
  PeerKind a_is;  // what a is to b
  switch (b_is) {
    case PeerKind::kParent: a_is = PeerKind::kChild; break;
    case PeerKind::kChild: a_is = PeerKind::kParent; break;
    case PeerKind::kSibling: a_is = PeerKind::kSibling; break;
    default: throw std::invalid_argument("MascNode::connect: bad kind");
  }
  a.links_.push_back(PeerLink{channel, b_is, b.domain_});
  b.links_.push_back(PeerLink{channel, a_is, a.domain_});
  // A parent advertises its space to a new child immediately.
  if (b_is == PeerKind::kParent) {
    b.send_advertisements();
  } else if (b_is == PeerKind::kChild) {
    a.send_advertisements();
  }
  return channel;
}

void MascNode::set_spaces(std::vector<net::Prefix> spaces) {
  spaces_ = std::move(spaces);
  send_advertisements();
}

const MascNode::PeerLink& MascNode::link(net::ChannelId channel) const {
  const std::uint32_t index = network_.endpoint_index(channel, *this);
  if (index >= links_.size()) {
    throw std::logic_error("MascNode: message on unknown channel");
  }
  return links_[index];
}

bool MascNode::we_win(net::SimTime our_time, net::SimTime their_time,
                      DomainId theirs) const {
  if (our_time != their_time) return our_time < their_time;
  return domain_ < theirs;
}

void MascNode::on_message(net::ChannelId channel,
                          std::unique_ptr<net::Message> msg) {
  const PeerLink& from = link(channel);
  switch (msg->kind) {
    case net::MessageKind::kMascAdvertise:
      handle_advertise(from, static_cast<const AdvertiseMessage&>(*msg));
      break;
    case net::MessageKind::kMascClaim:
      handle_claim(from, static_cast<const ClaimMessage&>(*msg));
      break;
    case net::MessageKind::kMascCollision:
      handle_collision(from, static_cast<const CollisionMessage&>(*msg));
      break;
    case net::MessageKind::kMascRelease:
      handle_release(from, static_cast<const ReleaseMessage&>(*msg));
      break;
    default:
      throw std::logic_error("MascNode: unexpected message type");
  }
}

void MascNode::send_advertisements(std::uint64_t trace_id) {
  for (const PeerLink& l : links_) {
    if (l.kind != PeerKind::kChild) continue;
    auto msg = std::make_unique<AdvertiseMessage>();
    msg->trace_id = trace_id;  // 0 = let the network stamp it
    msg->spaces = spaces_.empty()
                      ? std::vector<net::Prefix>{}
                      : spaces_;
    // A parent that claims space advertises its *held* ranges, not its own
    // claiming space; fall back to held prefixes when present.
    if (!pool_.prefixes().empty()) {
      msg->spaces.clear();
      for (const ClaimedPrefix& p : pool_.prefixes()) {
        msg->spaces.push_back(p.prefix);
      }
    }
    metrics_.advertisements_sent->inc();
    network_.send(l.channel, *this, std::move(msg));
  }
}

void MascNode::handle_advertise(const PeerLink& from,
                                const AdvertiseMessage& msg) {
  if (from.kind != PeerKind::kParent) return;  // only parents define space
  spaces_ = msg.spaces;
  obs::log_info(network_.stream(), name_, [&](auto& os) {
    os << "parent advertised " << msg.spaces.size() << " range(s)";
  });
}

void MascNode::request_space(std::uint64_t addresses) {
  if (pending_.has_value()) return;  // one claim in flight at a time
  start_claim(addresses, 0, now());
}

void MascNode::start_claim(std::uint64_t addresses, int retries,
                           net::SimTime requested_at,
                           net::SimTime first_collision_at,
                           std::uint64_t trace_id) {
  if (retries > params_.max_retries) {
    fail_request(addresses);
    return;
  }
  if (spaces_.empty()) {
    fail_request(addresses);
    return;
  }
  const auto can_double_fn = [&](const net::Prefix& p) {
    return can_double(p, spaces_, known_claims_, now());
  };
  const auto plan = pool_.plan_expansion(addresses, can_double_fn);
  if (!plan) {
    fail_request(addresses);
    return;
  }
  std::optional<net::Prefix> chosen;
  bool is_double = false;
  bool renumber = false;
  net::Prefix double_target;
  switch (plan->kind) {
    case ExpansionPlan::Kind::kDouble:
      chosen = plan->target.sibling();
      is_double = true;
      double_target = plan->target;
      break;
    case ExpansionPlan::Kind::kRenumber:
      renumber = true;
      [[fallthrough]];
    case ExpansionPlan::Kind::kNewPrefix:
      if (!rng_) rng_ = std::make_unique<net::Rng>(rng_seed_);
      chosen = choose_claim(spaces_, known_claims_, plan->new_len, now(),
                            *rng_, params_.pool.strategy);
      break;
  }
  if (!chosen) {
    fail_request(addresses);
    return;
  }
  PendingClaim pending;
  pending.prefix = *chosen;
  pending.claim_time = now();
  pending.expires = now() + params_.claim_lifetime;
  pending.request_addresses = addresses;
  pending.is_double = is_double;
  pending.renumber = renumber;
  pending.double_target = double_target;
  pending.retries = retries;
  pending.requested_at = requested_at;
  pending.first_collision_at = first_collision_at;
  // Span: a retry keeps the original claim's trace id (collision → re-claim
  // is one causal chain); a fresh request joins the ambient delivery's span
  // or starts a new one.
  if (trace_id == 0) trace_id = network_.current_trace_id();
  if (trace_id == 0) trace_id = network_.allocate_trace_id();
  pending.trace_id = trace_id;
  // Record our own claim so further local choices avoid it.
  known_claims_.claim(pending.prefix, domain_, pending.expires, now());
  pending.timer = network_.events().schedule_in(
      params_.waiting_period, [this]() { claim_granted(); },
      "masc.waiting_period");
  pending_ = pending;
  obs::log_info(network_.stream(), name_, [&](auto& os) {
    os << "claiming " << pending_->prefix.to_string() << " (waiting "
       << params_.waiting_period.to_string() << ")";
  });
  send_claim(pending.prefix, pending.claim_time, pending.expires,
             pending.trace_id);
}

void MascNode::fail_request(std::uint64_t addresses) {
  metrics_.requests_failed->inc();
  if (callbacks_.on_failed) callbacks_.on_failed(addresses);
}

void MascNode::send_claim(const net::Prefix& prefix, net::SimTime claim_time,
                          net::SimTime expires, std::uint64_t trace_id) {
  metrics_.claims_sent->inc();
  for (const PeerLink& l : links_) {
    if (l.kind != PeerKind::kParent && l.kind != PeerKind::kSibling) continue;
    auto msg = std::make_unique<ClaimMessage>();
    msg->prefix = prefix;
    msg->claimant = domain_;
    msg->claim_time = claim_time;
    msg->expires = expires;
    // One logical claim fans out to the parent and every sibling; stamping
    // puts all copies on the same span.
    msg->trace_id = trace_id;
    network_.send(l.channel, *this, std::move(msg));
  }
}

void MascNode::propagate_claim_to_children(const ClaimMessage& msg,
                                           const PeerLink& from) {
  for (const PeerLink& l : links_) {
    if (l.kind != PeerKind::kChild || l.channel == from.channel) continue;
    auto copy = std::make_unique<ClaimMessage>(msg);
    network_.send(l.channel, *this, std::move(copy));
  }
}

void MascNode::send_collision_to(const PeerLink& to,
                                 const net::Prefix& prefix) {
  auto msg = std::make_unique<CollisionMessage>();
  msg->prefix = prefix;
  msg->winner = domain_;
  network_.send(to.channel, *this, std::move(msg));
}

void MascNode::handle_claim(const PeerLink& from, const ClaimMessage& msg) {
  if (from.kind == PeerKind::kChild) {
    handle_child_claim(from, msg);
    return;
  }
  // Does it collide with our pending claim?
  if (pending_ && pending_->prefix.overlaps(msg.prefix)) {
    if (we_win(pending_->claim_time, msg.claim_time, msg.claimant)) {
      send_collision_to(from, msg.prefix);
      // Do not record the loser's claim.
      return;
    }
    ++collisions_;
    metrics_.collisions_suffered->inc();
    if (pending_->first_collision_at == net::kTimeInfinity) {
      pending_->first_collision_at = now();
    }
    obs::log_info(network_.stream(), name_, [&](auto& os) {
      os << "lost claim " << pending_->prefix.to_string() << " to AS"
         << msg.claimant;
    });
    known_claims_.release(pending_->prefix);
    known_claims_.claim(msg.prefix, msg.claimant, msg.expires, now());
    abort_pending_and_retry();
    return;
  }
  // Does it collide with a range we already hold?
  for (const ClaimedPrefix& held : pool_.prefixes()) {
    if (!held.prefix.overlaps(msg.prefix)) continue;
    const auto our_time = held_claim_times_.find(held.prefix);
    const net::SimTime ours = our_time != held_claim_times_.end()
                                  ? our_time->second
                                  : net::SimTime{};
    if (we_win(ours, msg.claim_time, msg.claimant)) {
      send_collision_to(from, msg.prefix);
      return;
    }
    // Partition-heal edge: we lose a range we already committed. Give it
    // up (withdraw the group route) — §4.1: "one of them will win".
    ++collisions_;
    metrics_.collisions_suffered->inc();
    known_claims_.release(held.prefix);
    metrics_.claims_released->inc();
    // Blocks inside the lost range are gone with it.
    (void)pool_.remove_prefix_force(held.prefix);
    held_claim_times_.erase(held.prefix);
    if (callbacks_.on_released) callbacks_.on_released(held.prefix);
    known_claims_.claim(msg.prefix, msg.claimant, msg.expires, now());
    return;
  }
  // No conflict: record it.
  known_claims_.claim(msg.prefix, msg.claimant, msg.expires, now());
}

void MascNode::handle_child_claim(const PeerLink& from,
                                  const ClaimMessage& msg) {
  // A child may only claim inside our held space.
  const bool inside = std::any_of(
      pool_.prefixes().begin(), pool_.prefixes().end(),
      [&](const ClaimedPrefix& held) { return held.prefix.contains(msg.prefix); });
  if (!inside) {
    send_collision_to(from, msg.prefix);
    return;
  }
  // Arbitrate against other children's claims in our space.
  const auto conflict = child_claims_.conflicting(msg.prefix, now());
  if (conflict && conflict->second.owner != msg.claimant) {
    const auto prior_time = child_claim_times_.find(conflict->first);
    const net::SimTime theirs = prior_time != child_claim_times_.end()
                                    ? prior_time->second
                                    : net::SimTime{};
    const bool new_claim_wins =
        msg.claim_time != theirs
            ? msg.claim_time < theirs
            : msg.claimant < conflict->second.owner;
    if (!new_claim_wins) {
      send_collision_to(from, msg.prefix);
      return;
    }
    // The earlier record loses (partition-heal ordering): evict it and
    // notify its owner.
    const DomainId loser = conflict->second.owner;
    child_claims_.release(conflict->first);
    child_claim_times_.erase(conflict->first);
    for (const PeerLink& l : links_) {
      if (l.kind == PeerKind::kChild && l.domain == loser) {
        auto coll = std::make_unique<CollisionMessage>();
        coll->prefix = conflict->first;
        coll->winner = msg.claimant;
        network_.send(l.channel, *this, std::move(coll));
      }
    }
  }
  child_claims_.claim(msg.prefix, msg.claimant, msg.expires, now());
  child_claim_times_[msg.prefix] = msg.claim_time;
  // §4.1: "A then propagates this claim information to its other children."
  propagate_claim_to_children(msg, from);
}

void MascNode::handle_collision(const PeerLink& from,
                                const CollisionMessage& msg) {
  (void)from;
  if (!pending_ || !pending_->prefix.overlaps(msg.prefix)) return;
  ++collisions_;
  metrics_.collisions_suffered->inc();
  if (pending_->first_collision_at == net::kTimeInfinity) {
    pending_->first_collision_at = now();
  }
  obs::log_info(network_.stream(), name_, [&](auto& os) {
    os << "collision on " << pending_->prefix.to_string() << " from AS"
       << msg.winner << "; retrying";
  });
  known_claims_.release(pending_->prefix);
  abort_pending_and_retry();
}

void MascNode::handle_release(const PeerLink& from,
                              const ReleaseMessage& msg) {
  if (from.kind == PeerKind::kChild) {
    child_claims_.release(msg.prefix);
    child_claim_times_.erase(msg.prefix);
    for (const PeerLink& l : links_) {
      if (l.kind != PeerKind::kChild || l.channel == from.channel) continue;
      auto copy = std::make_unique<ReleaseMessage>(msg);
      network_.send(l.channel, *this, std::move(copy));
    }
  } else {
    known_claims_.release(msg.prefix);
  }
}

void MascNode::abort_pending_and_retry() {
  const PendingClaim aborted = *pending_;
  network_.events().cancel(aborted.timer);
  pending_.reset();
  start_claim(aborted.request_addresses, aborted.retries + 1,
              aborted.requested_at, aborted.first_collision_at,
              aborted.trace_id);
}

void MascNode::claim_granted() {
  if (!pending_) return;
  const PendingClaim granted = *pending_;
  pending_.reset();
  metrics_.claims_granted->inc();
  metrics_.claim_grant_latency->observe(
      (now() - granted.requested_at).to_seconds());
  if (granted.first_collision_at != net::kTimeInfinity) {
    metrics_.collision_resolution_latency->observe(
        (now() - granted.first_collision_at).to_seconds());
  }
  if (granted.is_double) {
    pool_.apply_double(granted.double_target, granted.expires);
    const net::Prefix merged = *granted.double_target.parent();
    // The merged parent supersedes both halves in our claim record.
    known_claims_.claim(merged, domain_, granted.expires, now());
    const auto old_time = held_claim_times_.find(granted.double_target);
    const net::SimTime t0 = old_time != held_claim_times_.end()
                                ? old_time->second
                                : granted.claim_time;
    held_claim_times_.erase(granted.double_target);
    held_claim_times_[merged] = t0;
    if (callbacks_.on_released) callbacks_.on_released(granted.double_target);
    if (callbacks_.on_granted) callbacks_.on_granted(merged, granted.expires);
    obs::log_info(network_.stream(), name_, [&](auto& os) {
      os << "doubled into " << merged.to_string();
    });
  } else {
    if (granted.renumber) pool_.deactivate_all();
    pool_.add_prefix(granted.prefix, granted.expires, /*active=*/true);
    held_claim_times_[granted.prefix] = granted.claim_time;
    if (callbacks_.on_granted) {
      callbacks_.on_granted(granted.prefix, granted.expires);
    }
    obs::log_info(network_.stream(), name_, [&](auto& os) {
      os << "granted " << granted.prefix.to_string();
    });
  }
  // Children see the enlarged space; the advertisements ride the claim's
  // span, closing the claim → (collision → re-claim →) grant chain.
  send_advertisements(granted.trace_id);
}

void MascNode::age_now() {
  known_claims_.purge_expired(now());
  for (const net::Prefix& released : pool_.age(now())) {
    metrics_.claims_released->inc();
    held_claim_times_.erase(released);
    known_claims_.release(released);
    for (const PeerLink& l : links_) {
      if (l.kind == PeerKind::kChild) continue;
      auto msg = std::make_unique<ReleaseMessage>();
      msg->prefix = released;
      msg->claimant = domain_;
      network_.send(l.channel, *this, std::move(msg));
    }
    if (callbacks_.on_released) callbacks_.on_released(released);
  }
}

}  // namespace masc
