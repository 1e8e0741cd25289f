#include "bgp/speaker.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>

namespace bgp {

std::string Route::describe() const {
  std::string out = "path[";
  bool first = true;
  for (const DomainId hop : as_path) {
    if (!first) out += ' ';
    out += std::to_string(hop);
    first = false;
  }
  out += "] origin AS" + std::to_string(origin_as);
  return out;
}

std::string UpdateMessage::describe() const {
  std::string out = "UPDATE";
  for (const Delta& d : deltas) {
    out += d.route.has_value() ? " +" : " -";
    out += d.prefix.to_string();
    out += '/';
    out += to_string(d.type);
  }
  return out;
}

Speaker::Speaker(net::Network& network, DomainId as, std::string name)
    : network_(network),
      as_(as),
      name_(std::move(name)),
      // Per-network allocation: uid tie-breaks are a function of creation
      // order within this simulation, never of process-global history —
      // required for parallel sweep cells to be schedule-independent.
      uid_(network.allocate_uid()),
      metrics_{&network.metrics().counter("bgp.updates_sent"),
               &network.metrics().sharded("bgp.updates_sent.by_domain"),
               &network.metrics().counter("bgp.updates_received"),
               &network.metrics().counter("bgp.routes_announced"),
               &network.metrics().counter("bgp.routes_withdrawn"),
               &network.metrics().counter("bgp.routes_originated"),
               &network.metrics().histogram(
                   "bgp.route_convergence_latency")} {}

net::ChannelId Speaker::connect(Speaker& a, Speaker& b,
                                Relationship a_sees_b, net::SimTime latency,
                                ExportPolicy a_export,
                                ExportPolicy b_export) {
  const bool same_domain = a.as_ == b.as_;
  if (same_domain != (a_sees_b == Relationship::kInternal)) {
    throw std::invalid_argument(
        "Speaker::connect: internal relationship iff same domain (" +
        a.name_ + " AS" + std::to_string(a.as_) + " / " + b.name_ + " AS" +
        std::to_string(b.as_) + ")");
  }
  // Each side's PeerIndex rides on the channel, so a delivery finds its
  // peering with one read (find_peer).
  const net::ChannelId channel = a.network_.connect(
      a, b, latency, static_cast<std::uint32_t>(a.peers_.size()),
      static_cast<std::uint32_t>(b.peers_.size()));
  // A broken peering is a reset transport session, not a lossless pause:
  // both sides flush and resynchronize when it returns.
  a.network_.set_drop_when_down(channel, true);
  const PeerIndex a_index = a.add_peer(b, channel, a_sees_b, a_export);
  const PeerIndex b_index = b.add_peer(a, channel, reverse(a_sees_b), b_export);
  a.full_sync(a_index);
  b.full_sync(b_index);
  return channel;
}

PeerIndex Speaker::add_peer(Speaker& peer, net::ChannelId channel,
                            Relationship rel, ExportPolicy export_policy) {
  peers_.push_back(Peer{&peer, channel, rel, export_policy});
  for (AdjRibOut& out : adj_rib_out_) out.add_column();
  return static_cast<PeerIndex>(peers_.size() - 1);
}

PeerIndex Speaker::peer_by_channel(net::ChannelId channel) const {
  const PeerIndex index = find_peer(channel);
  if (index == kLocalPeer) {
    throw std::logic_error("Speaker: message on unknown channel");
  }
  return index;
}

const Route* Speaker::advertised(RouteType type, PeerIndex peer,
                                 const net::Prefix& prefix) const {
  const AdjRibOut& out = adj_rib_out_[static_cast<std::size_t>(type)];
  const std::uint32_t row = out.find(prefix);
  if (row == AdjRibOut::kNoRow) return nullptr;
  const RouteRef& ref = out.cell(row, peer);
  return ref.has_value() ? &ref.get() : nullptr;
}

void Speaker::originate(RouteType type, const net::Prefix& prefix) {
  auto& origins = origins_[static_cast<std::size_t>(type)];
  if (std::find(origins.begin(), origins.end(), prefix) != origins.end()) {
    return;
  }
  // This call starts a routing change: stamp the updates it triggers.
  const OriginScope scope(*this, network_.events().now(), /*remote=*/false);
  const BatchScope batch(*this);
  origins.push_back(prefix);
  metrics_.routes_originated->inc();
  Candidate local;
  local.route = Route{/*as_path=*/{}, /*origin_as=*/as_, /*local_pref=*/100};
  local.via = kLocalPeer;
  local.internal = false;
  local.exit_uid = uid_;
  const RibEntry* entry = nullptr;
  if (rib_mut(type).upsert(prefix, std::move(local), &entry)) {
    best_changed(type, prefix, entry);
  }
  // A new covering origination changes which more-specifics are
  // aggregation-suppressed at export.
  resync_specifics(type, prefix);
}

void Speaker::withdraw(RouteType type, const net::Prefix& prefix) {
  auto& origins = origins_[static_cast<std::size_t>(type)];
  if (std::erase(origins, prefix) == 0) return;
  const OriginScope scope(*this, network_.events().now(), /*remote=*/false);
  const BatchScope batch(*this);
  const RibEntry* entry = nullptr;
  if (rib_mut(type).remove(prefix, kLocalPeer, &entry)) {
    best_changed(type, prefix, entry);
  }
  resync_specifics(type, prefix);
}

void Speaker::set_aggregation(bool enabled) {
  if (aggregation_ == enabled) return;
  aggregation_ = enabled;
  const BatchScope batch(*this);
  for (PeerIndex index = 0; index < peers_.size(); ++index) {
    full_sync(index);
  }
}

std::optional<LookupResult> Speaker::lookup(RouteType type,
                                            net::Ipv4Addr addr) const {
  const auto hit = rib(type).longest_match(addr);
  if (!hit) return std::nullopt;
  const Candidate& best = *hit->second;
  LookupResult result;
  result.prefix = hit->first;
  result.route = best.route;
  if (best.via == kLocalPeer) {
    result.next_hop = nullptr;
    result.internal = false;
  } else {
    result.next_hop = peers_[best.via].speaker;
    result.internal = best.internal;
  }
  return result;
}

std::vector<Speaker*> Speaker::peers() const {
  std::vector<Speaker*> out;
  out.reserve(peers_.size());
  for (const Peer& p : peers_) out.push_back(p.speaker);
  return out;
}

std::optional<Relationship> Speaker::relationship_with(
    const Speaker& peer) const {
  for (const Peer& p : peers_) {
    if (p.speaker == &peer) return p.relationship;
  }
  return std::nullopt;
}

void Speaker::on_drain(net::SmallFunction<void()>& deliveries) {
  const BatchScope batch(*this);
  deliveries();
}

void Speaker::on_message(net::ChannelId channel,
                         std::unique_ptr<net::Message> msg) {
  if (msg->kind != net::MessageKind::kBgpUpdate) {
    throw std::logic_error("Speaker: unexpected message type");
  }
  if (batch_depth_ == 0) {
    throw std::logic_error("Speaker: update delivered outside a drain");
  }
  handle_update(peer_by_channel(channel),
                static_cast<const UpdateMessage&>(*msg));
}

void Speaker::on_channel_down(net::ChannelId channel) {
  const PeerIndex index = peer_by_channel(channel);
  // Whatever the dead session had not flushed yet dies with it.
  std::erase_if(pending_,
                [index](const PendingDelta& d) { return d.peer == index; });
  const BatchScope batch(*this);
  for (int t = 0; t < kRouteTypeCount; ++t) {
    const auto type = static_cast<RouteType>(t);
    // Flush the Adj-RIB-In from this peer — only the entries holding a
    // candidate via it; best-route changes cascade.
    Rib& table = rib_mut(type);
    std::vector<net::Prefix> learned;
    table.for_each_entry([&](const net::Prefix& prefix, const RibEntry& entry) {
      for (const Candidate& candidate : entry.candidates()) {
        if (candidate.via == index) {
          learned.push_back(prefix);
          return;
        }
      }
    });
    for (const net::Prefix& prefix : learned) {
      const RibEntry* entry = nullptr;
      if (table.remove(prefix, index, &entry)) {
        best_changed(type, prefix, entry);
      }
    }
    // The peer's session state is gone with the session.
    adj_rib_out_[static_cast<std::size_t>(t)].clear_column(index);
  }
}

void Speaker::on_channel_up(net::ChannelId channel) {
  full_sync(peer_by_channel(channel));
}

void Speaker::handle_update(PeerIndex from, const UpdateMessage& update) {
  Peer& peer = peers_[from];
  metrics_.updates_received->inc();
  // Runs inside the drain's batch (on_drain): the reselections of every
  // update the drain carries coalesce into at most one outgoing update per
  // peer.
  for (const UpdateMessage::Delta& delta : update.deltas) {
    Rib& rib = rib_mut(delta.type);
    // Carry each delta's own origin stamp through local flips (sampled in
    // best_changed) and into the re-advertisements it queues.
    const OriginScope scope(*this,
                            delta.origin_time.ns() >= 0
                                ? delta.origin_time
                                : network_.events().now(),
                            /*remote=*/true);
    const RibEntry* entry = nullptr;
    if (!delta.route.has_value()) {
      metrics_.routes_withdrawn->inc();
      if (rib.remove(delta.prefix, from, &entry)) {
        best_changed(delta.type, delta.prefix, entry);
      }
      continue;
    }
    const Route& announced = *delta.route;
    metrics_.routes_announced->inc();
    // AS-path loop prevention: a route that already crossed this domain is
    // treated as unreachable via this peer.
    if (announced.contains_as(as_)) {
      if (rib.remove(delta.prefix, from, &entry)) {
        best_changed(delta.type, delta.prefix, entry);
      }
      continue;
    }
    Candidate candidate;
    candidate.route = announced;
    candidate.via = from;
    candidate.internal = peer.relationship == Relationship::kInternal;
    if (!candidate.internal) {
      candidate.route.local_pref = default_local_pref(peer.relationship);
    }
    // The exit router for an eBGP candidate is this router itself; for an
    // iBGP candidate it is the internal sender. The lowest-uid rule then
    // elects one best exit domain-wide.
    candidate.exit_uid = candidate.internal ? peer.speaker->uid() : uid_;
    if (rib.upsert(delta.prefix, std::move(candidate), &entry)) {
      best_changed(delta.type, delta.prefix, entry);
    }
  }
}

Speaker::SyncContext Speaker::make_sync_context(
    RouteType type, const net::Prefix& prefix) const {
  return make_sync_context(type, prefix, rib(type).find(prefix));
}

Speaker::SyncContext Speaker::make_sync_context(
    RouteType type, const net::Prefix& prefix, const RibEntry* entry) const {
  SyncContext ctx;
  if (entry == nullptr) return ctx;
  ctx.best = entry->best();
  if (ctx.best == nullptr) return ctx;
  const Candidate& best = *ctx.best;
  if (best.via != kLocalPeer) {
    ctx.learned_from = peers_[best.via].speaker;
    // Gao-Rexford provenance, invariant across peers: LOCAL_PREF >= 100
    // encodes customer-or-local.
    ctx.gao_blocked = best.route.local_pref < 100;
    // §4.3.2 aggregation: suppress a more-specific covered by an own
    // origination — the covering group route already provides reachability
    // toward this domain, which will then use its more-specific entry.
    // The longest own origination containing the prefix must be strictly
    // shorter than it.
    if (aggregation_) {
      const auto& origins = origins_[static_cast<std::size_t>(type)];
      int cover = -1;
      for (const net::Prefix& own : origins) {
        if (own.contains(prefix)) cover = std::max(cover, own.length());
      }
      ctx.aggregation_suppressed = cover >= 0 && cover < prefix.length();
    }
  }
  return ctx;
}

Speaker::Desired Speaker::desired_from_context(const SyncContext& ctx,
                                               const Peer& peer) const {
  if (ctx.best == nullptr) return {};
  const Candidate& best = *ctx.best;
  // Split horizon: never back to the session it was learned from
  // (learned_from is null for local routes; peer.speaker never is).
  if (peer.speaker == ctx.learned_from) return {};
  if (peer.relationship == Relationship::kInternal) {
    // iBGP: re-advertise only what we learned externally or originated.
    if (best.internal) return {};
    // Path and LOCAL_PREF carried unchanged.
    return {&best.route, &ctx.internal_ref};
  }
  // eBGP export.
  // Pointless-advertisement suppression: the peer's AS is already on the
  // path and would reject it.
  if (best.route.contains_as(peer.speaker->as())) return {};
  if (ctx.aggregation_suppressed) return {};
  if (peer.export_policy == ExportPolicy::kGaoRexford &&
      peer.relationship != Relationship::kCustomer && ctx.gao_blocked) {
    // Only own/customer routes go to providers and laterals.
    return {};
  }
  if (!ctx.ebgp_export.has_value()) {
    Route exported = best.route;
    exported.as_path = exported.as_path.prepend(as_);
    exported.local_pref = 100;  // reset; the importer assigns its own
    ctx.ebgp_export = std::move(exported);
  }
  return {&*ctx.ebgp_export, &ctx.ebgp_ref};
}

void Speaker::sync_peer(RouteType type, const net::Prefix& prefix,
                        PeerIndex index) {
  const Peer& peer = peers_[index];
  // No session, no updates: the channel-up full sync reconciles later.
  if (!network_.is_up(peer.channel)) return;
  const SyncContext ctx = make_sync_context(type, prefix);
  std::uint32_t row = adj_rib_out_[static_cast<std::size_t>(type)].find(prefix);
  apply_desired(type, prefix, index, row, desired_from_context(ctx, peer));
}

void Speaker::apply_desired(RouteType type, const net::Prefix& prefix,
                            PeerIndex index, std::uint32_t& row,
                            const Desired& desired) {
  AdjRibOut& out = adj_rib_out_[static_cast<std::size_t>(type)];
  RouteRef before;
  if (desired.route != nullptr) {
    RouteRef& want = *desired.ref;
    if (!want.has_value()) want = RouteRef::intern(*desired.route);
    // A missing row is all null cells, which never equal an interned id.
    if (row != AdjRibOut::kNoRow && out.cell(row, index) == want) return;
    before = out.assign(prefix, row, index, want);
  } else {
    // Withdraw: a missing row or a null cell already agrees.
    if (row == AdjRibOut::kNoRow || !out.cell(row, index).has_value()) {
      return;
    }
    before = out.clear(prefix, row, index);
  }
  // Queue the delta; the Adj-RIB-Out above is already updated, so later
  // syncs in the same batch compute against the post-change state. The
  // wire message goes out when the outermost batch scope flushes.
  pending_.push_back(PendingDelta{
      index, type, prefix, std::move(before),
      desired.route != nullptr ? *desired.ref : RouteRef{},
      update_origin_.ns() >= 0 ? update_origin_ : network_.events().now()});
}

void Speaker::flush_updates() {
  if (pending_.empty()) return;
  const auto key_less = [](const PendingDelta& x, const PendingDelta& y) {
    return x.key() < y.key();
  };
  // Peers are sent to in ascending index order, each update listing its
  // deltas in (type, prefix) order. Stable, so each key's run keeps its
  // queue order. A one-prefix fan-out queues its peers in index order and
  // needs no sort at all.
  if (!std::is_sorted(pending_.begin(), pending_.end(), key_less)) {
    std::stable_sort(pending_.begin(), pending_.end(), key_less);
  }
  // Coalesce each key's run in place: the cell as the batch first found
  // it, and the last route and origin stamp queued for it. Canonical ids:
  // equal refs mean equal routes, so churn that netted out to no wire
  // change is one integer compare.
  auto out = pending_.begin();
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto run_end = std::next(it);
    while (run_end != pending_.end() && run_end->key() == it->key()) {
      ++run_end;
    }
    PendingDelta& last = *std::prev(run_end);
    if (it->before != last.latest) {
      if (&last != &*it) {
        it->latest = std::move(last.latest);
        it->origin_time = last.origin_time;
      }
      if (out != it) *out = std::move(*it);
      ++out;
    }
    it = run_end;
  }
  pending_.erase(out, pending_.end());
  // One update per peer whose session is still up; a session that went
  // away mid-batch is reconciled by the channel-up full sync. Sending
  // only queues the message, so nothing re-enters this speaker here.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const PeerIndex index = it->peer;
    const auto run_end = std::find_if(
        it, pending_.end(),
        [index](const PendingDelta& d) { return d.peer != index; });
    const Peer& peer = peers_[index];
    if (network_.is_up(peer.channel)) {
      auto update = std::make_unique<UpdateMessage>();
      update->deltas.reserve(static_cast<std::size_t>(run_end - it));
      for (; it != run_end; ++it) {
        update->deltas.push_back(UpdateMessage::Delta{
            it->type, it->prefix,
            it->latest.has_value() ? std::optional<Route>(it->latest.get())
                                   : std::nullopt,
            it->origin_time});
      }
      metrics_.updates_sent->inc();
      metrics_.updates_sent_by_domain->add(as_);
      network_.send(peer.channel, *this, std::move(update));
    }
    it = run_end;
  }
  if (pending_.capacity() > kPendingKeep) {
    pending_ = std::vector<PendingDelta>();
  } else {
    pending_.clear();
  }
}

void Speaker::best_changed(RouteType type, const net::Prefix& prefix,
                           const RibEntry* entry) {
  // A received update flipped this speaker's best route: the change has
  // now "reached" this domain — record origination → here.
  if (remote_origin_ && update_origin_.ns() >= 0) {
    metrics_.route_convergence_latency->observe(
        (network_.events().now() - update_origin_).to_seconds());
  }
  sync_all_peers(type, prefix, entry);
  for (const RouteChangeListener& listener : listeners_) {
    listener(type, prefix);
  }
}

void Speaker::sync_all_peers(RouteType type, const net::Prefix& prefix) {
  sync_all_peers(type, prefix, rib(type).find(prefix));
}

void Speaker::sync_all_peers(RouteType type, const net::Prefix& prefix,
                             const RibEntry* entry) {
  // One context and one Adj-RIB-Out row lookup for the whole fan-out: the
  // RIB lookup, cover check and exported-route intern happen once, not
  // once per peer. Neither a row nor a best route: nothing to send.
  std::uint32_t row = adj_rib_out_[static_cast<std::size_t>(type)].find(prefix);
  const SyncContext ctx = make_sync_context(type, prefix, entry);
  if (row == AdjRibOut::kNoRow && ctx.best == nullptr) return;
  for (PeerIndex index = 0; index < peers_.size(); ++index) {
    const Peer& peer = peers_[index];
    // No session, no updates: the channel-up full sync reconciles later.
    if (!network_.is_up(peer.channel)) continue;
    apply_desired(type, prefix, index, row, desired_from_context(ctx, peer));
  }
}

void Speaker::full_sync(PeerIndex index) {
  const BatchScope batch(*this);
  for (int t = 0; t < kRouteTypeCount; ++t) {
    const auto type = static_cast<RouteType>(t);
    // Sync everything currently advertised to the peer (so stale entries
    // withdraw) and everything in the loc-RIB. Prefixes are collected
    // first because sync_peer mutates the table being walked.
    std::vector<net::Prefix> prefixes;
    prefixes.reserve(rib(type).size());
    adj_rib_out_[static_cast<std::size_t>(t)].for_each_in_column(
        index, [&](const net::Prefix& p, const RouteRef&) {
          prefixes.push_back(p);
        });
    rib(type).for_each_best([&](const net::Prefix& p, const Candidate&) {
      prefixes.push_back(p);
    });
    for (const net::Prefix& p : prefixes) sync_peer(type, p, index);
  }
}

std::size_t Speaker::state_bytes() const {
  std::size_t total = 0;
  for (const Rib& r : ribs_) total += r.state_bytes();
  for (const auto& origins : origins_) {
    total += origins.capacity() * sizeof(net::Prefix);
  }
  for (const AdjRibOut& out : adj_rib_out_) total += out.memory_bytes();
  return total;
}

void Speaker::resync_specifics(RouteType type, const net::Prefix& prefix) {
  // sync_all_peers only touches Adj-RIB-Outs, never the loc-RIB being
  // walked, so no snapshot copy is needed here.
  rib(type).for_each_best_within(
      prefix, [&](const net::Prefix& p, const Candidate&) {
        if (p.length() > prefix.length()) sync_all_peers(type, p);
      });
}

}  // namespace bgp
