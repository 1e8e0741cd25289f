#include "bgmp/router.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>


namespace bgmp {

TargetKey TargetKey::external(Router* r) {
  return TargetKey{Kind::kPeer, r, r == nullptr ? 0 : r->owner_id()};
}

// ---------------------------------------------------------------- messages

std::string ControlMessage::describe() const {
  const char* name = "?";
  switch (kind) {
    case Kind::kJoinGroup: name = "JOIN(*,G)"; break;
    case Kind::kPruneGroup: name = "PRUNE(*,G)"; break;
    case Kind::kJoinSource: name = "JOIN(S,G)"; break;
    case Kind::kPruneSource: name = "PRUNE(S,G)"; break;
  }
  std::string out = std::string("BGMP ") + name + " G=" + group.to_string();
  if (kind == Kind::kJoinSource || kind == Kind::kPruneSource) {
    out += " S=" + source.to_string();
  }
  return out;
}

std::string DataMessage::describe() const {
  return "DATA S=" + source.to_string() + " G=" + group.to_string() +
         " hops=" + std::to_string(hops);
}

// -------------------------------------------------------------------- wiring

Router::Router(net::Network& network, bgp::Speaker& speaker,
               DomainService& service, std::string name)
    : network_(network),
      speaker_(speaker),
      service_(service),
      name_(std::move(name)),
      metrics_{&network.metrics().counter("bgmp.joins_sent"),
               &network.metrics().counter("bgmp.prunes_sent"),
               &network.metrics().counter("bgmp.data_forwarded"),
               &network.metrics().counter("bgmp.encapsulations"),
               &network.metrics().counter("bgmp.source_branches_built"),
               &network.metrics().counter("bgmp.entries_created"),
               &network.metrics().counter("bgmp.entries_torn_down"),
               &network.metrics().histogram(
                   "bgmp.join_propagation_latency")} {
  // Tree stability under route churn (§3): when the G-RIB path toward a
  // root domain moves, shared trees migrate their parent targets (after a
  // short damping delay, so a BGP convergence burst causes one move).
  speaker_.add_route_change_listener(
      [this](bgp::RouteType type, const net::Prefix& prefix) {
        if (type != bgp::RouteType::kGroup || reresolve_pending_ ||
            !star_entries_.any_in(prefix)) {
          return;
        }
        reresolve_pending_ = true;
        network_.events().schedule_in(
            repair_delay_,
            [this]() {
              reresolve_pending_ = false;
              reresolve_parents();
            },
            "bgmp.reresolve");
      });
}

void Router::reresolve_parents() {
  // A copy: the joins and prunes below relay synchronously and may add or
  // remove groups.
  const std::vector<Group> groups = star_entries_.groups();
  for (const Group group : groups) {
    GroupEntry* const found = star_entries_.find(group);
    if (found == nullptr) continue;
    GroupEntry& entry = *found;
    const auto hop = rootward(group);
    if (!hop) {
      // Unreachable root: orphan the entry; a later change re-resolves.
      continue;
    }
    const std::optional<TargetKey> old_parent = entry.parent;
    Router* const old_relay = entry.parent_relay;
    if (old_parent && *old_parent == hop->parent &&
        old_relay == hop->relay) {
      continue;  // unchanged
    }
    // Make-before-break: join the new path, then prune the old one.
    entry.parent = hop->parent;
    entry.parent_relay = hop->relay;
    if (!hop->self_rooted) {
      send_control(hop->parent, hop->relay, ControlMessage::Kind::kJoinGroup,
                   net::Ipv4Addr{}, group);
    }
    if (old_parent &&
        !(old_parent->kind == TargetKey::Kind::kMigp &&
          old_relay == nullptr)) {
      const bool old_alive =
          old_parent->kind == TargetKey::Kind::kMigp ||
          (peer_by_router(old_parent->peer) != nullptr &&
           network_.is_up(peer_by_router(old_parent->peer)->channel));
      if (old_alive) {
        send_control(*old_parent, old_relay,
                     ControlMessage::Kind::kPruneGroup, net::Ipv4Addr{},
                     group);
      }
    }
    sync_migp_state(group);
    obs::log_info(network_.stream(), name_, [&](auto& os) {
      os << "migrated (*,G) parent for " << group.to_string();
    });
  }
}

net::ChannelId Router::connect(Router& a, Router& b, net::SimTime latency) {
  if (a.speaker_.as() == b.speaker_.as()) {
    throw std::invalid_argument(
        "bgmp::Router::connect: same-domain routers peer through the MIGP");
  }
  const net::ChannelId channel = a.network_.connect(
      a, b, latency, static_cast<std::uint32_t>(a.external_peers_.size()),
      static_cast<std::uint32_t>(b.external_peers_.size()));
  a.network_.set_drop_when_down(channel, true);  // a dead peering loses data
  a.external_peers_.push_back(ExternalPeer{&b, channel});
  b.external_peers_.push_back(ExternalPeer{&a, channel});
  return channel;
}

void Router::register_internal(Router& a, Router& b) {
  if (a.speaker_.as() != b.speaker_.as()) {
    throw std::invalid_argument(
        "bgmp::Router::register_internal: different domains");
  }
  a.internal_peers_.push_back(&b);
  b.internal_peers_.push_back(&a);
}

Router* Router::external_router_for(const bgp::Speaker* speaker) const {
  for (const ExternalPeer& p : external_peers_) {
    if (&p.router->speaker_ == speaker) return p.router;
  }
  return nullptr;
}

Router* Router::internal_router_for(const bgp::Speaker* speaker) const {
  for (Router* r : internal_peers_) {
    if (&r->speaker_ == speaker) return r;
  }
  return nullptr;
}

const Router::ExternalPeer* Router::peer_by_channel(
    net::ChannelId channel) const {
  const std::uint32_t index = network_.endpoint_index(channel, *this);
  return index < external_peers_.size() ? &external_peers_[index] : nullptr;
}

const Router::ExternalPeer* Router::peer_by_router(const Router* r) const {
  for (const ExternalPeer& p : external_peers_) {
    if (p.router == r) return &p;
  }
  return nullptr;
}

// --------------------------------------------------------------- next hops

std::optional<Router::RootwardHop> Router::rootward(Group group) const {
  const auto lookup = speaker_.lookup(bgp::RouteType::kGroup, group);
  if (!lookup) return std::nullopt;
  if (lookup->next_hop == nullptr) {
    // §5.2: the root domain's router has no BGP next hop; its parent
    // target is its MIGP component.
    return RootwardHop{TargetKey::migp(), nullptr, /*self_rooted=*/true};
  }
  if (!lookup->internal) {
    Router* peer = external_router_for(lookup->next_hop);
    if (peer == nullptr) return std::nullopt;  // no BGMP peering mirror
    return RootwardHop{TargetKey::external(peer), nullptr, false};
  }
  Router* relay = internal_router_for(lookup->next_hop);
  if (relay == nullptr) return std::nullopt;
  return RootwardHop{TargetKey::migp(), relay, false};
}

std::optional<Router::RootwardHop> Router::sourceward(
    net::Ipv4Addr source) const {
  // §2 keeps an M-RIB for RPF checks where multicast and unicast
  // topologies diverge; every topology here is congruent, so RPF reads
  // the unicast view.
  const auto lookup = speaker_.lookup(bgp::RouteType::kUnicast, source);
  if (!lookup) return std::nullopt;
  if (lookup->next_hop == nullptr) {
    return RootwardHop{TargetKey::migp(), nullptr, /*self_rooted=*/true};
  }
  if (!lookup->internal) {
    Router* peer = external_router_for(lookup->next_hop);
    if (peer == nullptr) return std::nullopt;
    return RootwardHop{TargetKey::external(peer), nullptr, false};
  }
  Router* relay = internal_router_for(lookup->next_hop);
  if (relay == nullptr) return std::nullopt;
  return RootwardHop{TargetKey::migp(), relay, false};
}

// ------------------------------------------------------------ entry upkeep

const GroupEntry* Router::star_entry(Group group) const {
  return star_entries_.find(group);
}

const SourceEntry* Router::source_entry(net::Ipv4Addr source,
                                        Group group) const {
  const auto it = source_entries_.find(SourceGroup{source, group});
  return it == source_entries_.end() ? nullptr : &it->second;
}

std::size_t Router::state_bytes() const {
  // The (*,G) table reports its own nodes, buckets and key array. The
  // ordered maps' nodes are approximated by their value type plus the
  // three pointers + colour of a red-black node; target lists report
  // their actual vector capacities.
  constexpr std::size_t kNodeOverhead = 4 * sizeof(void*);
  std::size_t total = star_entries_.table_bytes();
  for (const auto& [group, entry] : star_entries_) {
    (void)group;
    total += entry.children.capacity_bytes();
  }
  for (const auto& [key, entry] : source_entries_) {
    total += sizeof(key) + sizeof(entry) + kNodeOverhead +
             entry.children.capacity_bytes() +
             entry.branch_children.capacity_bytes();
  }
  // The border bit of a group with a (*,G) entry is inside the entry;
  // the (S,G)-only groups hold one set node each.
  total += migp_state_.size() * (sizeof(Group) + kNodeOverhead);
  total += encapsulators_.size() *
           (sizeof(SourceGroup) + sizeof(Router*) + kNodeOverhead);
  return total;
}

std::size_t Router::aggregated_star_count() const {
  // Signature = the full target list; two sibling group prefixes whose
  // groups all share one signature collapse into their parent prefix.
  using Signature = std::string;
  const auto signature_of = [](const GroupEntry& entry) {
    Signature sig;
    const auto append = [&sig](const TargetKey& t) {
      sig += t.kind == TargetKey::Kind::kMigp ? "M" : "P";
      char buf[24];
      std::snprintf(buf, sizeof buf, "%p,", static_cast<void*>(t.peer));
      sig += buf;
    };
    if (entry.parent) {
      sig += "^";
      append(*entry.parent);
    }
    for (const auto& [child, refs] : entry.children) {
      (void)refs;
      append(child);
    }
    return sig;
  };
  std::map<net::Prefix, Signature> level;
  for (const auto& [group, entry] : star_entries_) {
    level.emplace(net::Prefix::containing(group, 32), signature_of(entry));
  }
  for (int len = 32; len > 0 && level.size() > 1; --len) {
    std::map<net::Prefix, Signature> next;
    while (!level.empty()) {
      const auto it = level.begin();
      const net::Prefix p = it->first;
      const Signature sig = it->second;
      level.erase(it);
      if (p.length() != len) {
        next.emplace(p, sig);
        continue;
      }
      const auto match = level.find(*p.sibling());
      if (match != level.end() && match->second == sig) {
        level.erase(match);
        next.emplace(*p.parent(), sig);  // merged; retried at len-1
      } else {
        next.emplace(p, sig);
      }
    }
    level = std::move(next);
  }
  return level.size();
}

void Router::sync_migp_state(Group group) {
  sync_migp_state(group, star_entries_.find(group));
}

void Router::sync_migp_state(Group group, GroupEntry* star) {
  bool want = star != nullptr &&
              ((star->parent && star->parent->kind == TargetKey::Kind::kMigp) ||
               star->children.contains(TargetKey::migp()));
  if (!want) {
    for (const auto& [key, entry] : source_entries_) {
      if (key.group != group) continue;
      if ((entry.parent && entry.parent->kind == TargetKey::Kind::kMigp) ||
          entry.children.contains(TargetKey::migp())) {
        want = true;
        break;
      }
    }
  }
  if (star != nullptr) {
    if (want == star->migp_border) return;
    star->migp_border = want;
  } else if (want ? !migp_state_.insert(group).second
                  : migp_state_.erase(group) == 0) {
    return;  // no change
  }
  service_.migp_border_state(*this, group, want);
}

void Router::lose_all_state() {
  // A crashed router cannot send prunes or notifications — state simply
  // vanishes. MIGP border state is withdrawn through the domain service
  // (the MIGP is the domain's state, not this router's), everything else
  // is dropped on the floor. The withdrawals go in group order, merging
  // the (*,G) entries' bits with the (S,G)-only groups (no group is in
  // both).
  auto held = migp_state_.begin();
  for (const auto& [group, entry] : star_entries_) {
    for (; held != migp_state_.end() && *held < group; ++held) {
      service_.migp_border_state(*this, *held, false);
    }
    if (entry.migp_border) service_.migp_border_state(*this, group, false);
  }
  for (; held != migp_state_.end(); ++held) {
    service_.migp_border_state(*this, *held, false);
  }
  migp_state_.clear();
  star_entries_.clear();
  source_entries_.clear();
  encapsulators_.clear();
  reresolve_pending_ = false;
}

std::pair<GroupEntry*, bool> Router::add_star_child(Group group,
                                                    const TargetKey& child) {
  const auto [slot, created] = star_entries_.try_emplace(group);
  GroupEntry& entry = *slot;
  ++entry.children[child];
  if (created) {
    // Border state held for (S,G) entries alone now belongs to the entry.
    entry.migp_border = migp_state_.erase(group) != 0;
    // §5.2: look up the group in the G-RIB, set the parent target, and
    // send a join toward the root domain.
    if (const auto hop = rootward(group)) {
      entry.parent = hop->parent;
      entry.parent_relay = hop->relay;
      if (!hop->self_rooted) {
        send_control(hop->parent, hop->relay, ControlMessage::Kind::kJoinGroup,
                     net::Ipv4Addr{}, group);
      }
    }
    metrics_.entries_created->inc();
    obs::log_info(network_.stream(), name_, [&](auto& os) {
      os << "created (*,G) for " << group.to_string();
    });
  }
  sync_migp_state(group, &entry);
  return {&entry, created};
}

void Router::remove_star_child(Group group, const TargetKey& child) {
  GroupEntry* const found = star_entries_.find(group);
  if (found == nullptr) return;
  GroupEntry& entry = *found;
  const auto c = entry.children.find(child);
  if (c == entry.children.end()) return;
  if (--c->second <= 0) entry.children.erase(c);
  if (entry.children.empty()) {
    // §5.2: "When the child target list becomes empty, the BGMP router
    // removes the (*,G) entry and sends a prune message upstream."
    if (entry.parent &&
        !(entry.parent->kind == TargetKey::Kind::kMigp &&
          entry.parent_relay == nullptr)) {
      send_control(*entry.parent, entry.parent_relay,
                   ControlMessage::Kind::kPruneGroup, net::Ipv4Addr{}, group);
    }
    erase_star(group, entry);
    metrics_.entries_torn_down->inc();
    obs::log_info(network_.stream(), name_, [&](auto& os) {
      os << "tore down (*,G) for " << group.to_string();
    });
    sync_migp_state(group, nullptr);
    return;
  }
  sync_migp_state(group, &entry);
}

void Router::erase_star(Group group, const GroupEntry& entry) {
  if (entry.migp_border) migp_state_.insert(group);
  star_entries_.erase(group);  // last: `entry` dies here
}

SourceEntry& Router::get_or_copy_source_entry(net::Ipv4Addr source,
                                              Group group) {
  const SourceGroup key{source, group};
  const auto it = source_entries_.find(key);
  if (it != source_entries_.end()) return it->second;
  SourceEntry entry;
  entry.source = source;
  // Copy the (*,G) target list (footnote 10: the oif list of the (*,G)
  // entry is copied so receivers keep getting S's packets).
  if (const GroupEntry* star = star_entries_.find(group); star != nullptr) {
    entry.parent = star->parent;
    entry.parent_relay = star->parent_relay;
    entry.children = star->children;
  }
  return source_entries_.emplace(key, std::move(entry)).first->second;
}

// ----------------------------------------------------------- control plane

void Router::send_control(const TargetKey& to, Router* relay,
                          ControlMessage::Kind kind, net::Ipv4Addr source,
                          Group group) {
  ControlMessage msg;
  msg.kind = kind;
  msg.group = group;
  msg.source = source;
  // Keep the originating operation's timestamp when regenerating the
  // message hop by hop; a message sent outside any handler starts the
  // clock here.
  msg.origin_time = control_origin_.ns() >= 0 ? control_origin_
                                              : network_.events().now();
  const bool is_join = kind == ControlMessage::Kind::kJoinGroup ||
                       kind == ControlMessage::Kind::kJoinSource;
  if (to.kind == TargetKey::Kind::kPeer) {
    const ExternalPeer* peer = peer_by_router(to.peer);
    if (peer == nullptr) {
      throw std::logic_error(name_ + ": control target is not a peer");
    }
    (is_join ? metrics_.joins_sent : metrics_.prunes_sent)->inc();
    network_.send(peer->channel, *this,
                  std::make_unique<ControlMessage>(msg));
  } else if (relay != nullptr) {
    (is_join ? metrics_.joins_sent : metrics_.prunes_sent)->inc();
    service_.relay_control(*this, *relay, msg);
  }
  // kMigp with no relay: self-rooted / membership side — nothing to send.
}

void Router::on_message(net::ChannelId channel,
                        std::unique_ptr<net::Message> msg) {
  const ExternalPeer* peer = peer_by_channel(channel);
  if (peer == nullptr) {
    throw std::logic_error(name_ + ": message on unknown channel");
  }
  switch (msg->kind) {
    case net::MessageKind::kBgmpControl:
      handle_control(static_cast<const ControlMessage&>(*msg),
                     TargetKey::external(peer->router));
      break;
    case net::MessageKind::kBgmpData: {
      const auto& data = static_cast<const DataMessage&>(*msg);
      handle_data(data.source, data.group, data.hops,
                  Arrival{Arrival::Kind::kExternal, peer->router},
                  data.branch_copy);
      break;
    }
    default:
      throw std::logic_error(name_ + ": unexpected message type");
  }
}

void Router::on_channel_down(net::ChannelId channel) {
  const ExternalPeer* peer = peer_by_channel(channel);
  if (peer == nullptr) return;
  const TargetKey dead = TargetKey::external(peer->router);

  // Source-specific state through the dead peer drops; the shared tree
  // (or a fresh branch) takes over on the next packets. An entry that
  // loses its last child to the failure disappears with it (unlike a
  // prune-emptied entry, which is a deliberate drop filter).
  std::set<SourceGroup> drained;
  for (auto& [key, entry] : source_entries_) {
    if (entry.children.erase(dead) > 0 && entry.children.empty()) {
      drained.insert(key);
    }
  }
  std::erase_if(source_entries_, [&](const auto& kv) {
    return (kv.second.parent && *kv.second.parent == dead) ||
           drained.contains(kv.first);
  });

  std::vector<Group> orphaned;
  std::vector<Group> emptied;
  for (const Group group : star_entries_.groups()) {
    GroupEntry& entry = *star_entries_.find(group);
    entry.children.erase(dead);
    const bool parent_dead = entry.parent && *entry.parent == dead;
    if (parent_dead) {
      entry.parent.reset();
      entry.parent_relay = nullptr;
      orphaned.push_back(group);
    }
    if (entry.children.empty()) emptied.push_back(group);
  }
  // Entries with no children left tear down (prune upstream if it still
  // exists); orphaned ones with children re-join once BGP reconverges.
  for (const Group group : emptied) {
    GroupEntry* const found = star_entries_.find(group);
    if (found == nullptr) continue;
    GroupEntry& entry = *found;
    if (entry.parent &&
        !(entry.parent->kind == TargetKey::Kind::kMigp &&
          entry.parent_relay == nullptr)) {
      send_control(*entry.parent, entry.parent_relay,
                   ControlMessage::Kind::kPruneGroup, net::Ipv4Addr{}, group);
    }
    erase_star(group, entry);
    sync_migp_state(group, nullptr);
  }
  for (const Group group : orphaned) {
    if (!star_entries_.contains(group)) continue;
    network_.events().schedule_in(
        repair_delay_,
        [this, group]() { repair_group(group, /*attempts_left=*/5); },
        "bgmp.repair");
  }
}

void Router::repair_group(Group group, int attempts_left) {
  GroupEntry* const found = star_entries_.find(group);
  if (found == nullptr) return;  // torn down meanwhile
  GroupEntry& entry = *found;
  if (entry.parent) return;  // already repaired
  const auto hop = rootward(group);
  const bool usable =
      hop && (hop->self_rooted ||
              hop->parent.kind == TargetKey::Kind::kMigp ||
              network_.is_up(peer_by_router(hop->parent.peer)->channel));
  if (!usable) {
    if (attempts_left > 0) {
      network_.events().schedule_in(
          repair_delay_,
          [this, group, attempts_left]() {
            repair_group(group, attempts_left - 1);
          },
          "bgmp.repair");
    }
    return;
  }
  entry.parent = hop->parent;
  entry.parent_relay = hop->relay;
  if (!hop->self_rooted) {
    send_control(hop->parent, hop->relay, ControlMessage::Kind::kJoinGroup,
                 net::Ipv4Addr{}, group);
  }
  sync_migp_state(group, &entry);
  obs::log_info(network_.stream(), name_, [&](auto& os) {
    os << "repaired (*,G) for " << group.to_string();
  });
}

void Router::internal_control(Router& from, const ControlMessage& msg) {
  (void)from;  // internal senders collapse onto the MIGP-component target
  handle_control(msg, TargetKey::migp());
}

void Router::handle_control(const ControlMessage& msg, const TargetKey& from) {
  // Handler-scoped origin context: messages this handler sends (directly
  // or via an internal relay, which dispatches synchronously) inherit the
  // operation's origin time.
  const net::SimTime prev_origin = control_origin_;
  control_origin_ =
      msg.origin_time.ns() >= 0 ? msg.origin_time : network_.events().now();
  switch (msg.kind) {
    case ControlMessage::Kind::kJoinGroup:
      handle_join_group(msg.group, from);
      break;
    case ControlMessage::Kind::kPruneGroup:
      handle_prune_group(msg.group, from);
      break;
    case ControlMessage::Kind::kJoinSource:
      handle_join_source(msg.source, msg.group, from);
      break;
    case ControlMessage::Kind::kPruneSource:
      handle_prune_source(msg.source, msg.group, from);
      break;
  }
  control_origin_ = prev_origin;
}

void Router::handle_join_group(Group group, const TargetKey& from) {
  const auto [entry, created] = add_star_child(group, from);
  // The join terminates here if it merged into an existing entry, reached
  // the group's root domain, or found no route onward; otherwise it kept
  // travelling (external parent, or relayed to an internal peer — which
  // sampled already if the chain ended inside this domain).
  const bool onward =
      created && entry->parent &&
      !(entry->parent->kind == TargetKey::Kind::kMigp &&
        entry->parent_relay == nullptr);
  if (!onward && control_origin_.ns() >= 0) {
    metrics_.join_propagation_latency->observe(
        (network_.events().now() - control_origin_).to_seconds());
  }
}

void Router::handle_prune_group(Group group, const TargetKey& from) {
  remove_star_child(group, from);
}

void Router::handle_join_source(net::Ipv4Addr source, Group group,
                                const TargetKey& from) {
  const bool was_on_tree = star_entries_.contains(group);
  const SourceGroup key{source, group};
  const bool existed = source_entries_.contains(key);
  SourceEntry& entry = get_or_copy_source_entry(source, group);
  ++entry.children[from];
  entry.branch_children.insert(from);  // joined directions get branch copies
  if (existed) {
    sync_migp_state(group);
    return;
  }
  if (was_on_tree) {
    // §5.3: "until it reaches a border router that is on the shared tree
    // for the group … The source-specific join is not propagated further."
    sync_migp_state(group);
    return;
  }
  // Off the shared tree: keep propagating toward the source. The entry
  // is a branch segment: its parent is upstream toward the source only.
  if (const auto hop = sourceward(source)) {
    entry.parent = hop->parent;
    entry.parent_relay = hop->relay;
    entry.toward_source = true;
    if (!hop->self_rooted) {
      send_control(hop->parent, hop->relay, ControlMessage::Kind::kJoinSource,
                   source, group);
    }
  }
  sync_migp_state(group);
}

void Router::schedule_prune_expiry(net::Ipv4Addr source, Group group) {
  const SourceGroup key{source, group};
  network_.events().schedule_in(
      prune_lifetime_,
      [this, key]() {
        const auto it = source_entries_.find(key);
        if (it == source_entries_.end() || !it->second.children.empty()) {
          return;
        }
        source_entries_.erase(it);
        sync_migp_state(key.group);
      },
      "bgmp.prune_expiry");
}

void Router::handle_prune_source(net::Ipv4Addr source, Group group,
                                 const TargetKey& from) {
  if (!star_entries_.contains(group) &&
      !source_entries_.contains(SourceGroup{source, group})) {
    return;  // no state at all: nothing to prune
  }
  SourceEntry& entry = get_or_copy_source_entry(source, group);
  entry.children.erase(from);  // prune removes the target outright
  if (!entry.children.empty()) {
    sync_migp_state(group);
    return;
  }
  // Fully pruned: a soft-state drop filter that expires (refreshing is
  // data-driven: downstream branch holders re-prune stray tree copies).
  schedule_prune_expiry(source, group);
  // §5.3: "Since F1 has no other child targets for (S,G), it propagates
  // the prune up the shared tree" — toward where S's data comes from.
  const std::optional<TargetKey> upstream =
      entry.upstream ? entry.upstream : entry.parent;
  if (upstream && upstream->kind == TargetKey::Kind::kPeer) {
    send_control(*upstream, nullptr, ControlMessage::Kind::kPruneSource,
                 source, group);
  } else if (upstream && entry.parent && *upstream == *entry.parent &&
             entry.parent_relay != nullptr) {
    send_control(*upstream, entry.parent_relay,
                 ControlMessage::Kind::kPruneSource, source, group);
  }
  sync_migp_state(group);
}

// ------------------------------------------------------- membership driven

void Router::local_members_present(Group group) {
  add_star_child(group, TargetKey::migp());
}

void Router::local_members_absent(Group group) {
  remove_star_child(group, TargetKey::migp());
}

void Router::request_source_branch(net::Ipv4Addr source, Group group) {
  const SourceGroup key{source, group};
  if (const auto it = source_entries_.find(key);
      it != source_entries_.end() && it->second.parent) {
    return;  // branch (or shared-tree (S,G) state) already in place
  }
  const auto hop = sourceward(source);
  if (!hop) return;
  // A branch is an overlay, not a tree rewrite: its data arrives marked
  // and serves the local members; shared-tree flow keeps passing through
  // untouched (with the local MIGP delivery suppressed). This avoids the
  // tree-wide prune interactions the paper's footnote 10 leaves open.
  SourceEntry& entry = source_entries_[key];
  entry.source = source;
  entry.parent = hop->parent;
  entry.parent_relay = hop->relay;
  entry.toward_source = true;
  ++entry.children[TargetKey::migp()];
  if (!hop->self_rooted) {
    send_control(hop->parent, hop->relay, ControlMessage::Kind::kJoinSource,
                 source, group);
  }
  metrics_.source_branches_built->inc();
  sync_migp_state(group);
  obs::log_info(network_.stream(), name_, [&](auto& os) {
    os << "source-specific branch toward S=" << source.to_string();
  });
}

// ------------------------------------------------------------- data plane

void Router::data_from_migp(net::Ipv4Addr source, Group group, int hops) {
  handle_data(source, group, hops, Arrival{Arrival::Kind::kMigp, nullptr},
              /*branch_copy=*/false);
}

void Router::data_transit(Router& from, net::Ipv4Addr source, Group group,
                          int hops) {
  handle_data(source, group, hops, Arrival{Arrival::Kind::kTransit, &from},
              /*branch_copy=*/false);
}

void Router::data_encapsulated(Router& from, net::Ipv4Addr source,
                               Group group, int hops) {
  const SourceGroup key{source, group};
  // Once the source-specific branch delivers natively, encapsulated
  // copies are dropped and the encapsulator pruned (§5.3).
  if (const auto sg = source_entries_.find(key);
      sg != source_entries_.end() && sg->second.native_seen) {
    ControlMessage prune;
    prune.kind = ControlMessage::Kind::kPruneSource;
    prune.group = group;
    prune.source = source;
    service_.relay_control(*this, from, prune);
    return;
  }
  // Decapsulate and inject into the domain's MIGP at the RPF-correct
  // entry point.
  encapsulators_[key] = &from;
  (void)service_.deliver_decapsulated(*this, from, source, group, hops);
  if (auto_branch_) request_source_branch(source, group);
}

void Router::forward_to_target(const TargetKey& target, net::Ipv4Addr source,
                               Group group, int hops, bool branch_copy) {
  if (target.kind == TargetKey::Kind::kPeer) {
    const ExternalPeer* peer = peer_by_router(target.peer);
    if (peer == nullptr) return;
    auto msg = std::make_unique<DataMessage>();
    msg->source = source;
    msg->group = group;
    msg->hops = hops + 1;  // one inter-domain hop
    msg->branch_copy = branch_copy;
    metrics_.data_forwarded->inc();
    network_.send(peer->channel, *this, std::move(msg));
    return;
  }
  // MIGP component: multicast into the domain. An RPF rejection means the
  // packet must enter at the best exit toward the source instead (§5.3) —
  // but only when someone inside actually needs it.
  metrics_.data_forwarded->inc();
  if (!service_.deliver_data(*this, source, group, hops)) {
    Router* exit_router = service_.rpf_exit(source);
    if (exit_router != nullptr && exit_router != this &&
        service_.needs_encapsulated_delivery(*this, group)) {
      metrics_.encapsulations->inc();
      service_.encapsulate(*this, *exit_router, source, group, hops);
    }
  }
}

void Router::forward_rootward(net::Ipv4Addr source, Group group, int hops,
                              const Arrival& arrival) {
  // §5.2: a router with no forwarding state "simply forwards the data
  // packets towards the root domain".
  const auto hop = rootward(group);
  if (!hop || hop->self_rooted) return;  // root with no tree: no members
  if (hop->parent.kind == TargetKey::Kind::kPeer) {
    if (arrival.kind == Arrival::Kind::kExternal &&
        arrival.peer == hop->parent.peer) {
      return;  // never bounce straight back
    }
    forward_to_target(hop->parent, source, group, hops,
                      /*branch_copy=*/false);
  } else if (hop->relay != nullptr) {
    service_.rootward_transit(*this, *hop->relay, source, group, hops);
  }
}

void Router::forward_star(const GroupEntry& entry,
                          const std::optional<TargetKey>& exclude,
                          bool suppress_migp, net::Ipv4Addr source,
                          Group group, int hops) {
  // The parent and child targets may coincide (e.g. both the MIGP
  // component at a root-domain router): forward to each distinct target
  // once (§5.2: "to all the targets … except the target from which the
  // packet was received").
  std::set<TargetKey> targets;
  if (entry.parent) targets.insert(*entry.parent);
  for (const auto& [child, refs] : entry.children) {
    (void)refs;
    targets.insert(child);
  }
  for (const TargetKey& t : targets) {
    if (exclude && t == *exclude) continue;
    if (suppress_migp && t == TargetKey::migp()) continue;
    forward_to_target(t, source, group, hops, /*branch_copy=*/false);
  }
}

void Router::handle_data(net::Ipv4Addr source, Group group, int hops,
                         const Arrival& arrival, bool branch_copy) {
  // The arrival target to exclude from forwarding (§5.2). A unicast
  // transit arrival is not a target: nothing is excluded, so a shared-tree
  // router pushes transit packets both up and into its domain.
  std::optional<TargetKey> exclude;
  switch (arrival.kind) {
    case Arrival::Kind::kExternal:
      exclude = TargetKey::external(arrival.peer);
      break;
    case Arrival::Kind::kMigp:
      exclude = TargetKey::migp();
      break;
    case Arrival::Kind::kTransit:
      break;
    case Arrival::Kind::kEncap:
      return;  // handled in data_encapsulated
  }

  const SourceGroup key{source, group};
  const auto sg = source_entries_.find(key);
  const GroupEntry* const star = star_entries_.find(group);
  const bool on_tree_now = star != nullptr;

  // ---- source-specific branch overlay -----------------------------------
  if (sg != source_entries_.end() && sg->second.toward_source) {
    SourceEntry& entry = sg->second;
    const bool from_parent =
        entry.parent && exclude && *entry.parent == *exclude;
    if (from_parent) {
      entry.native_seen = true;
      // Native data supersedes the encapsulated path: prune the
      // encapsulator (§5.3).
      if (const auto enc = encapsulators_.find(key);
          enc != encapsulators_.end()) {
        ControlMessage prune;
        prune.kind = ControlMessage::Kind::kPruneSource;
        prune.group = group;
        prune.source = source;
        service_.relay_control(*this, *enc->second, prune);
        encapsulators_.erase(enc);
      }
      // Serve the branch — local members (the MIGP child) and downstream
      // branch segments get marked branch copies. Only a marked arrival
      // (or the origin: the source domain's own MIGP) feeds the branch;
      // an unmarked copy from the same direction is rootward/tree transit
      // whose members are served by the marked copy travelling alongside.
      const bool at_source_domain =
          entry.parent->kind == TargetKey::Kind::kMigp &&
          entry.parent_relay == nullptr;
      if (branch_copy ||
          (at_source_domain && arrival.kind == Arrival::Kind::kMigp)) {
        for (const auto& [child, refs] : entry.children) {
          (void)refs;
          if (exclude && child == *exclude) continue;
          forward_to_target(child, source, group, hops,
                            /*branch_copy=*/true);
        }
      }
      // An UNMARKED copy from the branch-parent direction is shared-tree /
      // rootward traffic whose path happens to coincide with the branch:
      // it keeps flowing (tree radiation here if we are on the tree, the
      // rootward walk otherwise), with the local MIGP delivery suppressed
      // (members were just served by the branch copy). A MARKED copy also
      // radiates when the branch parent doubles as a tree neighbour — the
      // far side merged both roles into the single marked send.
      const bool parent_is_tree_target =
          on_tree_now && entry.parent && star->has_target(*entry.parent);
      if (!branch_copy || parent_is_tree_target) {
        if (on_tree_now) {
          forward_star(*star, exclude, /*suppress_migp=*/true, source, group,
                       hops);
        } else if (!branch_copy) {
          forward_rootward(source, group, hops, arrival);
        }
      }
      return;
    }
    // Stray marked copies from non-parent directions serve nobody.
    if (branch_copy) return;
    // Ordinary tree/rootward flow passing a brancher: untouched except
    // that local members are already served by the branch.
    const bool suppress_migp = entry.children.contains(TargetKey::migp());
    if (on_tree_now) {
      forward_star(*star, exclude, suppress_migp, source, group, hops);
    } else {
      forward_rootward(source, group, hops, arrival);
    }
    return;
  }

  // ---- copied / prune-created (S,G) entries ------------------------------
  if (sg != source_entries_.end()) {
    SourceEntry& entry = sg->second;
    // A fully-pruned entry (no child targets left) is a drop filter until
    // its soft-state lifetime expires.
    if (entry.children.empty()) return;
    if (exclude) entry.upstream = exclude;
    std::set<TargetKey> targets;
    if (entry.parent) targets.insert(*entry.parent);
    for (const auto& [child, refs] : entry.children) {
      (void)refs;
      targets.insert(child);
    }
    for (const TargetKey& t : targets) {
      if (exclude && t == *exclude) continue;
      forward_to_target(t, source, group, hops,
                        entry.branch_children.contains(t));
    }
    return;
  }

  // ---- (*,G) / rootward ---------------------------------------------------
  if (on_tree_now) {
    forward_star(*star, exclude, /*suppress_migp=*/false, source, group,
                 hops);
    return;
  }
  forward_rootward(source, group, hops, arrival);
}

}  // namespace bgmp
