#include "core/domain.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/internet.hpp"
#include "migp/pim_sm.hpp"

namespace core {

namespace {

topology::Graph single_router_graph() { return topology::Graph(1); }

}  // namespace

Domain::Domain(Internet& internet, Config config)
    : internet_(internet),
      config_(std::move(config)),
      // Internet::add_domain appends the domain once it is constructed.
      index_(internet.domain_count()) {
  if (config_.name.empty()) {
    config_.name = "AS" + std::to_string(config_.id);
  }
  topology::Graph graph = config_.internal_graph.has_value()
                              ? *config_.internal_graph
                              : single_router_graph();
  if (config_.borders.empty()) {
    throw std::invalid_argument("Domain: need at least one border router");
  }
  // The MIGP RPF resolver: which border router is the best exit toward an
  // external source (wired to BGP unicast lookups below).
  auto rpf_fn = [this](net::Ipv4Addr source) -> migp::RouterId {
    bgmp::Router* exit = rpf_exit(source);
    return exit != nullptr ? internal_id_of(*exit) : config_.borders[0];
  };
  migp_ = migp::make_migp(config_.protocol, std::move(graph), config_.borders,
                          std::move(rpf_fn));
  migp_->set_listener(this);

  for (std::size_t i = 0; i < config_.borders.size(); ++i) {
    const std::string base =
        config_.name + (config_.borders.size() > 1
                            ? std::to_string(i + 1)
                            : std::string{});
    Border border;
    border.internal_id = config_.borders[i];
    border.speaker = std::make_unique<bgp::Speaker>(internet_.network(),
                                                    config_.id, base);
    border.bgmp = std::make_unique<bgmp::Router>(
        internet_.network(), *border.speaker, *this, base + "/bgmp");
    borders_.push_back(std::move(border));
  }
  // iBGP full mesh + internal BGMP peer registration.
  for (std::size_t i = 0; i < borders_.size(); ++i) {
    for (std::size_t j = i + 1; j < borders_.size(); ++j) {
      bgp::Speaker::connect(*borders_[i].speaker, *borders_[j].speaker,
                            bgp::Relationship::kInternal,
                            net::SimTime::milliseconds(2));
      bgmp::Router::register_internal(*borders_[i].bgmp, *borders_[j].bgmp);
    }
  }

  // MASC node + MAAS.
  masc::MascNode::Params masc_params;
  masc_ = std::make_unique<masc::MascNode>(
      internet_.network(), config_.id, config_.name + "/masc", masc_params,
      /*rng_seed=*/0x6D617363u ^ (std::uint64_t{config_.id} << 16));
  maas_ = std::make_unique<masc::Maas>(
      masc_->pool(), masc::Maas::Params{},
      [this](std::uint64_t addresses) {
        masc_->request_space(addresses);
        return false;  // asynchronous: grant lands after the waiting period
      });
  wire_masc_callbacks();

  internet_.register_unicast_prefix(unicast_prefix(), *this);
  if (config_.announce_unicast) announce_unicast();
}

Domain::~Domain() = default;

void Domain::wire_masc_callbacks() {
  masc::MascNode::Callbacks callbacks;
  callbacks.on_granted = [this](const net::Prefix& range, net::SimTime) {
    // §4.2: the acquired range is "sent to the other border routers of the
    // domain, which then inject the address range into BGP".
    for (Border& b : borders_) {
      b.speaker->originate(bgp::RouteType::kGroup, range);
    }
  };
  callbacks.on_released = [this](const net::Prefix& range) {
    for (Border& b : borders_) {
      b.speaker->withdraw(bgp::RouteType::kGroup, range);
    }
  };
  masc_->set_callbacks(std::move(callbacks));
}

net::Prefix Domain::unicast_prefix() const {
  // 10.x.y.0/24 with x.y = the 16-bit domain id.
  if (config_.id > 0xFFFF) {
    throw std::logic_error("Domain: id too large for the 10/8 scheme");
  }
  const std::uint32_t base =
      (10u << 24) | (std::uint32_t{config_.id} << 8);
  return net::Prefix{net::Ipv4Addr{base}, 24};
}

net::Ipv4Addr Domain::host_address(int host) const {
  if (host < 1 || host > 254) {
    throw std::invalid_argument("Domain::host_address: host out of range");
  }
  return net::Ipv4Addr{static_cast<std::uint32_t>(
      unicast_prefix().base().value() + static_cast<std::uint32_t>(host))};
}

bgp::Speaker& Domain::speaker(std::size_t border) {
  return *borders_.at(border).speaker;
}

bgmp::Router& Domain::bgmp_router(std::size_t border) {
  return *borders_.at(border).bgmp;
}

void Domain::announce_unicast() {
  for (Border& b : borders_) {
    b.speaker->originate(bgp::RouteType::kUnicast, unicast_prefix());
  }
}

void Domain::originate_group_range(const net::Prefix& range) {
  for (Border& b : borders_) {
    b.speaker->originate(bgp::RouteType::kGroup, range);
  }
}

void Domain::withdraw_group_range(const net::Prefix& range) {
  for (Border& b : borders_) {
    b.speaker->withdraw(bgp::RouteType::kGroup, range);
  }
}

std::optional<masc::AddressLease> Domain::create_group(net::SimTime lifetime) {
  return maas_->allocate(internet_.events().now(), lifetime);
}

// ----------------------------------------------------------- member & data

void Domain::host_join(Group group, migp::RouterId at) {
  migp_->host_join(at, group);
}

void Domain::host_leave(Group group, migp::RouterId at) {
  migp_->host_leave(at, group);
}

void Domain::send(Group group, migp::RouterId at, int host) {
  const net::Ipv4Addr source = host_address(host);
  const migp::DataDelivery delivery =
      migp_->inject(at, source, group, /*source_is_external=*/false);
  if (!delivery.rpf_accepted) return;
  if (!delivery.member_routers.empty()) {
    internet_.report_delivery(Delivery{this, source, group, /*hops=*/0,
                                       delivery.member_routers.size()});
  }
  // Hand the packet to the BGMP components that saw it: on-tree border
  // routers that received it (through the MIGP, a flood, or by being the
  // injection point themselves) forward along the inter-domain tree, and
  // — per the IP service model, §5.2 — the group's best exit router
  // forwards it toward the root domain even with no prior join state.
  std::set<bgmp::Router*> handled;
  for (Border& b : borders_) {
    const bool received =
        b.internal_id == at || delivery.flooded ||
        std::find(delivery.border_routers.begin(),
                  delivery.border_routers.end(),
                  b.internal_id) != delivery.border_routers.end();
    if (received && b.bgmp->on_tree(group)) handled.insert(b.bgmp.get());
  }
  if (bgmp::Router* exit = exit_router_for_group(group);
      exit != nullptr && !exit->on_tree(group)) {
    handled.insert(exit);
  }
  for (bgmp::Router* r : handled) r->data_from_migp(source, group, 0);
}

void Domain::build_source_branch(net::Ipv4Addr source, Group group) {
  // Ask the border router closest to the source (the domain's best exit
  // toward it) to establish the branch.
  bgmp::Router* exit = rpf_exit(source);
  if (exit != nullptr) exit->request_source_branch(source, group);
}

// ------------------------------------------------------------ service impl

Domain::Border& Domain::border_of(const bgmp::Router& router) {
  for (Border& b : borders_) {
    if (b.bgmp.get() == &router) return b;
  }
  throw std::logic_error("Domain: router not of this domain");
}

migp::RouterId Domain::internal_id_of(const bgmp::Router& router) {
  return border_of(router).internal_id;
}

bgmp::Router* Domain::router_for_speaker(const bgp::Speaker* speaker) {
  for (Border& b : borders_) {
    if (b.speaker.get() == speaker) return b.bgmp.get();
  }
  return nullptr;
}

bool Domain::source_is_external(net::Ipv4Addr source) const {
  return !unicast_prefix().contains(source);
}

void Domain::fan_out_delivery(const migp::DataDelivery& delivery,
                              const bgmp::Router* origin,
                              const bgmp::Router* also_exclude,
                              net::Ipv4Addr source, Group group, int hops) {
  if (!delivery.rpf_accepted) return;
  if (!delivery.member_routers.empty()) {
    internet_.report_delivery(Delivery{this, source, group, hops,
                                       delivery.member_routers.size()});
  }
  for (const migp::RouterId border_id : delivery.border_routers) {
    for (Border& b : borders_) {
      if (b.internal_id != border_id || b.bgmp.get() == origin ||
          b.bgmp.get() == also_exclude) {
        continue;
      }
      // Flood deliveries reach stateless borders too; they prune (no BGMP
      // action). Borders with group state forward on the tree.
      if (delivery.flooded && !b.bgmp->on_tree(group)) continue;
      b.bgmp->data_from_migp(source, group, hops);
    }
  }
}

bool Domain::deliver_data(bgmp::Router& self, net::Ipv4Addr source,
                          Group group, int hops) {
  const migp::DataDelivery delivery =
      migp_->inject(internal_id_of(self), source, group,
                    source_is_external(source));
  if (!delivery.rpf_accepted) return false;
  fan_out_delivery(delivery, &self, nullptr, source, group, hops);
  return true;
}

bool Domain::deliver_decapsulated(bgmp::Router& self,
                                  bgmp::Router& encapsulator,
                                  net::Ipv4Addr source, Group group,
                                  int hops) {
  const migp::DataDelivery delivery =
      migp_->inject(internal_id_of(self), source, group,
                    source_is_external(source));
  if (!delivery.rpf_accepted) return false;
  fan_out_delivery(delivery, &self, &encapsulator, source, group, hops);
  return true;
}

void Domain::rootward_transit(bgmp::Router& self, bgmp::Router& next,
                              net::Ipv4Addr source, Group group, int hops) {
  // Enter the domain at the RPF-correct border (for a rootward packet
  // that is normally `self`, the router the data reached).
  bgmp::Router* entry = rpf_exit(source);
  if (entry == nullptr) entry = &self;
  const migp::DataDelivery delivery =
      migp_->inject(internal_id_of(*entry), source, group,
                    source_is_external(source));
  bool reached_tree = false;
  if (delivery.rpf_accepted) {
    if (!delivery.member_routers.empty()) {
      internet_.report_delivery(Delivery{this, source, group, hops,
                                         delivery.member_routers.size()});
    }
    for (Border& b : borders_) {
      const bool received =
          delivery.flooded ||
          std::find(delivery.border_routers.begin(),
                    delivery.border_routers.end(),
                    b.internal_id) != delivery.border_routers.end();
      if (!received || b.bgmp.get() == entry) continue;
      if (b.bgmp->on_tree(group)) {
        b.bgmp->data_from_migp(source, group, hops);
        reached_tree = true;
      }
    }
  }
  // No shared-tree router in this domain: keep moving toward the root.
  if (!reached_tree) next.data_transit(self, source, group, hops);
}

void Domain::encapsulate(bgmp::Router& self, bgmp::Router& to,
                         net::Ipv4Addr source, Group group, int hops) {
  to.data_encapsulated(self, source, group, hops);
}

bgmp::Router* Domain::rpf_exit(net::Ipv4Addr source) {
  bgp::Speaker& ref = *borders_[0].speaker;
  const auto lookup = ref.lookup(bgp::RouteType::kUnicast, source);
  if (!lookup || lookup->next_hop == nullptr) return borders_[0].bgmp.get();
  if (!lookup->internal) return borders_[0].bgmp.get();
  bgmp::Router* exit = router_for_speaker(lookup->next_hop);
  return exit != nullptr ? exit : borders_[0].bgmp.get();
}

bool Domain::needs_encapsulated_delivery(bgmp::Router& self, Group group) {
  if (migp_->has_members(group)) return true;
  for (Border& b : borders_) {
    if (b.bgmp.get() != &self && b.bgmp->on_tree(group)) return true;
  }
  return false;
}

void Domain::relay_control(bgmp::Router& self, bgmp::Router& to,
                           const bgmp::ControlMessage& msg) {
  to.internal_control(self, msg);
}

void Domain::migp_border_state(bgmp::Router& self, Group group, bool join) {
  if (join) {
    migp_->border_join(internal_id_of(self), group);
  } else {
    migp_->border_leave(internal_id_of(self), group);
  }
}

// -------------------------------------------------------------- membership

bgmp::Router* Domain::exit_router_for_group(Group group) {
  bgp::Speaker& ref = *borders_[0].speaker;
  const auto lookup = ref.lookup(bgp::RouteType::kGroup, group);
  if (!lookup) return nullptr;  // no route to the root domain (yet)
  bgmp::Router* exit = nullptr;
  if (lookup->next_hop == nullptr) {
    // Locally rooted: designate the first border router.
    exit = borders_[0].bgmp.get();
  } else if (!lookup->internal) {
    exit = borders_[0].bgmp.get();
  } else {
    exit = router_for_speaker(lookup->next_hop);
  }
  // §5.1's PIM-SM remark: "it might make exit router A3 the
  // Rendezvous-Point for the distribution tree within the domain".
  if (exit != nullptr && config_.protocol == migp::Protocol::kPimSm) {
    if (auto* pim = dynamic_cast<migp::PimSmMigp*>(migp_.get())) {
      pim->set_rp(group, internal_id_of(*exit));
    }
  }
  return exit;
}

void Domain::on_group_present(Group group) {
  bgmp::Router* exit = exit_router_for_group(group);
  if (exit == nullptr) return;
  joined_via_[group] = exit;
  exit->local_members_present(group);
}

void Domain::on_group_absent(Group group) {
  const auto it = joined_via_.find(group);
  if (it == joined_via_.end()) return;
  it->second->local_members_absent(group);
  joined_via_.erase(it);
}

void Domain::crash() {
  for (Border& border : borders_) border.bgmp->lose_all_state();
  joined_via_.clear();
}

void Domain::restart() {
  for (const Group group : migp_->groups_with_members()) {
    on_group_present(group);
    if (!joined_via_.contains(group) && !borders_.empty()) {
      // The G-RIB is still empty right after the crash (BGP sessions only
      // just came back). Rejoin through the first border anyway: the (*,G)
      // entry starts orphaned and re-parents via the route-change listener
      // once routes re-arrive, instead of the membership being lost.
      bgmp::Router* fallback = borders_.front().bgmp.get();
      joined_via_[group] = fallback;
      fallback->local_members_present(group);
    }
  }
}

}  // namespace core
