#include "core/internet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "bgmp/router.hpp"

namespace core {

Internet::Internet(std::uint64_t seed)
    : network_(events_),
      rng_(seed),
      deliveries_(&network_.metrics().counter("core.deliveries")),
      probe_(std::make_unique<net::ConvergenceProbe>(
          network_, network_.metrics().histogram("core.convergence_latency"))) {
  // Domain-level state is sampled when a snapshot is taken: MASC pool
  // occupancy, BGMP tree state and BGP table sizes, summed over domains.
  network_.metrics().add_refresh_hook([this]() {
    obs::Metrics& m = network_.metrics();
    std::uint64_t claimed = 0;
    std::uint64_t allocated = 0;
    std::size_t tree_entries = 0;
    std::size_t grib = 0;
    std::size_t urib = 0;
    std::size_t state_bytes = 0;
    obs::Sharded& bytes_by_domain = m.sharded("core.state_bytes.by_domain");
    bytes_by_domain.clear();
    for (const auto& domain : domains_) {
      claimed += domain->masc_node().pool().claimed_addresses();
      allocated += domain->masc_node().pool().allocated_addresses();
      std::size_t domain_bytes = 0;
      for (std::size_t b = 0; b < domain->border_count(); ++b) {
        const bgmp::Router& r = domain->bgmp_router(b);
        tree_entries += r.entry_count();
        domain_bytes += r.state_bytes();
        const bgp::Speaker& s = domain->speaker(b);
        grib += s.rib(bgp::RouteType::kGroup).size();
        urib += s.rib(bgp::RouteType::kUnicast).size();
        domain_bytes += s.state_bytes();
      }
      state_bytes += domain_bytes;
      bytes_by_domain.set(domain->id(), domain_bytes);
    }
    m.gauge("masc.pool_claimed_addresses").set(static_cast<double>(claimed));
    m.gauge("masc.pool_allocated_addresses")
        .set(static_cast<double>(allocated));
    m.gauge("masc.pool_utilization")
        .set(claimed == 0 ? 0.0
                          : static_cast<double>(allocated) /
                                static_cast<double>(claimed));
    m.gauge("bgmp.tree_entries").set(static_cast<double>(tree_entries));
    m.gauge("bgp.grib_routes").set(static_cast<double>(grib));
    m.gauge("bgp.unicast_routes").set(static_cast<double>(urib));
    m.gauge("core.domains").set(static_cast<double>(domains_.size()));
    // Bytes of routing state (RIB views, Adj-RIB-Outs, origin tables,
    // BGMP tree entries) per domain — the memory half of the scale ladder.
    m.gauge("core.state_bytes_total").set(static_cast<double>(state_bytes));
    m.gauge("core.state_bytes_per_domain")
        .set(domains_.empty() ? 0.0
                              : static_cast<double>(state_bytes) /
                                    static_cast<double>(domains_.size()));
  });
}

Domain& Internet::add_domain(Domain::Config config) {
  domains_.push_back(std::make_unique<Domain>(*this, std::move(config)));
  (void)domain_paths_.add_node();  // node id == the domain's index
  // A domain joining a running internet is a perturbation worth timing;
  // during initial topology construction (nothing run yet) it is not.
  if (events_.events_run() > 0) probe_->arm("domain-join");
  return *domains_.back();
}

void Internet::link(Domain& a, Domain& b, bgp::Relationship a_sees_b,
                    std::size_t a_border, std::size_t b_border,
                    net::SimTime latency, bgp::ExportPolicy a_export,
                    bgp::ExportPolicy b_export) {
  const net::ChannelId bgp_channel =
      bgp::Speaker::connect(a.speaker(a_border), b.speaker(b_border),
                            a_sees_b, latency, a_export, b_export);
  const net::ChannelId bgmp_channel = bgmp::Router::connect(
      a.bgmp_router(a_border), b.bgmp_router(b_border), latency);
  links_.push_back(Link{&a, &b, bgp_channel, bgmp_channel});
  // Mirror the pair into the domain-level path graph (one edge per pair,
  // however many borders carry it); a fresh link raises the pair.
  const topology::NodeId na = node_of(a);
  const topology::NodeId nb = node_of(b);
  if (domain_paths_.has_edge(na, nb)) {
    domain_paths_.set_edge_state(na, nb, true);
  } else {
    domain_paths_.add_edge(na, nb);
  }
  if (events_.events_run() > 0) probe_->arm("link-add");
}

void Internet::set_link_state(const Domain& a, const Domain& b, bool up) {
  bool found = false;
  for (const Link& link : links_) {
    const bool match = (link.a == &a && link.b == &b) ||
                       (link.a == &b && link.b == &a);
    if (!match) continue;
    found = true;
    network_.set_up(link.bgp_channel, up);
    network_.set_up(link.bgmp_channel, up);
  }
  if (!found) {
    throw std::invalid_argument("Internet::set_link_state: domains " +
                                a.name() + " and " + b.name() +
                                " are not linked");
  }
  // A partition between the pair severs their MASC peering too (claims
  // hold and flush on heal — the outage §4.1's waiting period spans).
  for (const MascPeering& peering : masc_peerings_) {
    const bool match = (peering.a == &a && peering.b == &b) ||
                       (peering.a == &b && peering.b == &a);
    if (match) network_.set_up(peering.channel, up);
  }
  domain_paths_.set_edge_state(node_of(a), node_of(b), up);
  probe_->arm(up ? "link-up" : "link-down");
}

void Internet::set_domain_connectivity(const Domain& d, bool up) {
  for (const Link& link : links_) {
    if (link.a != &d && link.b != &d) continue;
    network_.set_up(link.bgp_channel, up);
    network_.set_up(link.bgmp_channel, up);
  }
  for (const MascPeering& peering : masc_peerings_) {
    if (peering.a != &d && peering.b != &d) continue;
    network_.set_up(peering.channel, up);
  }
  for (const Link& link : links_) {
    if (link.a != &d && link.b != &d) continue;
    domain_paths_.set_edge_state(node_of(*link.a), node_of(*link.b), up);
  }
  probe_->arm(up ? "domain-up" : "domain-down");
}

void Internet::crash_restart_domain(Domain& d) {
  // Snapshot which channels touching the domain are up, so an ongoing
  // partition stays partitioned across the restart.
  std::vector<net::ChannelId> bounce;
  for (const Link& link : links_) {
    if (link.a != &d && link.b != &d) continue;
    if (network_.is_up(link.bgp_channel)) bounce.push_back(link.bgp_channel);
    if (network_.is_up(link.bgmp_channel)) bounce.push_back(link.bgmp_channel);
  }
  for (const MascPeering& peering : masc_peerings_) {
    if (peering.a != &d && peering.b != &d) continue;
    if (network_.is_up(peering.channel)) bounce.push_back(peering.channel);
  }
  // State vanishes first — a crashed router sends no prunes or withdrawals
  // on its way down; peers find out from the session resets alone.
  d.crash();
  for (const net::ChannelId channel : bounce) network_.set_up(channel, false);
  for (const net::ChannelId channel : bounce) network_.set_up(channel, true);
  d.restart();
  probe_->arm("domain-crash");
}

void Internet::masc_parent(Domain& child, Domain& parent) {
  const net::ChannelId channel =
      masc::MascNode::connect(child.masc_node(), parent.masc_node(),
                              masc::MascNode::PeerKind::kParent);
  masc_peerings_.push_back(
      MascPeering{&child, &parent, masc::MascNode::PeerKind::kParent, channel});
}

void Internet::masc_siblings(Domain& a, Domain& b) {
  const net::ChannelId channel = masc::MascNode::connect(
      a.masc_node(), b.masc_node(), masc::MascNode::PeerKind::kSibling);
  masc_peerings_.push_back(
      MascPeering{&a, &b, masc::MascNode::PeerKind::kSibling, channel});
}

void Internet::settle(std::uint64_t max_events) { events_.run(max_events); }

void Internet::run_until(net::SimTime t) { events_.run_until(t); }

void Internet::report_delivery(const Delivery& delivery) {
  deliveries_->inc();
  if (observer_) observer_(delivery);
}

void Internet::enable_step_profiling() {
  events_.set_profiler([this](std::string_view tag, double seconds) {
    auto it = step_histograms_.find(tag);
    if (it == step_histograms_.end()) {
      std::string name = "sim.step_wall_seconds.";
      name += tag;
      it = step_histograms_
               .emplace(std::string(tag),
                        &network_.metrics().histogram(name))
               .first;
    }
    it->second->observe(seconds);
  });
}

topology::NodeId Internet::node_of(const Domain& d) const {
  if (d.index() >= domains_.size() || domains_[d.index()].get() != &d) {
    throw std::out_of_range("Internet: " + d.name() +
                            " is a domain of another Internet");
  }
  return static_cast<topology::NodeId>(d.index());
}

std::uint32_t Internet::domain_hops(const Domain& a, const Domain& b) {
  return domain_paths_.hops(node_of(a), node_of(b));
}

Domain* Internet::domain_of_address(net::Ipv4Addr addr) const {
  const auto hit = unicast_map_.longest_match(addr);
  return hit ? *hit->second : nullptr;
}

void Internet::register_unicast_prefix(const net::Prefix& prefix,
                                       Domain& domain) {
  unicast_map_.get_or_insert(prefix) = &domain;
}

std::vector<Domain*> Internet::build_from_graph(const topology::Graph& graph,
                                                migp::Protocol protocol) {
  std::vector<Domain*> domains;
  domains.reserve(graph.node_count());
  for (topology::NodeId n = 0; n < graph.node_count(); ++n) {
    Domain::Config config;
    config.id = n + 1;  // AS ids start at 1
    config.protocol = protocol;
    domains.push_back(&add_domain(std::move(config)));
  }
  for (const auto& [a, b] : graph.edges()) {
    link(*domains[a], *domains[b]);
  }
  return domains;
}

}  // namespace core
