// The Internet: the event queue, the message network, every domain, and
// the wiring helpers that assemble the paper's architecture — inter-domain
// links (eBGP + BGMP peerings), iBGP full meshes, MASC parent/child and
// sibling peerings — plus delivery observation for the experiments.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bgp/types.hpp"
#include "core/domain.hpp"
#include "net/event.hpp"
#include "net/network.hpp"
#include "net/prefix_map.hpp"
#include "net/probe.hpp"
#include "topology/graph.hpp"
#include "topology/paths.hpp"

namespace core {

class Internet {
 public:
  explicit Internet(std::uint64_t seed = 1);

  Internet(const Internet&) = delete;
  Internet& operator=(const Internet&) = delete;

  [[nodiscard]] net::EventQueue& events() { return events_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] net::Rng& rng() { return rng_; }

  /// The metrics registry the whole simulated internet instruments into
  /// (the network's registry). Snapshotting refreshes the domain-level
  /// gauges — pool utilisation, tree entries, RIB sizes.
  [[nodiscard]] obs::Metrics& metrics() { return network_.metrics(); }
  /// Convenience: a snapshot stamped with the current simulation time.
  [[nodiscard]] obs::Snapshot metrics_snapshot() {
    return metrics().snapshot(events_.now().to_seconds());
  }

  /// Creates a domain. The returned reference is stable.
  Domain& add_domain(Domain::Config config);
  [[nodiscard]] Domain& domain(std::size_t index) { return *domains_[index]; }
  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }

  /// Links two domains: an eBGP peering plus a mirroring BGMP peering
  /// between border `a_border` of `a` and border `b_border` of `b`.
  void link(Domain& a, Domain& b,
            bgp::Relationship a_sees_b = bgp::Relationship::kLateral,
            std::size_t a_border = 0, std::size_t b_border = 0,
            net::SimTime latency = net::SimTime::milliseconds(10),
            bgp::ExportPolicy a_export = bgp::ExportPolicy::kAdvertiseAll,
            bgp::ExportPolicy b_export = bgp::ExportPolicy::kAdvertiseAll);

  /// Takes every link between two domains down (or back up): the eBGP and
  /// BGMP sessions reset, and any MASC peering between the pair partitions
  /// too (its messages hold and flush on heal — the outage the waiting
  /// period spans); routes flush, trees repair once BGP reconverges.
  /// Throws std::invalid_argument if the domains are not linked.
  void set_link_state(const Domain& a, const Domain& b, bool up);

  /// Takes every link and MASC peering touching `d` down (or back up) —
  /// a whole-domain partition.
  void set_domain_connectivity(const Domain& d, bool up);

  /// Crash-restarts a domain: every channel touching it bounces (sessions
  /// reset, in-flight messages die), its BGMP soft state vanishes, and on
  /// restart local membership is re-expressed so trees re-converge.
  /// Channels that were already down (an ongoing partition) stay down.
  void crash_restart_domain(Domain& d);

  /// MASC hierarchy wiring.
  void masc_parent(Domain& child, Domain& parent);
  void masc_siblings(Domain& a, Domain& b);

  /// The recorded MASC peerings, for partition control and for the
  /// invariant checkers to reconstruct the allocation hierarchy.
  struct MascPeering {
    Domain* a;
    Domain* b;
    /// What b is to a: kParent (a claims from b's space) or kSibling.
    masc::MascNode::PeerKind b_is;
    net::ChannelId channel;
  };
  [[nodiscard]] const std::vector<MascPeering>& masc_peerings() const {
    return masc_peerings_;
  }

  /// The quiescence watcher feeding `core.convergence_latency`. It is armed
  /// automatically on perturbations — set_link_state(), and link()/
  /// add_domain() once the simulation has started running — and records one
  /// time-to-converge sample when the network goes quiet. Arm it manually
  /// for other perturbations (e.g. an address-range collision injected by a
  /// test).
  [[nodiscard]] net::ConvergenceProbe& convergence_probe() { return *probe_; }

  /// Installs a wall-clock profiler on the event queue: every executed
  /// event's handler duration is recorded into a per-tag histogram
  /// `sim.step_wall_seconds.<tag>` ("net.deliver", "masc.waiting_period",
  /// ...). Off by default because it adds two clock reads per event.
  void enable_step_profiling();

  /// Runs the event queue to exhaustion (BGP/BGMP/MASC all settle; MASC
  /// waiting periods advance simulated time as needed).
  void settle(std::uint64_t max_events = 50'000'000);
  void run_until(net::SimTime t);

  /// Observer for every data delivery to a domain's members.
  using DeliveryObserver = std::function<void(const Delivery&)>;
  void set_delivery_observer(DeliveryObserver observer) {
    observer_ = std::move(observer);
  }
  void report_delivery(const Delivery& delivery);

  /// Maps a unicast address to the domain owning it (source attribution).
  [[nodiscard]] Domain* domain_of_address(net::Ipv4Addr addr) const;
  void register_unicast_prefix(const net::Prefix& prefix, Domain& domain);

  /// Hop distance between two domains on the currently-up link graph
  /// (topology::kUnreachable if partitioned). Backed by one cached BFS
  /// tree per queried domain; a link event drops the cache and the next
  /// query rebuilds. Pair-level: a multi-border pair counts as one edge,
  /// up whenever set_link_state last raised it.
  [[nodiscard]] std::uint32_t domain_hops(const Domain& a, const Domain& b);

  /// The domain-level hop-distance cache (stats and direct queries).
  [[nodiscard]] topology::DynamicPaths& domain_paths() {
    return domain_paths_;
  }

  /// Builds single-border-router domains for every node of `graph` and
  /// links them laterally along its edges — the evaluation substrate for
  /// the Figure-4 experiments. Returns the domains indexed by node id.
  std::vector<Domain*> build_from_graph(
      const topology::Graph& graph,
      migp::Protocol protocol = migp::Protocol::kDvmrp);

 private:
  struct Link {
    const Domain* a;
    const Domain* b;
    net::ChannelId bgp_channel;
    net::ChannelId bgmp_channel;
  };

  /// `d`'s node in domain_paths_; throws std::out_of_range for a domain
  /// of another Internet.
  [[nodiscard]] topology::NodeId node_of(const Domain& d) const;

  net::EventQueue events_;
  net::Network network_;
  net::Rng rng_;
  obs::Counter* deliveries_;  // core.deliveries in the network's registry
  /// Convergence watcher over the whole simulated internet (declared after
  /// network_: it registers itself as an activity listener).
  std::unique_ptr<net::ConvergenceProbe> probe_;
  /// Per-event-tag wall-clock histograms, populated only after
  /// enable_step_profiling(). Keyed by the tag's (stable, literal) pointer.
  std::map<std::string, obs::Histogram*, std::less<>> step_histograms_;
  std::vector<Link> links_;
  std::vector<MascPeering> masc_peerings_;
  std::vector<std::unique_ptr<Domain>> domains_;
  /// Domain-level link graph with cached BFS distances, mirroring
  /// add_domain()/link()/set_link_state(). Domain::index() is the node id.
  topology::DynamicPaths domain_paths_;
  net::PrefixMap<Domain*> unicast_map_;
  DeliveryObserver observer_;
};

}  // namespace core
