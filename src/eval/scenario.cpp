#include "eval/scenario.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "net/prefix.hpp"
#include "workload/session.hpp"

namespace eval {

namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ull;
}

/// splitmix64 finalizer: spreads each per-entry FNV hash over all 64 bits
/// before path_digest and tree_digest add it to their sums.
std::uint64_t finalize(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

std::uint64_t name_hash(const char* name) {
  std::uint64_t h = kFnvBasis;
  for (; *name != '\0'; ++name) fnv_mix(h, static_cast<unsigned char>(*name));
  return h;
}

/// Seeds one entry's hash with its holder: domain id and border index.
std::uint64_t holder_hash(std::uint64_t tag, const core::Domain& d,
                          std::size_t border) {
  std::uint64_t h = kFnvBasis;
  fnv_mix(h, tag);
  fnv_mix(h, d.id());
  fnv_mix(h, border);
  return h;
}

void mix_target(std::uint64_t& h, const bgmp::TargetKey& target) {
  fnv_mix(h, static_cast<std::uint64_t>(target.kind));
  fnv_mix(h, target.order);
}

template <typename Entry>
void mix_targets(std::uint64_t& h, const Entry& entry) {
  // No parent hashes apart from any target: kind values are 0 and 1.
  if (entry.parent.has_value()) {
    mix_target(h, *entry.parent);
  } else {
    fnv_mix(h, 0xFF);
  }
  // TargetList keeps its children sorted by (kind, order).
  fnv_mix(h, entry.children.size());
  for (const auto& [target, refs] : entry.children) mix_target(h, target);
}

}  // namespace

int ScenarioSpec::effective_tops() const {
  int tops = std::max(2, domains / 8);
  if (max_tops > 0) tops = std::min(tops, max_tops);
  return tops;
}

int ScenarioSpec::effective_groups() const {
  return groups > 0 ? groups : std::max(1, domains / 4);
}

BuiltScenario build_scenario(core::Internet& net, const ScenarioSpec& spec) {
  BuiltScenario topo;
  const int tops = spec.effective_tops();
  const std::size_t active_cap =
      spec.active_children > 0
          ? static_cast<std::size_t>(spec.active_children)
          : static_cast<std::size_t>(spec.domains);
  for (int i = 0; i < spec.domains; ++i) {
    const bool is_top = i < tops;
    std::string name = is_top ? "T" : "C";
    name += std::to_string(i + 1);
    core::Domain& d = net.add_domain(
        {.id = static_cast<bgp::DomainId>(i + 1), .name = std::move(name)});
    if (is_top || topo.children.size() < active_cap) d.announce_unicast();
    (is_top ? topo.tops : topo.children).push_back(&d);
  }
  const auto link = [&](core::Domain& a, core::Domain& b,
                        bgp::Relationship rel) {
    net.link(a, b, rel);
    if (spec.record_links) topo.links.emplace_back(&a, &b);
  };
  // Backbone ring of top-level domains (chords shorten paths); children
  // hang off them round-robin as customers and MASC children.
  for (int i = 0; i < tops; ++i) {
    link(*topo.tops[i], *topo.tops[(i + 1) % tops],
         bgp::Relationship::kLateral);
    if (tops > 2 && i + 2 < tops) {
      link(*topo.tops[i], *topo.tops[i + 2], bgp::Relationship::kLateral);
    }
  }
  for (std::size_t i = 0; i < topo.children.size(); ++i) {
    core::Domain& parent = *topo.tops[i % static_cast<std::size_t>(tops)];
    link(parent, *topo.children[i], bgp::Relationship::kCustomer);
    // Only active children take part in the MASC hierarchy: the rest
    // never claim, so the peering would be dead wiring at 10k domains.
    if (i < active_cap) net.masc_parent(*topo.children[i], parent);
  }
  // Tops all claim from the shared 224/4, so each must hear the others'
  // claims: a full sibling mesh (§4.4's exchange-point role). This is the
  // O(tops²) term `max_tops` exists to bound.
  for (int i = 0; i < tops; ++i) {
    for (int j = i + 1; j < tops; ++j) {
      net.masc_siblings(*topo.tops[i], *topo.tops[j]);
    }
  }
  topo.active.assign(
      topo.children.begin(),
      topo.children.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(active_cap, topo.children.size())));
  return topo;
}

void phase_claim(core::Internet& net, const BuiltScenario& topo) {
  for (core::Domain* t : topo.tops) {
    t->masc_node().set_spaces({net::multicast_space()});
    t->masc_node().request_space(65536);
  }
  net.settle();
  for (core::Domain* c : topo.active) c->masc_node().request_space(256);
  net.settle();
}

net::Rng make_workload_rng(std::uint64_t seed) {
  return net::Rng(seed * 7919 + 17);
}

std::vector<LiveGroup> phase_groups(core::Internet& net,
                                    const ScenarioSpec& spec,
                                    const BuiltScenario& topo,
                                    net::Rng& rng) {
  const int groups = spec.effective_groups();
  std::vector<LiveGroup> live;
  for (int g = 0; g < groups && !topo.active.empty(); ++g) {
    const std::size_t pick = static_cast<std::size_t>(g) % topo.active.size();
    core::Domain* initiator = topo.active[pick];
    auto lease = initiator->create_group();
    if (!lease.has_value()) {
      net.settle();  // claim path is asynchronous; retry once settled
      lease = initiator->create_group();
    }
    if (lease.has_value()) {
      // Domains were added tops-first, so child k is domain tops+k.
      live.push_back(
          {initiator, topo.tops.size() + pick, lease->address, {}});
    }
  }
  net.settle();
  for (LiveGroup& l : live) {
    for (int j = 0; j < spec.joins; ++j) {
      // One draw per pick whether or not it lands, so the stream replays
      // identically across harnesses and refactors.
      const std::size_t pick = rng.index(net.domain_count());
      if (spec.track_members) {
        if (pick == l.root_index) continue;
        if (!l.members.insert(pick).second) continue;
        net.domain(pick).host_join(l.group);
      } else {
        core::Domain& member = net.domain(pick);
        if (&member != l.root) member.host_join(l.group);
      }
    }
  }
  net.settle();
  for (const LiveGroup& l : live) l.root->send(l.group);
  net.settle();
  return live;
}

void phase_flap(core::Internet& net, const ScenarioSpec& spec,
                const BuiltScenario& topo) {
  const int tops = static_cast<int>(topo.tops.size());
  for (int i = 0; i + 1 < tops; i += 2) {
    if (spec.flap_pairs > 0 && i / 2 >= spec.flap_pairs) break;
    net.set_link_state(*topo.tops[i], *topo.tops[i + 1], false);
    net.settle();
    net.set_link_state(*topo.tops[i], *topo.tops[i + 1], true);
    net.settle();
  }
}

std::unique_ptr<workload::Session> phase_workload(core::Internet& net,
                                                  const ScenarioSpec& spec,
                                                  const BuiltScenario& topo) {
  if (!spec.workload.enabled || topo.active.empty() ||
      net.domain_count() < 2) {
    return nullptr;
  }
  // Round-robin leasing over the active children, like phase_groups —
  // this IS the MAAS address-request load the workload models: thousands
  // of concurrent leases instead of the legacy hundred.
  std::vector<workload::GroupSite> sites;
  std::uint64_t failures = 0;
  for (int g = 0; g < spec.workload.groups; ++g) {
    const std::size_t pick = static_cast<std::size_t>(g) % topo.active.size();
    core::Domain* initiator = topo.active[pick];
    auto lease = initiator->create_group();
    if (!lease.has_value()) {
      net.settle();  // claim path is asynchronous; retry once settled
      lease = initiator->create_group();
    }
    if (lease.has_value()) {
      // Domains were added tops-first, so child k is domain tops+k.
      sites.push_back({topo.tops.size() + pick, lease->address});
    } else {
      ++failures;
    }
  }
  net.settle();
  if (sites.empty()) return nullptr;
  auto session = std::make_unique<workload::Session>(
      net, spec.workload, std::move(sites), spec.seed);
  session->set_lease_failures(failures);
  return session;
}

std::uint64_t rib_digest(core::Internet& net) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    core::Domain& d = net.domain(i);
    for (const bgp::RouteType type :
         {bgp::RouteType::kUnicast, bgp::RouteType::kGroup}) {
      d.speaker().rib(type).for_each_best(
          [&](const net::Prefix& p, const bgp::Candidate& c) {
            fnv_mix(h, p.base().value());
            fnv_mix(h, static_cast<std::uint64_t>(p.length()));
            fnv_mix(h, c.route.origin_as);
            fnv_mix(h, c.route.as_path.size());
          });
    }
  }
  return h;
}

std::uint64_t path_digest(core::Internet& net) {
  // Views are tagged by name, so renumbering RouteType moves nothing.
  // Neighbour AS of a local route: no real AS (ids are 16-bit here).
  constexpr std::uint64_t kLocalNeighbour = 0xFFFFFFFFull;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    core::Domain& d = net.domain(i);
    for (std::size_t b = 0; b < d.border_count(); ++b) {
      const bgp::Speaker& s = d.speaker(b);
      for (const bgp::RouteType type :
           {bgp::RouteType::kUnicast, bgp::RouteType::kGroup}) {
        const std::uint64_t tag = name_hash(bgp::to_string(type));
        s.rib(type).for_each_best(
            [&](const net::Prefix& p, const bgp::Candidate& c) {
              std::uint64_t h = holder_hash(tag, d, b);
              fnv_mix(h, p.base().value());
              fnv_mix(h, static_cast<std::uint64_t>(p.length()));
              fnv_mix(h, c.route.origin_as);
              fnv_mix(h, c.via == bgp::kLocalPeer
                             ? kLocalNeighbour
                             : std::uint64_t{s.peer_speaker(c.via)->as()});
              fnv_mix(h, c.internal ? 1 : 0);
              fnv_mix(h, c.route.as_path.size());
              for (const bgp::DomainId hop : c.route.as_path) fnv_mix(h, hop);
              sum += finalize(h);
            });
      }
    }
  }
  return sum;
}

std::uint64_t tree_digest(core::Internet& net) {
  const std::uint64_t star_tag = name_hash("(*,G)");
  const std::uint64_t source_tag = name_hash("(S,G)");
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    core::Domain& d = net.domain(i);
    for (std::size_t b = 0; b < d.border_count(); ++b) {
      const bgmp::Router& r = d.bgmp_router(b);
      for (const auto& [group, entry] : r.star_entries()) {
        std::uint64_t h = holder_hash(star_tag, d, b);
        fnv_mix(h, group.value());
        mix_targets(h, entry);
        sum += finalize(h);
      }
      for (const auto& [key, entry] : r.source_entries()) {
        std::uint64_t h = holder_hash(source_tag, d, b);
        fnv_mix(h, key.source.value());
        fnv_mix(h, key.group.value());
        mix_targets(h, entry);
        sum += finalize(h);
      }
    }
  }
  return sum;
}

}  // namespace eval
