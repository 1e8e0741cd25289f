// Figure 1 walk-through: MASC address allocation across the paper's
// 8-domain hierarchy, including a claim collision and its resolution.
//
//   Backbones:  A, D, E  (top-level; claim from 224/4)
//   Regionals:  B, C     (children of A)
//   Leaves:     F, G     (customers of B and C)
//
// B and C claim sub-ranges of A's space at the same instant with the
// deterministic first-fit strategy — so they pick the SAME range. C (the
// earlier/lower-id claimant rule) wins; B hears a collision announcement,
// gives up the claim and picks a different range, exactly the §4.1 story.
#include <iostream>

#include "core/domain.hpp"
#include "core/internet.hpp"

namespace {

void show_pool(const core::Domain& d, const masc::MascNode& node) {
  std::cout << "  " << d.name() << " holds:";
  if (node.pool().prefixes().empty()) std::cout << " (nothing)";
  for (const masc::ClaimedPrefix& p : node.pool().prefixes()) {
    std::cout << " " << p.prefix.to_string();
  }
  std::cout << "  [" << node.collisions_suffered() << " collision(s)]\n";
}

}  // namespace

int main() {
  core::Internet net;
  net.network().stream().set_level(obs::Level::kInfo);  // narrate the exchange

  core::Domain& a = net.add_domain({.id = 10, .name = "A"});
  core::Domain& b = net.add_domain({.id = 20, .name = "B"});
  core::Domain& c = net.add_domain({.id = 30, .name = "C"});
  core::Domain& d = net.add_domain({.id = 40, .name = "D"});
  core::Domain& e = net.add_domain({.id = 50, .name = "E"});
  core::Domain& f = net.add_domain({.id = 60, .name = "F"});
  core::Domain& g = net.add_domain({.id = 70, .name = "G"});

  // Inter-domain links as in Figure 1.
  net.link(a, d);
  net.link(a, e);
  net.link(d, e);
  net.link(b, a, bgp::Relationship::kProvider);
  net.link(c, a, bgp::Relationship::kProvider);
  net.link(f, b, bgp::Relationship::kProvider);
  net.link(g, c, bgp::Relationship::kProvider);

  // MASC hierarchy: backbones are siblings at the top level; B and C are
  // A's children; F and G claim from B and C.
  net.masc_siblings(a, d);
  net.masc_siblings(a, e);
  net.masc_siblings(d, e);
  net.masc_parent(b, a);
  net.masc_parent(c, a);
  net.masc_parent(f, b);
  net.masc_parent(g, c);
  for (core::Domain* dom : {&a, &b, &c, &d, &e, &f, &g}) {
    dom->announce_unicast();
  }
  a.masc_node().set_spaces({net::multicast_space()});
  d.masc_node().set_spaces({net::multicast_space()});
  e.masc_node().set_spaces({net::multicast_space()});

  std::cout << "== Backbones claim from 224.0.0.0/4 ==\n";
  a.masc_node().request_space(65536);  // the paper's 224.0.0.0/16-sized range
  d.masc_node().request_space(65536);
  e.masc_node().request_space(65536);
  net.settle();
  for (core::Domain* dom : {&a, &d, &e}) show_pool(*dom, dom->masc_node());

  std::cout << "\n== B and C claim simultaneously -> collision ==\n";
  b.masc_node().request_space(256);
  c.masc_node().request_space(256);
  net.settle();
  show_pool(b, b.masc_node());
  show_pool(c, c.masc_node());

  std::cout << "\n== F and G claim from B's and C's ranges ==\n";
  f.masc_node().request_space(128);
  g.masc_node().request_space(128);
  net.settle();
  show_pool(f, f.masc_node());
  show_pool(g, g.masc_node());

  std::cout << "\n== G-RIB at each domain (group routes in BGP) ==\n";
  for (core::Domain* dom : {&a, &b, &c, &d, &e, &f, &g}) {
    std::cout << "  " << dom->name() << ":";
    for (const auto& [prefix, route] :
         dom->speaker().rib(bgp::RouteType::kGroup).best_routes()) {
      std::cout << " " << prefix.to_string() << "(AS" << route.origin_as
                << ")";
    }
    std::cout << "\n";
  }
  std::cout << "\nNote how D and E see only the backbones' aggregates: the\n"
               "children's more-specific ranges are subsumed (§4.3.2).\n";
  return 0;
}
