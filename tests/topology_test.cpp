// Tests for the topology module: graphs, BFS/rooted trees, and the
// generators that stand in for the paper's simulated internetworks.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "net/rng.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"
#include "topology/paths.hpp"

namespace topology {
namespace {

// ------------------------------------------------------------------- Graph

TEST(Graph, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.node_count(), 3u);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.add_node(), 3u);
}

TEST(Graph, RejectsSelfLoopsDuplicatesAndBadIds) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(9), std::out_of_range);
}

TEST(Graph, EdgesListsEachEdgeOnce) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(3, 0);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), 3u);
  for (const auto& [a, b] : edges) EXPECT_LT(a, b);
}

TEST(Graph, ConnectivityCheck) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(g.connected());
  g.add_edge(2, 3);
  EXPECT_TRUE(g.connected());
  EXPECT_TRUE(Graph{}.connected());
}

// --------------------------------------------------------------------- BFS

// A 6-node graph with a known distance structure:
//   0-1, 1-2, 2-3, 0-4, 4-3, 5 isolated-ish via 3
Graph diamond() {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 4);
  g.add_edge(4, 3);
  g.add_edge(3, 5);
  return g;
}

TEST(Bfs, ComputesHopDistances) {
  const Graph g = diamond();
  const BfsTree t = bfs(g, 0);
  EXPECT_EQ(t.dist[0], 0u);
  EXPECT_EQ(t.dist[1], 1u);
  EXPECT_EQ(t.dist[2], 2u);
  EXPECT_EQ(t.dist[3], 2u);  // via 4
  EXPECT_EQ(t.dist[4], 1u);
  EXPECT_EQ(t.dist[5], 3u);
  EXPECT_EQ(t.parent[0], 0u);
}

TEST(Bfs, PathFromSourceFollowsParents) {
  const Graph g = diamond();
  const BfsTree t = bfs(g, 0);
  const auto path = path_from_source(t, 5);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 5u);
  // Each consecutive pair must be an edge.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(Bfs, UnreachableNodesReported) {
  Graph g(3);
  g.add_edge(0, 1);
  const BfsTree t = bfs(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(path_from_source(t, 2).empty());
}

TEST(RootedTree, DepthParentLcaDistance) {
  const Graph g = diamond();
  const RootedTree tree(bfs(g, 3));  // rooted at 3
  EXPECT_EQ(tree.root(), 3u);
  EXPECT_EQ(tree.depth(3), 0u);
  EXPECT_EQ(tree.depth(5), 1u);
  EXPECT_EQ(tree.lca(5, 5), 5u);
  // 2 and 4 are both children of 3 in the BFS tree.
  EXPECT_EQ(tree.lca(2, 4), 3u);
  EXPECT_EQ(tree.distance(2, 4), 2u);
  EXPECT_EQ(tree.distance(3, 5), 1u);
  EXPECT_EQ(tree.distance(5, 5), 0u);
}

TEST(RootedTree, ThrowsOnOutOfTreeNodes) {
  Graph g(3);
  g.add_edge(0, 1);
  const RootedTree tree(bfs(g, 0));
  EXPECT_THROW((void)tree.depth(2), std::out_of_range);
  EXPECT_THROW((void)tree.parent(2), std::out_of_range);
}

// Property: on a random connected graph, RootedTree::distance(a, b) is a
// valid walk length: >= BFS distance, and consistent with depth arithmetic.
TEST(RootedTreeProperty, TreeDistanceBoundsShortestPath) {
  net::Rng rng(11);
  const Graph g = make_as_level(200, 2, rng);
  const BfsTree from_root = bfs(g, 0);
  const RootedTree tree(from_root);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<NodeId>(rng.index(g.node_count()));
    const auto b = static_cast<NodeId>(rng.index(g.node_count()));
    const BfsTree from_a = bfs(g, a);
    ASSERT_GE(tree.distance(a, b), from_a.dist[b]);
  }
}

// -------------------------------------------------------------- Hierarchy

TEST(Hierarchy, PaperConfigurationShape) {
  net::Rng rng(1);
  const Hierarchy h =
      make_masc_hierarchy({.top_level = 50, .children_per_top = 50}, rng);
  EXPECT_EQ(h.domain_count(), 50u + 50u * 50u);
  EXPECT_EQ(h.top_level.size(), 50u);
  // Every non-top domain has a parent one level up, and a parent-child edge.
  for (NodeId n = 0; n < h.domain_count(); ++n) {
    if (h.level[n] == 0) {
      EXPECT_FALSE(h.parent[n].has_value());
    } else {
      ASSERT_TRUE(h.parent[n].has_value());
      EXPECT_EQ(h.level[*h.parent[n]], h.level[n] - 1);
      EXPECT_TRUE(h.graph.has_edge(n, *h.parent[n]));
    }
  }
  EXPECT_TRUE(h.graph.connected());
}

TEST(Hierarchy, SiblingsOfChildAndTopLevel) {
  net::Rng rng(2);
  const Hierarchy h =
      make_masc_hierarchy({.top_level = 3, .children_per_top = 4}, rng);
  const NodeId top = h.top_level[0];
  EXPECT_EQ(h.siblings(top).size(), 2u);
  const NodeId child = h.children[top][0];
  const auto sibs = h.siblings(child);
  EXPECT_EQ(sibs.size(), 3u);
  for (const NodeId s : sibs) {
    EXPECT_EQ(h.parent[s], h.parent[child]);
    EXPECT_NE(s, child);
  }
}

TEST(Hierarchy, ThreeLevelVariant) {
  net::Rng rng(3);
  const Hierarchy h = make_masc_hierarchy(
      {.top_level = 4, .children_per_top = 3, .grandchildren_per_child = 2},
      rng);
  EXPECT_EQ(h.domain_count(), 4u + 12u + 24u);
  int grand = 0;
  for (NodeId n = 0; n < h.domain_count(); ++n) {
    if (h.level[n] == 2) ++grand;
  }
  EXPECT_EQ(grand, 24);
}

TEST(Hierarchy, HeterogeneousVariantVariesFanout) {
  net::Rng rng(4);
  const Hierarchy h = make_masc_hierarchy(
      {.top_level = 20, .children_per_top = 10, .heterogeneous = true}, rng);
  std::size_t min_c = SIZE_MAX;
  std::size_t max_c = 0;
  for (const NodeId t : h.top_level) {
    min_c = std::min(min_c, h.children[t].size());
    max_c = std::max(max_c, h.children[t].size());
  }
  EXPECT_LT(min_c, max_c);  // not all equal
  EXPECT_GE(min_c, 1u);
  EXPECT_LE(max_c, 19u);
}

TEST(Hierarchy, ExtraLinksStayWithinGraph) {
  net::Rng rng(5);
  const Hierarchy h = make_masc_hierarchy({.top_level = 5,
                                           .children_per_top = 10,
                                           .extra_links_per_100 = 20},
                                          rng);
  // base edges: C(5,2)=10 backbone + 50 parent-child = 60; extra = 11.
  EXPECT_GT(h.graph.edge_count(), 60u);
  EXPECT_TRUE(h.graph.connected());
}

// -------------------------------------------------------------- Generators

TEST(AsLevel, HasRequestedSizeAndIsConnected) {
  net::Rng rng(6);
  const Graph g = make_as_level(3326, 2, rng);
  EXPECT_EQ(g.node_count(), 3326u);
  EXPECT_TRUE(g.connected());
  // BA with m=2: |E| = C(3,2) + (n-3)*2
  EXPECT_EQ(g.edge_count(), 3u + (3326u - 3u) * 2u);
}

TEST(AsLevel, DegreeDistributionIsSkewed) {
  net::Rng rng(7);
  const Graph g = make_as_level(2000, 2, rng);
  std::size_t max_degree = 0;
  std::size_t degree_sum = 0;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    max_degree = std::max(max_degree, g.degree(n));
    degree_sum += g.degree(n);
  }
  const double mean = static_cast<double>(degree_sum) /
                      static_cast<double>(g.node_count());
  // Hubs should be far above the mean — the signature of the AS graph.
  EXPECT_GT(static_cast<double>(max_degree), 10.0 * mean);
}

TEST(AsLevel, ShortMeanPaths) {
  net::Rng rng(8);
  const Graph g = make_as_level(3326, 2, rng);
  const BfsTree t = bfs(g, 0);
  const double mean =
      std::accumulate(t.dist.begin(), t.dist.end(), 0.0) /
      static_cast<double>(g.node_count());
  // The 1998 AS graph had mean inter-domain path lengths around 3-5 hops.
  EXPECT_LT(mean, 7.0);
}

TEST(AsLevel, RejectsDegenerateParams) {
  net::Rng rng(9);
  EXPECT_THROW((void)make_as_level(5, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)make_as_level(2, 2, rng), std::invalid_argument);
}

TEST(AsLevel, DeterministicPerSeed) {
  net::Rng a(10), b(10);
  const Graph g1 = make_as_level(500, 2, a);
  const Graph g2 = make_as_level(500, 2, b);
  EXPECT_EQ(g1.edges(), g2.edges());
}

TEST(TransitStub, ShapeAndConnectivity) {
  net::Rng rng(11);
  const Graph g = make_transit_stub({}, rng);
  EXPECT_EQ(g.node_count(), 26u + 26u * 127u);
  EXPECT_TRUE(g.connected());
}

TEST(TransitStub, StubsHaveLowDegree) {
  net::Rng rng(12);
  const TransitStubParams params{.transit_domains = 5,
                                 .stubs_per_transit = 10,
                                 .stub_multihome_prob = 0.0};
  const Graph g = make_transit_stub(params, rng);
  for (NodeId n = 5; n < g.node_count(); ++n) {
    EXPECT_EQ(g.degree(n), 1u);
  }
}

TEST(LoadEdgeList, ParsesCommentsAndCompactsIds) {
  std::istringstream in(
      "# AS-level edge list\n"
      "100 200\n"
      "200 300  # inline comment\n"
      "\n"
      "100 300\n");
  const Graph g = load_edge_list(in);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.connected());
}

TEST(LoadEdgeList, IgnoresDuplicateAndSelfEdges) {
  std::istringstream in("1 2\n2 1\n1 1\n");
  const Graph g = load_edge_list(in);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(LoadEdgeList, RejectsMalformedLines) {
  std::istringstream in("1\n");
  EXPECT_THROW((void)load_edge_list(in), std::invalid_argument);
}

// ----------------------------------------------------------- DynamicPaths

TEST(Graph, RemoveEdge) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.remove_edge(1, 2);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_THROW(g.remove_edge(1, 2), std::invalid_argument);
}

TEST(DynamicPaths, MatchesBfsOnStaticGraph) {
  // Ring of 12 plus chords — the macro_scenario backbone shape.
  constexpr NodeId n = 12;
  Graph g(n);
  DynamicPaths dyn;
  for (NodeId i = 0; i < n; ++i) dyn.add_node();
  const auto both = [&](NodeId a, NodeId b) {
    g.add_edge(a, b);
    dyn.add_edge(a, b);
  };
  for (NodeId i = 0; i < n; ++i) both(i, (i + 1) % n);
  for (NodeId i = 0; i < n; i += 3) both(i, (i + 2) % n);
  for (NodeId s = 0; s < n; ++s) {
    const BfsTree t = bfs(g, s);
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(dyn.dist(s, v), t.dist[v]);
  }
  EXPECT_EQ(dyn.stats().full_builds, n);
}

TEST(DynamicPaths, DisconnectionAndReconnection) {
  DynamicPaths dyn;
  for (int i = 0; i < 4; ++i) dyn.add_node();
  dyn.add_edge(0, 1);
  dyn.add_edge(1, 2);
  dyn.add_edge(2, 3);
  EXPECT_EQ(dyn.dist(0, 3), 3u);
  dyn.set_edge_state(1, 2, false);
  EXPECT_EQ(dyn.dist(0, 1), 1u);
  EXPECT_EQ(dyn.dist(0, 2), kUnreachable);
  EXPECT_EQ(dyn.dist(0, 3), kUnreachable);
  dyn.set_edge_state(1, 2, true);
  EXPECT_EQ(dyn.dist(0, 3), 3u);
  // One build before the cut, one after it, one after the heal.
  EXPECT_EQ(dyn.stats().full_builds, 3u);
}

TEST(DynamicPaths, LinkChangeDropsTreesAndNextQueryRebuilds) {
  // Ring of 6: cutting 0-1 sends 0's traffic to 1 the long way round.
  constexpr NodeId n = 6;
  Graph oracle(n);
  DynamicPaths dyn;
  for (NodeId i = 0; i < n; ++i) dyn.add_node();
  for (NodeId i = 0; i < n; ++i) {
    oracle.add_edge(i, (i + 1) % n);
    dyn.add_edge(i, (i + 1) % n);
  }
  EXPECT_EQ(dyn.hops(0, 1), 1u);
  EXPECT_EQ(dyn.hops(1, 0), 1u);  // reuses 0's tree
  const std::uint64_t builds = dyn.stats().full_builds;
  EXPECT_EQ(builds, 1u);

  dyn.set_edge_state(0, 1, false);
  oracle.remove_edge(0, 1);
  EXPECT_EQ(dyn.hops(0, 1), bfs(oracle, 0).dist[1]);
  EXPECT_EQ(dyn.hops(0, 1), 5u);
  EXPECT_EQ(dyn.stats().full_builds, builds + 1);
  EXPECT_EQ(dyn.stats().nodes_touched, 2 * n);  // each build settles all

  dyn.set_edge_state(0, 1, false);  // no change: the tree survives
  EXPECT_EQ(dyn.hops(0, 1), 5u);
  EXPECT_EQ(dyn.stats().full_builds, builds + 1);
}

TEST(DynamicPaths, HopsAgreesWithDistAcrossManyCachedTrees) {
  // More cached trees than a ladder rung has sources (122), with only the
  // even nodes' trees cached up front: hops answers from whichever
  // endpoint holds a tree, in both argument orders, and builds only when
  // neither does.
  constexpr NodeId n = 160;
  net::Rng rng(11);
  Graph oracle(n);
  DynamicPaths dyn;
  for (NodeId i = 0; i < n; ++i) dyn.add_node();
  const auto both = [&](NodeId a, NodeId b) {
    if (a == b || oracle.has_edge(a, b)) return;
    oracle.add_edge(a, b);
    dyn.add_edge(a, b);
  };
  for (NodeId i = 0; i < n; ++i) both(i, (i + 1) % n);
  for (int i = 0; i < 80; ++i) {
    both(static_cast<NodeId>(rng.index(n)), static_cast<NodeId>(rng.index(n)));
  }
  const auto check_all = [&] {
    for (NodeId s = 0; s < n; s += 2) (void)dyn.dist(s, 0);
    const std::uint64_t builds = dyn.stats().full_builds;
    std::vector<BfsTree> truth;
    for (NodeId s = 0; s < n; ++s) truth.push_back(bfs(oracle, s));
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        ASSERT_EQ(dyn.hops(a, b), truth[a].dist[b]) << a << "-" << b;
        ASSERT_EQ(dyn.hops(b, a), truth[a].dist[b]) << b << "-" << a;
      }
    }
    // Each odd node's tree was built once, when hops first met two
    // endpoints without one; every other answer reused a cached tree.
    EXPECT_EQ(dyn.stats().full_builds, builds + n / 2);
    // With every tree cached, dist and hops agree in both orders.
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        ASSERT_EQ(dyn.dist(a, b), dyn.hops(b, a)) << a << "-" << b;
      }
    }
    EXPECT_EQ(dyn.stats().full_builds, builds + n / 2);
  };
  check_all();
  // An edge flip drops every tree; the rebuilt answers follow the cut.
  dyn.set_edge_state(0, 1, false);
  oracle.remove_edge(0, 1);
  check_all();
  dyn.set_edge_state(0, 1, true);
  oracle.add_edge(0, 1);
  check_all();
}

TEST(DynamicPaths, OracleUnderRandomEdgeToggles) {
  // Maintain a plain Graph holding exactly the up edges; after every
  // toggle, every queried source's distances must equal a from-scratch BFS
  // on that oracle (Graph::remove_edge exists for exactly this test).
  constexpr NodeId n = 24;
  net::Rng rng(7);
  Graph oracle(n);
  DynamicPaths dyn;
  for (NodeId i = 0; i < n; ++i) dyn.add_node();
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (b == a + 1 || rng.index(5) == 0) edges.emplace_back(a, b);
    }
  }
  std::vector<bool> up(edges.size(), true);
  for (const auto& [a, b] : edges) {
    oracle.add_edge(a, b);
    dyn.add_edge(a, b);
  }
  const NodeId sources[] = {0, n / 2, n - 1};
  const std::uint64_t events_before = dyn.stats().edge_events;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t e = rng.index(edges.size());
    const auto [a, b] = edges[e];
    up[e] = !up[e];
    if (up[e]) {
      oracle.add_edge(a, b);
    } else {
      oracle.remove_edge(a, b);
    }
    dyn.set_edge_state(a, b, up[e]);
    for (NodeId s : sources) {
      const BfsTree t = bfs(oracle, s);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(dyn.dist(s, v), t.dist[v])
            << "iter " << iter << " source " << s << " node " << v;
      }
    }
  }
  // Every toggle drops the trees, so each source rebuilds once per toggle.
  EXPECT_EQ(dyn.stats().full_builds, 300u * 3u);
  EXPECT_EQ(dyn.stats().edge_events, events_before + 300);
}

}  // namespace
}  // namespace topology
