// Shortest paths and rooted-tree utilities on domain graphs.
//
// Inter-domain path lengths in the paper are hop counts (§5.4: "the number
// of inter-domain hops in the path between them"), so BFS is the metric.
// The rooted trees produced here (BFS parent forests) model the reverse
// shortest-path trees that join messages trace toward a root domain.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topology/graph.hpp"

namespace topology {

inline constexpr std::uint32_t kUnreachable = UINT32_MAX;

/// The result of a BFS from one source: hop distances and parent pointers.
/// `parent[source] == source`; unreachable nodes have parent == kUnreachable.
struct BfsTree {
  NodeId source = 0;
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> parent;

  [[nodiscard]] bool reachable(NodeId n) const {
    return dist[n] != kUnreachable;
  }
};

/// BFS from `source`. Neighbors are explored in adjacency order, so results
/// are deterministic for a fixed graph construction order.
[[nodiscard]] BfsTree bfs(const Graph& graph, NodeId source);

/// The path source→…→n (inclusive) in a BFS tree; empty if unreachable.
[[nodiscard]] std::vector<NodeId> path_from_source(const BfsTree& tree,
                                                   NodeId n);

/// Hop distances over a graph whose links flap, cached per source.
///
/// Keeps one BFS distance vector per queried source. Any change to the
/// graph (a new node, a new edge, an edge going up or down) drops every
/// cached tree, and the next query from a source rebuilds its tree from
/// scratch on the active subgraph. Runs query distances (§5.4 delivery
/// stretch, workload edge load) in bursts between link changes, so a
/// rebuild is rare.
class DynamicPaths {
 public:
  /// Appends a node; returns its id.
  NodeId add_node();

  /// Adds an undirected edge, initially up. Throws on self-loops,
  /// unknown nodes, or duplicate edges.
  void add_edge(NodeId a, NodeId b);

  /// Marks an existing edge up or down, dropping every cached tree.
  /// No-op if the edge is already in the requested state.
  void set_edge_state(NodeId a, NodeId b, bool up);

  /// True if the edge exists (up or down). O(degree of `a`).
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;

  /// Hop distance from `source` to `target` on the active subgraph
  /// (kUnreachable if disconnected). Builds `source`'s tree if needed.
  [[nodiscard]] std::uint32_t dist(NodeId source, NodeId target);

  /// Distance between two nodes, reusing whichever endpoint's tree is
  /// cached (builds `a`'s if neither is).
  [[nodiscard]] std::uint32_t hops(NodeId a, NodeId b);

  /// Work counters: `full_builds` counts BFS tree builds, `edge_events`
  /// the up/down transitions applied, and `nodes_touched` the nodes the
  /// builds settle.
  struct Stats {
    std::uint64_t full_builds = 0;
    std::uint64_t edge_events = 0;
    std::uint64_t nodes_touched = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct HalfEdge {
    NodeId to;
    bool up;
  };
  struct Tree {
    NodeId source = 0;
    std::vector<std::uint32_t> dist;
  };

  static constexpr std::uint32_t kNoTree = UINT32_MAX;

  void check(NodeId n) const;
  Tree& tree_for(NodeId source);
  /// Drops every cached tree.
  void drop_trees();

  std::vector<std::vector<HalfEdge>> adjacency_;
  std::vector<Tree> trees_;
  /// Per node, the index of its tree in trees_ (kNoTree: none cached).
  std::vector<std::uint32_t> tree_of_;
  Stats stats_;
};

/// A rooted spanning forest given by parent pointers (parent[root] == root).
/// This is the shape of every shared tree in the library: each on-tree node
/// knows its next hop toward the root domain.
class RootedTree {
 public:
  /// Builds from a BFS result restricted to its reachable part.
  explicit RootedTree(const BfsTree& tree);

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] bool contains(NodeId n) const {
    return depth_[n] != kUnreachable;
  }
  /// Hops from `n` up to the root. Throws if `n` is not in the tree.
  [[nodiscard]] std::uint32_t depth(NodeId n) const;
  [[nodiscard]] NodeId parent(NodeId n) const;

  /// Lowest common ancestor of two in-tree nodes.
  [[nodiscard]] NodeId lca(NodeId a, NodeId b) const;

  /// Hop distance between two in-tree nodes along tree edges.
  [[nodiscard]] std::uint32_t distance(NodeId a, NodeId b) const;

 private:
  NodeId root_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> depth_;
};

}  // namespace topology
