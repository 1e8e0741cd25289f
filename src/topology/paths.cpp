#include "topology/paths.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace topology {

BfsTree bfs(const Graph& graph, NodeId source) {
  const std::size_t n = graph.node_count();
  if (source >= n) throw std::out_of_range("bfs: bad source node");
  BfsTree tree;
  tree.source = source;
  tree.dist.assign(n, kUnreachable);
  tree.parent.assign(n, kUnreachable);
  tree.dist[source] = 0;
  tree.parent[source] = source;
  std::deque<NodeId> frontier{source};
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const NodeId v : graph.neighbors(u)) {
      if (tree.dist[v] == kUnreachable) {
        tree.dist[v] = tree.dist[u] + 1;
        tree.parent[v] = u;
        frontier.push_back(v);
      }
    }
  }
  return tree;
}

std::vector<NodeId> path_from_source(const BfsTree& tree, NodeId n) {
  if (n >= tree.dist.size()) {
    throw std::out_of_range("path_from_source: bad node");
  }
  if (!tree.reachable(n)) return {};
  std::vector<NodeId> path;
  path.reserve(tree.dist[n] + 1);
  for (NodeId cur = n; cur != tree.source; cur = tree.parent[cur]) {
    path.push_back(cur);
  }
  path.push_back(tree.source);
  std::reverse(path.begin(), path.end());
  return path;
}

// ----------------------------------------------------------- DynamicPaths

void DynamicPaths::check(NodeId n) const {
  if (n >= adjacency_.size()) {
    throw std::out_of_range("DynamicPaths: bad node id " + std::to_string(n));
  }
}

NodeId DynamicPaths::add_node() {
  adjacency_.emplace_back();
  drop_trees();
  tree_of_.push_back(kNoTree);
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void DynamicPaths::drop_trees() {
  for (const Tree& tree : trees_) tree_of_[tree.source] = kNoTree;
  trees_.clear();
}

void DynamicPaths::add_edge(NodeId a, NodeId b) {
  check(a);
  check(b);
  if (a == b) {
    throw std::invalid_argument("DynamicPaths::add_edge: self-loop at " +
                                std::to_string(a));
  }
  for (const HalfEdge& e : adjacency_[a]) {
    if (e.to == b) {
      throw std::invalid_argument("DynamicPaths::add_edge: duplicate edge " +
                                  std::to_string(a) + "-" + std::to_string(b));
    }
  }
  adjacency_[a].push_back({b, true});
  adjacency_[b].push_back({a, true});
  ++stats_.edge_events;
  drop_trees();
}

bool DynamicPaths::has_edge(NodeId a, NodeId b) const {
  check(a);
  check(b);
  for (const HalfEdge& e : adjacency_[a]) {
    if (e.to == b) return true;
  }
  return false;
}

void DynamicPaths::set_edge_state(NodeId a, NodeId b, bool up) {
  check(a);
  check(b);
  HalfEdge* forward = nullptr;
  for (HalfEdge& e : adjacency_[a]) {
    if (e.to == b) forward = &e;
  }
  if (forward == nullptr) {
    throw std::invalid_argument("DynamicPaths::set_edge_state: missing edge " +
                                std::to_string(a) + "-" + std::to_string(b));
  }
  if (forward->up == up) return;
  forward->up = up;
  for (HalfEdge& e : adjacency_[b]) {
    if (e.to == a) e.up = up;
  }
  ++stats_.edge_events;
  drop_trees();
}

DynamicPaths::Tree& DynamicPaths::tree_for(NodeId source) {
  check(source);
  if (tree_of_[source] != kNoTree) return trees_[tree_of_[source]];
  tree_of_[source] = static_cast<std::uint32_t>(trees_.size());
  Tree& tree = trees_.emplace_back();
  tree.source = source;
  tree.dist.assign(adjacency_.size(), kUnreachable);
  tree.dist[source] = 0;
  std::vector<NodeId> order{source};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NodeId u = order[i];
    for (const HalfEdge& e : adjacency_[u]) {
      if (e.up && tree.dist[e.to] == kUnreachable) {
        tree.dist[e.to] = tree.dist[u] + 1;
        order.push_back(e.to);
      }
    }
  }
  ++stats_.full_builds;
  stats_.nodes_touched += order.size();
  return tree;
}

std::uint32_t DynamicPaths::dist(NodeId source, NodeId target) {
  check(target);
  return tree_for(source).dist[target];
}

std::uint32_t DynamicPaths::hops(NodeId a, NodeId b) {
  check(a);
  check(b);
  // Distances are symmetric (every edge is up or down in both
  // directions), so either endpoint's tree answers.
  if (tree_of_[a] != kNoTree) return trees_[tree_of_[a]].dist[b];
  if (tree_of_[b] != kNoTree) return trees_[tree_of_[b]].dist[a];
  return dist(a, b);
}

RootedTree::RootedTree(const BfsTree& tree)
    : root_(tree.source), parent_(tree.parent), depth_(tree.dist) {}

std::uint32_t RootedTree::depth(NodeId n) const {
  if (n >= depth_.size() || depth_[n] == kUnreachable) {
    throw std::out_of_range("RootedTree::depth: node not in tree");
  }
  return depth_[n];
}

NodeId RootedTree::parent(NodeId n) const {
  if (n >= parent_.size() || parent_[n] == kUnreachable) {
    throw std::out_of_range("RootedTree::parent: node not in tree");
  }
  return parent_[n];
}

NodeId RootedTree::lca(NodeId a, NodeId b) const {
  std::uint32_t da = depth(a);
  std::uint32_t db = depth(b);
  while (da > db) {
    a = parent_[a];
    --da;
  }
  while (db > da) {
    b = parent_[b];
    --db;
  }
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
  }
  return a;
}

std::uint32_t RootedTree::distance(NodeId a, NodeId b) const {
  const NodeId anc = lca(a, b);
  return depth(a) + depth(b) - 2 * depth(anc);
}

}  // namespace topology
