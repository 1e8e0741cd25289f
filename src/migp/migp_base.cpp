#include "migp/migp_base.hpp"

#include <algorithm>

namespace migp {

namespace {

/// The first (router, count) entry of a sorted per-group list whose router
/// is not below `r`.
template <typename Counts>
auto lower_bound_router(Counts& counts, RouterId r) {
  return std::lower_bound(
      counts.begin(), counts.end(), r,
      [](const auto& entry, RouterId key) { return entry.first < key; });
}

}  // namespace

MigpBase::MigpBase(topology::Graph graph, std::vector<RouterId> borders,
                   RpfExitFn rpf_exit)
    : graph_(std::move(graph)),
      borders_(std::move(borders)),
      border_set_(borders_.begin(), borders_.end()),
      rpf_exit_(std::move(rpf_exit)) {
  if (graph_.node_count() == 0) {
    throw std::invalid_argument("Migp: empty internal graph");
  }
  if (!graph_.connected()) {
    throw std::invalid_argument("Migp: internal graph must be connected");
  }
  for (const RouterId b : borders_) check_router(b);
}

void MigpBase::check_router(RouterId r) const {
  if (r >= graph_.node_count()) {
    throw std::out_of_range("Migp: bad router id " + std::to_string(r));
  }
}

void MigpBase::host_join(RouterId at, Group group) {
  check_router(at);
  const auto [g, created] = members_.try_emplace(group);
  auto& counts = g->second;
  const auto it = lower_bound_router(counts, at);
  if (it != counts.end() && it->first == at) {
    ++it->second;
  } else {
    counts.insert(it, {at, 1});
  }
  if (created && listener_ != nullptr) listener_->on_group_present(group);
}

void MigpBase::host_leave(RouterId at, Group group) {
  check_router(at);
  const auto g = members_.find(group);
  if (g == members_.end()) {
    throw std::logic_error("Migp::host_leave: no members for group");
  }
  const auto r = lower_bound_router(g->second, at);
  if (r == g->second.end() || r->first != at) {
    throw std::logic_error("Migp::host_leave: no member at router " +
                           std::to_string(at));
  }
  if (--r->second == 0) g->second.erase(r);
  if (g->second.empty()) {
    members_.erase(g);
    if (listener_ != nullptr) listener_->on_group_absent(group);
  }
}

bool MigpBase::has_members(Group group) const {
  return members_.contains(group);
}

bool MigpBase::router_has_members(RouterId at, Group group) const {
  check_router(at);
  const auto g = members_.find(group);
  if (g == members_.end()) return false;
  const auto r = lower_bound_router(g->second, at);
  return r != g->second.end() && r->first == at;
}

std::vector<Group> MigpBase::groups_with_members() const {
  std::vector<Group> groups;
  groups.reserve(members_.size());
  for (const auto& [group, routers] : members_) {
    (void)routers;
    groups.push_back(group);
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

void MigpBase::border_join(RouterId border, Group group) {
  check_router(border);
  if (!is_border(border)) {
    throw std::invalid_argument("Migp::border_join: not a border router");
  }
  std::vector<RouterId>& joined = border_joined_[group];
  const auto it = std::lower_bound(joined.begin(), joined.end(), border);
  if (it == joined.end() || *it != border) joined.insert(it, border);
}

void MigpBase::border_leave(RouterId border, Group group) {
  if (const auto g = border_joined_.find(group); g != border_joined_.end()) {
    std::vector<RouterId>& joined = g->second;
    const auto it = std::lower_bound(joined.begin(), joined.end(), border);
    if (it != joined.end() && *it == border) {
      joined.erase(it);
      if (joined.empty()) border_joined_.erase(g);
      return;
    }
  }
  throw std::logic_error("Migp::border_leave: border was not joined");
}

int MigpBase::unicast_hops(RouterId from, RouterId to) const {
  check_router(from);
  check_router(to);
  return static_cast<int>(tree_from(from).dist[to]);
}

std::set<RouterId> MigpBase::interested_routers(Group group) const {
  std::set<RouterId> out;
  if (const auto g = members_.find(group); g != members_.end()) {
    for (const auto& [router, count] : g->second) {
      (void)count;
      out.insert(router);
    }
  }
  if (const auto b = border_joined_.find(group); b != border_joined_.end()) {
    out.insert(b->second.begin(), b->second.end());
  }
  return out;
}

const topology::BfsTree& MigpBase::tree_from(RouterId root) const {
  const auto it = bfs_cache_.find(root);
  if (it != bfs_cache_.end()) return it->second;
  return bfs_cache_.emplace(root, topology::bfs(graph_, root)).first->second;
}

void MigpBase::classify(RouterId router, Group group, RouterId injected_at,
                        DataDelivery& out) const {
  if (router_has_members(router, group)) {
    if (std::find(out.member_routers.begin(), out.member_routers.end(),
                  router) == out.member_routers.end()) {
      out.member_routers.push_back(router);
    }
  }
  if (router != injected_at && is_border(router)) {
    const auto b = border_joined_.find(group);
    const bool joined =
        b != border_joined_.end() &&
        std::binary_search(b->second.begin(), b->second.end(), router);
    if (joined && std::find(out.border_routers.begin(),
                            out.border_routers.end(),
                            router) == out.border_routers.end()) {
      out.border_routers.push_back(router);
    }
  }
}

void MigpBase::deliver_along_paths(RouterId root,
                                   const std::set<RouterId>& targets,
                                   Group group, RouterId injected_at,
                                   DataDelivery& out) const {
  const topology::BfsTree& tree = tree_from(root);
  // The union of root→target paths, counted edge by edge (shared segments
  // once, as multicast would).
  std::set<RouterId> on_paths;
  for (const RouterId t : targets) {
    for (RouterId cur = t; !on_paths.contains(cur);
         cur = tree.parent[cur]) {
      on_paths.insert(cur);
      if (cur == root) break;
    }
  }
  for (const RouterId r : on_paths) {
    if (r != root) ++out.internal_hops;  // one tree edge above each node
    classify(r, group, injected_at, out);
  }
  classify(root, group, injected_at, out);
}

RouterId MigpBase::rpf_exit_for(net::Ipv4Addr source) const {
  if (!rpf_exit_) {
    throw std::logic_error("Migp: external source but no RPF resolver");
  }
  return rpf_exit_(source);
}

}  // namespace migp
