// Shared machinery for MIGP implementations: the internal router graph,
// membership refcounts, border-router group state, BFS caching and
// delivery-path assembly.
#pragma once

#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "migp/migp.hpp"
#include "topology/graph.hpp"
#include "topology/paths.hpp"

namespace migp {

class MigpBase : public Migp {
 public:
  void set_listener(MembershipListener* listener) override {
    listener_ = listener;
  }

  void host_join(RouterId at, Group group) override;
  void host_leave(RouterId at, Group group) override;
  [[nodiscard]] bool has_members(Group group) const override;
  [[nodiscard]] bool router_has_members(RouterId at,
                                        Group group) const override;
  [[nodiscard]] std::vector<Group> groups_with_members() const override;

  void border_join(RouterId border, Group group) override;
  void border_leave(RouterId border, Group group) override;

  [[nodiscard]] int unicast_hops(RouterId from, RouterId to) const override;

 protected:
  /// `borders` lists which internal routers are border routers; `rpf_exit`
  /// resolves external sources to their best exit border router (may be
  /// empty for protocols that never RPF-check external sources).
  MigpBase(topology::Graph graph, std::vector<RouterId> borders,
           RpfExitFn rpf_exit);

  [[nodiscard]] std::size_t router_count() const {
    return graph_.node_count();
  }
  [[nodiscard]] bool is_border(RouterId r) const {
    return border_set_.contains(r);
  }
  void check_router(RouterId r) const;

  /// Routers that need the group's data: member routers plus borders with
  /// inter-domain (BGMP) group state.
  [[nodiscard]] std::set<RouterId> interested_routers(Group group) const;

  /// BFS tree rooted at `root`, cached (the internal graph is static).
  [[nodiscard]] const topology::BfsTree& tree_from(RouterId root) const;

  /// Walks the union of BFS paths root→each target, filling `out` with the
  /// delivery report (member/border classification, hop count). The
  /// injection router itself is never listed as a receiving border.
  void deliver_along_paths(RouterId root, const std::set<RouterId>& targets,
                           Group group, RouterId injected_at,
                           DataDelivery& out) const;

  /// Classifies `router` into the delivery report if it is interested.
  void classify(RouterId router, Group group, RouterId injected_at,
                DataDelivery& out) const;

  [[nodiscard]] RouterId rpf_exit_for(net::Ipv4Addr source) const;

  topology::Graph graph_;
  std::vector<RouterId> borders_;
  std::set<RouterId> border_set_;
  RpfExitFn rpf_exit_;
  MembershipListener* listener_ = nullptr;

  /// Per group: member refcount per router, sorted by router. A group is
  /// present iff some router has members. Hashed: only
  /// groups_with_members() walks it, and it sorts.
  std::unordered_map<Group, std::vector<std::pair<RouterId, int>>> members_;
  /// Per group: border routers holding BGMP group state, sorted. A group
  /// is present iff some border is joined.
  std::unordered_map<Group, std::vector<RouterId>> border_joined_;

 private:
  mutable std::map<RouterId, topology::BfsTree> bfs_cache_;
};

}  // namespace migp
