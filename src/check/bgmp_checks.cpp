#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgmp/router.hpp"
#include "bgmp/types.hpp"
#include "check/invariant.hpp"
#include "core/internet.hpp"

namespace check {

namespace {

std::vector<bgmp::Router*> all_routers(core::Internet& net) {
  std::vector<bgmp::Router*> routers;
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    core::Domain& d = net.domain(i);
    for (std::size_t b = 0; b < d.border_count(); ++b) {
      routers.push_back(&d.bgmp_router(b));
    }
  }
  return routers;
}

/// The next router on the rootward walk implied by an entry's parent
/// target, or nullptr if the entry terminates here (self-rooted,
/// membership-only, or orphaned).
bgmp::Router* parent_hop(const bgmp::GroupEntry& entry) {
  if (!entry.parent) return nullptr;
  if (entry.parent->kind == bgmp::TargetKey::Kind::kPeer) {
    return entry.parent->peer;
  }
  return entry.parent_relay;  // nullptr = rooted at this domain
}

std::string group_subject(const bgmp::Router* router, bgmp::Group group) {
  return router->name() + " (*," + group.to_string() + ")";
}

}  // namespace

void BgmpBidirectionalInvariant::check(core::Internet& net,
                                       std::vector<Violation>& out) {
  for (bgmp::Router* router : all_routers(net)) {
    for (const auto& [group, entry] : router->star_entries()) {
      // Parent side: our external parent must list us as a child.
      if (entry.parent &&
          entry.parent->kind == bgmp::TargetKey::Kind::kPeer) {
        bgmp::Router* parent = entry.parent->peer;
        const bgmp::GroupEntry* theirs = parent->star_entry(group);
        if (theirs == nullptr ||
            !theirs->children.contains(bgmp::TargetKey::external(router))) {
          out.push_back(Violation{
              std::string(name()), group_subject(router, group),
              "joined parent " + parent->name() +
                  " but is not on its child list"});
        }
      }
      // Child side: every external child must point back at us as parent.
      for (const auto& [child, refcount] : entry.children) {
        if (child.kind != bgmp::TargetKey::Kind::kPeer) continue;
        (void)refcount;
        const bgmp::GroupEntry* theirs = child.peer->star_entry(group);
        const bgmp::TargetKey us = bgmp::TargetKey::external(router);
        if (theirs == nullptr || !theirs->parent || *theirs->parent != us) {
          out.push_back(Violation{
              std::string(name()), group_subject(router, group),
              "lists " + child.peer->name() +
                  " as a child, but that router's parent is elsewhere"});
        }
      }
    }
  }
}

void BgmpAcyclicInvariant::check(core::Internet& net,
                                 std::vector<Violation>& out) {
  // One pass collects, per group, the routers holding a (*,G) entry, in
  // router order. A router without one ends every chain that reaches it,
  // so only these can start, or lie on, a cycle.
  std::map<bgmp::Group, std::vector<const bgmp::Router*>> holders;
  for (const bgmp::Router* router : all_routers(net)) {
    for (const auto& [group, entry] : router->star_entries()) {
      (void)entry;
      holders[group].push_back(router);
    }
  }
  // Where a router's parent chain leads, shared by every walk of one
  // group, so each router is walked once: `cycle_entry` is the first
  // router the walk from here visits twice (nullptr: the chain ends).
  struct Fate {
    bool resolved = false;  // false while on the walk in progress
    bool on_cycle = false;
    bool implicated = false;  // on the walk of a reported cycle
    const bgmp::Router* cycle_entry = nullptr;
  };
  std::unordered_map<const bgmp::Router*, Fate> fates;
  std::vector<const bgmp::Router*> path;
  for (const auto& [group, routers] : holders) {
    const auto next = [group](const bgmp::Router* r) -> const bgmp::Router* {
      const bgmp::GroupEntry* entry = r->star_entry(group);
      return entry != nullptr ? parent_hop(*entry) : nullptr;
    };
    fates.clear();
    for (const bgmp::Router* start : routers) {
      // Walk until the chain ends, reaches a resolved router, or comes
      // back to this walk's own path (a cycle not seen before).
      path.clear();
      const bgmp::Router* walk = start;
      while (walk != nullptr && fates.try_emplace(walk).second) {
        path.push_back(walk);
        walk = next(walk);
      }
      const bgmp::Router* entry = nullptr;
      if (walk != nullptr) {
        const Fate& reached = fates[walk];
        if (!reached.resolved) {
          // A walk from any router on the cycle first revisits itself.
          const auto cycle = std::find(path.begin(), path.end(), walk);
          for (auto it = cycle; it != path.end(); ++it) {
            fates[*it] = Fate{true, true, false, *it};
          }
          path.erase(cycle, path.end());
          entry = walk;
        } else {
          entry = reached.on_cycle ? walk : reached.cycle_entry;
        }
      }
      for (const bgmp::Router* r : path) {
        fates[r] = Fate{true, false, false, entry};
      }
    }
    // Report in router order, one violation per walk that reaches a cycle
    // from a router no earlier reported walk passed through.
    for (const bgmp::Router* start : routers) {
      const Fate& fate = fates[start];
      if (fate.cycle_entry == nullptr || fate.implicated) continue;
      const bgmp::Router* at = fate.cycle_entry;
      out.push_back(Violation{std::string(name()), group_subject(at, group),
                              "parent chain cycles through " + at->name()});
      // Everything past an implicated router is implicated already.
      for (const bgmp::Router* r = start; !fates[r].implicated; r = next(r)) {
        fates[r].implicated = true;
      }
    }
  }
}

void BgmpGribAgreementInvariant::check(core::Internet& net,
                                       std::vector<Violation>& out) {
  // Resolve "the next hop toward the group's root domain" exactly as the
  // routers do (§5.2): a G-RIB lookup, external next hops becoming peer
  // parents, internal next hops a MIGP parent relayed through that router.
  std::map<const bgp::Speaker*, bgmp::Router*> by_speaker;
  for (bgmp::Router* router : all_routers(net)) {
    by_speaker[&router->speaker()] = router;
  }
  for (bgmp::Router* router : all_routers(net)) {
    for (const auto& [group, entry] : router->star_entries()) {
      const auto hit =
          router->speaker().lookup(bgp::RouteType::kGroup, group);
      if (!hit) {
        // No route toward any root: the entry may survive as an orphan
        // (membership with nowhere to join), but a peer parent without a
        // route is stale tree state.
        if (entry.parent &&
            entry.parent->kind == bgmp::TargetKey::Kind::kPeer) {
          out.push_back(Violation{
              std::string(name()), group_subject(router, group),
              "parent " + entry.parent->peer->name() +
                  " held with no G-RIB route toward a root"});
        }
        continue;
      }
      bgmp::TargetKey expected = bgmp::TargetKey::migp();
      bgmp::Router* expected_relay = nullptr;
      if (hit->next_hop != nullptr) {
        const auto mapped = by_speaker.find(hit->next_hop);
        if (mapped == by_speaker.end()) continue;  // no BGMP mirror
        if (hit->internal) {
          expected_relay = mapped->second;
        } else {
          expected = bgmp::TargetKey::external(mapped->second);
        }
      }
      if (!entry.parent) {
        out.push_back(Violation{
            std::string(name()), group_subject(router, group),
            "entry is orphaned although the G-RIB resolves a rootward "
            "parent"});
        continue;
      }
      const bool matches =
          *entry.parent == expected &&
          (expected.kind != bgmp::TargetKey::Kind::kMigp ||
           entry.parent_relay == expected_relay);
      if (!matches) {
        out.push_back(Violation{
            std::string(name()), group_subject(router, group),
            "parent disagrees with a fresh G-RIB resolution (stale tree "
            "direction)"});
      }
    }
  }
}

}  // namespace check
