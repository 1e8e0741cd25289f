// BGMP forwarding-state types: targets and the (*,G) / (S,G) entries of §5.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/ip.hpp"
#include "net/prefix.hpp"

namespace bgmp {

class Router;

using Group = net::Ipv4Addr;

/// A target in a forwarding entry's target list (§5.2): "A child target
/// identifies either a BGMP peer or an MIGP component". All same-domain
/// coordination collapses onto the single MIGP-component target; external
/// peers are distinct targets.
struct TargetKey {
  enum class Kind : std::uint8_t { kMigp, kPeer };
  Kind kind = Kind::kMigp;
  Router* peer = nullptr;  // set iff kind == kPeer
  // Stable sort key for peer targets: the peer's domain id (AS number),
  // unique per router. Target containers order by this — never by the
  // `peer` pointer, whose heap address varies from run to run and would
  // make every forwarding fan-out order (and with it the scheduler's
  // event/batch split) depend on allocator history.
  std::uint64_t order = 0;

  static TargetKey migp() { return TargetKey{Kind::kMigp, nullptr, 0}; }
  static TargetKey external(Router* r);  // in router.cpp: needs Router

  friend bool operator==(const TargetKey& a, const TargetKey& b) {
    return a.kind == b.kind && a.peer == b.peer;
  }
  friend std::strong_ordering operator<=>(const TargetKey& a,
                                          const TargetKey& b) {
    if (a.kind != b.kind) return a.kind <=> b.kind;
    return a.order <=> b.order;
  }
};

/// Refcounted child-target list, stored as a sorted flat vector. Target
/// lists are tiny (a router has a handful of peers) but there is one per
/// (*,G)/(S,G) entry — at Internet scale the red-black nodes of a
/// std::map<TargetKey, int> were most of the tree-state footprint. The
/// vector stays sorted by TargetKey, so iteration order (and with it every
/// forwarding fan-out and digest) matches the old map exactly.
class TargetList {
 public:
  using value_type = std::pair<TargetKey, int>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() { return targets_.begin(); }
  [[nodiscard]] iterator end() { return targets_.end(); }
  [[nodiscard]] const_iterator begin() const { return targets_.begin(); }
  [[nodiscard]] const_iterator end() const { return targets_.end(); }

  [[nodiscard]] bool empty() const { return targets_.empty(); }
  [[nodiscard]] std::size_t size() const { return targets_.size(); }

  [[nodiscard]] iterator find(const TargetKey& key) {
    const iterator it = lower_bound(key);
    return it != targets_.end() && it->first == key ? it : targets_.end();
  }
  [[nodiscard]] const_iterator find(const TargetKey& key) const {
    const const_iterator it = lower_bound(key);
    return it != targets_.end() && it->first == key ? it : targets_.end();
  }
  [[nodiscard]] bool contains(const TargetKey& key) const {
    return find(key) != targets_.end();
  }

  /// The refcount slot for `key`, inserted at 0 if absent (map semantics).
  [[nodiscard]] int& operator[](const TargetKey& key) {
    iterator it = lower_bound(key);
    if (it == targets_.end() || it->first != key) {
      it = targets_.insert(it, {key, 0});
    }
    return it->second;
  }

  iterator erase(iterator it) { return targets_.erase(it); }
  std::size_t erase(const TargetKey& key) {
    const iterator it = find(key);
    if (it == targets_.end()) return 0;
    targets_.erase(it);
    return 1;
  }

  [[nodiscard]] std::size_t capacity_bytes() const {
    return targets_.capacity() * sizeof(value_type);
  }

 private:
  [[nodiscard]] iterator lower_bound(const TargetKey& key) {
    return std::lower_bound(
        targets_.begin(), targets_.end(), key,
        [](const value_type& a, const TargetKey& b) { return a.first < b; });
  }
  [[nodiscard]] const_iterator lower_bound(const TargetKey& key) const {
    return std::lower_bound(
        targets_.begin(), targets_.end(), key,
        [](const value_type& a, const TargetKey& b) { return a.first < b; });
  }

  std::vector<value_type> targets_;  ///< sorted by TargetKey
};

/// Sorted flat set of targets — same footprint rationale as TargetList.
class TargetSet {
 public:
  void insert(const TargetKey& key) {
    const auto it = std::lower_bound(targets_.begin(), targets_.end(), key);
    if (it == targets_.end() || *it != key) targets_.insert(it, key);
  }
  [[nodiscard]] bool contains(const TargetKey& key) const {
    return std::binary_search(targets_.begin(), targets_.end(), key);
  }
  [[nodiscard]] bool empty() const { return targets_.empty(); }
  [[nodiscard]] std::size_t size() const { return targets_.size(); }

  [[nodiscard]] std::size_t capacity_bytes() const {
    return targets_.capacity() * sizeof(TargetKey);
  }

 private:
  std::vector<TargetKey> targets_;  ///< sorted
};

/// A (*,G) entry: parent target toward the group's root domain plus
/// refcounted child targets. "The parent and child targets together are
/// called the target list"; data received from any target is forwarded to
/// all the others (bidirectional forwarding).
struct GroupEntry {
  std::optional<TargetKey> parent;
  /// When the parent target is the MIGP component because the BGP next hop
  /// is an internal peer (§5.2 footnote 9), the border router joins/prunes
  /// through that internal router; remembered here for teardown.
  Router* parent_relay = nullptr;
  /// Child targets with refcounts: the MIGP-component child may stand for
  /// several internal joiners (local members and internal BGMP peers).
  TargetList children;
  /// Whether the router holds MIGP border state for the group (the
  /// domain's border join, so domain data reaches it). Kept in the entry
  /// so a join or prune hop reads and updates it with the one (*,G)
  /// lookup it already makes.
  bool migp_border = false;

  [[nodiscard]] bool has_target(const TargetKey& t) const {
    return (parent && *parent == t) || children.contains(t);
  }
};

/// An (S,G) entry (§5.3): created either by a source-specific join (its
/// parent points toward the source) or by a source-specific prune arriving
/// at a shared-tree router (copy of the (*,G) list minus the pruned
/// target). When present it overrides the (*,G) entry for S's packets.
struct SourceEntry {
  net::Ipv4Addr source;
  std::optional<TargetKey> parent;
  Router* parent_relay = nullptr;
  TargetList children;
  /// Children added by source-specific joins (branch directions): data
  /// forwarded to them is marked as a branch copy. Children copied from
  /// the (*,G) list are ordinary tree directions.
  TargetSet branch_children;
  /// Where data from S last arrived — the upstream direction a prune
  /// propagates toward when the child list empties.
  std::optional<TargetKey> upstream;
  /// True once data arrived from the branch parent: encapsulated copies
  /// are then dropped (§5.3: "starts dropping the encapsulated copies of
  /// S's data packets").
  bool native_seen = false;
  /// True when `parent` points toward the source (a branch entry): the
  /// branch is unidirectional — data flows from the source downward, so
  /// the parent is never a forwarding target. False for entries copied
  /// from the (*,G) list, whose parent keeps the bidirectional-tree role.
  bool toward_source = false;

  [[nodiscard]] bool has_target(const TargetKey& t) const {
    return (parent && *parent == t) || children.contains(t);
  }
};

/// Key for the (S,G) table.
struct SourceGroup {
  net::Ipv4Addr source;
  Group group;
  friend auto operator<=>(const SourceGroup&, const SourceGroup&) = default;
};

/// The (*,G) table: entries in a hash table keyed by group, beside the
/// groups in ascending order. A join or prune hop finds its entry with one
/// hash probe. Walks that send joins or prunes go in group order through
/// the sorted keys, so the schedule they feed is the one an ordered map
/// gave, and so does iteration (the checkers and digests read it).
///
/// Entries are hash-table nodes. A rehash relinks nodes without moving
/// them, so a GroupEntry* stays valid until its own group is erased.
class GroupTable {
 public:
  /// Iterates in group order, yielding (group, entry) pairs.
  class const_iterator {
   public:
    const_iterator(const GroupTable* table,
                   std::vector<Group>::const_iterator at)
        : table_(table), at_(at) {}
    [[nodiscard]] std::pair<Group, const GroupEntry&> operator*() const {
      return {*at_, table_->entries_.find(*at_)->second};
    }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.at_ == b.at_;
    }

   private:
    const GroupTable* table_;
    std::vector<Group>::const_iterator at_;
  };

  [[nodiscard]] const_iterator begin() const {
    return {this, order_.begin()};
  }
  [[nodiscard]] const_iterator end() const { return {this, order_.end()}; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool contains(Group group) const {
    return entries_.contains(group);
  }

  /// The entry for `group`; nullptr when there is none.
  [[nodiscard]] GroupEntry* find(Group group) {
    const auto it = entries_.find(group);
    return it == entries_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const GroupEntry* find(Group group) const {
    const auto it = entries_.find(group);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// The entry for `group`, added empty if absent, and whether it was.
  std::pair<GroupEntry*, bool> try_emplace(Group group) {
    const auto [it, created] = entries_.try_emplace(group);
    if (created) {
      order_.insert(std::lower_bound(order_.begin(), order_.end(), group),
                    group);
    }
    return {&it->second, created};
  }

  void erase(Group group) {
    if (entries_.erase(group) == 0) return;
    order_.erase(std::lower_bound(order_.begin(), order_.end(), group));
  }

  void clear() {
    entries_.clear();
    order_.clear();
  }

  /// The groups, ascending.
  [[nodiscard]] const std::vector<Group>& groups() const { return order_; }

  /// Whether any group lies inside `range`, in O(log n): the first group
  /// at or above the range's base is inside it iff any is.
  [[nodiscard]] bool any_in(const net::Prefix& range) const {
    const auto it = std::lower_bound(order_.begin(), order_.end(),
                                     range.base());
    return it != order_.end() && range.contains(*it);
  }

  /// Heap bytes of the table itself: one node per entry (the next pointer
  /// and the key/entry pair), the bucket array and the sorted keys. The
  /// entries' target lists are not counted here.
  [[nodiscard]] std::size_t table_bytes() const {
    using Node = std::pair<void*, std::pair<const Group, GroupEntry>>;
    return entries_.size() * sizeof(Node) +
           entries_.bucket_count() * sizeof(void*) +
           order_.capacity() * sizeof(Group);
  }

 private:
  std::unordered_map<Group, GroupEntry> entries_;
  std::vector<Group> order_;  ///< every key of entries_, ascending
};

}  // namespace bgmp
