// Path-compressed (Patricia) radix trie keyed by CIDR prefixes.
//
// The table for containment queries: the MASC bookkeeping of claimed
// ranges and the free-space search of the claim algorithm (§4.3.3) walk
// ancestor chains and test overlaps, and a BGP speaker checks whether one
// of its own originations covers a prefix. Exact-match tables (the BGP
// RIBs and Adj-RIB-Out, the unicast address map) use net::PrefixMap.
//
// Unlike a one-bit-per-level binary trie (one heap node and one pointer
// dereference per bit), nodes here cover whole runs of bits: a node exists
// only where a stored prefix ends or where two stored prefixes diverge, so
// a lookup touches O(log n) nodes instead of O(32). Nodes live in one
// contiguous pool (a vector with an index-based free list), which keeps
// traversals cache-friendly and makes inserts allocation-free once the pool
// has warmed up.
//
// Structural invariant: every node either stores a value or has two
// children. Erase splices out the nodes this would orphan, so the trie
// never accumulates dead interior nodes.
//
// T must be default-constructible and movable. References and pointers
// returned by find()/longest_match() are invalidated by any subsequent
// insert/erase/clear (the pool may move), like vector iterators.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace net {

/// Maps CIDR prefixes to values with exact lookup, longest-prefix match and
/// ordered traversal.
template <typename T>
class PrefixTrie {
 public:
  /// Inserts or overwrites the value at `key`. Returns true if newly added.
  bool insert(const Prefix& key, T value) {
    const std::uint32_t node = ensure_node(key);
    Node& n = nodes_[node];
    const bool added = !n.has_value;
    n.has_value = true;
    values_[node].v = std::move(value);
    if (added) ++size_;
    return added;
  }

  /// Removes `key`. Returns true if it was present.
  bool erase(const Prefix& key) {
    const std::uint32_t kbase = key.base().value();
    const int klen = key.length();
    // Descend, recording the path for the splice fix-up below.
    std::uint32_t path[33];
    int sides[33];
    int depth = 0;
    std::uint32_t cur = root_;
    while (cur != kNull) {
      const Node& n = nodes_[cur];
      if (n.len >= klen) {
        cur = (n.len == klen && n.base == kbase) ? cur : kNull;
        break;
      }
      if (!same_prefix(n.base, kbase, n.len)) return false;
      path[depth] = cur;
      sides[depth] = bit_at(kbase, n.len);
      cur = n.child[sides[depth]];
      ++depth;
    }
    if (cur == kNull || !nodes_[cur].has_value) return false;
    Node& n = nodes_[cur];
    n.has_value = false;
    values_[cur].v = T{};  // release resources held by the value now
    --size_;
    const auto parent_link = [&](int d) -> std::uint32_t& {
      return d == 0 ? root_ : nodes_[path[d - 1]].child[sides[d - 1]];
    };
    const int child_count =
        (n.child[0] != kNull ? 1 : 0) + (n.child[1] != kNull ? 1 : 0);
    if (child_count == 2) return true;  // still a valid branch node
    if (child_count == 1) {
      // Valueless with one child: splice the node out.
      parent_link(depth) =
          n.child[0] != kNull ? n.child[0] : n.child[1];
      free_node(cur);
      return true;
    }
    // Leaf: unlink it, then splice a parent this leaves as a valueless
    // one-child node (by the invariant it had two children before).
    parent_link(depth) = kNull;
    free_node(cur);
    if (depth > 0) {
      const std::uint32_t p = path[depth - 1];
      Node& pn = nodes_[p];
      if (!pn.has_value) {
        parent_link(depth - 1) =
            pn.child[0] != kNull ? pn.child[0] : pn.child[1];
        free_node(p);
      }
    }
    return true;
  }

  [[nodiscard]] bool contains(const Prefix& key) const {
    return find(key) != nullptr;
  }

  /// Exact-match lookup.
  [[nodiscard]] const T* find(const Prefix& key) const {
    const std::uint32_t kbase = key.base().value();
    const int klen = key.length();
    std::uint32_t cur = root_;
    while (cur != kNull) {
      const Node& n = nodes_[cur];
      if (n.len >= klen) {
        return (n.len == klen && n.base == kbase && n.has_value)
                   ? &values_[cur].v
                   : nullptr;
      }
      if (!same_prefix(n.base, kbase, n.len)) return nullptr;
      cur = n.child[bit_at(kbase, n.len)];
    }
    return nullptr;
  }
  [[nodiscard]] T* find(const Prefix& key) {
    return const_cast<T*>(std::as_const(*this).find(key));
  }

  /// Longest stored prefix containing `addr`, with its value.
  [[nodiscard]] std::optional<std::pair<Prefix, const T*>> longest_match(
      Ipv4Addr addr) const {
    const std::uint32_t a = addr.value();
    std::uint32_t best = kNull;
    std::uint32_t cur = root_;
    while (cur != kNull) {
      const Node& n = nodes_[cur];
      // A mismatch inside this node's bit run rules out its whole subtree:
      // every stored prefix below extends these bits.
      if (!same_prefix(n.base, a, n.len)) break;
      if (n.has_value) best = cur;
      if (n.len == 32) break;
      cur = n.child[bit_at(a, n.len)];
    }
    if (best == kNull) return std::nullopt;
    const Node& b = nodes_[best];
    return {{Prefix::containing(Ipv4Addr{b.base}, b.len), &values_[best].v}};
  }

  /// Longest stored prefix that (non-strictly) contains `key`.
  [[nodiscard]] std::optional<std::pair<Prefix, const T*>> longest_match(
      const Prefix& key) const {
    const std::uint32_t kbase = key.base().value();
    const int klen = key.length();
    std::uint32_t best = kNull;
    std::uint32_t cur = root_;
    while (cur != kNull) {
      const Node& n = nodes_[cur];
      if (n.len > klen || !same_prefix(n.base, kbase, n.len)) break;
      if (n.has_value) best = cur;
      if (n.len == klen) break;
      cur = n.child[bit_at(kbase, n.len)];
    }
    if (best == kNull) return std::nullopt;
    const Node& b = nodes_[best];
    return {{Prefix::containing(Ipv4Addr{b.base}, b.len), &values_[best].v}};
  }

  /// Calls `fn(prefix, value)` for every stored entry that (non-strictly)
  /// contains `key`, outermost first. Unlike longest_match, this visits the
  /// whole ancestor chain — callers filtering on the values (e.g. claim
  /// lifetimes) must see every candidate, not just the deepest.
  template <typename Fn>
  void for_each_ancestor(const Prefix& key, Fn&& fn) const {
    const std::uint32_t kbase = key.base().value();
    const int klen = key.length();
    std::uint32_t cur = root_;
    while (cur != kNull) {
      const Node& n = nodes_[cur];
      if (n.len > klen || !same_prefix(n.base, kbase, n.len)) break;
      if (n.has_value) {
        fn(Prefix::containing(Ipv4Addr{n.base}, n.len), values_[cur].v);
      }
      if (n.len == klen) break;
      cur = n.child[bit_at(kbase, n.len)];
    }
  }

  /// True if any stored prefix overlaps `key` (contains it or is contained).
  [[nodiscard]] bool overlaps_any(const Prefix& key) const {
    const std::uint32_t kbase = key.base().value();
    const int klen = key.length();
    std::uint32_t cur = root_;
    while (cur != kNull) {
      const Node& n = nodes_[cur];
      if (n.len >= klen) {
        // Any node inside `key` proves a stored descendant (every node has
        // a value or two children, so a subtree is never empty).
        return same_prefix(n.base, kbase, klen);
      }
      if (!same_prefix(n.base, kbase, n.len)) return false;
      if (n.has_value) return true;  // an ancestor is stored
      cur = n.child[bit_at(kbase, n.len)];
    }
    return false;
  }

  /// Calls `fn(prefix, value)` for every entry, in trie (address) order.
  /// `fn` is any callable — no std::function indirection on this path.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit(root_, fn);
  }

  /// Calls `fn` for every stored entry contained within `within`.
  template <typename Fn>
  void for_each_within(const Prefix& within, Fn&& fn) const {
    const std::uint32_t wbase = within.base().value();
    const int wlen = within.length();
    std::uint32_t cur = root_;
    while (cur != kNull) {
      const Node& n = nodes_[cur];
      if (n.len >= wlen) {
        if (same_prefix(n.base, wbase, wlen)) visit(cur, fn);
        return;
      }
      if (!same_prefix(n.base, wbase, n.len)) return;
      cur = n.child[bit_at(wbase, n.len)];
    }
  }

  /// All entries, in address order. Convenience for tests and snapshots.
  [[nodiscard]] std::vector<std::pair<Prefix, T>> entries() const {
    std::vector<std::pair<Prefix, T>> out;
    out.reserve(size_);
    for_each([&](const Prefix& p, const T& v) { out.emplace_back(p, v); });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Bytes held by the node pool, value pool and free list.
  /// Heap memory owned by the values is not counted (callers add their own
  /// value accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           values_.capacity() * sizeof(ValueSlot) +
           free_.capacity() * sizeof(std::uint32_t);
  }

  void clear() {
    nodes_.clear();
    values_.clear();
    free_.clear();
    root_ = kNull;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kNull = UINT32_MAX;

  /// Descent core only — 16 bytes, four nodes per cache line. Values live
  /// in a parallel array (values_[node index]): a lookup's pointer chase
  /// touches nothing but these cores, and only the terminal node's value
  /// is ever loaded. With the value inline a RIB node was 32 bytes, and
  /// at the 10k-domain rung the descent cache misses of the loc-RIB and
  /// Adj-RIB-Out tries dominated the BGP hot path.
  struct Node {
    std::uint32_t base = 0;  // prefix bits, host bits zero
    std::uint32_t child[2] = {kNull, kNull};
    std::uint8_t len = 0;    // prefix length in [0, 32]
    bool has_value = false;
  };

  /// True if the top `len` bits of `a` and `b` agree (len in [0, 32]).
  static bool same_prefix(std::uint32_t a, std::uint32_t b, int len) {
    return len == 0 || ((a ^ b) >> (32 - len)) == 0;
  }
  static int bit_at(std::uint32_t v, int pos) {  // pos in [0, 31]
    return static_cast<int>((v >> (31 - pos)) & 1u);
  }
  static std::uint32_t mask_to(std::uint32_t v, int len) {
    return len == 0 ? 0 : (v & (~std::uint32_t{0} << (32 - len)));
  }
  static int common_prefix_len(std::uint32_t a, int a_len, std::uint32_t b,
                               int b_len) {
    const std::uint32_t diff = a ^ b;
    const int agree = diff == 0 ? 32 : std::countl_zero(diff);
    return std::min({agree, a_len, b_len});
  }

  std::uint32_t new_node(std::uint32_t base, int len) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
      values_.emplace_back();  // keep the value pool in index lockstep
    }
    Node& n = nodes_[idx];
    n.base = base;
    n.len = static_cast<std::uint8_t>(len);
    return idx;
  }

  void free_node(std::uint32_t idx) {
    Node& n = nodes_[idx];
    n.has_value = false;
    n.child[0] = kNull;
    n.child[1] = kNull;
    values_[idx].v = T{};
    free_.push_back(idx);
  }

  /// Finds or creates the node for `key`, splitting edges as needed.
  /// Returns its index; the caller marks/installs the value.
  std::uint32_t ensure_node(const Prefix& key) {
    const std::uint32_t kbase = key.base().value();
    const int klen = key.length();
    if (root_ == kNull) return root_ = new_node(kbase, klen);
    std::uint32_t parent = kNull;
    int side = 0;
    std::uint32_t cur = root_;
    const auto relink = [&](std::uint32_t v) {
      if (parent == kNull) {
        root_ = v;
      } else {
        nodes_[parent].child[side] = v;
      }
    };
    for (;;) {
      // Note: new_node() may grow the pool, so node references are
      // re-fetched by index after any allocation.
      const int cpl =
          common_prefix_len(kbase, klen, nodes_[cur].base, nodes_[cur].len);
      if (cpl == nodes_[cur].len) {
        if (cpl == klen) return cur;  // exact node already exists
        // `key` lies below this node: descend (or hang a new leaf).
        const int b = bit_at(kbase, nodes_[cur].len);
        const std::uint32_t next = nodes_[cur].child[b];
        if (next == kNull) {
          const std::uint32_t leaf = new_node(kbase, klen);
          nodes_[cur].child[b] = leaf;
          return leaf;
        }
        parent = cur;
        side = b;
        cur = next;
        continue;
      }
      if (cpl == klen) {
        // `key` is a strict ancestor of this node: interpose its node.
        const std::uint32_t mid = new_node(kbase, klen);
        nodes_[mid].child[bit_at(nodes_[cur].base, cpl)] = cur;
        relink(mid);
        return mid;
      }
      // Paths diverge inside this node's bit run: split with a valueless
      // branch node at the divergence point.
      const std::uint32_t mid = new_node(mask_to(kbase, cpl), cpl);
      const std::uint32_t leaf = new_node(kbase, klen);
      nodes_[mid].child[bit_at(kbase, cpl)] = leaf;
      nodes_[mid].child[bit_at(nodes_[cur].base, cpl)] = cur;
      relink(mid);
      return leaf;
    }
  }

  template <typename Fn>
  void visit(std::uint32_t idx, Fn& fn) const {
    if (idx == kNull) return;
    const Node& n = nodes_[idx];
    // Value first, children in bit order: ancestors precede descendants
    // and siblings come out in address order.
    if (n.has_value) {
      fn(Prefix::containing(Ipv4Addr{n.base}, n.len), values_[idx].v);
    }
    visit(n.child[0], fn);
    visit(n.child[1], fn);
  }

  // values_[i] pairs with nodes_[i]. The wrapper keeps the pool addressable
  // for every T (std::vector<bool> would hand out packed proxy references).
  struct ValueSlot {
    T v{};
  };
  std::vector<Node> nodes_;
  std::vector<ValueSlot> values_;
  std::vector<std::uint32_t> free_;
  std::uint32_t root_ = kNull;
  std::size_t size_ = 0;
};

}  // namespace net
