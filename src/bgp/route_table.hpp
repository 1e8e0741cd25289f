// Hash-consed Route interning.
//
// The Adj-RIB-Out is the most duplicated structure in the simulator: every
// speaker keeps, per peer and per view, the last route it announced — and
// at Internet scale most of those entries are copies of the same few
// routes (one per origin, re-announced to dozens of peers). Following the
// AS-path table (path_table.hpp), whole routes are interned once per
// thread and each Adj-RIB-Out cell (adj_rib_out.hpp) is a 4-byte RouteRef:
//
//   * a cell shrinks from carrying a full Route to a 4-byte handle, and
//     identical advertisements across peers share one stored Route;
//   * a Route is 12 bytes of attributes with no prefix (the row key is the
//     prefix), so an origin's routes under several prefixes with the same
//     path share one entry too;
//   * hash-consing makes ids canonical (PathRef ids already are, within a
//     thread), so "does the Adj-RIB-Out already agree?" is an id compare.
//
// Thread-local like the path table: every simulation is confined to one
// sweep worker thread, so no locks, and ids never cross threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/types.hpp"
#include "net/chunked_store.hpp"

namespace bgp {

class RouteTable;

/// A 4-byte ref-counted handle to one interned route (id 0 = "no route";
/// a default-constructed ref is null). Value semantics: copies bump the
/// refcount, destruction releases it, equal ids mean equal routes.
/// Confined to the thread that interned it.
class RouteRef {
 public:
  RouteRef() = default;  // null
  RouteRef(const RouteRef& other);
  RouteRef(RouteRef&& other) noexcept : id_(other.id_) { other.id_ = 0; }
  RouteRef& operator=(const RouteRef& other);
  RouteRef& operator=(RouteRef&& other) noexcept;
  ~RouteRef();

  /// Interns a route, returning the canonical handle: interning an equal
  /// route twice yields the same id.
  static RouteRef intern(const Route& route);

  [[nodiscard]] bool has_value() const { return id_ != 0; }
  explicit operator bool() const { return id_ != 0; }
  /// The interned route. Must not be called on a null ref.
  [[nodiscard]] const Route& get() const;

  [[nodiscard]] std::uint32_t id() const { return id_; }

  friend bool operator==(const RouteRef& a, const RouteRef& b) {
    return a.id_ == b.id_;
  }

 private:
  friend class RouteTable;
  explicit RouteRef(std::uint32_t id) : id_(id) {}

  std::uint32_t id_ = 0;
};

static_assert(sizeof(RouteRef) == 4, "Adj-RIB-Out holds 4-byte handles");

/// The calling thread's route intern table.
class RouteTable {
 public:
  static RouteTable& instance();

  struct Stats {
    std::uint64_t interned = 0;     ///< intern() calls
    std::uint64_t hits = 0;         ///< served an existing entry
    std::uint64_t live_routes = 0;  ///< distinct routes alive

    [[nodiscard]] double hit_rate() const {
      return interned == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(interned);
    }
  };
  [[nodiscard]] Stats stats() const { return stats_; }
  void reset_stats() {
    const std::uint64_t live = stats_.live_routes;
    stats_ = Stats{};
    stats_.live_routes = live;
  }

  /// Bytes held by the entry pool and hash buckets.
  [[nodiscard]] std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           free_ids_.capacity() * sizeof(std::uint32_t) +
           buckets_.capacity() * sizeof(std::uint32_t);
  }

 private:
  friend class RouteRef;

  struct Entry {
    Route route;
    std::uint64_t hash = 0;
    std::uint32_t refs = 0;
    std::uint32_t next = 0;  ///< hash-bucket chain (0 = end)
  };

  /// entries_[0] is a permanent dummy so id 0 (null) needs no bookkeeping.
  RouteTable() { entries_.emplace_back(); }

  std::uint32_t intern(const Route& route);
  void incref(std::uint32_t id) { ++entries_[id].refs; }
  void decref(std::uint32_t id);
  [[nodiscard]] const Entry& entry(std::uint32_t id) const {
    return entries_[id];
  }

  void maybe_grow_buckets();
  void unlink(std::uint32_t id);

  static std::uint64_t hash_route(const Route& route);

  net::ChunkedStore<Entry> entries_;
  std::vector<std::uint32_t> free_ids_;
  /// Power-of-two open hash: bucket -> first entry id, chained via
  /// Entry::next.
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(64, 0);
  std::size_t live_ = 0;
  Stats stats_;
};

// Refcount traffic is the cost of every Adj-RIB-Out touch — keep inline.

inline RouteRef::RouteRef(const RouteRef& other) : id_(other.id_) {
  if (id_ != 0) RouteTable::instance().incref(id_);
}

inline RouteRef& RouteRef::operator=(const RouteRef& other) {
  if (id_ != other.id_) {
    RouteTable& table = RouteTable::instance();
    if (other.id_ != 0) table.incref(other.id_);
    if (id_ != 0) table.decref(id_);
    id_ = other.id_;
  }
  return *this;
}

inline RouteRef& RouteRef::operator=(RouteRef&& other) noexcept {
  if (this != &other) {
    if (id_ != 0) RouteTable::instance().decref(id_);
    id_ = other.id_;
    other.id_ = 0;
  }
  return *this;
}

inline RouteRef::~RouteRef() {
  if (id_ != 0) RouteTable::instance().decref(id_);
}

inline const Route& RouteRef::get() const {
  return RouteTable::instance().entry(id_).route;
}

}  // namespace bgp
