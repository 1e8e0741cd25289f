// Hash-consed AS-path interning.
//
// Every G-RIB entry used to drag its own `std::vector<DomainId>` through
// each Route copy — and Routes are copied constantly: into candidates, out
// of the decision process, into Adj-RIB-Outs, into update deltas, into
// lookup results. Yet the population of *distinct* paths in a simulation is
// tiny (one per (origin, propagation path) pair), so the paths are interned
// once in a table and routes carry a 4-byte PathRef handle:
//
//   * copying a route touches one refcount instead of allocating,
//   * path equality is an id compare (hash-consing makes ids canonical),
//   * loop checks and rendering read the shared hop array in place.
//
// The table is thread-local, like the route table and the candidate arena:
// every simulation is confined to one sweep worker thread, so interning
// needs no locks and each worker's id space is independent. Ids are an
// implementation detail — they are never ordered, persisted, or compared
// across threads; all observable behaviour flows through the hop sequences
// they name.
// Entries live in a ChunkedStore, so a hop array read through a held ref
// stays put while further paths are interned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "net/chunked_store.hpp"

namespace bgp {

using DomainId = std::uint32_t;

class PathTable;

/// A 4-byte ref-counted handle to one interned AS path (id 0 = the empty
/// path, which lives nowhere and costs nothing). Value semantics: copies
/// bump the refcount, destruction releases it, equal ids mean equal paths.
/// Confined to the thread that interned it.
class PathRef {
 public:
  PathRef() = default;  // the empty path
  PathRef(const PathRef& other);
  PathRef(PathRef&& other) noexcept : id_(other.id_) { other.id_ = 0; }
  PathRef& operator=(const PathRef& other);
  PathRef& operator=(PathRef&& other) noexcept;
  ~PathRef();

  /// Interns a hop sequence (nearest AS first), returning the canonical
  /// handle: interning the same sequence twice yields the same id.
  static PathRef intern(const DomainId* hops, std::size_t count);
  static PathRef intern(std::initializer_list<DomainId> hops) {
    return intern(hops.begin(), hops.size());
  }
  static PathRef intern(const std::vector<DomainId>& hops) {
    return intern(hops.data(), hops.size());
  }

  /// The path `head` prepended to this one — eBGP export's AS prepend.
  [[nodiscard]] PathRef prepend(DomainId head) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return id_ == 0; }
  [[nodiscard]] bool contains(DomainId as) const;
  /// The hop array, nearest AS first (nullptr/empty for the empty path).
  [[nodiscard]] const DomainId* data() const;
  [[nodiscard]] const DomainId* begin() const { return data(); }
  [[nodiscard]] const DomainId* end() const { return data() + size(); }
  [[nodiscard]] std::vector<DomainId> to_vector() const {
    return {begin(), end()};
  }

  [[nodiscard]] std::uint32_t id() const { return id_; }

  friend bool operator==(const PathRef& a, const PathRef& b) {
    return a.id_ == b.id_;
  }
  /// Content comparison against a plain hop vector (tests, oracles).
  friend bool operator==(const PathRef& a, const std::vector<DomainId>& b);

 private:
  friend class PathTable;
  explicit PathRef(std::uint32_t id) : id_(id) {}

  std::uint32_t id_ = 0;
};

static_assert(sizeof(PathRef) == 4, "routes carry a 4-byte path handle");

/// The calling thread's intern table. Exposed for benchmarks and tests;
/// Route code goes through PathRef.
class PathTable {
 public:
  static PathTable& instance();

  struct Stats {
    std::uint64_t interned = 0;    ///< intern() calls (incl. prepends)
    std::uint64_t hits = 0;        ///< served an existing entry
    std::uint64_t live_paths = 0;  ///< distinct non-empty paths alive

    [[nodiscard]] double hit_rate() const {
      return interned == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(interned);
    }
  };
  [[nodiscard]] Stats stats() const { return stats_; }
  void reset_stats() {
    const std::uint64_t live = stats_.live_paths;
    stats_ = Stats{};
    stats_.live_paths = live;
  }

 private:
  friend class PathRef;

  struct Entry {
    std::vector<DomainId> hops;
    std::uint64_t hash = 0;
    std::uint32_t refs = 0;
    std::uint32_t next = 0;  ///< hash-bucket chain (0 = end)
  };

  /// entries_[0] is a permanent dummy so id 0 (the empty path) needs no
  /// bookkeeping anywhere.
  PathTable() { entries_.emplace_back(); }

  std::uint32_t intern(const DomainId* hops, std::size_t count);
  void incref(std::uint32_t id) { ++entries_[id].refs; }
  void decref(std::uint32_t id);
  [[nodiscard]] const Entry& entry(std::uint32_t id) const {
    return entries_[id];
  }

  void maybe_grow_buckets();
  void unlink(std::uint32_t id);

  static std::uint64_t hash_hops(const DomainId* hops, std::size_t count);

  net::ChunkedStore<Entry> entries_;
  std::vector<std::uint32_t> free_ids_;
  /// Power-of-two open hash: bucket -> first entry id, chained via
  /// Entry::next.
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(64, 0);
  std::size_t live_ = 0;
  Stats stats_;
};

// Refcount traffic is the cost of every Route copy — keep it inline.

inline PathRef::PathRef(const PathRef& other) : id_(other.id_) {
  if (id_ != 0) PathTable::instance().incref(id_);
}

inline PathRef& PathRef::operator=(const PathRef& other) {
  if (id_ != other.id_) {
    PathTable& table = PathTable::instance();
    if (other.id_ != 0) table.incref(other.id_);
    if (id_ != 0) table.decref(id_);
    id_ = other.id_;
  }
  return *this;
}

inline PathRef& PathRef::operator=(PathRef&& other) noexcept {
  if (this != &other) {
    if (id_ != 0) PathTable::instance().decref(id_);
    id_ = other.id_;
    other.id_ = 0;
  }
  return *this;
}

inline PathRef::~PathRef() {
  if (id_ != 0) PathTable::instance().decref(id_);
}

inline std::size_t PathRef::size() const {
  return id_ == 0 ? 0 : PathTable::instance().entry(id_).hops.size();
}

inline const DomainId* PathRef::data() const {
  return id_ == 0 ? nullptr : PathTable::instance().entry(id_).hops.data();
}

inline bool PathRef::contains(DomainId as) const {
  if (id_ == 0) return false;
  for (const DomainId hop : PathTable::instance().entry(id_).hops) {
    if (hop == as) return true;
  }
  return false;
}

inline bool operator==(const PathRef& a, const std::vector<DomainId>& b) {
  if (a.size() != b.size()) return false;
  const DomainId* hops = a.data();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (hops[i] != b[i]) return false;
  }
  return true;
}

}  // namespace bgp
