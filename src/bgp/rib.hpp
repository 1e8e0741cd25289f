// Routing Information Bases: candidate routes per prefix and the decision
// process that selects one best route domain-wide.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/chunked_store.hpp"
#include "net/prefix.hpp"
#include "net/prefix_map.hpp"
#include "bgp/types.hpp"

namespace bgp {

/// Identifies a peering session within one speaker (index into its peer
/// table). kLocalPeer marks a locally-originated candidate.
using PeerIndex = std::uint32_t;
inline constexpr PeerIndex kLocalPeer = UINT32_MAX;

/// One candidate path for a prefix, as held in the Adj-RIB-In (or the
/// local origination slot).
struct Candidate {
  Route route;
  PeerIndex via = kLocalPeer;
  /// True if learned over an iBGP session.
  bool internal = false;
  /// Identity of the border router acting as exit for this candidate: the
  /// receiving router's own uid for eBGP candidates, the iBGP sender's uid
  /// for internal ones, the speaker's own uid for local originations. The
  /// lowest-uid tie-break makes every router in a domain converge on the
  /// same best exit router (§5: "one border router is chosen as the best
  /// exit router for each group route").
  std::uint32_t exit_uid = 0;
};

static_assert(sizeof(Candidate) == 24, "a candidate is six 4-byte words");

/// Total order of the decision process. Returns true if `a` is better:
/// local origination, then highest LOCAL_PREF, then shortest AS path, then
/// lowest exit uid.
[[nodiscard]] bool better(const Candidate& a, const Candidate& b);

/// The thread's pool of RIB candidates. Every RibEntry used to own a
/// `std::vector<Candidate>` — one heap allocation per prefix per table,
/// and 40 bytes of vector/optional header per entry even for the common
/// single-candidate case. At Internet scale (10k domains × 2 views ×
/// per-peer candidate churn) that allocation traffic and header overhead
/// dominate routing-state memory, so candidates now live in one chunked
/// thread-local arena and entries hold 4-byte slot indices chained through
/// the slots (a pool with an index free list, thread-confined like
/// bgp::PathTable). Blocks are fixed-size, so Candidate pointers handed
/// out by best() stay stable until that candidate is removed.
class CandidateArena {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// The calling thread's arena (simulations are thread-confined).
  static CandidateArena& instance();

  /// Takes a slot (reusing freed ones first), returning its index. The
  /// slot's chain link starts at kNil.
  std::uint32_t allocate(Candidate value);
  /// Returns a slot to the free list, destroying its candidate.
  void release(std::uint32_t index);

  [[nodiscard]] Candidate& value(std::uint32_t index) {
    return slot(index).value;
  }
  [[nodiscard]] const Candidate& value(std::uint32_t index) const {
    return slot(index).value;
  }
  [[nodiscard]] std::uint32_t next(std::uint32_t index) const {
    return slot(index).next;
  }
  void set_next(std::uint32_t index, std::uint32_t next) {
    slot(index).next = next;
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }
  static constexpr std::size_t slot_bytes();

 private:
  struct Slot {
    Candidate value;
    std::uint32_t next = kNil;  ///< entry chain, or free-list link
  };
  static constexpr std::uint32_t kBlockSlots = 1024;

  [[nodiscard]] Slot& slot(std::uint32_t index) { return slots_[index]; }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return slots_[index];
  }

  // 64k chunks of 1k slots: a fixed 512KB directory buys the same ceiling
  // headroom the old unbounded block vector had.
  net::ChunkedStore<Slot, kBlockSlots, 65536> slots_;
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
};

constexpr std::size_t CandidateArena::slot_bytes() { return sizeof(Slot); }

static_assert(CandidateArena::slot_bytes() == 28,
              "an arena slot is a candidate plus its 4-byte chain link");

/// A read-only view of one entry's candidates, in insertion order —
/// iterates the arena chain. Supports range-for and size(), which is all
/// the decision-process oracles need.
class CandidateRange {
 public:
  explicit CandidateRange(std::uint32_t head) : head_(head) {}

  class iterator {
   public:
    explicit iterator(std::uint32_t index) : index_(index) {}
    const Candidate& operator*() const {
      return CandidateArena::instance().value(index_);
    }
    iterator& operator++() {
      index_ = CandidateArena::instance().next(index_);
      return *this;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    std::uint32_t index_;
  };

  [[nodiscard]] iterator begin() const { return iterator(head_); }
  [[nodiscard]] iterator end() const {
    return iterator(CandidateArena::kNil);
  }
  /// Walks the chain: entries hold about one candidate each, so no count
  /// is stored.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (iterator it = begin(); it != end(); ++it) ++n;
    return n;
  }
  [[nodiscard]] bool empty() const { return head_ == CandidateArena::kNil; }

 private:
  std::uint32_t head_;
};

/// All candidates for one prefix plus the current selection. 8 bytes of
/// indices into the thread's CandidateArena (vs a vector + optional), so a
/// PrefixMap slot holding one is 16 bytes; move-only, releasing its chain
/// on destruction.
class RibEntry {
 public:
  RibEntry() = default;
  RibEntry(RibEntry&& other) noexcept
      : head_(other.head_), best_(other.best_) {
    other.head_ = CandidateArena::kNil;
    other.best_ = CandidateArena::kNil;
  }
  RibEntry& operator=(RibEntry&& other) noexcept {
    if (this != &other) {
      if (head_ != CandidateArena::kNil) clear();
      head_ = other.head_;
      best_ = other.best_;
      other.head_ = CandidateArena::kNil;
      other.best_ = CandidateArena::kNil;
    }
    return *this;
  }
  RibEntry(const RibEntry&) = delete;
  RibEntry& operator=(const RibEntry&) = delete;
  // Empty-chain fast path: most destructions are moved-from shells (map
  // growth, erase), and the out-of-line clear() touches the
  // thread-local arena even when there is nothing to release.
  ~RibEntry() {
    if (head_ != CandidateArena::kNil) clear();
  }

  /// Inserts or replaces the candidate from `via`. Returns true if the
  /// best route (selection) changed. `appended` (optional) is set to
  /// whether the candidate was new rather than a replacement.
  bool upsert(Candidate candidate, bool* appended = nullptr);

  /// Removes the candidate from `via` (no-op if absent). Returns true if
  /// the best route changed. `unlinked` (optional) is set to whether a
  /// candidate was removed.
  bool remove(PeerIndex via, bool* unlinked = nullptr);

  [[nodiscard]] const Candidate* best() const {
    return best_ == CandidateArena::kNil
               ? nullptr
               : &CandidateArena::instance().value(best_);
  }
  [[nodiscard]] CandidateRange candidates() const {
    return CandidateRange(head_);
  }
  [[nodiscard]] bool empty() const { return head_ == CandidateArena::kNil; }

 private:
  // Re-runs the decision process and reports whether the selected route
  // changed, comparing against the pre-mutation best. `previous_best` is
  // the old best slot (kNil: none); its contents are read live unless the
  // mutation clobbered that very slot, in which case the caller saved the
  // old route and passes it as `previous_route`. Keeps the no-change
  // detection copy-free on the common paths (new candidate, non-best
  // overwrite), where the old code made two full Route copies — PathRef
  // refcount traffic that showed up hot at the 10k rung.
  bool reselect(std::uint32_t previous_best, const Route* previous_route);
  void clear();

  std::uint32_t head_ = CandidateArena::kNil;
  std::uint32_t best_ = CandidateArena::kNil;
};

static_assert(sizeof(RibEntry) == 8, "a RIB entry is two arena indices");

/// One routing-table view (unicast RIB or G-RIB).
class Rib {
 public:
  /// Entry count — the paper's "G-RIB size" metric is rib(kGroup).size().
  [[nodiscard]] std::size_t size() const { return map_.size(); }

  [[nodiscard]] const RibEntry* find(const net::Prefix& prefix) const {
    return map_.find(prefix);
  }

  /// Longest-prefix match: the best route whose prefix contains `addr`.
  /// Entries whose best selection is empty cannot occur (they are erased).
  [[nodiscard]] std::optional<std::pair<net::Prefix, const Candidate*>>
  longest_match(net::Ipv4Addr addr) const;

  /// Inserts or replaces `candidate` under `prefix`, creating the entry on
  /// demand. Returns true if the best route (selection) changed. When
  /// `entry_out` is non-null it receives the touched entry, valid until
  /// the next table mutation — callers fanning the change out to peers
  /// read the new best from it instead of probing the table again.
  bool upsert(const net::Prefix& prefix, Candidate candidate,
              const RibEntry** entry_out = nullptr);

  /// Removes the candidate from `via` under `prefix`, erasing the entry
  /// once its last candidate is gone. An absent prefix or candidate is a
  /// pure lookup that changes nothing. Returns true if the best route
  /// changed. `entry_out` (optional) receives the surviving entry, or
  /// nullptr if there is none.
  bool remove(const net::Prefix& prefix, PeerIndex via,
              const RibEntry** entry_out = nullptr);

  /// Read-only traversal of (prefix, best candidate) in address order —
  /// the copy-free path for snapshots, exports and metrics refreshes.
  template <typename Fn>
  void for_each_best(Fn&& fn) const {
    map_.for_each([&](const net::Prefix& p, const RibEntry& entry) {
      if (const Candidate* best = entry.best()) fn(p, *best);
    });
  }

  /// Same, restricted to entries (non-strictly) inside `within`, in the
  /// same order.
  template <typename Fn>
  void for_each_best_within(const net::Prefix& within, Fn&& fn) const {
    map_.for_each_within(
        within, [&](const net::Prefix& p, const RibEntry& entry) {
          if (const Candidate* best = entry.best()) fn(p, *best);
        });
  }

  [[nodiscard]] std::vector<std::pair<net::Prefix, Route>> best_routes()
      const;

  /// Candidates across all entries (Adj-RIB-In size). Maintained as a
  /// running total by upsert()/remove(), from whether each appended or
  /// unlinked a candidate, so metrics refresh hooks can read it every
  /// metric frame without an O(entries) table walk — at 1k+ domains the
  /// unicast tables make that walk O(domains²) per snapshot.
  [[nodiscard]] std::size_t candidate_count() const { return candidates_; }

  /// Bytes of routing state held by this view: the map's slot array plus
  /// this view's share of the candidate arena (one slot per candidate).
  [[nodiscard]] std::size_t state_bytes() const {
    return map_.memory_bytes() +
           candidate_count() * CandidateArena::slot_bytes();
  }

  /// Full-entry traversal (prefix, RibEntry) in address order — lets an
  /// invariant checker recompute the decision process over the candidate
  /// set and compare against the stored selection.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    map_.for_each(
        [&](const net::Prefix& p, const RibEntry& entry) { fn(p, entry); });
  }

 private:
  net::PrefixMap<RibEntry> map_;
  std::size_t candidates_ = 0;
};

}  // namespace bgp
