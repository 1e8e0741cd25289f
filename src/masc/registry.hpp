// A registry of claimed address ranges with lifetimes — the "local record
// of those prefixes that have already been claimed by its siblings" that
// the claim algorithm consults (§4.3.3), and the bookkeeping a parent
// domain keeps of claims inside its space (§4.1).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/prefix.hpp"
#include "net/time.hpp"
#include "masc/types.hpp"

namespace masc {

class ClaimRegistry {
 public:
  struct Entry {
    DomainId owner;
    net::SimTime expires;
  };

  /// Records a claim. Returns false (and records nothing) if it overlaps a
  /// live claim by a DIFFERENT owner — a collision. Re-claiming one's own
  /// exact prefix renews its expiry; an own-overlapping but different
  /// prefix (doubling) replaces the old entries it covers.
  bool claim(const net::Prefix& prefix, DomainId owner, net::SimTime expires,
             net::SimTime now);

  /// Removes an exact claim (idempotent).
  void release(const net::Prefix& prefix);

  /// True if no live claim overlaps `prefix` at `now`.
  [[nodiscard]] bool is_free(const net::Prefix& prefix, net::SimTime now) const;

  /// The live claim overlapping `prefix`, if any: the outermost live claim
  /// containing it, else the first live claim inside it in address order.
  [[nodiscard]] std::optional<std::pair<net::Prefix, Entry>> conflicting(
      const net::Prefix& prefix, net::SimTime now) const;

  /// Owner of the exact live claim on `prefix`, if present.
  [[nodiscard]] std::optional<DomainId> owner_of(const net::Prefix& prefix,
                                                 net::SimTime now) const;

  /// Drops expired entries. Call periodically (or before metrics).
  void purge_expired(net::SimTime now);

  /// Maximal free sub-prefixes of `space` at `now`, in address order: the
  /// decomposition of the unclaimed space the claim algorithm searches.
  [[nodiscard]] std::vector<net::Prefix> free_prefixes(
      const net::Prefix& space, net::SimTime now) const;

  /// All live claims, in address order.
  [[nodiscard]] std::vector<std::pair<net::Prefix, Entry>> claims(
      net::SimTime now) const;

  /// Stored entries, expired ones included until purge_expired() runs.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  using Slot = std::pair<net::Prefix, Entry>;
  /// Where the entries overlapping a prefix P sit.
  struct Overlaps {
    /// The entries containing P (P included), deepest first: at most one
    /// per length 0..32.
    std::array<std::uint32_t, 33> ancestors{};
    int ancestor_count = 0;
    /// The first entry after P; the entries strictly inside P follow.
    std::size_t run = 0;
  };

  [[nodiscard]] std::size_t lower_bound(const net::Prefix& key) const;
  [[nodiscard]] std::size_t upper_bound(const net::Prefix& key) const;
  [[nodiscard]] Overlaps overlaps(const net::Prefix& prefix) const;
  /// The first live entry overlapping `prefix` that `pred` accepts, in
  /// conflicting()'s order; nullptr if none.
  template <typename Pred>
  [[nodiscard]] const Slot* find_live_overlap(const net::Prefix& prefix,
                                              net::SimTime now,
                                              Pred&& pred) const;

  /// Sorted by net::Prefix's (base, length) order: every entry containing
  /// P sorts at or before P, outermost first, and the entries strictly
  /// inside P form the run right after P's position.
  std::vector<Slot> entries_;
};

}  // namespace masc
