#include "masc/registry.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace masc {

namespace {

bool is_live(const ClaimRegistry::Entry& entry, net::SimTime now) {
  return entry.expires > now;
}

/// The longest prefix containing both `a` and `b`.
net::Prefix common_prefix(const net::Prefix& a, const net::Prefix& b) {
  const std::uint32_t diff = a.base().value() ^ b.base().value();
  const int agree = diff == 0 ? 32 : std::countl_zero(diff);
  return net::Prefix::containing(a.base(),
                                 std::min({agree, a.length(), b.length()}));
}

/// One past the last address of `p`; 64 bits because /0 ends at 2^32.
std::uint64_t end_of(const net::Prefix& p) {
  return std::uint64_t{p.base().value()} + p.size();
}

/// Appends the maximal aligned prefixes that tile [lo, hi), in address
/// order (the greedy range-to-CIDR split).
void append_range(std::uint64_t lo, std::uint64_t hi,
                  std::vector<net::Prefix>& out) {
  while (lo < hi) {
    std::uint64_t size = lo == 0 ? std::uint64_t{1} << 32 : lo & (~lo + 1);
    while (lo + size > hi) size >>= 1;
    out.emplace_back(net::Ipv4Addr{static_cast<std::uint32_t>(lo)},
                     32 - std::countr_zero(size));
    lo += size;
  }
}

}  // namespace

std::size_t ClaimRegistry::lower_bound(const net::Prefix& key) const {
  return static_cast<std::size_t>(
      std::lower_bound(
          entries_.begin(), entries_.end(), key,
          [](const Slot& s, const net::Prefix& k) { return s.first < k; }) -
      entries_.begin());
}

std::size_t ClaimRegistry::upper_bound(const net::Prefix& key) const {
  return static_cast<std::size_t>(
      std::upper_bound(
          entries_.begin(), entries_.end(), key,
          [](const net::Prefix& k, const Slot& s) { return k < s.first; }) -
      entries_.begin());
}

ClaimRegistry::Overlaps ClaimRegistry::overlaps(
    const net::Prefix& prefix) const {
  Overlaps out;
  out.run = upper_bound(prefix);
  // Walk back from P's position. An entry that does not contain P lies
  // wholly before it, and every ancestor further back contains both, so
  // jump to their common prefix. Each jump shortens that common prefix.
  std::size_t pos = out.run;
  while (pos > 0) {
    const net::Prefix& p = entries_[pos - 1].first;
    if (p.contains(prefix)) {
      out.ancestors[out.ancestor_count++] = static_cast<std::uint32_t>(--pos);
    } else {
      pos = upper_bound(common_prefix(p, prefix));
    }
  }
  return out;
}

template <typename Pred>
const ClaimRegistry::Slot* ClaimRegistry::find_live_overlap(
    const net::Prefix& prefix, net::SimTime now, Pred&& pred) const {
  const Overlaps o = overlaps(prefix);
  for (int i = o.ancestor_count; i-- > 0;) {  // outermost first
    const Slot& s = entries_[o.ancestors[i]];
    if (is_live(s.second, now) && pred(s.second)) return &s;
  }
  const std::uint64_t end = end_of(prefix);
  for (std::size_t i = o.run;
       i < entries_.size() && entries_[i].first.base().value() < end; ++i) {
    const Slot& s = entries_[i];
    if (is_live(s.second, now) && pred(s.second)) return &s;
  }
  return nullptr;
}

bool ClaimRegistry::claim(const net::Prefix& prefix, DomainId owner,
                          net::SimTime expires, net::SimTime now) {
  if (expires <= now) {
    throw std::invalid_argument("ClaimRegistry::claim: already expired");
  }
  const auto foreign = [&](const Entry& e) { return e.owner != owner; };
  if (find_live_overlap(prefix, now, foreign) != nullptr) return false;
  // Doubling/renewal: every live overlap is an own claim covered by (or
  // covering) the new prefix, and is folded into it. An expired entry on
  // the exact prefix is overwritten.
  std::erase_if(entries_, [&](const Slot& s) {
    return is_live(s.second, now) && s.first.overlaps(prefix);
  });
  const std::size_t at = lower_bound(prefix);
  if (at < entries_.size() && entries_[at].first == prefix) {
    entries_[at].second = Entry{owner, expires};
  } else {
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(at),
                    Slot{prefix, Entry{owner, expires}});
  }
  return true;
}

void ClaimRegistry::release(const net::Prefix& prefix) {
  const std::size_t at = lower_bound(prefix);
  if (at < entries_.size() && entries_[at].first == prefix) {
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(at));
  }
}

bool ClaimRegistry::is_free(const net::Prefix& prefix,
                            net::SimTime now) const {
  return find_live_overlap(prefix, now, [](const Entry&) { return true; }) ==
         nullptr;
}

std::optional<std::pair<net::Prefix, ClaimRegistry::Entry>>
ClaimRegistry::conflicting(const net::Prefix& prefix, net::SimTime now) const {
  const Slot* hit =
      find_live_overlap(prefix, now, [](const Entry&) { return true; });
  if (hit == nullptr) return std::nullopt;
  return *hit;
}

std::optional<DomainId> ClaimRegistry::owner_of(const net::Prefix& prefix,
                                                net::SimTime now) const {
  const std::size_t at = lower_bound(prefix);
  if (at == entries_.size() || entries_[at].first != prefix ||
      !is_live(entries_[at].second, now)) {
    return std::nullopt;
  }
  return entries_[at].second.owner;
}

void ClaimRegistry::purge_expired(net::SimTime now) {
  std::erase_if(entries_,
                [&](const Slot& s) { return !is_live(s.second, now); });
}

std::vector<net::Prefix> ClaimRegistry::free_prefixes(
    const net::Prefix& space, net::SimTime now) const {
  std::vector<net::Prefix> out;
  const Overlaps o = overlaps(space);
  for (int i = 0; i < o.ancestor_count; ++i) {
    if (is_live(entries_[o.ancestors[i]].second, now)) return out;
  }
  // The free space is what the live entries inside `space` leave of it:
  // walk them in address order and tile each gap. Live entries need not
  // be disjoint (claim() folds only the overlaps live at its own `now`),
  // so carry the furthest end seen.
  std::uint64_t cursor = space.base().value();
  const std::uint64_t end = end_of(space);
  for (std::size_t i = o.run; i < entries_.size(); ++i) {
    const auto& [p, e] = entries_[i];
    const std::uint64_t base = p.base().value();
    if (base >= end) break;
    if (!is_live(e, now)) continue;
    if (base > cursor) append_range(cursor, base, out);
    cursor = std::max(cursor, end_of(p));
  }
  append_range(cursor, end, out);
  return out;
}

std::vector<std::pair<net::Prefix, ClaimRegistry::Entry>>
ClaimRegistry::claims(net::SimTime now) const {
  std::vector<std::pair<net::Prefix, Entry>> out;
  for (const Slot& s : entries_) {
    if (is_live(s.second, now)) out.push_back(s);
  }
  return out;
}

}  // namespace masc
