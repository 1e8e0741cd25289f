#include "bgp/rib.hpp"

#include <algorithm>

namespace bgp {

bool better(const Candidate& a, const Candidate& b) {
  const bool a_local = a.via == kLocalPeer;
  const bool b_local = b.via == kLocalPeer;
  if (a_local != b_local) return a_local;
  if (a.route.local_pref != b.route.local_pref) {
    return a.route.local_pref > b.route.local_pref;
  }
  if (a.route.as_path.size() != b.route.as_path.size()) {
    return a.route.as_path.size() < b.route.as_path.size();
  }
  return a.exit_uid < b.exit_uid;
}

CandidateArena& CandidateArena::instance() {
  thread_local CandidateArena arena;
  return arena;
}

std::uint32_t CandidateArena::allocate(Candidate value) {
  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = slot(index).next;
  } else {
    index = static_cast<std::uint32_t>(slots_.emplace_back());
  }
  Slot& s = slot(index);
  s.value = std::move(value);
  s.next = kNil;
  ++live_;
  return index;
}

void CandidateArena::release(std::uint32_t index) {
  Slot& s = slot(index);
  s.value = Candidate{};  // drop the path ref now, not at slot reuse
  s.next = free_head_;
  free_head_ = index;
  --live_;
}

bool RibEntry::upsert(Candidate candidate, bool* appended) {
  CandidateArena& arena = CandidateArena::instance();
  const std::uint32_t prev_best = best_;
  std::uint32_t tail = CandidateArena::kNil;
  if (appended != nullptr) *appended = false;
  for (std::uint32_t cur = head_; cur != CandidateArena::kNil;
       cur = arena.next(cur)) {
    if (arena.value(cur).via == candidate.via) {
      if (cur == prev_best) {
        // Overwriting the selected slot destroys the only record of the
        // old best route — save it (moved, not copied) for the compare.
        const Route before = std::move(arena.value(cur).route);
        arena.value(cur) = std::move(candidate);
        return reselect(prev_best, &before);
      }
      arena.value(cur) = std::move(candidate);
      return reselect(prev_best, nullptr);
    }
    tail = cur;
  }
  const std::uint32_t index = arena.allocate(std::move(candidate));
  if (tail == CandidateArena::kNil) {
    head_ = index;
  } else {
    arena.set_next(tail, index);
  }
  if (appended != nullptr) *appended = true;
  return reselect(prev_best, nullptr);
}

bool RibEntry::remove(PeerIndex via, bool* unlinked) {
  CandidateArena& arena = CandidateArena::instance();
  const std::uint32_t prev_best = best_;
  std::uint32_t prev = CandidateArena::kNil;
  if (unlinked != nullptr) *unlinked = false;
  for (std::uint32_t cur = head_; cur != CandidateArena::kNil;
       cur = arena.next(cur)) {
    if (arena.value(cur).via == via) {
      if (prev == CandidateArena::kNil) {
        head_ = arena.next(cur);
      } else {
        arena.set_next(prev, arena.next(cur));
      }
      if (unlinked != nullptr) *unlinked = true;
      if (cur == prev_best) {
        const Route before = std::move(arena.value(cur).route);
        arena.release(cur);
        return reselect(prev_best, &before);
      }
      arena.release(cur);
      return reselect(prev_best, nullptr);
    }
    prev = cur;
  }
  return false;
}

bool RibEntry::reselect(std::uint32_t previous_best,
                        const Route* previous_route) {
  CandidateArena& arena = CandidateArena::instance();
  // Chain order is insertion order, so the first-best-wins tie behaviour
  // of the old vector scan is preserved exactly.
  best_ = CandidateArena::kNil;
  for (std::uint32_t cur = head_; cur != CandidateArena::kNil;
       cur = arena.next(cur)) {
    if (best_ == CandidateArena::kNil ||
        better(arena.value(cur), arena.value(best_))) {
      best_ = cur;
    }
  }
  if (best_ == CandidateArena::kNil) {
    return previous_best != CandidateArena::kNil;
  }
  if (previous_best == CandidateArena::kNil) return true;
  const Route& before = previous_route != nullptr
                            ? *previous_route
                            : arena.value(previous_best).route;
  return arena.value(best_).route != before;
}

void RibEntry::clear() {
  CandidateArena& arena = CandidateArena::instance();
  for (std::uint32_t cur = head_; cur != CandidateArena::kNil;) {
    const std::uint32_t next = arena.next(cur);
    arena.release(cur);
    cur = next;
  }
  head_ = CandidateArena::kNil;
  best_ = CandidateArena::kNil;
}

std::optional<std::pair<net::Prefix, const Candidate*>> Rib::longest_match(
    net::Ipv4Addr addr) const {
  const auto hit = map_.longest_match(addr);
  if (!hit) return std::nullopt;
  const Candidate* best = hit->second->best();
  if (best == nullptr) return std::nullopt;  // defensive; entries are pruned
  return {{hit->first, best}};
}

bool Rib::upsert(const net::Prefix& prefix, Candidate candidate,
                 const RibEntry** entry_out) {
  RibEntry& e = map_.get_or_insert(prefix);
  bool appended = false;
  const bool changed = e.upsert(std::move(candidate), &appended);
  if (appended) ++candidates_;
  if (entry_out != nullptr) *entry_out = &e;
  return changed;
}

bool Rib::remove(const net::Prefix& prefix, PeerIndex via,
                 const RibEntry** entry_out) {
  // A miss (no entry, or no candidate via `via`) is a pure lookup: nothing
  // is inserted.
  RibEntry* e = map_.find(prefix);
  if (entry_out != nullptr) *entry_out = e;
  if (e == nullptr) return false;
  bool unlinked = false;
  const bool changed = e->remove(via, &unlinked);
  if (!unlinked) return false;
  --candidates_;
  if (e->empty()) {
    map_.erase(prefix);
    if (entry_out != nullptr) *entry_out = nullptr;
  }
  return changed;
}

std::vector<std::pair<net::Prefix, Route>> Rib::best_routes() const {
  std::vector<std::pair<net::Prefix, Route>> out;
  out.reserve(map_.size());
  for_each_best([&](const net::Prefix& p, const Candidate& best) {
    out.emplace_back(p, best.route);
  });
  return out;
}

}  // namespace bgp
