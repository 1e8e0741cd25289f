#include "bgp/path_table.hpp"

namespace bgp {

PathTable& PathTable::instance() {
  thread_local PathTable table;
  return table;
}

std::uint64_t PathTable::hash_hops(const DomainId* hops, std::size_t count) {
  // FNV-1a over the hop words; good enough for the tiny path population
  // and endian-stable within a process.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= hops[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint32_t PathTable::intern(const DomainId* hops, std::size_t count) {
  ++stats_.interned;
  if (count == 0) {
    ++stats_.hits;
    return 0;
  }
  const std::uint64_t hash = hash_hops(hops, count);
  const std::size_t bucket = hash & (buckets_.size() - 1);
  for (std::uint32_t id = buckets_[bucket]; id != 0;
       id = entries_[id].next) {
    Entry& e = entries_[id];
    if (e.hash != hash || e.hops.size() != count) continue;
    bool equal = true;
    for (std::size_t i = 0; i < count; ++i) {
      if (e.hops[i] != hops[i]) {
        equal = false;
        break;
      }
    }
    if (equal) {
      ++stats_.hits;
      ++e.refs;
      return id;
    }
  }
  std::uint32_t id = 0;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(entries_.emplace_back());
  }
  Entry& e = entries_[id];
  e.hops.assign(hops, hops + count);
  e.hash = hash;
  e.refs = 1;
  e.next = buckets_[bucket];
  buckets_[bucket] = id;
  ++live_;
  stats_.live_paths = live_;
  maybe_grow_buckets();
  return id;
}

void PathTable::decref(std::uint32_t id) {
  Entry& e = entries_[id];
  if (--e.refs != 0) return;
  unlink(id);
  e.hops.clear();
  free_ids_.push_back(id);
  --live_;
  stats_.live_paths = live_;
}

void PathTable::unlink(std::uint32_t id) {
  const std::size_t bucket = entries_[id].hash & (buckets_.size() - 1);
  std::uint32_t* link = &buckets_[bucket];
  while (*link != id) link = &entries_[*link].next;
  *link = entries_[id].next;
  entries_[id].next = 0;
}

void PathTable::maybe_grow_buckets() {
  if (live_ < buckets_.size()) return;  // load factor < 1
  std::vector<std::uint32_t> fresh(buckets_.size() * 2, 0);
  for (std::uint32_t head : buckets_) {
    for (std::uint32_t id = head; id != 0;) {
      const std::uint32_t next = entries_[id].next;
      const std::size_t bucket = entries_[id].hash & (fresh.size() - 1);
      entries_[id].next = fresh[bucket];
      fresh[bucket] = id;
      id = next;
    }
  }
  buckets_ = std::move(fresh);
}

PathRef PathRef::intern(const DomainId* hops, std::size_t count) {
  return PathRef(PathTable::instance().intern(hops, count));
}

PathRef PathRef::prepend(DomainId head) const {
  PathTable& table = PathTable::instance();
  if (id_ == 0) return PathRef(table.intern(&head, 1));
  const std::vector<DomainId>& hops = table.entry(id_).hops;
  std::vector<DomainId> extended;
  extended.reserve(hops.size() + 1);
  extended.push_back(head);
  extended.insert(extended.end(), hops.begin(), hops.end());
  // `hops` may dangle if intern() reuses the freed slot of a dying entry,
  // but `extended` owns its copy by now, so the reference is done with.
  return PathRef(table.intern(extended.data(), extended.size()));
}

}  // namespace bgp
