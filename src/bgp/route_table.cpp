#include "bgp/route_table.hpp"

namespace bgp {

RouteTable& RouteTable::instance() {
  thread_local RouteTable table;
  return table;
}

RouteRef RouteRef::intern(const Route& route) {
  return RouteRef(RouteTable::instance().intern(route));
}

std::uint64_t RouteTable::hash_route(const Route& route) {
  // FNV-1a over the attributes. PathRef ids are canonical within the
  // thread, so hashing the id (not the hop sequence) is sound.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(route.as_path.id());
  mix(static_cast<std::uint64_t>(route.origin_as));
  mix(static_cast<std::uint64_t>(route.local_pref));
  return h;
}

std::uint32_t RouteTable::intern(const Route& route) {
  ++stats_.interned;
  const std::uint64_t hash = hash_route(route);
  const std::size_t bucket = hash & (buckets_.size() - 1);
  for (std::uint32_t id = buckets_[bucket]; id != 0;
       id = entries_[id].next) {
    Entry& e = entries_[id];
    if (e.hash == hash && e.route == route) {
      ++e.refs;
      ++stats_.hits;
      return id;
    }
  }

  std::uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(entries_.emplace_back());
  }
  Entry& e = entries_[id];
  e.route = route;
  e.hash = hash;
  e.refs = 1;
  e.next = buckets_[bucket];
  buckets_[bucket] = id;
  ++live_;
  stats_.live_routes = live_;
  maybe_grow_buckets();
  return id;
}

void RouteTable::decref(std::uint32_t id) {
  Entry& e = entries_[id];
  if (--e.refs != 0) return;
  unlink(id);
  e.route = Route{};  // drop the path ref now, not at slot reuse
  e.hash = 0;
  free_ids_.push_back(id);
  --live_;
  stats_.live_routes = live_;
}

void RouteTable::unlink(std::uint32_t id) {
  const std::size_t bucket = entries_[id].hash & (buckets_.size() - 1);
  std::uint32_t* link = &buckets_[bucket];
  while (*link != id) link = &entries_[*link].next;
  *link = entries_[id].next;
  entries_[id].next = 0;
}

void RouteTable::maybe_grow_buckets() {
  if (live_ < buckets_.size()) return;
  std::vector<std::uint32_t> grown(buckets_.size() * 2, 0);
  for (std::uint32_t head : buckets_) {
    for (std::uint32_t id = head; id != 0;) {
      const std::uint32_t next = entries_[id].next;
      const std::size_t bucket = entries_[id].hash & (grown.size() - 1);
      entries_[id].next = grown[bucket];
      grown[bucket] = id;
      id = next;
    }
  }
  buckets_ = std::move(grown);
}

}  // namespace bgp
