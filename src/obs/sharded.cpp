#include "obs/sharded.hpp"

#include <algorithm>

namespace obs {

namespace {

/// Export order: hottest first, ties broken by key so equal runs export
/// identical bytes.
bool item_order(const ShardedItem& a, const ShardedItem& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.key < b.key;
}

}  // namespace

void ShardedCounter::add(std::uint64_t key, std::uint64_t n) {
  total_ += n;
  // Attribution is bursty (one domain's sync storm produces a run of adds
  // for the same key): a one-entry cache turns the run into a direct slot
  // hit, skipping the hash lookup that otherwise dominates this path.
  if (last_slot_ != UINT32_MAX && slots_[last_slot_].key == key) {
    slots_[last_slot_].count += n;
    return;
  }
  const auto hit = index_.find(key);
  if (hit != index_.end()) {
    last_slot_ = hit->second;
    slots_[hit->second].count += n;
    return;
  }
  if (slots_.size() < capacity_) {
    last_slot_ = static_cast<std::uint32_t>(slots_.size());
    index_.emplace(key, last_slot_);
    slots_.push_back(Slot{key, n, 0});
    return;
  }
  // Space-saving eviction: the minimum-count slot is replaced, and its
  // count is inherited as the newcomer's floor — so the stored count stays
  // an upper bound on the true count and `error` bounds the overestimate.
  // Ties evict the largest key, keeping the choice deterministic.
  const std::uint32_t victim = take_victim();
  Slot& slot = slots_[victim];
  index_.erase(slot.key);
  index_.emplace(key, victim);
  slot.error = slot.count;
  slot.count += n;
  slot.key = key;
  last_slot_ = victim;
}

std::uint32_t ShardedCounter::take_victim() {
  for (;;) {
    while (!min_stack_.empty()) {
      const std::uint32_t candidate = min_stack_.back();
      min_stack_.pop_back();
      // Still at the level? Counts only grow, so any slot that left the
      // level is legitimately no longer minimal — and any slot AT the
      // level is on the stack (nothing can fall back down to it).
      if (slots_[candidate].count == min_level_) return candidate;
    }
    // Level exhausted: the true minimum rose above min_level_. One scan
    // establishes the new level and every slot holding it.
    min_level_ = UINT64_MAX;
    for (const Slot& slot : slots_) min_level_ = std::min(min_level_, slot.count);
    min_stack_.clear();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].count == min_level_) min_stack_.push_back(i);
    }
    // Key-ascending so pop_back yields the largest key first — the same
    // victim order the full scan produced.
    std::sort(min_stack_.begin(), min_stack_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return slots_[a].key < slots_[b].key;
              });
  }
}

std::uint64_t ShardedCounter::count_of(std::uint64_t key) const {
  const auto hit = index_.find(key);
  return hit != index_.end() ? slots_[hit->second].count : 0;
}

std::vector<ShardedItem> ShardedCounter::top(std::size_t k) const {
  std::vector<ShardedItem> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.push_back(ShardedItem{slot.key, static_cast<double>(slot.count),
                              slot.error});
  }
  std::sort(out.begin(), out.end(), item_order);
  if (out.size() > k) out.resize(k);
  return out;
}

void TopKGauge::begin_epoch() {
  total_ = 0.0;
  seen_ = 0;
  items_.clear();
}

void TopKGauge::set(std::uint64_t key, double value) {
  total_ += value;
  ++seen_;
  const ShardedItem item{key, value, 0};
  if (items_.size() == k_ && !item_order(item, items_.back())) return;
  const auto at =
      std::lower_bound(items_.begin(), items_.end(), item, item_order);
  items_.insert(at, item);
  if (items_.size() > k_) items_.pop_back();
}

void merge_sharded_items(ShardedSample& into, const ShardedSample& from) {
  into.total += from.total;
  const std::size_t budget = std::max(into.items.size(), from.items.size());
  for (const ShardedItem& item : from.items) {
    const auto hit = std::find_if(
        into.items.begin(), into.items.end(),
        [&](const ShardedItem& mine) { return mine.key == item.key; });
    if (hit != into.items.end()) {
      hit->value += item.value;
      hit->error += item.error;
    } else {
      into.items.push_back(item);
    }
  }
  std::sort(into.items.begin(), into.items.end(), item_order);
  if (into.items.size() > budget) into.items.resize(budget);
}

}  // namespace obs
