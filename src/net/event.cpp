#include "net/event.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace net {
namespace {

// Saturating int64 add for coverage boundaries: MASC lifetimes schedule
// multi-day timers, and a rung built near INT64_MAX must not overflow its
// exclusive end.
std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  if (b > 0 && a > INT64_MAX - b) return INT64_MAX;
  if (b < 0 && a < INT64_MIN - b) return INT64_MIN;
  return a + b;
}

}  // namespace

std::uint32_t EventQueue::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  return static_cast<std::uint32_t>(slots_.emplace_back());
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action = Action{};  // release captures (e.g. held state) promptly
  s.tag = kDefaultEventTag;
  s.cancelled = false;
  // Bumping the generation on free invalidates every outstanding EventId
  // for this tenancy immediately.
  ++s.generation;
  free_slots_.push_back(slot);
}

const char* EventQueue::intern_tag(const char* tag) {
  if (tag == last_tag_) return last_tag_interned_;
  for (const auto& [raw, interned] : tag_memo_) {
    if (raw == tag) {
      // A memo hit trusts the pointer's content without reading it. If a
      // caller handed us a dangling buffer whose storage was reused for a
      // different tag, the memo would now lie — debug builds re-check.
      assert(std::string_view(tag) == std::string_view(interned) &&
             "event tag pointer reused with different content");
      last_tag_ = tag;
      last_tag_interned_ = interned;
      return interned;
    }
  }
  // First sight of this pointer: intern by content so the queue owns the
  // bytes and a later-dangling `tag` cannot corrupt profiling output.
  const std::string_view content(tag);
  const char* interned = nullptr;
  for (const std::string& owned : owned_tags_) {
    if (owned == content) {
      interned = owned.c_str();
      break;
    }
  }
  if (interned == nullptr) {
    owned_tags_.emplace_back(content);
    interned = owned_tags_.back().c_str();
  }
  tag_memo_.emplace_back(tag, interned);
  last_tag_ = tag;
  last_tag_interned_ = interned;
  return interned;
}

EventId EventQueue::schedule_at(SimTime at, Action action, const char* tag) {
  return schedule_key(at, next_seq_++, std::move(action), tag);
}

EventId EventQueue::schedule_reserved(SimTime at, std::uint64_t seq,
                                      Action action, const char* tag) {
  assert(seq < next_seq_ && "seq must come from reserve_seq()");
#ifndef NDEBUG
  assert((at.ns() > last_run_at_ ||
          (at.ns() == last_run_at_ && seq > last_run_seq_)) &&
         "reserved (time, seq) position has already been passed");
#endif
  return schedule_key(at, seq, std::move(action), tag);
}

EventId EventQueue::schedule_key(SimTime at, std::uint64_t seq, Action action,
                                 const char* tag) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue: scheduling in the past (" +
                                at.to_string() + " < " + now_.to_string() +
                                ")");
  }
  const std::uint32_t slot = allocate_slot();
  Slot& s = slots_[slot];
  s.tag = intern_tag(tag);
  s.action = std::move(action);
  insert_key(Key{at.ns(), seq, slot});
  ++live_;
  ++stored_;
  high_water_ = std::max(high_water_, stored_);
  return EventId{(static_cast<std::uint64_t>(s.generation) << 32) | slot};
}

void EventQueue::insert_key(const Key& key) {
  if (stored_ == 0) {
    // Queue fully drained: reset coordinates so the fresh key lands in the
    // bottom directly. Keeps the common one-pending-timer pattern
    // (schedule, pop, schedule, ...) rung-free forever.
    bottom_.clear();
    bottom_end_ = sat_add(key.at, 1);
    top_start_ = bottom_end_;
    bottom_.push_back(key);
    return;
  }
  if (key.at < bottom_end_) {
    // Near future: sift into the bottom heap. O(log bottom) with no
    // memmove — crucial for delivery-FIFO re-arms, whose reserved (old)
    // seqs land mid-order inside the active same-timestamp burst.
    bottom_.push_back(key);
    std::push_heap(bottom_.begin(), bottom_.end(), key_greater);
    return;
  }
  // Walk rungs finest (earliest coverage, back) to coarsest (front).
  for (std::size_t i = rungs_.size(); i-- > 0;) {
    if (key.at < rungs_[i].end) {
      insert_into_rung(rungs_[i], key);
      return;
    }
  }
  top_.push_back(key);
  top_min_ = std::min(top_min_, key.at);
  top_max_ = std::max(top_max_, key.at);
}

void EventQueue::insert_into_rung(Rung& rung, const Key& key) {
  // A key below the rung's unconsumed frontier (possible when a finer
  // tier left a coverage gap behind it) clamps into the current bucket:
  // the whole bucket is sorted at materialization, so order stays exact.
  std::int64_t idx = (key.at - rung.start) >> rung.width_log2;
  idx = std::max(idx, static_cast<std::int64_t>(rung.cur));
  idx = std::min(idx, static_cast<std::int64_t>(rung.buckets.size()) - 1);
  rung.buckets[static_cast<std::size_t>(idx)].push_back(key);
}

std::vector<EventQueue::Key> EventQueue::take_pooled_bucket() {
  if (bucket_pool_.empty()) return {};
  std::vector<Key> bucket = std::move(bucket_pool_.back());
  bucket_pool_.pop_back();
  return bucket;
}

void EventQueue::recycle_bucket(std::vector<Key>&& bucket) {
  if (bucket.capacity() > 0 && bucket_pool_.size() < kBucketPoolMax) {
    bucket.clear();
    bucket_pool_.push_back(std::move(bucket));
  }
}

bool EventQueue::ensure_bottom() {
  while (bottom_.empty()) {
    if (!rungs_.empty()) {
      Rung& rung = rungs_.back();
      while (rung.cur < rung.buckets.size() && rung.buckets[rung.cur].empty()) {
        ++rung.cur;
      }
      if (rung.cur == rung.buckets.size()) {
        for (auto& bucket : rung.buckets) recycle_bucket(std::move(bucket));
        rungs_.pop_back();
        continue;
      }
      const std::size_t idx = rung.cur;
      const std::int64_t bucket_start = sat_add(
          rung.start, static_cast<std::int64_t>(idx) << rung.width_log2);
      const std::int64_t bucket_end =
          sat_add(bucket_start, std::int64_t{1} << rung.width_log2);
      const int width_log2 = rung.width_log2;
      std::vector<Key> bucket = std::move(rung.buckets[idx]);
      rung.buckets[idx] = take_pooled_bucket();
      ++rung.cur;
      if (rung.cur == rung.buckets.size()) {
        // Eager-pop the exhausted rung so the insert walk never routes a
        // key into a tier that will no longer materialize anything.
        for (auto& b : rung.buckets) recycle_bucket(std::move(b));
        rungs_.pop_back();  // `rung` is dangling from here on
      }
      if (width_log2 == 0 || bucket.size() <= kBottomThreshold) {
        // Small enough (or already down to a single timestamp plus
        // clamped stragglers): heapify — O(n), the only ordering work a
        // key ever sees besides its O(log) sift on pop.
        std::int64_t max_at = bucket.front().at;
        for (const Key& key : bucket) max_at = std::max(max_at, key.at);
        std::make_heap(bucket.begin(), bucket.end(), key_greater);
        std::swap(bottom_, bucket);
        recycle_bucket(std::move(bucket));  // old bottom storage
        // Cover only what actually materialized, not the full bucket
        // width: a coarse bucket_end would funnel every schedule landing
        // in the next (potentially seconds-wide) window into the bottom
        // heap, bloating its log factor. Keys in the gap (max key,
        // bucket_end) route to the parent rung's current bucket (clamped)
        // or the overflow, and get bucketed there wholesale.
        bottom_end_ = sat_add(max_at, 1);
        return true;
      }
      spawn_rung(std::move(bucket), bucket_start, bucket_end, width_log2);
      continue;
    }
    if (!top_.empty()) {
      build_rung_from_top();
      continue;
    }
    return false;
  }
  return true;
}

void EventQueue::spawn_rung(std::vector<Key>&& keys, std::int64_t start,
                            std::int64_t end, int parent_width_log2) {
  // Bursts at one timestamp never thin out by splitting — short-circuit
  // them straight into the bottom with a single sort by seq.
  std::int64_t min_at = keys.front().at;
  std::int64_t max_at = min_at;
  for (const Key& key : keys) {
    min_at = std::min(min_at, key.at);
    max_at = std::max(max_at, key.at);
  }
  if (min_at == max_at) {
    std::make_heap(keys.begin(), keys.end(), key_greater);
    std::swap(bottom_, keys);
    recycle_bucket(std::move(keys));
    bottom_end_ = sat_add(max_at, 1);  // tight: see ensure_bottom
    return;  // the refill loop sees a non-empty bottom and stops
  }
  const int width_log2 = std::max(0, parent_width_log2 - kSpawnLog2);
  const std::size_t buckets = std::size_t{1}
                              << (parent_width_log2 - width_log2);
  Rung rung;
  rung.start = start;
  rung.end = end;
  rung.width_log2 = width_log2;
  rung.cur = 0;
  rung.buckets.reserve(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    rung.buckets.push_back(take_pooled_bucket());
  }
  for (const Key& key : keys) {
    std::int64_t idx = (key.at - start) >> width_log2;
    idx = std::min(std::max(idx, std::int64_t{0}),
                   static_cast<std::int64_t>(buckets) - 1);
    rung.buckets[static_cast<std::size_t>(idx)].push_back(key);
  }
  recycle_bucket(std::move(keys));
  rungs_.push_back(std::move(rung));
}

void EventQueue::build_rung_from_top() {
  if (top_min_ == top_max_) {
    // The whole overflow shares one timestamp (common when a single
    // far-future horizon, e.g. a MASC lifetime, dominates).
    std::make_heap(top_.begin(), top_.end(), key_greater);
    std::swap(bottom_, top_);
    top_.clear();
    bottom_end_ = sat_add(top_max_, 1);
    top_start_ = bottom_end_;
    top_min_ = INT64_MAX;
    top_max_ = INT64_MIN;
    return;
  }
  // Size buckets for roughly one key per bucket, bounded so the bucket
  // array itself stays cheap.
  const std::uint64_t span = static_cast<std::uint64_t>(top_max_ - top_min_) + 1;
  const std::uint64_t target =
      std::clamp<std::uint64_t>(top_.size(), 16, 4096);
  int width_log2 = 0;
  while ((((span - 1) >> width_log2) + 1) > target) ++width_log2;
  const std::size_t buckets =
      static_cast<std::size_t>(((span - 1) >> width_log2) + 1);
  Rung rung;
  rung.start = top_min_;
  rung.width_log2 = width_log2;
  rung.cur = 0;
  const std::uint64_t cover = static_cast<std::uint64_t>(buckets)
                              << width_log2;
  rung.end = static_cast<std::int64_t>(
      std::min(static_cast<std::uint64_t>(top_min_) + cover,
               static_cast<std::uint64_t>(INT64_MAX)));
  rung.buckets.reserve(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    rung.buckets.push_back(take_pooled_bucket());
  }
  for (const Key& key : top_) {
    const std::size_t idx = static_cast<std::size_t>(
        static_cast<std::uint64_t>(key.at - rung.start) >> width_log2);
    rung.buckets[std::min(idx, buckets - 1)].push_back(key);
  }
  top_.clear();
  top_start_ = rung.end;
  top_min_ = INT64_MAX;
  top_max_ = INT64_MIN;
  rungs_.push_back(std::move(rung));
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // A mismatched generation means the event already ran or was cancelled
  // (the slot was recycled); a stale id is a no-op.
  if (s.generation != generation_of(id) || s.cancelled) return false;
  s.cancelled = true;
  s.action = Action{};  // release captures eagerly; the key pops lazily
  --live_;
  return true;
}

bool EventQueue::pop_next(Key& out) {
  for (;;) {
    if (!ensure_bottom()) return false;
    const Key key = bottom_.front();
    std::pop_heap(bottom_.begin(), bottom_.end(), key_greater);
    bottom_.pop_back();
    --stored_;
    if (slots_[key.slot].cancelled) {
      free_slot(key.slot);  // lazily discard: its EventId was already dead
      continue;
    }
    out = key;
    return true;
  }
}

std::optional<EventQueue::NextKey> EventQueue::peek_next_stored() {
  if (!ensure_bottom()) return std::nullopt;
  const Key& key = bottom_.front();
  return NextKey{SimTime::nanoseconds(key.at), key.seq};
}

std::optional<EventQueue::NextKey> EventQueue::peek_next() {
  for (;;) {
    if (!ensure_bottom()) return std::nullopt;
    const Key key = bottom_.front();
    if (slots_[key.slot].cancelled) {
      std::pop_heap(bottom_.begin(), bottom_.end(), key_greater);
      bottom_.pop_back();
      free_slot(key.slot);
      --stored_;
      continue;
    }
    return NextKey{SimTime::nanoseconds(key.at), key.seq};
  }
}

void EventQueue::run_entry(const Key& key) {
  Slot& s = slots_[key.slot];
  Action action = std::move(s.action);
  const char* tag = s.tag;
  free_slot(key.slot);  // the EventId dies before the action runs
  now_ = SimTime::nanoseconds(key.at);
  ++events_run_;
  --live_;
#ifndef NDEBUG
  last_run_at_ = key.at;
  last_run_seq_ = key.seq;
#endif
  if (!profiler_) {
    action();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  action();
  const auto stop = std::chrono::steady_clock::now();
  profiler_(tag, std::chrono::duration<double>(stop - start).count());
}

bool EventQueue::step() {
  Key key;
  if (!pop_next(key)) return false;
  run_entry(key);
  return true;
}

void EventQueue::run_until(SimTime deadline) {
  for (;;) {
    // Peek: cancelled fronts are discarded lazily; a live front beyond
    // the deadline stays put (its EventId remains valid, so it can still
    // be cancelled later).
    const auto next = peek_next();
    if (!next || next->at > deadline) break;
    Key key;
    pop_next(key);  // cannot fail: peek_next just saw a live front
    run_entry(key);
  }
  now_ = std::max(now_, deadline);
}

void EventQueue::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (step()) {
    if (++fired > max_events) {
      throw std::runtime_error("EventQueue::run: exceeded max_events");
    }
  }
}

}  // namespace net
