#include "net/event.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace net {

std::uint32_t EventQueue::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
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
  heap_.push_back(Key{at.ns(), seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), key_greater);
  ++live_;
  high_water_ = std::max(high_water_, heap_.size());
  return EventId{(static_cast<std::uint64_t>(s.generation) << 32) | slot};
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

EventQueue::Key EventQueue::pop_front() {
  const Key key = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), key_greater);
  heap_.pop_back();
  return key;
}

bool EventQueue::skip_cancelled() {
  while (!heap_.empty()) {
    if (!slots_[heap_.front().slot].cancelled) return true;
    free_slot(pop_front().slot);  // its EventId was already dead
  }
  return false;
}

std::optional<EventQueue::NextKey> EventQueue::peek_next_stored() {
  if (heap_.empty()) return std::nullopt;
  const Key& key = heap_.front();
  return NextKey{SimTime::nanoseconds(key.at), key.seq};
}

std::optional<EventQueue::NextKey> EventQueue::peek_next() {
  if (!skip_cancelled()) return std::nullopt;
  return peek_next_stored();
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
  if (!skip_cancelled()) return false;
  run_entry(pop_front());
  return true;
}

void EventQueue::run_until(SimTime deadline) {
  // Cancelled fronts are discarded lazily; a live front beyond the
  // deadline stays put (its EventId remains valid, so it can still be
  // cancelled later).
  while (skip_cancelled() && heap_.front().at <= deadline.ns()) {
    run_entry(pop_front());
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
