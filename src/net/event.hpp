// Deterministic discrete-event scheduler — the heart of the ns-style
// simulation. Events at equal timestamps fire in scheduling order, so a run
// is a pure function of its inputs and seeds.
//
// Internally one binary min-heap of 24-byte (time, seq, slot) keys. The hot
// sort key is split from the cold payload (action, tag): sifts move only
// keys, while the callable lives in the recycled cancellation slot until
// the event fires. Messages ride the Network's per-link FIFOs with one
// pending drain event per link direction, so the heap stays small: the
// 10k-domain ladder rung never stores more than about 15k keys.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/small_function.hpp"
#include "net/time.hpp"

namespace net {

/// Handle for cancelling a scheduled event. Packs a slot index and a
/// generation counter, so a stale handle (the event already ran or was
/// cancelled) is detected in O(1) without any per-event hash-set lookups.
enum class EventId : std::uint64_t {};

/// Tag of events scheduled without one.
inline constexpr const char* kDefaultEventTag = "event";

class EventQueue {
 public:
  /// Scheduled actions are move-only callables with inline storage: one
  /// scheduled event costs no heap allocation unless its captures exceed
  /// the inline buffer, and move-only captures (unique_ptr payloads) are
  /// supported directly. 32 bytes covers every in-tree capture now that
  /// message payloads ride the Network's per-link FIFOs instead of
  /// delivery closures; larger captures fall back to the heap.
  using Action = SmallFunction<void(), 32>;
  /// Wall-clock profiling hook: called after each event's action with the
  /// event's tag and the wall time the action took, in seconds.
  using Profiler = std::function<void(std::string_view tag, double seconds)>;

  /// Schedules `action` to run at absolute time `at` (must be >= now()).
  /// Throws std::invalid_argument on attempts to schedule in the past.
  /// `tag` buckets the event for step profiling; it is interned (copied
  /// into queue-owned storage) on first sight, so even a dangling tag
  /// cannot corrupt profiling — but callers should still pass string
  /// literals: the pointer-keyed intern memo assumes a pointer's content
  /// never changes (debug builds assert it).
  EventId schedule_at(SimTime at, Action action,
                      const char* tag = kDefaultEventTag);

  /// Schedules `action` to run `delay` from now.
  EventId schedule_in(SimTime delay, Action action,
                      const char* tag = kDefaultEventTag) {
    return schedule_at(now_ + delay, std::move(action), tag);
  }

  /// Reserves the next sequence number without scheduling anything.
  /// Transports that queue messages in their own per-link FIFOs use this
  /// to remember the exact (time, seq) position a message *would* have
  /// occupied, then later make it fire there via schedule_reserved() —
  /// preserving the global total order while keeping at most one pending
  /// event per FIFO.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `action` at an explicit (at, seq) position, with `seq`
  /// previously obtained from reserve_seq(). The caller must ensure the
  /// position has not already been passed: (at, seq) must sort after every
  /// event that has run (asserted in debug builds). Reserved positions
  /// must be scheduled at most once.
  EventId schedule_reserved(SimTime at, std::uint64_t seq, Action action,
                            const char* tag = kDefaultEventTag);

  /// Installs (or, with nullptr-like empty function, removes) the wall-clock
  /// profiler. When unset, step() does not read the clock at all, so the
  /// hook costs nothing unless enabled.
  void set_profiler(Profiler profiler) { profiler_ = std::move(profiler); }

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled. Cancellation is O(1); the slot is skipped at pop time.
  bool cancel(EventId id);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::uint64_t events_run() const { return events_run_; }
  /// Largest number of keys the heap ever stored at once, live plus
  /// lazily-cancelled — the memory high-water mark of a run.
  [[nodiscard]] std::size_t heap_high_water() const {
    return high_water_;
  }

  /// The (time, seq) key of the earliest live pending event, or nullopt
  /// when drained. Discards lazily-cancelled entries it encounters (their
  /// EventIds were already invalid), but never runs anything.
  struct NextKey {
    SimTime at;
    std::uint64_t seq = 0;
  };
  std::optional<NextKey> peek_next();

  /// The stored front key, cancelled or not. Delivery batching uses this
  /// as its order-exactness guard: a FIFO follower may be delivered inline
  /// only if its reserved key precedes every key still stored here. Unlike
  /// peek_next() it does NOT skip lazily-cancelled entries, so a cancelled
  /// front still blocks batching; batching past it would carry more
  /// deliveries per event and change events_run, which every committed run
  /// pins.
  std::optional<NextKey> peek_next_stored();

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs events with timestamp <= `deadline`, then advances now() to
  /// `deadline` (even if the queue drained earlier), so periodic processes
  /// see consistent time.
  void run_until(SimTime deadline);

  /// Runs all events to exhaustion. Throws std::runtime_error if more than
  /// `max_events` fire (runaway-loop guard).
  void run(std::uint64_t max_events = UINT64_MAX);

 private:
  /// The hot sort key. 24 bytes, trivially copyable: heap sifts move only
  /// these, never the callables.
  struct Key {
    std::int64_t at = 0;     // absolute time, ns
    std::uint64_t seq = 0;   // tie-break: FIFO among equal timestamps
    std::uint32_t slot = 0;  // cancellation slot + payload (see slots_)
  };
  static_assert(sizeof(Key) == 24, "Key must stay lean: sifts copy these");

  static constexpr bool key_less(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  /// Heap comparator: std::push_heap/pop_heap build max-heaps, so the
  /// min-heap uses the inverted order. (at, seq) pairs are unique, so heap
  /// pops follow the exact total order regardless of layout.
  static constexpr bool key_greater(const Key& a, const Key& b) {
    return key_less(b, a);
  }

  /// Per-pending-event cancellation state and cold payload. Slots are
  /// recycled through a free list; the generation distinguishes a slot's
  /// successive tenants, so a stale EventId can never cancel an unrelated
  /// later event.
  struct Slot {
    std::uint32_t generation = 0;
    bool cancelled = false;
    const char* tag = kDefaultEventTag;  // interned; owned by the queue
    Action action;
  };

  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(id));
  }
  static constexpr std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(id) >> 32);
  }

  std::uint32_t allocate_slot();
  void free_slot(std::uint32_t slot);
  const char* intern_tag(const char* tag);

  EventId schedule_key(SimTime at, std::uint64_t seq, Action action,
                       const char* tag);
  // Pops the front key, live or cancelled.
  Key pop_front();
  // Discards lazily-cancelled keys at the front; false when drained.
  bool skip_cancelled();
  // Advances now(), runs the action, and feeds the profiler if installed.
  void run_entry(const Key& key);

  SimTime now_;
  Profiler profiler_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::size_t live_ = 0;  // scheduled minus run minus cancelled
  std::size_t high_water_ = 0;

  // Binary min-heap on (time, seq), lazily-cancelled keys included: they
  // leave only when they reach the front.
  std::vector<Key> heap_;
  // Indexed by Key::slot. No reference into it is held across a schedule,
  // so growth may move the slots.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;

  // Tag interning: owned copies (stable addresses) plus a pointer-keyed
  // memo so the hot path is one pointer compare for a repeated literal.
  std::deque<std::string> owned_tags_;
  std::vector<std::pair<const char*, const char*>> tag_memo_;
  const char* last_tag_ = nullptr;
  const char* last_tag_interned_ = nullptr;

#ifndef NDEBUG
  std::int64_t last_run_at_ = INT64_MIN;  // guards schedule_reserved
  std::uint64_t last_run_seq_ = 0;
#endif
};

}  // namespace net
