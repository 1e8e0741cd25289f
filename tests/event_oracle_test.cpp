// Differential oracle for the EventQueue heap: every workload is mirrored
// into a std::multimap<(time, seq)> reference, and the firing order
// observed from the real queue must match the reference's exact
// (time, seq) total order. The workloads cover same-timestamp bursts
// (ordered only by seq), wide horizon mixes from milliseconds to days,
// backfilling a drained span, lazily-cancelled keys at the front,
// cancellations of already-fired ids over recycled slots, reserved-seq
// scheduling, and scheduling from inside a running event (reentrancy).
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/event.hpp"
#include "net/network.hpp"
#include "net/rng.hpp"
#include "net/time.hpp"

namespace {

using net::EventQueue;
using net::SimTime;

using OrderKey = std::pair<std::int64_t, std::uint64_t>;  // (at ns, seq)

/// Drives an EventQueue and a multimap reference side by side. Each
/// scheduled event records its (time, seq) key; popping compares the
/// observed firing order against the reference's begin().
class Oracle {
 public:
  explicit Oracle(EventQueue& queue) : queue_(queue) {}

  net::EventId schedule(SimTime at, std::uint64_t payload) {
    const std::uint64_t seq = queue_.reserve_seq();
    return schedule_reserved(at, seq, payload);
  }

  net::EventId schedule_reserved(SimTime at, std::uint64_t seq,
                                 std::uint64_t payload) {
    const OrderKey key{at.ns(), seq};
    const net::EventId id = queue_.schedule_reserved(
        at, seq, [this, key, payload] { fired_.push_back({key, payload}); });
    reference_.emplace(key, payload);
    ids_.emplace_back(id, key);
    return id;
  }

  /// Cancels `id` in both structures; returns what the queue reported.
  bool cancel(net::EventId id) {
    const bool cancelled = queue_.cancel(id);
    if (cancelled) {
      for (const auto& [known, key] : ids_) {
        if (known == id) {
          const auto range = reference_.equal_range(key);
          EXPECT_NE(range.first, range.second) << "oracle desync";
          if (range.first != range.second) reference_.erase(range.first);
          break;
        }
      }
    }
    return cancelled;
  }

  /// Steps the queue once and checks the fired event was the reference
  /// front. Returns false when both sides agree the queue is drained.
  bool step_and_check() {
    const std::size_t before = fired_.size();
    const bool stepped = queue_.step();
    if (!stepped) {
      EXPECT_TRUE(reference_.empty())
          << "queue drained but the reference still holds "
          << reference_.size() << " events";
      return false;
    }
    EXPECT_EQ(fired_.size(), before + 1) << "step() fired nothing";
    EXPECT_FALSE(reference_.empty()) << "queue fired an unknown event";
    if (fired_.size() != before + 1 || reference_.empty()) return true;
    const auto& [key, payload] = fired_.back();
    EXPECT_EQ(key, reference_.begin()->first)
        << "fired out of (time, seq) order";
    EXPECT_EQ(payload, reference_.begin()->second);
    reference_.erase(reference_.begin());
    return true;
  }

  void drain_and_check() {
    while (step_and_check()) {
    }
    EXPECT_EQ(queue_.pending(), 0u);
  }

  [[nodiscard]] std::size_t live() const { return reference_.size(); }
  [[nodiscard]] const std::vector<std::pair<OrderKey, std::uint64_t>>& fired()
      const {
    return fired_;
  }

 private:
  EventQueue& queue_;
  std::multimap<OrderKey, std::uint64_t> reference_;
  std::vector<std::pair<net::EventId, OrderKey>> ids_;
  std::vector<std::pair<OrderKey, std::uint64_t>> fired_;
};

bool coin(net::Rng& rng, double p) { return rng.chance(p); }

TEST(EventOracle, RandomChurnMatchesMultimapOrder) {
  net::Rng rng(20260807);
  EventQueue queue;
  Oracle oracle(queue);
  std::vector<net::EventId> cancellable;
  std::uint64_t payload = 0;
  // Interleave schedule / cancel / pop over a horizon from milliseconds
  // to days, so near and far keys share the heap throughout.
  for (int round = 0; round < 200; ++round) {
    const int schedules = static_cast<int>(rng.uniform_int(1, 40));
    for (int i = 0; i < schedules; ++i) {
      // Mix: dense near band, medium band, sparse far tail.
      SimTime at;
      const int band = static_cast<int>(rng.uniform_int(0, 9));
      if (band < 6) {
        at = queue.now() + SimTime::milliseconds(rng.uniform_int(0, 50));
      } else if (band < 9) {
        at = queue.now() + SimTime::seconds(rng.uniform_int(1, 120));
      } else {
        at = queue.now() + SimTime::hours(rng.uniform_int(1, 48));
      }
      const net::EventId id = oracle.schedule(at, payload++);
      if (coin(rng, 0.3)) cancellable.push_back(id);
    }
    if (!cancellable.empty() && coin(rng, 0.5)) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cancellable.size()) - 1));
      oracle.cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() +
                        static_cast<std::ptrdiff_t>(pick));
    }
    const int pops = static_cast<int>(rng.uniform_int(0, 30));
    for (int i = 0; i < pops && oracle.step_and_check(); ++i) {
    }
  }
  oracle.drain_and_check();
}

TEST(EventOracle, SameTimestampBurstFiresInScheduleOrder) {
  EventQueue queue;
  Oracle oracle(queue);
  // A single-timestamp burst far in the future must come out ordered
  // purely by seq.
  const SimTime burst_at = SimTime::hours(2);
  for (std::uint64_t i = 0; i < 5000; ++i) oracle.schedule(burst_at, i);
  // Plus a few earlier events so the burst is not the immediate bottom.
  for (std::uint64_t i = 0; i < 10; ++i) {
    oracle.schedule(SimTime::seconds(static_cast<std::int64_t>(i) + 1),
                    10000 + i);
  }
  oracle.drain_and_check();
  // The burst section of the firing record must be strictly seq-ascending.
  const auto& fired = oracle.fired();
  ASSERT_EQ(fired.size(), 5010u);
  for (std::size_t i = 11; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1].first.second, fired[i].first.second);
  }
}

TEST(EventOracle, StaleAndDoubleCancels) {
  EventQueue queue;
  Oracle oracle(queue);
  const net::EventId a = oracle.schedule(SimTime::milliseconds(1), 1);
  const net::EventId b = oracle.schedule(SimTime::milliseconds(2), 2);
  EXPECT_TRUE(oracle.cancel(a));
  EXPECT_FALSE(oracle.cancel(a)) << "double cancel must be a no-op";
  EXPECT_TRUE(oracle.step_and_check());  // fires b
  EXPECT_FALSE(oracle.cancel(b)) << "cancelling a fired id must fail";
  EXPECT_FALSE(queue.step());
  // The slot was recycled: a fresh event must not be cancellable through
  // the stale ids.
  const net::EventId c = oracle.schedule(SimTime::milliseconds(3), 3);
  EXPECT_FALSE(oracle.cancel(a));
  EXPECT_FALSE(oracle.cancel(b));
  EXPECT_TRUE(oracle.cancel(c));
  oracle.drain_and_check();
}

TEST(EventOracle, ScheduleDuringPopReentrancy) {
  // Events that schedule more events while running — including at the
  // current instant — must still fire in exact (time, seq) order. This is
  // the delivery-handler pattern: a BGP update handler sends messages,
  // which schedule deliveries, from inside run_entry().
  EventQueue queue;
  std::vector<std::uint64_t> fired;
  std::multimap<OrderKey, std::uint64_t> reference;
  std::uint64_t payload = 0;
  net::Rng rng(7);
  // Recursive scheduling closure: each event spawns up to 3 children at
  // now + [0, 20ms) until the budget runs out.
  int budget = 3000;
  std::function<void(std::uint64_t)> spawn = [&](std::uint64_t my_payload) {
    fired.push_back(my_payload);
    const int children = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < children && budget > 0; ++i) {
      --budget;
      const SimTime at =
          queue.now() + SimTime::milliseconds(rng.uniform_int(0, 20));
      const std::uint64_t seq = queue.reserve_seq();
      const std::uint64_t p = ++payload;
      reference.emplace(OrderKey{at.ns(), seq}, p);
      queue.schedule_reserved(at, seq, [&spawn, p] { spawn(p); });
    }
  };
  for (int i = 0; i < 50; ++i) {
    --budget;
    const SimTime at = SimTime::milliseconds(rng.uniform_int(1, 10));
    const std::uint64_t seq = queue.reserve_seq();
    const std::uint64_t p = ++payload;
    reference.emplace(OrderKey{at.ns(), seq}, p);
    queue.schedule_reserved(at, seq, [&spawn, p] { spawn(p); });
  }
  while (queue.step()) {
  }
  // Replay the reference in order and compare.
  ASSERT_EQ(fired.size(), reference.size());
  std::size_t i = 0;
  for (const auto& [key, p] : reference) {
    EXPECT_EQ(fired[i], p) << "divergence at firing index " << i;
    ++i;
  }
}

TEST(EventOracle, ReservedSeqInterleavesExactly) {
  // A reserved seq scheduled *later* must still fire at its reserved
  // position among events scheduled in between — the contract delivery
  // batching depends on (FIFO heads keep their original global slot).
  EventQueue queue;
  Oracle oracle(queue);
  const SimTime at = SimTime::milliseconds(5);
  const std::uint64_t early = queue.reserve_seq();
  oracle.schedule(at, 1);  // takes the next seq
  oracle.schedule(at, 2);
  // Now schedule the reserved one — older seq, scheduled last.
  oracle.schedule_reserved(at, early, 0);
  oracle.drain_and_check();
  const auto& fired = oracle.fired();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].second, 0u) << "reserved seq must fire first";
  EXPECT_EQ(fired[1].second, 1u);
  EXPECT_EQ(fired[2].second, 2u);
}

TEST(EventOracle, RungExhaustionCoverageGap) {
  // Drain a wide spread almost to its end, then schedule into the span
  // just consumed and far past it, interleaved: every key must fire in
  // exact order. (The shape once caught a scheduler that routed such keys
  // into a structure it had already retired.)
  EventQueue queue;
  Oracle oracle(queue);
  // Keys seven seconds apart.
  for (std::uint64_t i = 0; i < 512; ++i) {
    oracle.schedule(SimTime::seconds(static_cast<std::int64_t>(i * 7) + 1),
                    i);
  }
  // Drain most of it.
  for (int i = 0; i < 500 && oracle.step_and_check(); ++i) {
  }
  // Schedule just after now and an hour out, interleaved.
  for (std::uint64_t i = 0; i < 64; ++i) {
    oracle.schedule(queue.now() + SimTime::milliseconds(1 + i), 1000 + i);
    oracle.schedule(SimTime::hours(1) + SimTime::seconds(i), 2000 + i);
  }
  oracle.drain_and_check();
}

TEST(EventOracle, PeekNextMatchesPopAndDiscardsCancelled) {
  EventQueue queue;
  Oracle oracle(queue);
  std::vector<net::EventId> ids;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ids.push_back(
        oracle.schedule(SimTime::milliseconds((i * 37) % 50 + 1), i));
  }
  // Cancel every third event; peek must never surface a cancelled key.
  for (std::size_t i = 0; i < ids.size(); i += 3) oracle.cancel(ids[i]);
  while (true) {
    const auto peek = queue.peek_next();
    if (!peek.has_value()) break;
    const std::size_t before = oracle.fired().size();
    ASSERT_TRUE(oracle.step_and_check());
    const auto& [key, payload] = oracle.fired()[before];
    EXPECT_EQ(peek->at.ns(), key.first) << "peek disagreed with pop";
    EXPECT_EQ(peek->seq, key.second);
  }
  EXPECT_EQ(oracle.live(), 0u);
}

// ------------------------------------------------- in-flight gauge audit
//
// A session reset (drop-when-down channel going down) bumps the channel
// epoch; messages of the old epoch stay queued in the per-direction
// flight lists until their delivery time, where they are discarded. The
// net.messages_in_flight gauge must count only live-epoch messages — it
// used to count the zombies too, overstating flight depth after every
// reset until the dead entries' delivery times passed.

struct FlightMessage final : net::Message {
  [[nodiscard]] std::string describe() const override { return "flight"; }
};

class FlightEndpoint final : public net::Endpoint {
 public:
  void on_message(net::ChannelId, std::unique_ptr<net::Message>) override {
    ++delivered;
  }
  [[nodiscard]] std::string name() const override { return "flight"; }
  int delivered = 0;
};

TEST(EventOracle, InFlightGaugeExcludesEpochDeadZombies) {
  EventQueue queue;
  net::Network network(queue);
  FlightEndpoint a;
  FlightEndpoint b;
  const net::ChannelId ch = network.connect(a, b, SimTime::seconds(5));
  network.set_drop_when_down(ch, true);

  for (int i = 0; i < 3; ++i) {
    network.send(ch, a, std::make_unique<FlightMessage>());
  }
  EXPECT_EQ(network.metrics().snapshot().gauge_value(
                "net.messages_in_flight"),
            3.0);

  // Session reset: the three messages become epoch-dead zombies that stay
  // queued until t=5s. New-session messages are the only live flight.
  network.set_up(ch, false);
  network.set_up(ch, true);
  for (int i = 0; i < 2; ++i) {
    network.send(ch, b, std::make_unique<FlightMessage>());
  }
  EXPECT_EQ(network.metrics().snapshot().gauge_value(
                "net.messages_in_flight"),
            2.0)
      << "gauge counted epoch-dead zombies";

  queue.run();
  EXPECT_EQ(a.delivered, 2);  // the new-session messages
  EXPECT_EQ(b.delivered, 0);  // the old session died with the reset
  EXPECT_EQ(network.metrics().snapshot().gauge_value(
                "net.messages_in_flight"),
            0.0);
}

}  // namespace
