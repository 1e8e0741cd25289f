// Unit and property tests for the net substrate: addresses, prefixes,
// simulated time, the event queue, the message network and the random
// number generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/event.hpp"
#include "net/ip.hpp"
#include "obs/metrics.hpp"
#include "net/network.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "net/time.hpp"
#include "workload/engine.hpp"

namespace net {
namespace {

// ---------------------------------------------------------------- Ipv4Addr

TEST(Ipv4Addr, ParsesAndFormatsRoundTrip) {
  const auto addr = Ipv4Addr::parse("224.0.128.1");
  EXPECT_EQ(addr, Ipv4Addr::from_octets(224, 0, 128, 1));
  EXPECT_EQ(addr.to_string(), "224.0.128.1");
}

TEST(Ipv4Addr, ParsesBoundaryValues) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0").value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255").value(), 0xFFFFFFFFu);
}

TEST(Ipv4Addr, RejectsMalformedInput) {
  EXPECT_THROW(Ipv4Addr::parse(""), std::invalid_argument);
  EXPECT_THROW(Ipv4Addr::parse("224.0.0"), std::invalid_argument);
  EXPECT_THROW(Ipv4Addr::parse("224.0.0.0.1"), std::invalid_argument);
  EXPECT_THROW(Ipv4Addr::parse("224.0.0.256"), std::invalid_argument);
  EXPECT_THROW(Ipv4Addr::parse("a.b.c.d"), std::invalid_argument);
  EXPECT_THROW(Ipv4Addr::parse("224..0.1"), std::invalid_argument);
}

TEST(Ipv4Addr, MulticastRangeIsClassD) {
  EXPECT_TRUE(Ipv4Addr::parse("224.0.0.0").is_multicast());
  EXPECT_TRUE(Ipv4Addr::parse("239.255.255.255").is_multicast());
  EXPECT_FALSE(Ipv4Addr::parse("223.255.255.255").is_multicast());
  EXPECT_FALSE(Ipv4Addr::parse("240.0.0.0").is_multicast());
}

TEST(Ipv4Addr, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4Addr::parse("128.8.0.0"), Ipv4Addr::parse("128.9.0.0"));
  EXPECT_GT(Ipv4Addr::parse("224.0.1.0"), Ipv4Addr::parse("224.0.0.255"));
}

// ------------------------------------------------------------------ Prefix

TEST(Prefix, ParseFormatsRoundTrip) {
  const auto p = Prefix::parse("224.0.1.0/24");
  EXPECT_EQ(p.base(), Ipv4Addr::parse("224.0.1.0"));
  EXPECT_EQ(p.length(), 24);
  EXPECT_EQ(p.to_string(), "224.0.1.0/24");
}

TEST(Prefix, RejectsHostBitsAndBadLengths) {
  EXPECT_THROW(Prefix::parse("224.0.1.1/24"), std::invalid_argument);
  EXPECT_THROW(Prefix::parse("224.0.1.0/33"), std::invalid_argument);
  EXPECT_THROW(Prefix::parse("224.0.1.0"), std::invalid_argument);
  EXPECT_THROW((Prefix{Ipv4Addr::parse("224.0.0.1"), 24}),
               std::invalid_argument);
}

TEST(Prefix, ContainingZeroesHostBits) {
  EXPECT_EQ(Prefix::containing(Ipv4Addr::parse("224.0.1.77"), 24),
            Prefix::parse("224.0.1.0/24"));
  EXPECT_EQ(Prefix::containing(Ipv4Addr::parse("224.0.1.77"), 32).base(),
            Ipv4Addr::parse("224.0.1.77"));
}

TEST(Prefix, SizeAndLast) {
  EXPECT_EQ(Prefix::parse("224.0.1.0/24").size(), 256u);
  EXPECT_EQ(Prefix::parse("224.0.0.0/4").size(), 1u << 28);
  EXPECT_EQ(Prefix::parse("224.0.1.0/24").last(),
            Ipv4Addr::parse("224.0.1.255"));
  EXPECT_EQ(Prefix{}.size(), std::uint64_t{1} << 32);
}

TEST(Prefix, ContainmentOfAddresses) {
  const auto p = Prefix::parse("224.0.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Addr::parse("224.0.128.1")));
  EXPECT_FALSE(p.contains(Ipv4Addr::parse("224.1.0.0")));
}

TEST(Prefix, ContainmentOfPrefixes) {
  const auto parent = Prefix::parse("224.0.0.0/16");
  EXPECT_TRUE(parent.contains(Prefix::parse("224.0.128.0/24")));
  EXPECT_TRUE(parent.contains(parent));
  EXPECT_FALSE(parent.contains(Prefix::parse("224.0.0.0/8")));
  EXPECT_FALSE(parent.contains(Prefix::parse("224.1.0.0/24")));
}

TEST(Prefix, OverlapIsContainmentEitherWay) {
  const auto a = Prefix::parse("224.0.0.0/16");
  const auto b = Prefix::parse("224.0.128.0/24");
  const auto c = Prefix::parse("224.1.0.0/16");
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Prefix, ParentChildrenSibling) {
  // The paper's aggregation example: 128.8.0.0/16 and 128.9.0.0/16
  // aggregate to 128.8.0.0/15 as they differ only in the 16th bit.
  const auto a = Prefix::parse("128.8.0.0/16");
  const auto b = Prefix::parse("128.9.0.0/16");
  EXPECT_EQ(a.sibling(), b);
  EXPECT_EQ(b.sibling(), a);
  EXPECT_EQ(a.parent(), Prefix::parse("128.8.0.0/15"));
  EXPECT_EQ(aggregate(a, b), Prefix::parse("128.8.0.0/15"));
  EXPECT_EQ(Prefix::parse("128.8.0.0/15").left_child(), a);
  EXPECT_EQ(Prefix::parse("128.8.0.0/15").right_child(), b);
}

TEST(Prefix, AggregateRejectsNonSiblings) {
  // 128.9.0.0/16 and 128.10.0.0/16 are adjacent but not CIDR siblings.
  EXPECT_EQ(aggregate(Prefix::parse("128.9.0.0/16"),
                      Prefix::parse("128.10.0.0/16")),
            std::nullopt);
  EXPECT_EQ(aggregate(Prefix::parse("128.8.0.0/16"),
                      Prefix::parse("128.8.0.0/15")),
            std::nullopt);
}

TEST(Prefix, RootHasNoParentOrSibling) {
  EXPECT_EQ(Prefix{}.parent(), std::nullopt);
  EXPECT_EQ(Prefix{}.sibling(), std::nullopt);
}

TEST(Prefix, FirstSubprefix) {
  // §4.3.3's example: a /22 carved from 228/6 starts at 228.0.0.0/22.
  const auto p = Prefix::parse("228.0.0.0/6");
  EXPECT_EQ(p.first_subprefix(22), Prefix::parse("228.0.0.0/22"));
  EXPECT_EQ(p.first_subprefix(6), p);
  EXPECT_THROW((void)p.first_subprefix(4), std::invalid_argument);
}

TEST(Prefix, SubprefixAt) {
  const auto p = Prefix::parse("224.0.0.0/8");
  EXPECT_EQ(p.subprefix_at(10, 0), Prefix::parse("224.0.0.0/10"));
  EXPECT_EQ(p.subprefix_at(10, 3), Prefix::parse("224.192.0.0/10"));
  EXPECT_THROW((void)p.subprefix_at(10, 4), std::out_of_range);
}

TEST(Prefix, MulticastSpaceIs224Slash4) {
  EXPECT_EQ(multicast_space(), Prefix::parse("224.0.0.0/4"));
  EXPECT_TRUE(multicast_space().contains(Ipv4Addr::parse("239.1.2.3")));
}

// Property: for any prefix, parent contains both children, children do not
// overlap, and aggregate(left, right) == parent.
TEST(PrefixProperty, ParentChildAlgebra) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const int len = static_cast<int>(rng.uniform_int(0, 31));
    const auto addr =
        Ipv4Addr{static_cast<std::uint32_t>(rng.uniform_int(0, UINT32_MAX))};
    const Prefix p = Prefix::containing(addr, len);
    const Prefix l = p.left_child();
    const Prefix r = p.right_child();
    ASSERT_TRUE(p.contains(l));
    ASSERT_TRUE(p.contains(r));
    ASSERT_FALSE(l.overlaps(r));
    ASSERT_EQ(aggregate(l, r), p);
    ASSERT_EQ(l.sibling(), r);
    ASSERT_EQ(l.parent(), p);
    ASSERT_EQ(l.size() + r.size(), p.size());
  }
}

// ----------------------------------------------------------------- SimTime

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(SimTime::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(SimTime::days(1), SimTime::hours(24));
  EXPECT_EQ(SimTime::hours(1), SimTime::minutes(60));
  EXPECT_EQ(SimTime::days(800).to_days(), 800.0);
  EXPECT_EQ(SimTime::hours_f(1.5), SimTime::minutes(90));
}

TEST(SimTime, ArithmeticAndOrdering) {
  const auto t = SimTime::hours(48);
  EXPECT_EQ(t + SimTime::hours(1), SimTime::hours(49));
  EXPECT_EQ(t - SimTime::hours(50), SimTime::hours(-2));
  EXPECT_EQ(t * 2, SimTime::days(4));
  EXPECT_LT(SimTime::milliseconds(999), SimTime::seconds(1));
}

TEST(SimTime, FormatsHumanReadably) {
  EXPECT_EQ(SimTime::days(2).to_string(), "2d");
  EXPECT_EQ((SimTime::days(2) + SimTime::hours(3)).to_string(), "2d 3h");
  EXPECT_EQ(SimTime::milliseconds(15).to_string(), "15ms");
  EXPECT_EQ(SimTime{}.to_string(), "0ms");
}

// -------------------------------------------------------------- EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime::seconds(3), [&] { order.push_back(3); });
  q.schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule_at(SimTime::seconds(2), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime::seconds(3));
}

TEST(EventQueue, EqualTimestampsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime::seconds(1), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule_at(SimTime::seconds(5), [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(SimTime::seconds(4), [] {}),
               std::invalid_argument);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_at(SimTime::seconds(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel is a no-op
  q.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelAfterRunIsNoop) {
  EventQueue q;
  const EventId id = q.schedule_at(SimTime::seconds(1), [] {});
  q.run();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, HighWaterCountsLazilyCancelledKeys) {
  // A cancelled key stays stored until it reaches the front, so the
  // memory high-water mark counts it while pending() does not.
  EventQueue q;
  q.schedule_at(SimTime::seconds(1), [] {});
  const EventId id = q.schedule_at(SimTime::seconds(2), [] {});
  q.schedule_at(SimTime::seconds(3), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.heap_high_water(), 3u);
  q.run();
  q.schedule_in(SimTime::seconds(1), [] {});
  EXPECT_EQ(q.heap_high_water(), 3u);
  // Past the mark only with the cancelled key counted: four stored, three
  // live.
  EXPECT_TRUE(q.cancel(q.schedule_in(SimTime::seconds(2), [] {})));
  q.schedule_in(SimTime::seconds(3), [] {});
  q.schedule_in(SimTime::seconds(4), [] {});
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.heap_high_water(), 4u);
}

TEST(EventQueue, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule_at(SimTime::seconds(10), [&] { order.push_back(10); });
  q.run_until(SimTime::seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), SimTime::seconds(5));
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) q.schedule_in(SimTime::seconds(1), tick);
  };
  q.schedule_in(SimTime::seconds(1), tick);
  q.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), SimTime::seconds(5));
}

TEST(EventQueue, RunGuardsAgainstRunaway) {
  EventQueue q;
  std::function<void()> forever = [&] {
    q.schedule_in(SimTime::seconds(1), forever);
  };
  q.schedule_in(SimTime::seconds(1), forever);
  EXPECT_THROW(q.run(/*max_events=*/100), std::runtime_error);
}

// ----------------------------------------------------------------- Network

struct TextMessage final : Message {
  explicit TextMessage(std::string t) : text(std::move(t)) {}
  std::string text;
  [[nodiscard]] std::string describe() const override { return text; }
};

class Recorder final : public Endpoint {
 public:
  explicit Recorder(std::string name) : name_(std::move(name)) {}
  void on_message(ChannelId ch, std::unique_ptr<Message> msg) override {
    auto* text = dynamic_cast<TextMessage*>(msg.get());
    ASSERT_NE(text, nullptr);
    received.emplace_back(ch, text->text);
  }
  void on_channel_down(ChannelId) override { ++downs; }
  void on_channel_up(ChannelId) override { ++ups; }
  [[nodiscard]] std::string name() const override { return name_; }

  std::vector<std::pair<ChannelId, std::string>> received;
  int downs = 0;
  int ups = 0;

 private:
  std::string name_;
};

TEST(Network, DeliversWithLatency) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b, SimTime::milliseconds(25));
  network.send(ch, a, std::make_unique<TextMessage>("hello"));
  q.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, "hello");
  EXPECT_EQ(q.now(), SimTime::milliseconds(25));
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(network.messages_sent(), 1u);
  EXPECT_EQ(network.messages_delivered(), 1u);
}

TEST(Network, PreservesPerDirectionOrder) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b, SimTime::milliseconds(10));
  for (int i = 0; i < 20; ++i) {
    network.send(ch, a, std::make_unique<TextMessage>(std::to_string(i)));
  }
  q.run();
  ASSERT_EQ(b.received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(b.received[static_cast<size_t>(i)].second, std::to_string(i));
  }
}

TEST(Network, FullDuplexBothDirections) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b);
  network.send(ch, a, std::make_unique<TextMessage>("to-b"));
  network.send(ch, b, std::make_unique<TextMessage>("to-a"));
  q.run();
  ASSERT_EQ(a.received.size(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.received[0].second, "to-a");
  EXPECT_EQ(b.received[0].second, "to-b");
}

TEST(Network, PartitionHoldsAndFlushesInOrder) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b, SimTime::milliseconds(5));
  network.set_up(ch, false);
  EXPECT_EQ(a.downs, 1);
  EXPECT_EQ(b.downs, 1);
  network.send(ch, a, std::make_unique<TextMessage>("one"));
  network.send(ch, a, std::make_unique<TextMessage>("two"));
  q.run_until(SimTime::seconds(1));
  EXPECT_TRUE(b.received.empty());  // held during partition
  network.set_up(ch, true);
  EXPECT_EQ(b.ups, 1);
  q.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].second, "one");
  EXPECT_EQ(b.received[1].second, "two");
}

TEST(Network, DropWhenDownLosesMessagesInsteadOfQueueing) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b, SimTime::milliseconds(5));
  network.set_drop_when_down(ch, true);
  network.set_up(ch, false);
  network.send(ch, a, std::make_unique<TextMessage>("lost-one"));
  network.send(ch, a, std::make_unique<TextMessage>("lost-two"));
  q.run();
  EXPECT_EQ(network.messages_dropped(), 2u);
  network.set_up(ch, true);
  q.run();
  // Dropped means dropped: nothing flushes on heal.
  EXPECT_TRUE(b.received.empty());
  // A message sent while the channel is back up flows normally.
  network.send(ch, a, std::make_unique<TextMessage>("alive"));
  q.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, "alive");
  EXPECT_EQ(network.messages_dropped(), 2u);
}

TEST(Network, DropWhenDownCanRevertToQueueAndFlush) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b, SimTime::milliseconds(5));
  network.set_drop_when_down(ch, true);
  network.set_drop_when_down(ch, false);  // back to TCP-like hold semantics
  network.set_up(ch, false);
  network.send(ch, a, std::make_unique<TextMessage>("held"));
  q.run();
  EXPECT_EQ(network.messages_dropped(), 0u);
  EXPECT_TRUE(b.received.empty());
  network.set_up(ch, true);
  q.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, "held");
}

TEST(Network, InterleavedChannelsKeepOrderWhileSharingSlots) {
  // Every direction's FIFO is a chain through one network-wide slab, so
  // messages of different channels sit in interleaved slots and a freed
  // slot is reused by whichever direction sends next.
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b"), c("c"), d("d"), e("e"), f("f");
  const auto ab = network.connect(a, b, SimTime::milliseconds(10));
  const auto cd = network.connect(c, d, SimTime::milliseconds(5));
  const auto ef = network.connect(e, f, SimTime::milliseconds(15));
  network.set_drop_when_down(ef, true);
  const auto send = [&](ChannelId ch, Endpoint& from, const char* text) {
    network.send(ch, from, std::make_unique<TextMessage>(text));
  };
  const auto in_flight = [&] {
    return network.metrics().snapshot().gauge_value("net.messages_in_flight");
  };
  send(ab, a, "ab0");
  send(cd, c, "cd0");
  send(ef, e, "ef0");
  send(ab, a, "ab1");
  send(cd, c, "cd1");
  send(ef, e, "ef1");
  EXPECT_EQ(in_flight(), 6.0);
  // c -> d drains first; its two slots go back to the free list and the
  // next sends on the other channels take them.
  q.run_until(SimTime::milliseconds(6));
  EXPECT_EQ(d.received.size(), 2u);
  send(ab, a, "ab2");
  send(ef, e, "ef2");
  send(ab, b, "ba0");
  send(cd, c, "cd2");
  EXPECT_EQ(in_flight(), 8.0);
  // A session reset on e <-> f strands its three messages; the gauge
  // counts the live session's messages only.
  network.set_up(ef, false);
  EXPECT_EQ(in_flight(), 5.0);
  network.set_up(ef, true);
  send(ef, e, "ef3");
  EXPECT_EQ(in_flight(), 6.0);
  q.run();

  const auto texts = [](const Recorder& r) {
    std::vector<std::string> out;
    for (const auto& [channel, text] : r.received) out.push_back(text);
    return out;
  };
  EXPECT_EQ(texts(b), (std::vector<std::string>{"ab0", "ab1", "ab2"}));
  EXPECT_EQ(texts(a), (std::vector<std::string>{"ba0"}));
  EXPECT_EQ(texts(d), (std::vector<std::string>{"cd0", "cd1", "cd2"}));
  EXPECT_EQ(texts(f), (std::vector<std::string>{"ef3"}));
  EXPECT_TRUE(c.received.empty());
  EXPECT_TRUE(e.received.empty());
  EXPECT_EQ(network.messages_dropped(), 3u);
  EXPECT_EQ(in_flight(), 0.0);
}

TEST(Network, CountersDelegateToMetricsRegistry) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b);
  network.send(ch, a, std::make_unique<TextMessage>("x"));
  q.run();
  // The getters are thin delegates over the registry-backed counters.
  EXPECT_EQ(network.metrics().counter("net.messages_sent").value(),
            network.messages_sent());
  EXPECT_EQ(network.metrics().counter("net.messages_delivered").value(),
            network.messages_delivered());
  EXPECT_EQ(network.metrics().counter("net.messages_dropped").value(),
            network.messages_dropped());
  const obs::Snapshot snap = network.metrics().snapshot();
  EXPECT_EQ(snap.counter_value("net.messages_sent"), 1u);
  EXPECT_EQ(snap.gauge_value("net.channels"), 1.0);
}

TEST(Network, LazilyCancelledFrontBlocksDeliveryBatching) {
  // Two messages due at the same instant on one link normally share one
  // drain event: the second is carried inline by the first's event. A
  // cancelled event stored between them must still block that batching —
  // the guard reads the stored front (peek_next_stored), not the first
  // live key, and every pinned events_run count depends on that choice.
  struct Outcome {
    std::vector<std::string> received;
    std::uint64_t batched = 0;
    std::uint64_t events_run = 0;
  };
  const auto run = [](bool blocker) {
    EventQueue q;
    Network network(q);
    Recorder a("a"), b("b");
    const auto ch = network.connect(a, b, SimTime::milliseconds(10));
    network.send(ch, a, std::make_unique<TextMessage>("m1"));
    EventId noop{};
    if (blocker) noop = q.schedule_at(SimTime::milliseconds(10), [] {});
    network.send(ch, a, std::make_unique<TextMessage>("m2"));
    if (blocker) {
      EXPECT_TRUE(q.cancel(noop));
    }
    q.run();
    Outcome out;
    for (const auto& [channel, text] : b.received) out.received.push_back(text);
    out.batched =
        network.metrics().counter("net.deliveries_batched").value();
    out.events_run = q.events_run();
    return out;
  };
  const Outcome blocked = run(true);
  EXPECT_EQ(blocked.received, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(blocked.batched, 0u);
  EXPECT_EQ(blocked.events_run, 2u);

  const Outcome free_run = run(false);
  EXPECT_EQ(free_run.received, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(free_run.batched, 1u);
  EXPECT_EQ(free_run.events_run, 1u);
}

TEST(Network, InjectedRegistryAggregatesAcrossNetworks) {
  EventQueue q;
  obs::Metrics shared;
  Network n1(q, &shared);
  Network n2(q, &shared);
  Recorder a("a"), b("b"), c("c"), d("d");
  const auto ch1 = n1.connect(a, b);
  const auto ch2 = n2.connect(c, d);
  n1.send(ch1, a, std::make_unique<TextMessage>("x"));
  n2.send(ch2, c, std::make_unique<TextMessage>("y"));
  q.run();
  EXPECT_EQ(shared.counter("net.messages_sent").value(), 2u);
  EXPECT_EQ(n1.messages_sent(), 2u);  // shared registry: same counter
}

TEST(Network, SetUpIsIdempotent) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b");
  const auto ch = network.connect(a, b);
  network.set_up(ch, true);  // already up: no notification
  EXPECT_EQ(a.ups, 0);
  network.set_up(ch, false);
  network.set_up(ch, false);
  EXPECT_EQ(a.downs, 1);
}

TEST(Network, PeerOfReturnsOtherSide) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b"), c("c");
  const auto ab = network.connect(a, b);
  EXPECT_EQ(&network.peer_of(ab, a), &b);
  EXPECT_EQ(&network.peer_of(ab, b), &a);
  EXPECT_THROW((void)network.peer_of(ab, c), std::invalid_argument);
}

TEST(Network, RejectsSelfPeeringAndForeignSender) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), b("b"), c("c");
  EXPECT_THROW(network.connect(a, a), std::invalid_argument);
  const auto ab = network.connect(a, b);
  EXPECT_THROW(network.send(ab, c, std::make_unique<TextMessage>("x")),
               std::invalid_argument);
}

/// Counts the drain bracket around its deliveries. A message reading
/// "throw" makes the handler throw. With an echo channel set, the closing
/// half of the bracket sends one message on it and keeps its trace id.
class DrainCounter final : public Endpoint {
 public:
  explicit DrainCounter(Network& network) : network_(network) {}
  void on_drain(SmallFunction<void()>& deliveries) override {
    ++opens;
    struct Close {
      int& closes;
      ~Close() { ++closes; }
    } close{closes};
    deliveries();
    if (echo) {
      echo_ids.push_back(
          network_.send(*echo, *this, std::make_unique<TextMessage>("echo")));
    }
  }
  void on_message(ChannelId, std::unique_ptr<Message> msg) override {
    const std::string& text = static_cast<const TextMessage&>(*msg).text;
    received.push_back(text);
    if (text == "throw") throw std::runtime_error("handler failed");
  }
  [[nodiscard]] std::string name() const override { return "counter"; }

  int opens = 0;
  int closes = 0;
  std::vector<std::string> received;
  std::optional<ChannelId> echo;
  std::vector<std::uint64_t> echo_ids;

 private:
  Network& network_;
};

TEST(Network, DrainBracketIsBalancedOncePerDrain) {
  EventQueue q;
  Network network(q);
  Recorder a("a");
  DrainCounter b(network);
  const auto ch = network.connect(a, b, SimTime::milliseconds(10));
  network.set_drop_when_down(ch, true);
  const auto send = [&](const char* text) {
    network.send(ch, a, std::make_unique<TextMessage>(text));
  };
  // Three messages due at one instant ride one drain: one bracket.
  send("m1");
  send("m2");
  send("m3");
  q.run();
  EXPECT_EQ(b.opens, 1);
  EXPECT_EQ(b.closes, 1);
  EXPECT_EQ(b.received, (std::vector<std::string>{"m1", "m2", "m3"}));

  // A drain whose every message died with a session reset still opens
  // and closes the bracket once, and delivers nothing.
  send("dead1");
  send("dead2");
  network.set_up(ch, false);
  network.set_up(ch, true);
  q.run();
  EXPECT_EQ(network.messages_dropped(), 2u);
  EXPECT_EQ(b.opens, 2);
  EXPECT_EQ(b.closes, 2);
  EXPECT_EQ(b.received.size(), 3u);

  // A handler that throws mid-drain leaves the bracket closed behind it.
  send("m4");
  send("throw");
  send("m5");
  EXPECT_THROW(q.run(), std::runtime_error);
  EXPECT_EQ(b.opens, 3);
  EXPECT_EQ(b.closes, 3);
  EXPECT_EQ(b.received.back(), "throw");
  EXPECT_EQ(network.current_trace_id(), 0u);

  // …and the direction open: a caller that catches the throw and runs on
  // still gets the message queued behind it (its own drain, at the
  // failure's instant) and the next one.
  send("m6");
  q.run();
  EXPECT_EQ(b.opens, 5);
  EXPECT_EQ(b.closes, 5);
  EXPECT_EQ(b.received, (std::vector<std::string>{"m1", "m2", "m3", "m4",
                                                  "throw", "m5", "m6"}));
}

TEST(Network, DrainBracketClosesUnderTheLastDeliveredTraceId) {
  EventQueue q;
  Network network(q);
  Recorder a("a"), c("c");
  DrainCounter b(network);
  const auto ab = network.connect(a, b, SimTime::milliseconds(10));
  b.echo = network.connect(b, c, SimTime::milliseconds(10));
  // Sent outside any delivery, each message starts a span of its own.
  const std::uint64_t first =
      network.send(ab, a, std::make_unique<TextMessage>("m1"));
  const std::uint64_t last =
      network.send(ab, a, std::make_unique<TextMessage>("m2"));
  ASSERT_NE(first, last);
  q.run();
  EXPECT_EQ(b.opens, 1);
  EXPECT_EQ(b.echo_ids, (std::vector<std::uint64_t>{last}));
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(network.current_trace_id(), 0u);
}

// --------------------------------------------------------------------- Rng

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.uniform_int(0, 1'000'000);
    EXPECT_EQ(va, b.uniform_int(0, 1'000'000));
    if (va != c.uniform_int(0, 1'000'000)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 7);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformTimeStaysInRange) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const auto t = rng.uniform_time(SimTime::hours(1), SimTime::hours(95));
    EXPECT_GE(t, SimTime::hours(1));
    EXPECT_LE(t, SimTime::hours(95));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(55);
  Rng child = a.split();
  // The child stream must not simply mirror the parent.
  bool differs = false;
  Rng b(55);
  (void)b.split();
  for (int i = 0; i < 50; ++i) {
    if (child.uniform_int(0, 1 << 30) != a.uniform_int(0, 1 << 30)) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

// -------------------------------------------------------------------- Mt64

static_assert(std::uniform_random_bit_generator<Mt64>);

TEST(Mt64, MatchesStdMt19937_64AcrossRefills) {
  // Seeds at the edges of the seed space, the workload engine's churn
  // stream for seeds 1 and 7, and its flash stream for the same seeds.
  const std::uint64_t seeds[] = {
      0,
      1,
      ~std::uint64_t{0},
      workload::Engine::churn_seed(1),
      workload::Engine::churn_seed(7),
      1 * 0xA24BAED4963EE407ull + 5,
      7 * 0xA24BAED4963EE407ull + 5,
  };
  constexpr int kDraws = 12 * 312;  // one refill per 312 draws
  for (const std::uint64_t seed : seeds) {
    Mt64 fast(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(fast(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt64, EqualityTracksPosition) {
  Mt64 a(42);
  Mt64 b(42);
  EXPECT_EQ(a, b);
  (void)a();
  EXPECT_NE(a, b);
  (void)b();
  EXPECT_EQ(a, b);
}

/// Rng's draws re-derived over the standard library's engine: every
/// method must return what the same distribution returns there.
class StdRngTwin {
 public:
  explicit StdRngTwin(std::uint64_t seed) : engine_(seed) {}
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  bool chance(double p) { return std::bernoulli_distribution{p}(engine_); }
  SimTime uniform_time(SimTime lo, SimTime hi) {
    return SimTime::nanoseconds(uniform_int(lo.ns(), hi.ns()));
  }
  StdRngTwin split() { return StdRngTwin{engine_()}; }

 private:
  std::mt19937_64 engine_;
};

TEST(Rng, DrawsMatchStdMt19937_64Twin) {
  constexpr int kCalls = 10'000;
  Rng rng(20261019);
  StdRngTwin twin(20261019);
  // Ranges vary per call, from one value to the whole int64 range, so the
  // distributions take their narrow, wide and full-range paths.
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < kCalls; ++i) {
    const std::int64_t lo = -(std::int64_t{1} << (i % 40));
    const std::int64_t hi = i % 7 == 0 ? lo : std::int64_t{1} << (i % 63);
    ASSERT_EQ(rng.uniform_int(lo, hi), twin.uniform_int(lo, hi)) << i;
    if (i % 100 == 0) {
      ASSERT_EQ(rng.uniform_int(kMin, kMax), twin.uniform_int(kMin, kMax));
    }
  }
  for (int i = 0; i < kCalls; ++i) {
    const double lo = -0.5 * (i % 13);
    const double hi = lo + 1.0 + 1000.0 * (i % 5);
    ASSERT_EQ(rng.uniform_real(lo, hi), twin.uniform_real(lo, hi)) << i;
  }
  for (int i = 0; i < kCalls; ++i) {
    const double p = (i % 11) / 10.0;  // 0, 0.1, ..., 1
    ASSERT_EQ(rng.chance(p), twin.chance(p)) << i;
  }
  for (int i = 0; i < kCalls; ++i) {
    const SimTime lo = SimTime::seconds(i % 60);
    const SimTime hi = lo + SimTime::hours(1 + i % 95);
    ASSERT_EQ(rng.uniform_time(lo, hi), twin.uniform_time(lo, hi)) << i;
  }
  for (int i = 0; i < kCalls; ++i) {
    Rng child = rng.split();
    StdRngTwin child_twin = twin.split();
    ASSERT_EQ(child.uniform_int(0, kMax), child_twin.uniform_int(0, kMax))
        << i;
  }
}

}  // namespace
}  // namespace net
