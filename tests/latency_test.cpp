// Stack-level tests for the second observability tier: causal trace-id
// propagation across lossy and partitioned links, span reconstruction of a
// BGMP join leaf→root from the records JSONL format, the
// convergence probe's one-sample-per-perturbation contract, the five
// <module>.<noun>_latency instruments, gauge stability across
// back-to-back snapshots of a quiescent network, and the isolation of two
// internets' record streams on one thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "masc/node.hpp"
#include "net/network.hpp"
#include "net/probe.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"

namespace {

using core::Domain;
using core::Internet;

// ------------------------------------------------------- net-level helpers

struct TestMsg final : net::Message {
  [[nodiscard]] std::string describe() const override { return "TEST"; }
};

struct TestEndpoint final : net::Endpoint {
  explicit TestEndpoint(std::string name) : name_(std::move(name)) {}
  void on_message(net::ChannelId,
                  std::unique_ptr<net::Message> msg) override {
    received_trace_ids.push_back(msg->trace_id);
  }
  [[nodiscard]] std::string name() const override { return name_; }

  std::string name_;
  std::vector<std::uint64_t> received_trace_ids;
};

TEST(TraceIds, HeldMessageKeepsTraceIdAndCountsHoldTimeAsLatency) {
  net::EventQueue events;
  net::Network network(events);
  auto sink = std::make_shared<obs::MemorySink>();
  network.stream().add_sink(sink);
  network.stream().set_span_rate(1.0);
  TestEndpoint a("A");
  TestEndpoint b("B");
  const net::ChannelId ch =
      network.connect(a, b, net::SimTime::milliseconds(10));

  network.set_up(ch, false);
  const std::uint64_t id = network.send(ch, a, std::make_unique<TestMsg>());
  ASSERT_NE(id, 0u);
  {
    const auto held = sink->records_for(id);
    ASSERT_EQ(held.size(), 1u);
    EXPECT_EQ(held[0].kind, obs::Record::Kind::kHold);
  }

  // Heal the partition five seconds later: the message flushes with its
  // original trace id, and the delivery latency includes the hold time.
  events.run_until(net::SimTime::seconds(5));
  network.set_up(ch, true);
  events.run();

  ASSERT_EQ(b.received_trace_ids.size(), 1u);
  EXPECT_EQ(b.received_trace_ids[0], id);
  const auto span = sink->records_for(id);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0].kind, obs::Record::Kind::kHold);
  EXPECT_EQ(span[1].kind, obs::Record::Kind::kSend);
  EXPECT_EQ(span[2].kind, obs::Record::Kind::kDeliver);

  const obs::HistogramStats latency =
      network.metrics().snapshot().histogram_stats("net.delivery_latency");
  EXPECT_EQ(latency.count, 1u);
  EXPECT_GE(latency.min, 5.0);  // partition time counts
}

TEST(TraceIds, DropWhenDownRecordsDropSpanWithTraceId) {
  net::EventQueue events;
  net::Network network(events);
  auto sink = std::make_shared<obs::MemorySink>();
  network.stream().add_sink(sink);
  network.stream().set_span_rate(1.0);
  TestEndpoint a("A");
  TestEndpoint b("B");
  const net::ChannelId ch = network.connect(a, b);
  network.set_drop_when_down(ch, true);
  network.set_up(ch, false);

  const std::uint64_t id = network.send(ch, a, std::make_unique<TestMsg>());
  events.run();

  EXPECT_TRUE(b.received_trace_ids.empty());
  const auto span = sink->records_for(id);
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(span[0].kind, obs::Record::Kind::kDrop);
  EXPECT_EQ(span[0].trace_id, id);
  EXPECT_EQ(network.messages_dropped(), 1u);
}

TEST(TraceIds, DerivedMessagesInheritTheAmbientTraceId) {
  // A handler that relays inside on_message must produce a send carrying
  // the delivered message's trace id — the ambient-context rule every
  // protocol layer (BGMP joins, BGP re-advertisements) relies on.
  net::EventQueue events;
  net::Network network(events);
  auto sink = std::make_shared<obs::MemorySink>();
  network.stream().add_sink(sink);
  network.stream().set_span_rate(1.0);

  struct Relay final : net::Endpoint {
    net::Network* network = nullptr;
    net::ChannelId out{};
    void on_message(net::ChannelId,
                    std::unique_ptr<net::Message>) override {
      network->send(out, *this, std::make_unique<TestMsg>());
    }
    [[nodiscard]] std::string name() const override { return "relay"; }
  };

  TestEndpoint a("A");
  Relay relay;
  TestEndpoint c("C");
  const net::ChannelId in = network.connect(a, relay);
  relay.network = &network;
  relay.out = network.connect(relay, c);

  const std::uint64_t id = network.send(in, a, std::make_unique<TestMsg>());
  events.run();

  ASSERT_EQ(c.received_trace_ids.size(), 1u);
  EXPECT_EQ(c.received_trace_ids[0], id);
  // One causal chain: send a→relay, deliver, send relay→c, deliver.
  EXPECT_EQ(sink->records_for(id).size(), 4u);
}

// -------------------------------------------------- span JSONL round trip

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Spans, BgmpJoinReconstructsLeafToRootFromJsonl) {
  // A three-domain chain; the member joins at the leaf. Filtering the span
  // JSONL on the join's single trace id must reconstruct the hop-by-hop
  // path leaf → mid → root.
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& mid = net.add_domain({.id = 2, .name = "mid"});
  Domain& leaf = net.add_domain({.id = 3, .name = "leaf"});
  net.link(root, mid);
  net.link(mid, leaf);

  std::ostringstream spans;
  net.network().stream().add_sink(std::make_shared<obs::JsonlSink>(spans));
  net.network().stream().set_span_rate(1.0);

  const core::Group group = net::Ipv4Addr::parse("224.0.128.1");
  root.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  spans.str("");  // keep only the join's events

  leaf.host_join(group);
  net.settle();

  const std::vector<std::string> lines = split_lines(spans.str());
  ASSERT_FALSE(lines.empty());

  // The join's trace id: the JOIN send leaving the leaf's BGMP router.
  std::uint64_t trace_id = 0;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"send\"") == std::string::npos) continue;
    if (line.find("\"from\":\"leaf/bgmp\"") == std::string::npos) continue;
    if (line.find("JOIN") == std::string::npos) continue;
    trace_id = std::stoull(line.substr(line.find(':') + 1));
    break;
  }
  ASSERT_NE(trace_id, 0u) << "no JOIN send from leaf/bgmp recorded";

  // Filter on that one id and check the leaf→root sequence.
  const std::string key = "\"trace_id\":" + std::to_string(trace_id) + ",";
  std::vector<std::string> chain;
  for (const std::string& line : lines) {
    if (line.find(key) != std::string::npos) chain.push_back(line);
  }
  const char* expected[] = {
      "\"event\":\"send\",\"from\":\"leaf/bgmp\",\"to\":\"mid/bgmp\"",
      "\"event\":\"deliver\",\"from\":\"leaf/bgmp\",\"to\":\"mid/bgmp\"",
      "\"event\":\"send\",\"from\":\"mid/bgmp\",\"to\":\"root/bgmp\"",
      "\"event\":\"deliver\",\"from\":\"mid/bgmp\",\"to\":\"root/bgmp\"",
  };
  std::size_t at = 0;
  for (const char* want : expected) {
    bool found = false;
    for (; at < chain.size(); ++at) {
      if (chain[at].find(want) != std::string::npos) {
        found = true;
        ++at;
        break;
      }
    }
    EXPECT_TRUE(found) << "missing (in order): " << want;
  }
}

// ---------------------------------------------------------- record streams

TEST(Stream, EachInternetOwnsItsStream) {
  // Two internets alive on one thread, spans (rate 1) and info logs on
  // the first only: neither memory sink may see the other's records.
  const auto build = [](Internet& net, const std::string& tag) {
    Domain& root = net.add_domain({.id = 1, .name = tag + "root"});
    Domain& leaf = net.add_domain({.id = 2, .name = tag + "leaf"});
    net.link(root, leaf);
    root.masc_node().set_spaces({net::multicast_space()});
    root.masc_node().request_space(256);
    root.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
    return &leaf;
  };
  Internet first;
  Internet second;
  auto first_sink = std::make_shared<obs::MemorySink>();
  auto second_sink = std::make_shared<obs::MemorySink>();
  first.network().stream().add_sink(first_sink);
  first.network().stream().set_span_rate(1.0);
  first.network().stream().set_level(obs::Level::kInfo);
  second.network().stream().add_sink(second_sink);
  Domain* first_leaf = build(first, "one-");
  Domain* second_leaf = build(second, "two-");
  const core::Group group = net::Ipv4Addr::parse("224.0.128.1");
  first_leaf->host_join(group);
  second_leaf->host_join(group);
  first.settle();
  second.settle();

  std::size_t spans = 0;
  std::size_t logs = 0;
  for (const obs::Record& record : first_sink->records()) {
    spans += record.is_span() ? 1 : 0;
    logs += record.kind == obs::Record::Kind::kLog ? 1 : 0;
    EXPECT_EQ(record.from.find("two-"), std::string::npos) << record.from;
    EXPECT_EQ(record.to.find("two-"), std::string::npos) << record.to;
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(logs, 0u);
  EXPECT_TRUE(second_sink->records().empty());
}

// -------------------------------------------------------- convergence probe

TEST(ConvergenceProbe, RecordsExactlyOneSamplePerPerturbation) {
  Internet net;
  Domain& a = net.add_domain({.id = 1, .name = "A"});
  Domain& b = net.add_domain({.id = 2, .name = "B"});
  net.link(a, b);
  a.announce_unicast();
  b.announce_unicast();
  net.settle();
  // Initial topology construction is not a perturbation.
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 0u);

  net.set_link_state(a, b, false);
  EXPECT_TRUE(net.convergence_probe().armed());
  net.settle();
  EXPECT_FALSE(net.convergence_probe().armed());
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 1u);

  net.set_link_state(a, b, true);
  net.settle();
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 2u);

  // A domain joining the running internet is also a perturbation; linking
  // it re-arms (restarts) the same measurement rather than adding one.
  Domain& c = net.add_domain({.id = 3, .name = "C"});
  EXPECT_TRUE(net.convergence_probe().armed());
  net.link(b, c);
  c.announce_unicast();
  net.settle();
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 3u);

  const obs::HistogramStats converge =
      net.metrics_snapshot().histogram_stats("core.convergence_latency");
  EXPECT_EQ(converge.count, 3u);
}

TEST(ConvergenceProbe, ReArmingRestartsTheMeasurement) {
  net::EventQueue events;
  net::Network network(events);
  obs::Histogram latency;
  net::ConvergenceProbe probe(network, latency, net::SimTime::seconds(2));
  probe.arm("first");
  probe.arm("second");  // restart — still one pending measurement
  events.run();
  EXPECT_EQ(probe.samples_recorded(), 1u);
  EXPECT_EQ(latency.count(), 1u);
}

TEST(ConvergenceProbe, CrashRestartRecordsOneSamplePerPerturbation) {
  // A domain crash-restart is a perturbation like any other: the probe
  // re-arms at the crash instant and, once the sessions re-establish and
  // the trees repair, records exactly one time-to-converge sample — not
  // zero (probe never re-armed after a restart) and not one per bounced
  // channel.
  Internet net;
  Domain& a = net.add_domain({.id = 1, .name = "A"});
  Domain& b = net.add_domain({.id = 2, .name = "B"});
  Domain& c = net.add_domain({.id = 3, .name = "C"});
  net.link(a, b);
  net.link(b, c);
  for (Domain* d : {&a, &b, &c}) d->announce_unicast();
  a.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  c.host_join(net::Ipv4Addr::parse("224.0.128.1"));
  net.settle();
  const std::uint64_t baseline = net.convergence_probe().samples_recorded();

  // Crash the transit domain — both its channels bounce, BGMP soft state
  // vanishes, membership is re-expressed on restart.
  net.crash_restart_domain(b);
  EXPECT_TRUE(net.convergence_probe().armed());
  net.settle();
  EXPECT_FALSE(net.convergence_probe().armed());
  EXPECT_EQ(net.convergence_probe().samples_recorded(), baseline + 1);

  // The probe survives repeated crash cycles: one sample each.
  net.crash_restart_domain(c);
  net.settle();
  net.crash_restart_domain(b);
  net.settle();
  EXPECT_EQ(net.convergence_probe().samples_recorded(), baseline + 3);

  const obs::HistogramStats converge =
      net.metrics_snapshot().histogram_stats("core.convergence_latency");
  EXPECT_EQ(converge.count, baseline + 3);
  EXPECT_GT(converge.min, 0.0);
}

// ------------------------------------------------------ latency instruments

TEST(Instruments, LatencyHistogramsPopulateAcrossTheStack) {
  // One run exercising MASC claiming, BGP convergence, a BGMP join and
  // data delivery; the snapshot must carry samples in the corresponding
  // <module>.<noun>_latency histograms.
  Internet net;
  Domain& t = net.add_domain({.id = 1, .name = "T"});
  Domain& c = net.add_domain({.id = 2, .name = "C"});
  Domain& m = net.add_domain({.id = 3, .name = "M"});
  net.link(t, c, bgp::Relationship::kCustomer);
  net.link(t, m, bgp::Relationship::kLateral);
  net.masc_parent(c, t);
  for (Domain* d : {&t, &c, &m}) d->announce_unicast();

  t.masc_node().set_spaces({net::multicast_space()});
  t.masc_node().request_space(65536);
  net.settle();  // waits out the 48h claim waiting period
  c.masc_node().request_space(256);
  net.settle();

  const core::Group group = net::Ipv4Addr::parse("224.0.128.1");
  c.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  m.host_join(group);
  net.settle();
  c.send(group);
  net.settle();

  const obs::Snapshot snap = net.metrics_snapshot();
  const obs::HistogramStats claim =
      snap.histogram_stats("masc.claim_grant_latency");
  EXPECT_EQ(claim.count, 2u);  // T's top-level claim + C's child claim
  EXPECT_DOUBLE_EQ(claim.max, 48.0 * 3600.0);  // the waiting period

  EXPECT_GT(snap.histogram_stats("bgp.route_convergence_latency").count, 0u);
  EXPECT_GT(snap.histogram_stats("bgmp.join_propagation_latency").count, 0u);
  EXPECT_GT(snap.histogram_stats("net.delivery_latency").count, 0u);
  // The collision histogram is registered (empty — nothing collided).
  EXPECT_NE(snap.find_histogram("masc.collision_resolution_latency"),
            nullptr);
}

TEST(Instruments, CollisionResolutionLatencySpansCollisionToGrant) {
  // Two top-level siblings claim the same range (deterministic first-fit);
  // the loser's histogram sample covers first collision → eventual grant.
  net::EventQueue events;
  net::Network network(events);
  masc::MascNode::Params params;
  params.pool.strategy = masc::ClaimStrategy::kFirstFit;
  masc::MascNode a(network, 10, "A", params, 1010);
  masc::MascNode b(network, 20, "B", params, 1020);
  masc::MascNode::connect(a, b, masc::MascNode::PeerKind::kSibling);
  a.set_spaces({net::multicast_space()});
  b.set_spaces({net::multicast_space()});
  a.request_space(65536);
  events.run_until(net::SimTime::milliseconds(1));
  b.request_space(65536);  // later timestamp → loses, retries
  events.run(1'000'000);

  ASSERT_EQ(b.collisions_suffered(), 1);
  const obs::Snapshot snap = network.metrics().snapshot();
  const obs::HistogramStats grants =
      snap.histogram_stats("masc.claim_grant_latency");
  EXPECT_EQ(grants.count, 2u);  // both nodes eventually granted
  const obs::HistogramStats collisions =
      snap.histogram_stats("masc.collision_resolution_latency");
  EXPECT_EQ(collisions.count, 1u);  // only the loser resolved a collision
  // Resolution takes at least the restarted waiting period.
  EXPECT_GE(collisions.min, 48.0 * 3600.0);
  // The loser's total grant latency exceeds the winner's single wait.
  EXPECT_GT(grants.max, grants.min);
}

// ----------------------------------------------------------- gauge hygiene

TEST(Snapshots, QuiescentBackToBackSnapshotsReportIdenticalGauges) {
  // Sampled gauges must set() absolute values at refresh time, never
  // accumulate: snapshotting twice with no simulation progress in between
  // has to report the same numbers.
  Internet net;
  Domain& a = net.add_domain({.id = 1, .name = "A"});
  Domain& b = net.add_domain({.id = 2, .name = "B"});
  net.link(a, b);
  a.announce_unicast();
  b.announce_unicast();
  a.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  b.host_join(net::Ipv4Addr::parse("224.0.128.1"));
  net.settle();

  const obs::Snapshot first = net.metrics_snapshot();
  const obs::Snapshot second = net.metrics_snapshot();
  std::size_t gauges_compared = 0;
  for (const obs::Sample& s : first.samples) {
    if (s.kind != obs::Sample::Kind::kGauge) continue;
    EXPECT_DOUBLE_EQ(second.gauge_value(s.name), s.value) << s.name;
    ++gauges_compared;
  }
  EXPECT_GT(gauges_compared, 5u);
  // Counters are monotone totals and must match for the same reason.
  for (const obs::Sample& s : first.samples) {
    if (s.kind != obs::Sample::Kind::kCounter) continue;
    EXPECT_EQ(second.counter_value(s.name), s.count) << s.name;
  }
}

}  // namespace
