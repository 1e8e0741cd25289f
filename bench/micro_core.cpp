// M1: google-benchmark micro-benchmarks for the library's hot paths —
// the data structures every protocol operation rests on.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bgp/path_table.hpp"
#include "bgp/rib.hpp"
#include "bgp/speaker.hpp"
#include "eval/args.hpp"
#include "eval/tree_model.hpp"
#include "masc/claim_algorithm.hpp"
#include "masc/registry.hpp"
#include "net/event.hpp"
#include "net/network.hpp"
#include "net/rng.hpp"
#include "obs/metrics.hpp"
#include "topology/generators.hpp"
#include "workload/engine.hpp"

namespace {

using net::Ipv4Addr;
using net::Prefix;

std::vector<Prefix> random_prefixes(std::size_t n, std::uint64_t seed) {
  net::Rng rng(seed);
  std::vector<Prefix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int len = static_cast<int>(rng.uniform_int(8, 24));
    out.push_back(Prefix::containing(
        Ipv4Addr{static_cast<std::uint32_t>(
            0xE0000000u | rng.uniform_int(0, 0x0FFFFFFF))},
        len));
  }
  return out;
}

// ------------------------------------------------------------ event queue

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    net::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      queue.schedule_at(net::SimTime::milliseconds((i * 37) % 1000 + 1),
                        [&fired] { ++fired; });
    }
    queue.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// A simulation run never stores more than about 15k keys (the 10k-domain
// rung's high-water mark), so 1k pending is the regime runs live in; 100k
// and 1M show how the heap's O(log n) pops scale far past it.
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(100000)->Arg(1000000);

// The horizon mix of a real run: a dense near-future band (message
// deliveries at ~10ms) under a sparse far-future tail (MASC waiting
// periods, up to 48 simulated hours). The far tail stays stored, and
// deepens the heap, while the near band drains and refills.
void BM_EventQueueSkewedHorizon(benchmark::State& state) {
  for (auto _ : state) {
    net::EventQueue queue;
    int fired = 0;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      if (i % 8 == 0) {
        // Far tail: spread over hours, like staggered waiting periods.
        queue.schedule_at(net::SimTime::seconds((i * 131) % 172800 + 60),
                          [&fired] { ++fired; });
      } else {
        queue.schedule_at(net::SimTime::milliseconds((i * 37) % 1000 + 1),
                          [&fired] { ++fired; });
      }
    }
    // Drain the near band while rescheduling into it — the steady-state
    // delivery churn — then run the far tail out.
    queue.run_until(net::SimTime::seconds(1));
    for (int i = 0; i < n / 4; ++i) {
      queue.schedule_in(net::SimTime::milliseconds((i * 37) % 1000 + 1),
                        [&fired] { ++fired; });
    }
    queue.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + state.range(0) / 4));
}
BENCHMARK(BM_EventQueueSkewedHorizon)->Arg(100000)->Arg(1000000);

// ------------------------------------------------------------ BGP decision

void BM_RibDecision(benchmark::State& state) {
  // Candidate churn on one prefix with `n` peers.
  const int peers = static_cast<int>(state.range(0));
  net::Rng rng(4);
  std::vector<bgp::Candidate> candidates;
  for (int i = 0; i < peers; ++i) {
    bgp::Candidate c;
    c.route.as_path = bgp::PathRef::intern(std::vector<bgp::DomainId>(
        static_cast<std::size_t>(rng.uniform_int(1, 6)), 1));
    c.route.local_pref = static_cast<int>(rng.uniform_int(80, 100));
    c.via = static_cast<bgp::PeerIndex>(i);
    c.exit_uid = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20));
    candidates.push_back(c);
  }
  for (auto _ : state) {
    bgp::RibEntry entry;
    for (const auto& c : candidates) entry.upsert(c);
    benchmark::DoNotOptimize(entry.best());
  }
  state.SetItemsProcessed(state.iterations() * peers);
}
BENCHMARK(BM_RibDecision)->Arg(4)->Arg(32);

// ------------------------------------------------------------- MASC claim

void BM_ClaimChoice(benchmark::State& state) {
  // Choose a claim among `n` live sibling claims in 224/4.
  masc::ClaimRegistry registry;
  net::Rng rng(5);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), 6);
  const net::SimTime now = net::SimTime::days(1);
  const net::SimTime later = net::SimTime::days(31);
  masc::DomainId owner = 1;
  for (const Prefix& p : prefixes) {
    (void)registry.claim(p, owner++, later, now);
  }
  const std::vector<Prefix> spaces{net::multicast_space()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        masc::choose_claim(spaces, registry, 24, now, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClaimChoice)->Arg(50)->Arg(500);

// ----------------------------------------------------- Figure-4 tree model

void BM_TreeModel(benchmark::State& state) {
  net::Rng rng(7);
  const topology::Graph graph = topology::make_as_level(3326, 2, rng);
  eval::GroupScenario scenario;
  scenario.root = 10;
  scenario.source = 20;
  for (int i = 0; i < state.range(0); ++i) {
    scenario.receivers.push_back(
        static_cast<topology::NodeId>(rng.index(graph.node_count())));
  }
  for (auto _ : state) {
    const eval::TreeModel model(graph, scenario);
    benchmark::DoNotOptimize(
        model.path_lengths(eval::TreeType::kHybrid));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeModel)->Arg(100)->Arg(1000);

// ---------------------------------------------------------- path interning

// Route copies are the dominant consumer of AS paths: with interning a
// copy is a refcount bump, without it each copy clones a vector. The
// interleave of intern() calls models a speaker re-learning the same few
// paths over and over (the hit-rate counter shows the consing working).
void BM_PathIntern(benchmark::State& state) {
  const int distinct = static_cast<int>(state.range(0));
  std::vector<std::vector<bgp::DomainId>> paths;
  for (int i = 0; i < distinct; ++i) {
    std::vector<bgp::DomainId> hops;
    for (int h = 0; h <= i % 6; ++h) {
      hops.push_back(static_cast<bgp::DomainId>(900000 + i + h));
    }
    paths.push_back(std::move(hops));
  }
  // Keep one ref per path alive, as RIBs do — otherwise each iteration's
  // release would free the entry and every intern would miss.
  std::vector<bgp::PathRef> keep;
  for (const auto& hops : paths) keep.push_back(bgp::PathRef::intern(hops));
  bgp::PathTable::instance().reset_stats();
  std::size_t i = 0;
  for (auto _ : state) {
    const bgp::PathRef ref = bgp::PathRef::intern(paths[i++ % paths.size()]);
    benchmark::DoNotOptimize(ref.id());
  }
  state.counters["hit_rate"] =
      bgp::PathTable::instance().stats().hit_rate();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathIntern)->Arg(16)->Arg(256)->ArgNames({"distinct"});

void BM_RouteCopy(benchmark::State& state) {
  // Copying a Route with a 5-hop path: the operation Adj-RIB-Out fills,
  // update deltas and decision results all reduce to.
  bgp::Route route;
  route.as_path = bgp::PathRef::intern({1, 2, 3, 4, 5});
  route.origin_as = 5;
  for (auto _ : state) {
    bgp::Route copy = route;
    benchmark::DoNotOptimize(copy.as_path.id());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCopy);

// ----------------------------------------------- BGP propagation end-to-end

// -------------------------------------------------------- obs snapshots

/// Snapshot lookups on a registry the size a 10k-domain run actually
/// produces (200+ instruments): metric frames and the macro harness call
/// find() per series per frame, so it must be the binary search it claims
/// to be, not a linear scan.
void BM_SnapshotFind(benchmark::State& state) {
  obs::Metrics metrics;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("bench.metric." + std::to_string(i * 7919 % n));
    metrics.counter(names.back()).inc();
  }
  metrics.histogram("bench.latency").observe(0.5);
  const obs::Snapshot snap = metrics.snapshot(0.0);
  std::size_t cursor = 0;
  for (auto _ : state) {
    const obs::Sample* s = snap.find(names[cursor]);
    benchmark::DoNotOptimize(s);
    cursor = (cursor + 1) % names.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotFind)->Arg(200)->Arg(1000);

void BM_ShardedCounterAdd(benchmark::State& state) {
  // The per-delivery attribution cost: one add into the dense per-domain
  // array, over uniformly drawn keys.
  obs::Sharded counter;
  net::Rng rng(7);
  std::vector<std::uint64_t> keys;
  keys.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    keys.push_back(rng.uniform_int(0, state.range(0) - 1));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    counter.add(keys[cursor]);
    benchmark::DoNotOptimize(counter.values().data());
    benchmark::ClobberMemory();
    cursor = (cursor + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedCounterAdd)->Arg(32)->Arg(10000)->ArgNames({"domains"});

void BM_BgpPropagation(benchmark::State& state) {
  // One group route propagating over a 200-domain line of speakers.
  for (auto _ : state) {
    state.PauseTiming();
    net::EventQueue events;
    net::Network network(events);
    std::vector<std::unique_ptr<bgp::Speaker>> speakers;
    for (int i = 0; i < 200; ++i) {
      std::string name = "s";
      name += std::to_string(i);
      speakers.push_back(std::make_unique<bgp::Speaker>(
          network, static_cast<bgp::DomainId>(i + 1), std::move(name)));
    }
    for (int i = 0; i + 1 < 200; ++i) {
      bgp::Speaker::connect(*speakers[i], *speakers[i + 1],
                            bgp::Relationship::kLateral);
    }
    state.ResumeTiming();
    speakers[0]->originate(bgp::RouteType::kGroup,
                           Prefix::parse("224.1.0.0/16"));
    events.run();
    benchmark::DoNotOptimize(
        speakers[199]->rib(bgp::RouteType::kGroup).size());
  }
}
BENCHMARK(BM_BgpPropagation)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ generators

// One 64-bit draw, refills included (one per 312 draws). A simulated week
// of the workload engine at the 1k rung draws about 25M of them.
template <typename Generator>
void draw_loop(benchmark::State& state) {
  Generator generator(42);
  for (auto _ : state) benchmark::DoNotOptimize(generator());
  state.SetItemsProcessed(state.iterations());
}

void BM_Mt64Draw(benchmark::State& state) { draw_loop<net::Mt64>(state); }
BENCHMARK(BM_Mt64Draw);

// The same stream from the standard library, for comparison.
void BM_StdMt19937_64Draw(benchmark::State& state) {
  draw_loop<std::mt19937_64>(state);
}
BENCHMARK(BM_StdMt19937_64Draw);

// ------------------------------------------------------- workload engine

// One churn tick of the aggregate end-host layer: 2.5k Zipf-ranked groups
// at the default arrival/lifetime mix, a steady-state population already
// loaded, over 1024 domains (perfbench churn-week-1k's shape) and over
// 10240 (the 10k rung's). Per-tick cost is O(groups + arrivals), not
// O(cells) — this is the number that keeps a simulated week affordable.
void BM_WorkloadTick(benchmark::State& state) {
  const std::uint32_t domains = static_cast<std::uint32_t>(state.range(0));
  workload::Spec spec;
  spec.enabled = true;
  spec.groups = 2500;
  spec.sim_days = 10000.0;  // never exhaust the horizon mid-benchmark
  std::vector<std::uint32_t> roots;
  roots.reserve(static_cast<std::size_t>(spec.groups));
  for (int g = 0; g < spec.groups; ++g) {
    roots.push_back(static_cast<std::uint32_t>(g) % domains);
  }
  workload::Engine engine(spec, domains, std::move(roots), 42);
  engine.set_hops_fn([](std::uint32_t g, std::uint32_t d) {
    return (g + d) % 7 + 1;  // synthetic topology: nonzero, cheap
  });
  // Load the steady state the week-long run spends its time in (~2 days
  // of warmup at the default rates), so the timed ticks sample the
  // realistic regime, not the empty ramp.
  for (int warm = 0; warm < 288; ++warm) engine.tick();
  for (auto _ : state) {
    const workload::TickStats stats = engine.tick();
    benchmark::DoNotOptimize(stats.joins);
    if (engine.ticks_done() >= spec.ticks()) {
      state.SkipWithError("workload horizon exhausted; raise sim_days");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["members"] =
      static_cast<double>(engine.members_total());
}
BENCHMARK(BM_WorkloadTick)->Arg(1024)->Arg(10240)->ArgNames({"domains"});

}  // namespace

// google-benchmark consumes its own --benchmark_* flags; everything it
// leaves behind goes through the shared parser, which supplies --help and
// rejects unknown flags like every other bench binary.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  eval::Args args("micro_core",
                  "google-benchmark micro-benchmarks for the hot data "
                  "structures (plus the --benchmark_* flags)");
  if (!args.parse(argc, argv)) return args.exit_code();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
