// Figure 4 reproduction (E3): path-length overhead of the four
// inter-domain distribution-tree types, relative to shortest-path trees.
//
// The paper used a 3326-node topology derived from 1998 BGP dumps; this
// harness substitutes a seeded preferential-attachment AS-level graph of
// the same size (or transit–stub via --topology=ts, or a real edge list
// via --topology-file). For each group size in 1..1000, random receiver
// sets, a random source and a root at the group initiator's domain are
// drawn; the series reported are the ratios tree/SPT (average and max
// over receivers, averaged over trials):
//
//   unidirectional (PIM-SM-style),  bidirectional (CBT/BGMP),
//   hybrid (BGMP with source-specific branches).
//
// Expected shape (paper): hybrid avg <~1.2x, bidirectional avg <~1.3x,
// unidirectional avg ~2x; maxima up to ~4x / ~4.5x / ~6x.
//
// --protocol-check additionally runs sampled scenarios through the real
// BGP+BGMP protocol stack and verifies the per-receiver hop counts equal
// the model's (bidirectional and hybrid).
//
// Usage: fig4_tree_quality [--nodes N] [--trials N] [--seed N]
//                          [--topology ba|ts] [--topology-file PATH]
//                          [--csv PATH] [--protocol-check]
//                          [--metrics-out PATH]
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/args.hpp"
#include "eval/tree_model.hpp"
#include "net/rng.hpp"
#include "obs/metrics.hpp"
#include "topology/generators.hpp"

namespace {

using topology::NodeId;

// Default output lands next to the binary (i.e. under build/), not in the
// invoking directory, so runs from a source checkout never litter the
// repo root with generated artifacts.
std::string beside_binary(const char* argv0, const char* filename) {
  const std::string self(argv0);
  const auto slash = self.find_last_of('/');
  if (slash == std::string::npos) return filename;
  return self.substr(0, slash + 1) + filename;
}

struct Accumulated {
  double avg_sum = 0.0;
  double max_sum = 0.0;
  void add(const eval::PathLengthRatios& r) {
    avg_sum += r.average;
    max_sum += r.maximum;
  }
};

eval::GroupScenario draw_scenario(const topology::Graph& graph,
                                  std::size_t receivers, net::Rng& rng) {
  eval::GroupScenario scenario;
  // The root is the group initiator's domain (§5.1); the paper draws the
  // source randomly, so initiator == first receiver drawn.
  std::set<NodeId> receiver_set;
  while (receiver_set.size() < receivers) {
    receiver_set.insert(static_cast<NodeId>(rng.index(graph.node_count())));
  }
  scenario.receivers.assign(receiver_set.begin(), receiver_set.end());
  scenario.root = scenario.receivers[rng.index(scenario.receivers.size())];
  scenario.source = static_cast<NodeId>(rng.index(graph.node_count()));
  return scenario;
}

// Verifies sampled scenarios through the real protocol stack.
int protocol_check(std::uint64_t seed, const char* metrics_out) {
  std::printf("\n== protocol check: BGMP trees vs model (n=400) ==\n");
  net::Rng rng(seed);
  const topology::Graph graph = topology::make_as_level(400, 2, rng);
  int mismatches = 0;
  for (const std::size_t group_size : {2u, 8u, 32u, 96u}) {
    core::Internet net;
    std::map<const core::Domain*, std::vector<int>> hops;
    net.set_delivery_observer([&](const core::Delivery& d) {
      hops[d.domain].push_back(d.hops);
    });
    const std::vector<core::Domain*> domains = net.build_from_graph(graph);
    eval::GroupScenario scenario = draw_scenario(graph, group_size, rng);
    const core::Group group = net::Ipv4Addr::parse("224.0.128.1");
    domains[scenario.root]->originate_group_range(
        net::Prefix::parse("224.0.128.0/24"));
    domains[scenario.source]->announce_unicast();
    net.settle();
    for (const NodeId r : scenario.receivers) domains[r]->host_join(group);
    net.settle();

    // Model over the protocol's converged next hops.
    std::map<const bgp::Speaker*, NodeId> s2n;
    for (NodeId n = 0; n < domains.size(); ++n) {
      s2n[&domains[n]->speaker()] = n;
    }
    const auto rib_tree = [&](bgp::RouteType type, net::Ipv4Addr addr,
                              NodeId root) {
      topology::BfsTree tree;
      tree.source = root;
      tree.dist.assign(domains.size(), topology::kUnreachable);
      tree.parent.assign(domains.size(), topology::kUnreachable);
      for (NodeId n = 0; n < domains.size(); ++n) {
        const auto hit = domains[n]->speaker().lookup(type, addr);
        if (!hit) continue;
        if (hit->next_hop == nullptr) {
          tree.dist[n] = 0;
          tree.parent[n] = n;
        } else {
          tree.dist[n] =
              static_cast<std::uint32_t>(hit->route->as_path.size());
          tree.parent[n] = s2n.at(hit->next_hop);
        }
      }
      return tree;
    };
    const net::Ipv4Addr source_host =
        domains[scenario.source]->host_address(1);
    const eval::TreeModel model(
        graph, scenario,
        rib_tree(bgp::RouteType::kGroup, group, scenario.root),
        rib_tree(bgp::RouteType::kUnicast, source_host, scenario.source));

    const auto bidir = model.path_lengths(eval::TreeType::kBidirectional);
    const auto hyb = model.path_lengths(eval::TreeType::kHybrid);
    std::set<NodeId> branchers;
    for (std::size_t i = 0; i < scenario.receivers.size(); ++i) {
      if (hyb[i] < bidir[i]) {
        branchers.insert(scenario.receivers[i]);
        domains[scenario.receivers[i]]->build_source_branch(source_host,
                                                            group);
      }
    }
    net.settle();
    // Branch copies serve branchers on their branch paths; the shared
    // tree serves everyone else untouched — exactly the hybrid model.
    const auto expected = model.path_lengths(eval::TreeType::kHybrid);
    (void)branchers;
    hops.clear();
    domains[scenario.source]->send(group);
    net.settle();
    for (std::size_t i = 0; i < scenario.receivers.size(); ++i) {
      const core::Domain* d = domains[scenario.receivers[i]];
      const auto it = hops.find(d);
      const bool ok = it != hops.end() && it->second.size() == 1 &&
                      it->second[0] == static_cast<int>(expected[i]);
      if (!ok) {
        ++mismatches;
        std::printf("  MISMATCH group_size=%zu receiver=%u expected=%u"
                    " got=%d copies=%zu\n",
                    group_size, scenario.receivers[i], expected[i],
                    it == hops.end() ? -1 : it->second[0],
                    it == hops.end() ? 0 : it->second.size());
      }
    }
    // Protocol accounting comes from the stack's metrics snapshot rather
    // than hand-kept tallies: the same counters every component
    // incremented while the scenario ran.
    const obs::Snapshot snap = net.metrics_snapshot();
    std::printf(
        "  group size %3zu: %zu receivers verified"
        " (joins=%llu data_fwd=%llu tree_entries=%.0f deliveries=%llu)\n",
        group_size, scenario.receivers.size(),
        static_cast<unsigned long long>(
            snap.counter_value("bgmp.joins_sent")),
        static_cast<unsigned long long>(
            snap.counter_value("bgmp.data_forwarded")),
        snap.gauge_value("bgmp.tree_entries"),
        static_cast<unsigned long long>(
            snap.counter_value("core.deliveries")));
    // Measured latency quantiles from the protocol run: how long a join
    // took to graft onto the tree, and how long BGP updates took to settle.
    const obs::HistogramStats join =
        snap.histogram_stats("bgmp.join_propagation_latency");
    const obs::HistogramStats route =
        snap.histogram_stats("bgp.route_convergence_latency");
    std::printf(
        "                  join latency   p50 %.3fs p95 %.3fs p99 %.3fs"
        " (n=%llu)\n"
        "                  route converge p50 %.3fs p95 %.3fs p99 %.3fs"
        " (n=%llu)\n",
        join.p50, join.p95, join.p99,
        static_cast<unsigned long long>(join.count), route.p50, route.p95,
        route.p99, static_cast<unsigned long long>(route.count));
    if (metrics_out != nullptr) {
      std::ofstream file(metrics_out);
      snap.write_json(file);
    }
  }
  if (metrics_out != nullptr) {
    std::printf("  (last scenario's metrics snapshot written to %s)\n",
                metrics_out);
  }
  std::printf("  %s\n", mismatches == 0 ? "all hop counts match the model"
                                        : "MISMATCHES FOUND");
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 3326;
  int trials = 10;
  std::uint64_t seed = 1998;
  std::string kind = "ba";
  std::string file;
  std::string csv_path = beside_binary(argv[0], "fig4_tree_quality.csv");
  std::string metrics_out;
  bool run_protocol_check = false;
  eval::Args args("fig4_tree_quality",
                  "Figure 4: path-length overhead of the four tree types");
  args.opt("--nodes", &nodes, "topology size (domains)");
  args.opt("--trials", &trials, "trials per group size");
  args.opt("--seed", &seed, "topology/receiver-draw seed");
  args.opt("--topology", &kind, "generator: ba or ts");
  args.opt("--topology-file", &file, "real edge list to load instead");
  args.opt("--csv", &csv_path, "series output path");
  args.opt("--metrics-out", &metrics_out, "metrics snapshot output path");
  args.flag("--protocol-check", &run_protocol_check,
            "verify sampled scenarios through the real protocol stack");
  if (!args.parse(argc, argv)) return args.exit_code();

  net::Rng rng(seed);
  topology::Graph graph;
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    graph = topology::load_edge_list(in);
  } else if (kind == "ts") {
    graph = topology::make_transit_stub({}, rng);
  } else {
    graph = topology::make_as_level(static_cast<std::size_t>(nodes), 2, rng);
  }
  std::printf(
      "== Figure 4: path-length overhead vs shortest-path trees ==\n"
      "topology: %zu domains, %zu links (%s), %d trials/point, seed %llu\n\n",
      graph.node_count(), graph.edge_count(),
      file.empty() ? kind.c_str() : file.c_str(), trials,
      static_cast<unsigned long long>(seed));

  const std::vector<std::size_t> sizes{1,  2,  5,   10,  20,  50,
                                       100, 200, 500, 1000};
  std::FILE* csv = std::fopen(csv_path.c_str(), "w");
  if (csv != nullptr) {
    std::fprintf(csv,
                 "receivers,uni_avg,uni_max,bidir_avg,bidir_max,"
                 "hybrid_avg,hybrid_max\n");
  }
  std::printf("%9s | %17s | %17s | %17s\n", "", "unidirectional",
              "bidirectional", "hybrid");
  std::printf("%9s | %8s %8s | %8s %8s | %8s %8s\n", "receivers", "avg",
              "max", "avg", "max", "avg", "max");
  for (const std::size_t size : sizes) {
    if (size >= graph.node_count()) break;
    Accumulated uni, bidir, hybrid;
    for (int t = 0; t < trials; ++t) {
      const eval::GroupScenario scenario = draw_scenario(graph, size, rng);
      const eval::TreeModel model(graph, scenario);
      const auto spt = model.path_lengths(eval::TreeType::kShortestPath);
      uni.add(eval::ratios_vs_spt(
          spt, model.path_lengths(eval::TreeType::kUnidirectional)));
      bidir.add(eval::ratios_vs_spt(
          spt, model.path_lengths(eval::TreeType::kBidirectional)));
      hybrid.add(eval::ratios_vs_spt(
          spt, model.path_lengths(eval::TreeType::kHybrid)));
    }
    const double n = trials;
    std::printf("%9zu | %8.3f %8.3f | %8.3f %8.3f | %8.3f %8.3f\n", size,
                uni.avg_sum / n, uni.max_sum / n, bidir.avg_sum / n,
                bidir.max_sum / n, hybrid.avg_sum / n, hybrid.max_sum / n);
    if (csv != nullptr) {
      std::fprintf(csv, "%zu,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n", size,
                   uni.avg_sum / n, uni.max_sum / n, bidir.avg_sum / n,
                   bidir.max_sum / n, hybrid.avg_sum / n, hybrid.max_sum / n);
    }
  }
  if (csv != nullptr) {
    std::fclose(csv);
    std::printf("(series written to %s)\n", csv_path.c_str());
  }
  std::printf(
      "\npaper's reported shape: hybrid avg <1.2x (max ~4x), bidirectional\n"
      "avg <1.3x (max ~4.5x), unidirectional avg ~2x (max ~6x).\n");

  if (run_protocol_check) {
    return protocol_check(seed, metrics_out.empty() ? nullptr
                                                    : metrics_out.c_str()) == 0
               ? 0
               : 1;
  }
  return 0;
}
