// Workload benchmark — the aggregate end-host layer at scale. Builds the
// shared scenario shape, runs the claim phase, leases the workload's
// group population from the MAASes, then drives a simulated week (by
// default) of Zipf/Poisson membership churn with diurnal modulation and
// flash crowds through workload::Session. Reports the realized member
// population (sampled at each simulated day boundary), the BGMP tree
// join/prune economy it induced, join-propagation latency quantiles,
// MAAS address fragmentation and the heaviest per-domain tree-edge loads
// as JSON.
//
// Usage:
//   workload_scenario [--domains N] [--seed S]
//                     [--max-tops M] [--active-children A]
//                     [--groups G] [--days D] [--tick SEC]
//                     [--arrivals RATE] [--lifetime SEC] [--zipf ALPHA]
//                     [--diurnal AMP] [--flash-crowds N]
//                     [--flash-multiplier X] [--flash-duration SEC]
//                     [--span-base N] [--span-alpha ALPHA]
//                     [--packets RATE] [--out FILE]
//
// The run is a pure function of {seed, parameters}: rerunning it yields a
// byte-identical rib_digest and engine_digest, which is what the
// determinism tests assert. Defaults follow ScenarioSpec ladder practice:
// above 512 domains the scale caps apply unless overridden.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/internet.hpp"
#include "eval/args.hpp"
#include "eval/scenario.hpp"
#include "obs/metrics.hpp"
#include "workload/session.hpp"

namespace {

void write_report(const eval::ScenarioSpec& spec,
                  const workload::SessionReport& report,
                  const obs::Snapshot& snap, double wall_seconds,
                  std::uint64_t events_run, std::uint64_t rib_digest,
                  std::ostream& os) {
  const workload::Spec& w = spec.workload;
  os << "{\n  \"bench\": \"workload_scenario\",\n"
     << "  \"params\": {\"domains\": " << spec.domains
     << ", \"seed\": " << spec.seed
     << ", \"max_tops\": " << spec.max_tops
     << ", \"active_children\": " << spec.active_children
     << ", \"workload_groups\": " << w.groups
     << ", \"sim_days\": " << w.sim_days
     << ", \"tick_seconds\": " << w.tick_seconds
     << ", \"arrivals_per_second\": " << w.arrivals_per_second
     << ", \"mean_lifetime_seconds\": " << w.mean_lifetime_seconds
     << ", \"zipf_alpha\": " << w.zipf_alpha
     << ", \"diurnal_amplitude\": " << w.diurnal_amplitude
     << ", \"flash_crowds\": " << w.flash_crowds
     << ", \"flash_multiplier\": " << w.flash_multiplier
     << ", \"flash_duration_seconds\": " << w.flash_duration_seconds
     << ", \"span_base\": " << w.span_base
     << ", \"span_alpha\": " << w.span_alpha
     << ", \"packets_per_second\": " << w.packets_per_second << "},\n"
     << "  \"wall_seconds\": " << wall_seconds << ",\n"
     << "  \"events_run\": " << events_run << ",\n"
     << "  \"events_per_second\": "
     << (wall_seconds > 0.0 ? static_cast<double>(events_run) / wall_seconds
                            : 0.0)
     << ",\n"
     << "  \"members_total\": " << report.members_total << ",\n"
     << "  \"members_peak\": " << report.members_peak << ",\n"
     << "  \"joins_total\": " << report.joins_total << ",\n"
     << "  \"leaves_total\": " << report.leaves_total << ",\n"
     << "  \"tree_joins\": " << report.tree_joins << ",\n"
     << "  \"tree_prunes\": " << report.tree_prunes << ",\n"
     << "  \"active_cells\": " << report.active_cells << ",\n"
     << "  \"active_groups\": " << report.active_groups << ",\n"
     << "  \"groups_leased\": " << report.groups_leased << ",\n"
     << "  \"lease_failures\": " << report.lease_failures << ",\n"
     << "  \"flash_crowds_drawn\": " << report.flash_crowds << ",\n"
     << "  \"ticks_run\": " << report.ticks_run << ",\n"
     << "  \"edge_load_total\": " << report.edge_load_total << ",\n"
     << "  \"address_fragmentation\": "
     << snap.gauge_value("workload.address_fragmentation") << ",\n";

  const obs::HistogramStats lat =
      snap.histogram_stats("bgmp.join_propagation_latency");
  os << "  \"join_latency_seconds\": {\"count\": " << lat.count
     << ", \"p50\": " << lat.p50 << ", \"p95\": " << lat.p95
     << ", \"p99\": " << lat.p99 << ", \"max\": " << lat.max << "},\n";

  // The heaviest tree edges: the exact per-domain counter's top list,
  // keyed by member-domain id (packet-hops accumulated over the run).
  os << "  \"edge_load_top\": [";
  if (const obs::ShardedSample* edges =
          snap.find_sharded("bgmp.tree_edge_load.by_domain")) {
    const std::vector<obs::ShardedItem> top = edges->top();
    for (std::size_t i = 0; i < top.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "{\"domain\": " << top[i].key
         << ", \"packet_hops\": " << top[i].value << "}";
    }
  }
  os << "],\n";

  os << "  \"members_by_day\": [";
  for (std::size_t i = 0; i < report.members_by_day.size(); ++i) {
    os << (i == 0 ? "" : ", ") << report.members_by_day[i];
  }
  os << "],\n"
     << "  \"engine_digest\": " << report.engine_digest << ",\n"
     << "  \"rib_digest\": " << rib_digest << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  eval::ScenarioSpec spec;
  spec.domains = 1024;
  spec.max_tops = -1;          // -1 = follow the ladder caps
  spec.active_children = -1;
  spec.workload.enabled = true;
  workload::Spec& w = spec.workload;
  std::string out_path;

  eval::Args args("workload_scenario",
                  "aggregate end-host churn (Zipf groups, Poisson "
                  "join/leave, diurnal + flash crowds) over the full "
                  "MASC/MAAS/BGP/BGMP pipeline");
  args.opt("--domains", &spec.domains, "domain count");
  args.opt("--seed", &spec.seed, "workload seed");
  args.opt("--max-tops", &spec.max_tops,
           "cap the backbone size (-1 = ladder caps, 0 = domains/8)");
  args.opt("--active-children", &spec.active_children,
           "cap how many children lease groups (-1 = ladder caps, 0 = all)");
  args.opt("--groups", &w.groups, "multicast groups to lease");
  args.opt("--days", &w.sim_days, "simulated horizon in days");
  args.opt("--tick", &w.tick_seconds, "churn tick in simulated seconds");
  args.opt("--arrivals", &w.arrivals_per_second,
           "aggregate member arrivals per second (diurnal mean)");
  args.opt("--lifetime", &w.mean_lifetime_seconds,
           "mean membership lifetime in seconds");
  args.opt("--zipf", &w.zipf_alpha, "group popularity exponent");
  args.opt("--diurnal", &w.diurnal_amplitude,
           "diurnal arrival-rate modulation amplitude");
  args.opt("--flash-crowds", &w.flash_crowds,
           "flash-crowd bursts drawn over the horizon");
  args.opt("--flash-multiplier", &w.flash_multiplier,
           "arrival-rate multiplier during a flash crowd");
  args.opt("--flash-duration", &w.flash_duration_seconds,
           "flash-crowd duration in seconds");
  args.opt("--span-base", &w.span_base,
           "domain-affinity span of the top-ranked group");
  args.opt("--span-alpha", &w.span_alpha, "span decay exponent");
  args.opt("--packets", &w.packets_per_second,
           "per-group source data rate (packets/second)");
  args.opt("--out", &out_path, "also write the JSON report here");
  if (!args.parse(argc, argv)) return args.exit_code();

  // The ladder caps (macro_scenario's rung_spec) unless overridden: a 10k
  // run with an uncapped backbone would square the MASC sibling mesh.
  if (spec.max_tops < 0) {
    spec.max_tops = spec.domains > 512 ? 64 : 0;
  }
  if (spec.active_children < 0) {
    spec.active_children = spec.domains > 512 ? 256 : 0;
  }
  if (spec.domains > 512 && spec.flap_pairs == 0) spec.flap_pairs = 2;

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  core::Internet net(spec.seed);
  const eval::BuiltScenario topo = eval::build_scenario(net, spec);
  eval::phase_claim(net, topo);
  std::unique_ptr<workload::Session> session =
      eval::phase_workload(net, spec, topo);
  if (!session) {
    std::cerr << "workload_scenario: no group could be leased (domains="
              << spec.domains << ")\n";
    return 2;
  }
  std::cerr << "workload_scenario: " << spec.domains << " domains, "
            << session->report().groups_leased << " groups leased, "
            << spec.workload.ticks() << " ticks of " << w.tick_seconds
            << "s over " << w.sim_days << " simulated days\n";
  session->run();

  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const obs::Snapshot snap = net.metrics_snapshot();
  const std::uint64_t digest = eval::rib_digest(net);
  const workload::SessionReport report = session->report();

  write_report(spec, report, snap, wall_seconds, net.events().events_run(),
               digest, std::cout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "workload_scenario: cannot write " << out_path << "\n";
      return 2;
    }
    write_report(spec, report, snap, wall_seconds, net.events().events_run(),
                 digest, out);
  }
  return 0;
}
