// Figure 2 reproduction (E1 + E2): the MASC claim algorithm simulated over
// the paper's workload —
//
//   50 top-level domains x 50 children; each child requests blocks of 256
//   addresses with 30-day lifetimes at inter-request times U(1h, 95h);
//   800 simulated days.
//
// Prints the Figure-2(a) utilization series and the Figure-2(b) G-RIB
// size series (average and max over all 2550 domains), plus steady-state
// summaries against the paper's reported values (~50% utilization; G-RIB
// mean ~175, max <= ~180). Writes fig2_allocation.csv next to the binary.
// Exits 1 when the run's end-of-run invariants (MascSimResult::
// invariants_ok) fail.
//
// Usage: fig2_allocation [--days N] [--tops N] [--children N] [--seed N]
//                        [--max-prefixes N] [--csv PATH] [--metrics-out PATH]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "eval/args.hpp"
#include "eval/masc_sim.hpp"
#include "obs/metrics.hpp"

namespace {

// Default output lands next to the binary (i.e. under build/), not in the
// invoking directory, so runs from a source checkout never litter the
// repo root with generated artifacts.
std::string beside_binary(const char* argv0, const char* filename) {
  const std::string self(argv0);
  const auto slash = self.find_last_of('/');
  if (slash == std::string::npos) return filename;
  return self.substr(0, slash + 1) + filename;
}

}  // namespace

int main(int argc, char** argv) {
  int days = 800;
  int tops = 50;
  int children = 50;
  int max_prefixes = 2;
  int exchanges = 0;
  std::uint64_t seed = 1998;
  std::string csv_path = beside_binary(argv[0], "fig2_allocation.csv");
  std::string metrics_out;

  eval::Args args("fig2_allocation",
                  "Figure 2: MASC address allocation over the paper's "
                  "50x50-domain workload");
  args.opt("--days", &days, "simulated days");
  args.opt("--tops", &tops, "top-level domains");
  args.opt("--children", &children, "children per top-level domain");
  args.opt("--seed", &seed, "simulation seed");
  args.opt("--max-prefixes", &max_prefixes, "prefixes-per-domain goal");
  args.opt("--exchanges", &exchanges, "exchange count (0 = one mesh)");
  args.opt("--csv", &csv_path, "daily series output path");
  args.opt("--metrics-out", &metrics_out, "metrics snapshot output path");
  if (!args.parse(argc, argv)) return args.exit_code();

  eval::MascSimParams params;
  params.horizon = net::SimTime::days(days);
  params.top_level_domains = static_cast<std::size_t>(tops);
  params.children_per_top = static_cast<std::size_t>(children);
  params.seed = seed;
  params.pool.max_prefixes = max_prefixes;
  params.exchanges = static_cast<std::size_t>(exchanges);

  std::printf(
      "== Figure 2: MASC address allocation (%zu top-level x %zu children, "
      "%lld days, seed %llu) ==\n",
      params.top_level_domains, params.children_per_top,
      static_cast<long long>(params.horizon.to_days()),
      static_cast<unsigned long long>(params.seed));

  const eval::MascSimResult result = eval::run_masc_sim(params);

  std::FILE* csv = std::fopen(csv_path.c_str(), "w");
  if (csv != nullptr) {
    std::fprintf(csv,
                 "day,utilization,grib_average,grib_max,"
                 "requested_addresses,top_level_claimed,total_prefixes\n");
  }
  std::printf("%8s %12s %12s %9s %12s %14s\n", "day", "utilization",
              "grib_avg", "grib_max", "requested", "claimed(224/4)");
  for (const eval::MascSimSample& s : result.samples) {
    if (csv != nullptr) {
      std::fprintf(csv, "%.0f,%.6f,%.3f,%zu,%llu,%llu,%zu\n", s.day,
                   s.utilization, s.grib_average, s.grib_max,
                   static_cast<unsigned long long>(s.requested_addresses),
                   static_cast<unsigned long long>(s.top_level_claimed),
                   s.total_prefixes);
    }
    const auto day = static_cast<long long>(s.day);
    if (day % 25 == 0) {  // console: every 25 days
      std::printf("%8lld %12.3f %12.1f %9zu %12llu %14llu\n", day,
                  s.utilization, s.grib_average, s.grib_max,
                  static_cast<unsigned long long>(s.requested_addresses),
                  static_cast<unsigned long long>(s.top_level_claimed));
    }
  }
  if (csv != nullptr) {
    std::fclose(csv);
    std::printf("(full daily series written to %s)\n", csv_path.c_str());
  }

  const double steady_from = params.horizon.to_days() / 2.0;
  const eval::MascSimSample steady = result.steady_state(steady_from);
  const double blocks =
      static_cast<double>(steady.requested_addresses) / 256.0;
  // The run's accounting comes from its metrics snapshot — the same
  // registry counters the simulation incremented while serving requests.
  const obs::Snapshot& metrics = result.final_metrics;
  std::printf(
      "\n== steady state (day >= %.0f) vs the paper ==\n"
      "  utilization            %.3f   (paper: ~0.50)\n"
      "  G-RIB average          %.1f   (paper: ~175)\n"
      "  G-RIB max              %zu   (paper: <= ~180)\n"
      "  outstanding blocks     %.0f   (paper: 37500)\n"
      "  aggregation factor     %.0fx  (blocks per G-RIB route)\n"
      "  allocation failures    %llu\n"
      "  requests served        %llu\n"
      "  expansions executed    %llu\n",
      steady_from, steady.utilization, steady.grib_average, steady.grib_max,
      blocks, blocks / steady.grib_average,
      static_cast<unsigned long long>(
          metrics.counter_value("masc.allocation_failures")),
      static_cast<unsigned long long>(
          metrics.counter_value("masc.requests_served")),
      static_cast<unsigned long long>(
          metrics.counter_value("masc.expansions_executed")));

  // Implied §4.1 claim latencies (each expansion waits out one waiting
  // period at the protocol level; collisions restart it).
  const obs::HistogramStats grant =
      metrics.histogram_stats("masc.claim_grant_latency");
  const obs::HistogramStats collide =
      metrics.histogram_stats("masc.collision_resolution_latency");
  std::printf(
      "\n== implied claim latency (waiting period %.0f h) ==\n"
      "  claim grants           %llu   p50 %.1f h  p95 %.1f h  p99 %.1f h\n"
      "  collision resolutions  %llu   p50 %.1f h  p95 %.1f h  p99 %.1f h\n",
      params.claim_waiting_period.to_seconds() / 3600.0,
      static_cast<unsigned long long>(grant.count), grant.p50 / 3600.0,
      grant.p95 / 3600.0, grant.p99 / 3600.0,
      static_cast<unsigned long long>(collide.count), collide.p50 / 3600.0,
      collide.p95 / 3600.0, collide.p99 / 3600.0);

  std::printf("\n== end-of-run invariants: %s ==\n",
              result.invariants_ok ? "ok" : "VIOLATED");

  if (!metrics_out.empty()) {
    std::ofstream file(metrics_out);
    metrics.write_json(file);
    std::printf("(metrics snapshot written to %s)\n", metrics_out.c_str());
  }
  return result.invariants_ok ? 0 : 1;
}
