// Workload spec — the aggregate end-host layer's process parameters.
//
// The paper's evaluation drove a handful of joins per group; the north
// star is "heavy traffic from millions of users". The workload engine
// models end hosts in aggregate: per-(group, domain) member *counts*
// evolve under Zipf group popularity, Poisson join/leave processes with
// diurnal modulation and flash-crowd bursts. Protocol messages fire only
// on 0↔nonzero count transitions, so receiver totals reach millions
// while BGMP join/prune load stays at tree scale.
//
// Everything here is plain data: a workload run is a pure function of
// {seed, Spec}, which is what makes the differential oracle test and the
// same-seed byte-identity guarantee possible.
#pragma once

#include <cmath>
#include <cstdint>

namespace workload {

struct Spec {
  /// Master switch: when false no harness builds an engine, no workload
  /// instruments register, and every committed non-workload digest is
  /// untouched.
  bool enabled = false;

  /// Distinct multicast groups leased from the MAASes (round-robin over
  /// the active children — the address-request load).
  int groups = 2500;

  /// Zipf popularity exponent: group of rank r draws arrivals with weight
  /// proportional to r^-zipf_alpha.
  double zipf_alpha = 0.8;

  /// Aggregate member arrival rate (joins/second across every group) at
  /// the diurnal mean. With `mean_lifetime_seconds` this sets the
  /// steady-state population: members ≈ arrivals/s × lifetime.
  double arrivals_per_second = 8.0;

  /// Mean membership lifetime (exponential leave process). The default
  /// pair (8/s × 2 days) sustains ~1.4M aggregate members.
  double mean_lifetime_seconds = 2.0 * 86400.0;

  /// Churn-process step. Each tick draws Poisson join/leave counts per
  /// group; between ticks counts are constant.
  double tick_seconds = 600.0;

  /// Simulated horizon in days (the canonical run is one week).
  double sim_days = 7.0;

  /// Diurnal modulation of the arrival rate: a 24h sinusoid,
  /// rate × (1 + amplitude × sin(2π t / 86400)). Mean 1 over whole days.
  double diurnal_amplitude = 0.6;

  /// Flash crowds: this many (group, start, duration) bursts are pre-drawn
  /// from the seed; an active burst multiplies its group's arrival rate.
  int flash_crowds = 12;
  double flash_multiplier = 8.0;
  double flash_duration_seconds = 7200.0;

  /// Domain-affinity span: group of rank r spreads its members over
  /// ~span_base × r^-span_alpha domains (clamped to [1, domains-1], the
  /// root excluded). Bounding spans keeps the distinct nonzero
  /// (group, domain) cell population — and thus BGMP join/prune load — at
  /// tree scale while per-cell counts grow without bound.
  int span_base = 1024;
  double span_alpha = 0.7;

  /// Per-group source data rate, aggregated (never per-packet events):
  /// every tick each nonzero cell accounts packets × hops(root, domain)
  /// into its member domain's tree-edge load.
  double packets_per_second = 4.0;

  [[nodiscard]] std::int64_t ticks() const {
    return static_cast<std::int64_t>(
        std::llround(sim_days * 86400.0 / tick_seconds));
  }

  /// A scaled-down spec for tests and sweep cells: minutes of simulated
  /// time, thousands (not millions) of members, every process still
  /// exercised (diurnal period shortened so a short run sees modulation).
  [[nodiscard]] static Spec small() {
    Spec s;
    s.enabled = true;
    s.groups = 32;
    s.arrivals_per_second = 5.0;
    s.mean_lifetime_seconds = 1800.0;
    s.tick_seconds = 120.0;
    s.sim_days = 2.0 / 24.0;  // two simulated hours
    s.flash_crowds = 2;
    s.flash_duration_seconds = 900.0;
    s.span_base = 16;
    return s;
  }
};

}  // namespace workload
