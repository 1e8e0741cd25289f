// Parallel deterministic simulation sweeps.
//
// The paper's quantitative claims are statistical: Fig. 2's utilisation,
// Fig. 4's tree quality and the claim–collide latency bounds only mean
// something aggregated over many seeds and topology sizes. The sweep
// engine fans a grid of (scenario × domain-count × seed) cells out across
// a pool of worker threads that take the next cell from one shared
// cursor. Every cell builds a fully isolated `core::Internet` — its own
// EventQueue, RNG, metrics registry and record stream, plus the
// thread-local candidate arena and intern tables — so each cell is a pure
// function of its parameters. Results are byte-identical regardless of
// thread count or schedule; cell outputs are sorted by cell key before
// aggregation to make the combined report schedule-independent too.
//
// Aggregation rides on obs::Histogram::merge / obs::Snapshot::merge_from:
// the sweep emits per-cell rows plus one merged snapshot whose histogram
// quantiles (claim latency, join propagation, convergence) are computed
// over every underlying sample across all cells.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "eval/scenario.hpp"
#include "obs/metrics.hpp"

namespace core {
class Internet;
}

namespace eval {

/// One grid point: a named scenario at one topology size and seed.
struct SweepCell {
  std::string scenario = "join";
  int domains = 32;
  std::uint64_t seed = 1;
  /// Groups to create (0 = scenario default, domains/4) and member
  /// domains joined per group.
  int groups = 0;
  int joins = 4;
};

/// Deterministic ordering used for output (scenario, domains, seed).
[[nodiscard]] bool cell_key_less(const SweepCell& a, const SweepCell& b);

struct SweepCellResult {
  SweepCell cell;
  /// FNV-1a over every domain's converged unicast and G-RIB best routes —
  /// the same digest bench/macro_scenario gates on — plus the chosen
  /// neighbours and hop sequences (path) and the BGMP target lists (tree),
  /// which move when a tie between equal routes resolves differently.
  std::uint64_t rib_digest = 0;
  std::uint64_t path_digest = 0;
  std::uint64_t tree_digest = 0;
  std::uint64_t events_run = 0;
  std::uint64_t messages_sent = 0;
  /// Telemetry yield when SweepConfig::telemetry is enabled; a pure
  /// function of the cell, so identical at any thread count.
  std::uint64_t recorder_frames = 0;
  std::uint64_t spans_recorded = 0;
  double sim_seconds = 0.0;   ///< simulated time consumed
  double wall_seconds = 0.0;  ///< host time for this cell
  obs::Snapshot metrics;      ///< final per-cell snapshot
  /// Empty on success; the cell's exception message otherwise (a failed
  /// cell never takes the whole sweep down).
  std::string error;
};

struct SweepConfig {
  std::vector<SweepCell> cells;
  int threads = 1;
  /// Per-cell telemetry (each cell gets its own session on its own
  /// isolated Internet, so sampling stays schedule-independent).
  TelemetrySpec telemetry;
  /// When non-empty, each cell dumps
  /// `<dir>/sweep-<scenario>-<domains>-<seed>.records.jsonl` and
  /// `.critical_path.json` (the directory must already exist).
  std::string telemetry_dir;
};

struct SweepResult {
  std::vector<SweepCellResult> cells;  ///< sorted by cell key
  /// Cross-cell aggregate: counters summed, gauges averaged over the cells
  /// that carried them, histograms merged at bucket level (see
  /// Snapshot::merge_from). Failed cells excluded.
  obs::Snapshot merged;
  double wall_seconds = 0.0;
  int threads = 0;

  [[nodiscard]] std::size_t failed_cells() const;

  /// {"bench":"sweep", "threads":..., "cells":[...], "merged":{...}} —
  /// per-cell rows carry the digest and work counters; "merged" is the
  /// full combined snapshot schema.
  void write_json(std::ostream& os) const;
};

/// Cross product of scenarios × domain counts × seeds, in key order.
[[nodiscard]] std::vector<SweepCell> make_grid(
    const std::vector<std::string>& scenarios,
    const std::vector<int>& domain_counts,
    const std::vector<std::uint64_t>& seeds);

/// Built-in scenario names ("claim", "join", "flap", "workload" — the
/// last runs Spec::small()'s aggregate end-host churn over the claimed
/// topology).
[[nodiscard]] const std::vector<std::string>& scenario_names();

/// Runs every cell (spread over `config.threads` workers),
/// sorts by cell key, and aggregates. Throws std::invalid_argument for
/// an unknown scenario name in the grid.
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config);

}  // namespace eval
