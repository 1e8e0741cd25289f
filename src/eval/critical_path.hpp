// Convergence critical-path analysis over sampled record streams.
//
// A `core.convergence_latency` observation says *how long* the system took
// to settle after a perturbation; it says nothing about *why*. The span
// records carry the missing causality: the probe brackets each
// measurement with probe-arm/probe-fire markers (trace_id 0, exempt from
// sampling), and every sampled causal chain in between is a sequence of
// send/hold/deliver hops. The analyzer cuts the stream into measurement
// windows at those markers, reconstructs per-trace hop chains inside each
// window, and reports the chain that finished last — the critical path
// whose final delivery *is* the convergence instant (up to sampling) —
// broken down by protocol phase (bgp / bgmp / masc) and idle wait.
//
// Determinism: the analysis is a pure function of the span sequence.
// Ties (two chains ending at the same instant) break towards the lowest
// trace id; all aggregation maps are ordered; every double renders via
// %.9f. Equal span sequences produce byte-identical reports — the
// property bench/analyze_run gates on across thread counts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/record.hpp"

namespace eval {

/// One matched network hop on a causal chain: send (or hold, when the
/// channel was partitioned — the parked time is part of the path) through
/// to delivery.
struct CriticalHop {
  std::uint64_t trace_id = 0;
  std::string from;
  std::string to;
  std::string message;
  double start = 0.0;  ///< seconds; kHold time when the hop was parked
  double end = 0.0;    ///< delivery time, seconds
  bool held = false;   ///< true if the hop sat in a partition queue

  [[nodiscard]] double latency() const { return end - start; }
};

/// Protocol phase of a hop, classified from the receiving endpoint's name:
/// "D2/bgmp" → "bgmp", "D2/masc" → "masc", bare "D2" (a BGP speaker) →
/// "bgp" (see core/domain.cpp naming).
[[nodiscard]] std::string hop_phase(const CriticalHop& hop);

/// One probe measurement window: [latest arm before the fire, fire].
struct ConvergenceWindow {
  std::string label;         ///< probe label ("link-flap", "domain-crash"…)
  double armed_at = 0.0;     ///< perturbation instant, seconds
  double converged_at = 0.0; ///< convergence instant, seconds
  std::size_t traces = 0;    ///< sampled causal chains inside the window
  std::size_t hops = 0;      ///< matched hops across all those chains

  /// The chain whose last delivery was latest (tie: lowest trace id).
  std::uint64_t critical_trace = 0;
  std::vector<CriticalHop> critical_hops;  ///< time-ordered

  /// Critical-chain time by phase, plus "wait" — window time covered by
  /// no critical-chain hop (timers, MASC waiting periods, quiet gaps).
  std::map<std::string, double> phase_seconds;

  [[nodiscard]] double duration() const { return converged_at - armed_at; }
};

struct CriticalPathReport {
  std::vector<ConvergenceWindow> windows;
  std::size_t events_seen = 0;    ///< span records consumed
  std::size_t unmatched_fires = 0;  ///< probe-fire with no prior arm

  /// Index of the longest window, or npos when there are none.
  [[nodiscard]] std::size_t longest_window() const;

  /// Machine-readable report; byte-deterministic for equal inputs.
  void write_json(std::ostream& os) const;
  /// Human-readable long-pole summary, one window per paragraph.
  void write_text(std::ostream& os) const;
};

/// Analyzes a record stream in emission order. Only span records count;
/// log and frame records are skipped, and spans outside any window are
/// counted but otherwise ignored.
[[nodiscard]] CriticalPathReport analyze_records(
    const std::vector<obs::Record>& records);

/// Parses a records JSONL stream (the obs::write_jsonl schema) back into
/// records; lines that do not parse are skipped. Together with
/// analyze_records this makes a dumped `.records.jsonl` artifact
/// self-contained for offline analysis (bench/analyze_run).
[[nodiscard]] std::vector<obs::Record> read_records_jsonl(std::istream& is);

}  // namespace eval
