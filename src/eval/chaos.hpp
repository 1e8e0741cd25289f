// Deterministic chaos harness.
//
// The paper argues MASC/BGMP stays correct under the failures a real
// inter-domain deployment sees — link flaps, partitions, router crashes,
// lossy and reordering transports, claim storms and membership churn. The
// chaos runner turns that claim into an executable experiment: from one
// seed it derives a perturbation schedule, drives it against a fresh
// `core::Internet`, and interleaves sweeps of the always-on invariant
// checkers (src/check) with the churn. After the schedule it heals
// everything, verifies quiescence through the convergence probe, and runs
// the full checker suite (quiescent-only invariants included).
//
// Every run is a pure function of its config: the schedule RNG, the
// transport-disturbance RNG and the simulation seed all derive from
// `config.seed`, so a violation reproduces from the printed
// {seed, step, schedule} triple alone.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "eval/telemetry.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"
#include "workload/spec.hpp"

namespace eval {

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Topology: the sweep backbone (ring-with-chords of tops, customer
  /// children, full MASC sibling mesh between tops).
  int domains = 24;
  /// Perturbation steps to run and the simulated gap between them.
  int steps = 40;
  net::SimTime step_gap = net::SimTime::seconds(30);
  /// Sweep the always-on checkers every this many steps (1 = every step).
  int check_every = 4;

  /// Transport disturbance applied for the whole chaos phase.
  double loss_rate = 0.01;
  net::SimTime retransmit_delay = net::SimTime::milliseconds(200);
  double reorder_rate = 0.05;
  net::SimTime max_jitter = net::SimTime::milliseconds(40);

  /// Workload: groups to lease (0 = domains/4) and initial member joins
  /// per group.
  int groups = 0;
  int joins = 3;

  /// Aggregate end-host churn (src/workload) running *through* the chaos
  /// schedule: ticks are applied at each step boundary via
  /// Session::advance_to, so membership churns while links flap and
  /// domains crash. Disabled by default — legacy chaos runs and their
  /// digests are untouched.
  workload::Spec workload;

  /// Relative weights of the perturbation kinds a step draws from.
  int w_flap = 3;
  int w_partition = 2;
  int w_crash = 1;
  int w_claim_storm = 1;
  int w_churn = 4;
  int w_loss_burst = 1;

  /// Fault injection for the checker's own acceptance test: collapse every
  /// domain's MASC waiting period to ~zero, so concurrent sibling claims
  /// commit before each other's claim messages arrive — the §4.1 bug the
  /// overlap invariant exists to catch. Pair with check_every = 1.
  bool inject_skip_waiting_period = false;

  /// Telemetry attached for the whole run (recorder + span sampling).
  TelemetrySpec telemetry;
  /// When non-empty and the run fails, dump `<prefix>.recorder.jsonl`,
  /// `<prefix>.spans.jsonl` and `<prefix>.critical_path.json` — the
  /// flight-recorder artifacts CI uploads with a red chaos job.
  std::string telemetry_prefix;
};

/// A checker violation stamped with the schedule step it surfaced after
/// (`step == steps` means the final post-heal quiescent sweep).
struct ChaosViolation {
  int step = 0;
  std::string invariant;
  std::string subject;
  std::string detail;
};

struct ChaosResult {
  ChaosConfig config;
  /// One human-readable line per executed perturbation, in order — with
  /// the seed, the full recipe for replaying a violation.
  std::vector<std::string> schedule;
  std::vector<ChaosViolation> violations;
  /// Whether the network went quiet after the final heal (convergence
  /// probe fired within the event budget).
  bool quiesced = false;
  std::uint64_t events_run = 0;
  std::uint64_t checks_run = 0;  ///< checker sweeps executed
  std::uint64_t recorder_frames = 0;  ///< flight-recorder frames retained
  std::uint64_t spans_recorded = 0;   ///< span events kept by the sampler
  /// Aggregate-workload outcome (zero unless config.workload.enabled).
  std::uint64_t workload_members = 0;
  std::uint64_t workload_ticks = 0;
  std::uint64_t workload_engine_digest = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  obs::Snapshot metrics;  ///< final snapshot (offending state on failure)

  [[nodiscard]] bool passed() const {
    return violations.empty() && quiesced;
  }

  /// {"bench":"chaos", "seed":..., "schedule":[...], "violations":[...],
  ///  "metrics":{...}} — the replayable record a CI failure uploads.
  void write_json(std::ostream& os) const;
};

/// Runs one seeded chaos schedule to completion. Deterministic: equal
/// configs produce equal results, violations included.
[[nodiscard]] ChaosResult run_chaos(const ChaosConfig& config);

}  // namespace eval
