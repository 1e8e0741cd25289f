// Chaos CLI: seeded failure schedules against the full architecture with
// the invariant checkers (src/check) sweeping throughout. One run per
// seed; each emits a JSON record whose {seed, step, schedule} triple
// replays any violation exactly (src/eval/chaos.hpp).
//
// Usage:
//   chaos_scenario [--seeds N | --seed S] [--domains D] [--steps T]
//                  [--check-every K] [--loss P] [--reorder P]
//                  [--groups G] [--joins J] [--out FILE]
//                  [--check] [--workload]
//                  [--inject-skip-waiting] [--expect-violations]
//                  [--telemetry] [--telemetry-interval SEC]
//                  [--span-sample RATE]
//
// --telemetry puts metric frames (1 sim-second interval) and head-sampled
// spans on every seed's record stream; a failing seed then also dumps
// chaos-telemetry-seed<S>.{records.jsonl,critical_path.json} next to its
// violation JSON — the time-series and causal-chain evidence CI uploads
// with a red run.
//
// --workload runs the aggregate end-host layer (src/workload) through
// the schedule: Zipf/Poisson membership churn ticks every 30 simulated
// seconds while the perturbations land, so tree joins and prunes race
// flaps, partitions and crash-restarts. The invariant sweeps see the
// combined state.
//
// --check exits 1 unless every seed passes (zero violations + final
// quiescence). --inject-skip-waiting collapses the MASC waiting period to
// ~zero (and forces --check-every 1): the deliberate §4.1 bug the overlap
// checker must catch. --expect-violations inverts the gate — exit 0 only
// if every seed reports at least one violation (the CI detection
// self-test). On any violation the run's JSON is also written to
// chaos-violation-seed<S>.json for artifact upload.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "eval/args.hpp"
#include "eval/chaos.hpp"
#include "obs/json.hpp"

int main(int argc, char** argv) {
  eval::ChaosConfig base;
  std::uint64_t first_seed = 1;
  int seed_count = 1;
  bool gate = false;
  bool expect_violations = false;
  bool inject_skip_waiting = false;
  bool telemetry = false;
  bool with_workload = false;
  double telemetry_interval = 1.0;
  double span_sample = 0.01;
  std::string out_path;

  eval::Args args("chaos_scenario",
                  "seeded failure schedules with invariant sweeps");
  args.opt("--seeds", &seed_count, "number of consecutive seeds to run");
  args.opt("--seed", &first_seed, "first seed");
  args.opt("--domains", &base.domains, "topology size");
  args.opt("--steps", &base.steps, "perturbation steps per seed");
  args.opt("--check-every", &base.check_every,
           "sweep the checkers every K steps");
  args.opt("--loss", &base.loss_rate, "base transport loss rate");
  args.opt("--reorder", &base.reorder_rate, "base transport reorder rate");
  args.opt("--groups", &base.groups, "groups to lease (0 = domains/4)");
  args.opt("--joins", &base.joins, "initial member joins per group");
  args.opt("--out", &out_path, "write the JSON records here");
  args.flag("--check", &gate, "exit 1 unless every seed passes");
  args.flag("--workload", &with_workload,
            "run aggregate membership churn (Zipf/Poisson end-host layer) "
            "through the schedule");
  args.flag("--inject-skip-waiting", &inject_skip_waiting,
            "collapse the MASC waiting period (checker self-test bug)");
  args.flag("--expect-violations", &expect_violations,
            "invert the gate: require a violation on every seed");
  args.flag("--telemetry", &telemetry,
            "attach metric frames + span sampling; failing seeds "
            "dump their records");
  args.opt("--telemetry-interval", &telemetry_interval,
           "metric frame interval in simulated seconds");
  args.opt("--span-sample", &span_sample, "head-based span sampling rate");
  if (!args.parse(argc, argv)) return args.exit_code();
  if (telemetry) {
    base.telemetry.recorder_interval_seconds = telemetry_interval;
    base.telemetry.span_sample_rate = span_sample;
  }
  if (inject_skip_waiting) {
    base.inject_skip_waiting_period = true;
    base.check_every = 1;  // the overlap window is narrow; sweep every step
  }
  if (with_workload) {
    // A chaos-scale spec: one churn tick per schedule step (the step gap
    // is 30 simulated seconds), a horizon comfortably past the schedule
    // so ticks never run dry, and fast lifetimes so cells cross zero —
    // tree prunes race the perturbations, not just joins.
    workload::Spec w = workload::Spec::small();
    w.tick_seconds = base.step_gap.to_seconds();
    w.sim_days =
        2.0 * base.steps * base.step_gap.to_seconds() / 86400.0 + 1.0 / 96.0;
    w.groups = 16;
    w.arrivals_per_second = 20.0;
    w.mean_lifetime_seconds = 300.0;
    w.span_base = 8;
    w.flash_crowds = 2;
    w.flash_duration_seconds = 120.0;
    base.workload = w;
  }
  if (seed_count < 1) {
    std::cerr << "chaos_scenario: --seeds must be >= 1\n";
    return 2;
  }

  std::ofstream out;
  if (!out_path.empty()) {
    out.open(out_path);
    if (!out) {
      std::cerr << "chaos_scenario: cannot write " << out_path << "\n";
      return 2;
    }
  }
  obs::Json::Array reports;  // one per seed that ran, for --out

  int failed = 0;
  int violated = 0;
  double wall = 0.0;
  for (int s = 0; s < seed_count; ++s) {
    eval::ChaosConfig config = base;
    config.seed = first_seed + static_cast<std::uint64_t>(s);
    if (telemetry) {
      config.telemetry_prefix =
          "chaos-telemetry-seed" + std::to_string(config.seed);
    }
    eval::ChaosResult result;
    try {
      result = eval::run_chaos(config);
    } catch (const std::exception& e) {
      std::cerr << "chaos_scenario: seed " << config.seed
                << " threw: " << e.what() << "\n";
      ++failed;
      continue;
    }
    wall += result.wall_seconds;
    if (out.is_open()) reports.push_back(result.to_json());
    if (!result.violations.empty()) {
      ++violated;
      std::cerr << "chaos_scenario: seed " << config.seed << " violated "
                << result.violations.size() << " invariant(s):\n";
      for (const eval::ChaosViolation& v : result.violations) {
        std::cerr << "  step " << v.step << " [" << v.invariant << "] "
                  << v.subject << ": " << v.detail << "\n";
      }
      std::cerr << "  replay: chaos_scenario --seed " << config.seed
                << " --domains " << config.domains << " --steps "
                << config.steps << " --check-every " << config.check_every
                << (config.inject_skip_waiting_period
                        ? " --inject-skip-waiting"
                        : "")
                << "\n";
      const std::string dump =
          "chaos-violation-seed" + std::to_string(config.seed) + ".json";
      std::ofstream dump_out(dump);
      if (dump_out) {
        dump_out << result.to_json().dump(obs::Json::Style::kPretty);
        std::cerr << "  wrote " << dump << "\n";
      }
    } else if (!result.quiesced) {
      ++failed;
      std::cerr << "chaos_scenario: seed " << config.seed
                << " did not quiesce after the final heal\n";
    }
    if (!expect_violations && result.violations.empty() &&
        result.quiesced) {
      std::cerr << "chaos_scenario: seed " << config.seed << " ok ("
                << result.schedule.size() << " steps, "
                << result.checks_run << " sweeps, " << result.events_run
                << " events)\n";
    }
  }
  if (out.is_open()) {
    out << obs::Json(std::move(reports)).dump(obs::Json::Style::kPretty);
  }

  std::cerr << "chaos_scenario: " << seed_count << " seed(s), " << violated
            << " with violations, " << failed << " failed, " << wall
            << "s\n";
  if (expect_violations) {
    // Detection self-test: the injected bug must be caught on EVERY seed.
    return violated == seed_count && failed == 0 ? 0 : 1;
  }
  if (gate) return violated == 0 && failed == 0 ? 0 : 1;
  return 0;
}
