// M3: parallel parameter sweep over the full simulation pipeline. Fans a
// (scenario × domain-count × seed) grid across a work-stealing thread
// pool (src/eval/sweep.hpp); every cell is an isolated core::Internet, so
// per-cell results are byte-identical at any --threads value. Emits one
// JSON report: per-cell rib digests and work counters plus a merged
// metrics snapshot with cross-run histogram quantiles.
//
// Usage:
//   sweep_scenario [--threads N]
//                  [--scenarios claim,join,flap,workload]
//                  [--domains 16,32,48] [--seeds 1,2,3,4]
//                  [--groups G] [--joins J] [--out FILE] [--smoke]
//                  [--telemetry] [--telemetry-interval SEC]
//                  [--span-sample RATE] [--telemetry-dir DIR]
//
// --smoke shrinks the grid to a seconds-long run for CI (the TSan job
// drives it with --threads 4). Exit code is nonzero if any cell failed.
// --telemetry gives every cell metric frames + span sampling on its
// isolated Internet's record stream; per-cell frame/span counts land in
// the report (byte-identical at any --threads), and --telemetry-dir dumps
// each cell's sweep-<scenario>-<domains>-<seed>.records.jsonl and
// .critical_path.json into an existing directory. Every cell also reports
// its rib, path and tree digests.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "eval/args.hpp"
#include "eval/sweep.hpp"

int main(int argc, char** argv) {
  int threads = 1;
  int groups = 0;
  int joins = 4;
  std::vector<std::string> scenarios = eval::scenario_names();
  std::vector<int> domains = {16, 32, 48};
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  std::string out_path;
  bool smoke = false;
  bool telemetry = false;
  double telemetry_interval = 1.0;
  double span_sample = 0.01;
  std::string telemetry_dir;

  eval::Args args("sweep_scenario",
                  "parallel deterministic (scenario × domains × seed) sweep");
  args.opt("--threads", &threads, "worker threads (one cell per worker)");
  args.opt("--scenarios", &scenarios, "scenario names (csv)");
  args.opt("--domains", &domains, "domain counts (csv)");
  args.opt("--seeds", &seeds, "seeds (csv)");
  args.opt("--groups", &groups, "groups per cell (0 = domains/4)");
  args.opt("--joins", &joins, "member joins per group");
  args.opt("--out", &out_path, "also write the JSON report here");
  args.flag("--smoke", &smoke, "shrink the grid to a seconds-long CI run");
  args.flag("--telemetry", &telemetry,
            "attach per-cell metric frames + span sampling");
  args.opt("--telemetry-interval", &telemetry_interval,
           "metric frame interval in simulated seconds");
  args.opt("--span-sample", &span_sample, "head-based span sampling rate");
  args.opt("--telemetry-dir", &telemetry_dir,
           "dump per-cell records JSONL into this directory");
  if (!args.parse(argc, argv)) return args.exit_code();
  if (smoke) {
    domains = {8, 16};
    seeds = {1, 2};
  }

  eval::SweepConfig config;
  config.threads = threads;
  if (telemetry || !telemetry_dir.empty()) {
    config.telemetry.recorder_interval_seconds = telemetry_interval;
    config.telemetry.span_sample_rate = span_sample;
    config.telemetry_dir = telemetry_dir;
  }
  config.cells = eval::make_grid(scenarios, domains, seeds);
  for (eval::SweepCell& cell : config.cells) {
    cell.groups = groups;
    cell.joins = joins;
  }

  eval::SweepResult result;
  try {
    result = eval::run_sweep(config);
  } catch (const std::exception& e) {
    std::cerr << "sweep_scenario: " << e.what() << "\n";
    return 2;
  }

  result.write_json(std::cout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "sweep_scenario: cannot write " << out_path << "\n";
      return 2;
    }
    result.write_json(out);
  }

  if (const std::size_t failed = result.failed_cells(); failed > 0) {
    for (const eval::SweepCellResult& c : result.cells) {
      if (!c.error.empty()) {
        std::cerr << "sweep_scenario: cell " << c.cell.scenario << "/"
                  << c.cell.domains << "/" << c.cell.seed << " failed: "
                  << c.error << "\n";
      }
    }
    return 1;
  }
  std::cerr << "sweep_scenario: " << result.cells.size() << " cells, "
            << result.threads << " threads, " << result.wall_seconds
            << "s\n";
  return 0;
}
