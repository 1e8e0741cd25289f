// Offline critical-path analysis of a records JSONL artifact.
//
// Any harness that ran with span sampling (macro_scenario --telemetry,
// chaos_scenario --telemetry, sweep_scenario --telemetry-dir) leaves a
// `.records.jsonl` file: probe arm/fire markers, the head-sampled causal
// chains and the metric frames. This tool reconstructs each convergence
// measurement's critical path from that file alone — the longest chain of
// send/hold/deliver hops behind every `core.convergence_latency`
// observation, broken down by protocol phase (bgp / bgmp / masc / wait)
// with its single slowest hop called out. Log and frame records are
// skipped, so `--json` reproduces the harness's `.critical_path.json`
// byte for byte.
//
// The report is a pure function of the input bytes: the same records file
// produces a byte-identical report no matter the host, thread count or
// how many times it is run — determinism the telemetry tests gate on.
//
// Usage:
//   analyze_run RECORDS.jsonl [--json] [--out FILE]
//
// Default output is the human-readable long-pole summary; --json emits
// the machine-readable report instead.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "eval/args.hpp"
#include "eval/critical_path.hpp"

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  std::string in_path;

  eval::Args args("analyze_run",
                  "critical-path analysis of a sampled records JSONL file");
  args.opt("--spans", &in_path,
           "records JSONL file (or first positional arg)");
  args.flag("--json", &json, "emit the machine-readable JSON report");
  args.opt("--out", &out_path, "also write the report here");

  // Accept the records file as a bare positional argument: pull it out of
  // argv so the shared parser (flags-only) still validates the rest.
  // "--spans" and "--out" consume the following token as their value.
  std::vector<char*> argv2;
  argv2.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prev = i > 0 ? argv[i - 1] : "";
    const bool is_flag_value = prev == "--spans" || prev == "--out";
    if (i > 0 && !arg.empty() && arg[0] != '-' && !is_flag_value) {
      in_path = arg;
      continue;
    }
    argv2.push_back(argv[i]);
  }
  if (!args.parse(static_cast<int>(argv2.size()), argv2.data())) {
    return args.exit_code();
  }
  if (in_path.empty()) {
    std::cerr
        << "analyze_run: no records file given (positional or --spans)\n";
    return 2;
  }

  std::ifstream in(in_path);
  if (!in) {
    std::cerr << "analyze_run: cannot read " << in_path << "\n";
    return 2;
  }
  const eval::CriticalPathReport report =
      eval::analyze_records(eval::read_records_jsonl(in));

  if (json) {
    report.write_json(std::cout);
  } else {
    report.write_text(std::cout);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "analyze_run: cannot write " << out_path << "\n";
      return 2;
    }
    if (json) {
      report.write_json(out);
    } else {
      report.write_text(out);
    }
  }
  return 0;
}
