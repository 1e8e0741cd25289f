#include "eval/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "workload/session.hpp"

namespace eval {

namespace {

// ------------------------------------------------------------- scenarios
//
// Every scenario is a pure function of (cell) run against a fresh
// Internet: the shared macro-scenario substrate (eval/scenario.hpp), then
// the protocol phases the scenario name selects.

ScenarioSpec spec_of(const SweepCell& cell) {
  ScenarioSpec spec;
  spec.domains = cell.domains;
  spec.seed = cell.seed;
  spec.groups = cell.groups;
  spec.joins = cell.joins;
  return spec;
}

using ScenarioFn = void (*)(core::Internet&, const SweepCell&);

void scenario_claim(core::Internet& net, const SweepCell& cell) {
  const ScenarioSpec spec = spec_of(cell);
  const BuiltScenario topo = build_scenario(net, spec);
  phase_claim(net, topo);
}

void scenario_join(core::Internet& net, const SweepCell& cell) {
  const ScenarioSpec spec = spec_of(cell);
  const BuiltScenario topo = build_scenario(net, spec);
  phase_claim(net, topo);
  net::Rng rng = make_workload_rng(spec.seed);
  (void)phase_groups(net, spec, topo, rng);
}

void scenario_flap(core::Internet& net, const SweepCell& cell) {
  const ScenarioSpec spec = spec_of(cell);
  const BuiltScenario topo = build_scenario(net, spec);
  phase_claim(net, topo);
  net::Rng rng = make_workload_rng(spec.seed);
  (void)phase_groups(net, spec, topo, rng);
  phase_flap(net, spec, topo);
}

void scenario_workload(core::Internet& net, const SweepCell& cell) {
  ScenarioSpec spec = spec_of(cell);
  spec.workload = workload::Spec::small();
  const BuiltScenario topo = build_scenario(net, spec);
  phase_claim(net, topo);
  // The session dies with this frame; the workload.* instruments it set
  // live in the cell's registry, so the snapshot taken afterwards still
  // exports the final values (and the merged sweep report aggregates
  // them across cells).
  std::unique_ptr<workload::Session> session =
      phase_workload(net, spec, topo);
  if (session) session->run();
}

struct NamedScenario {
  const char* name;
  ScenarioFn run;
};

constexpr NamedScenario kScenarios[] = {
    {"claim", scenario_claim},
    {"join", scenario_join},
    {"flap", scenario_flap},
    {"workload", scenario_workload},
};

ScenarioFn find_scenario(const std::string& name) {
  for (const NamedScenario& s : kScenarios) {
    if (name == s.name) return s.run;
  }
  throw std::invalid_argument("sweep: unknown scenario \"" + name + "\"");
}

SweepCellResult run_cell(const SweepCell& cell, ScenarioFn scenario,
                         const SweepConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  SweepCellResult out;
  out.cell = cell;
  try {
    core::Internet net(cell.seed);
    std::optional<TelemetrySession> telemetry;
    if (config.telemetry.enabled()) telemetry.emplace(net, config.telemetry);
    scenario(net, cell);
    out.rib_digest = rib_digest(net);
    out.path_digest = path_digest(net);
    out.tree_digest = tree_digest(net);
    out.metrics = net.metrics_snapshot();
    out.events_run = net.events().events_run();
    out.messages_sent = out.metrics.counter_value("net.messages_sent");
    out.sim_seconds = net.events().now().to_seconds();
    if (telemetry.has_value()) {
      telemetry->final_tick();
      out.recorder_frames = telemetry->recorder_frames();
      out.spans_recorded = telemetry->spans_recorded();
      if (!config.telemetry_dir.empty()) {
        telemetry->dump(config.telemetry_dir + "/sweep-" + cell.scenario +
                        "-" + std::to_string(cell.domains) + "-" +
                        std::to_string(cell.seed));
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

// ------------------------------------------------------ work distribution

/// Per-worker task deques with stealing. Tasks are the cell indices,
/// dealt round-robin up front; a worker drains its own deque from the
/// back and steals from other workers' fronts when empty. No tasks are
/// ever produced after start, so "every deque empty" is the exit
/// condition — no condition variables needed.
class CellQueues {
 public:
  CellQueues(std::size_t workers, std::size_t tasks) : queues_(workers) {
    for (std::size_t i = 0; i < tasks; ++i) {
      queues_[i % workers].items.push_back(i);
    }
  }

  bool next(std::size_t worker, std::size_t& out) {
    if (pop(queues_[worker], /*from_back=*/true, out)) return true;
    for (std::size_t i = 1; i < queues_.size(); ++i) {
      Queue& victim = queues_[(worker + i) % queues_.size()];
      if (pop(victim, /*from_back=*/false, out)) return true;
    }
    return false;
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::size_t> items;
  };

  static bool pop(Queue& q, bool from_back, std::size_t& out) {
    const std::lock_guard<std::mutex> lock(q.mutex);
    if (q.items.empty()) return false;
    if (from_back) {
      out = q.items.back();
      q.items.pop_back();
    } else {
      out = q.items.front();
      q.items.pop_front();
    }
    return true;
  }

  std::vector<Queue> queues_;
};

}  // namespace

bool cell_key_less(const SweepCell& a, const SweepCell& b) {
  if (a.scenario != b.scenario) return a.scenario < b.scenario;
  if (a.domains != b.domains) return a.domains < b.domains;
  return a.seed < b.seed;
}

std::vector<SweepCell> make_grid(const std::vector<std::string>& scenarios,
                                 const std::vector<int>& domain_counts,
                                 const std::vector<std::uint64_t>& seeds) {
  std::vector<SweepCell> cells;
  cells.reserve(scenarios.size() * domain_counts.size() * seeds.size());
  for (const std::string& scenario : scenarios) {
    for (const int domains : domain_counts) {
      for (const std::uint64_t seed : seeds) {
        SweepCell cell;
        cell.scenario = scenario;
        cell.domains = domains;
        cell.seed = seed;
        cells.push_back(std::move(cell));
      }
    }
  }
  std::sort(cells.begin(), cells.end(), cell_key_less);
  return cells;
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const NamedScenario& s : kScenarios) out.emplace_back(s.name);
    return out;
  }();
  return names;
}

SweepResult run_sweep(const SweepConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  // Resolve every scenario before spawning anything: an unknown name is a
  // caller error, not a per-cell failure.
  std::vector<ScenarioFn> scenarios;
  scenarios.reserve(config.cells.size());
  for (const SweepCell& cell : config.cells) {
    scenarios.push_back(find_scenario(cell.scenario));
  }

  SweepResult result;
  result.threads = std::max(1, config.threads);
  result.cells.resize(config.cells.size());

  const auto workers = static_cast<std::size_t>(result.threads);
  CellQueues queues(workers, config.cells.size());
  // results[i] slots are disjoint, so workers write them without locks;
  // the joins below publish everything to this thread.
  const auto worker_main = [&](std::size_t worker) {
    std::size_t index = 0;
    while (queues.next(worker, index)) {
      result.cells[index] =
          run_cell(config.cells[index], scenarios[index], config);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back(worker_main, w);
  }
  for (std::thread& t : threads) t.join();

  // Schedule-independent output: sort by cell key, then aggregate in that
  // order (merge order affects nothing, but determinism is cheap to keep
  // absolute).
  std::sort(result.cells.begin(), result.cells.end(),
            [](const SweepCellResult& a, const SweepCellResult& b) {
              return cell_key_less(a.cell, b.cell);
            });
  for (const SweepCellResult& cell : result.cells) {
    if (cell.error.empty()) result.merged.merge_from(cell.metrics);
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

std::size_t SweepResult::failed_cells() const {
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(), [](const SweepCellResult& c) {
        return !c.error.empty();
      }));
}

void SweepResult::write_json(std::ostream& os) const {
  os << "{\n  \"bench\": \"sweep\",\n  \"threads\": " << threads
     << ",\n  \"wall_seconds\": " << wall_seconds
     << ",\n  \"cells_total\": " << cells.size()
     << ",\n  \"cells_failed\": " << failed_cells() << ",\n  \"cells\": [";
  bool first = true;
  for (const SweepCellResult& c : cells) {
    os << (first ? "" : ",") << "\n    {\"scenario\": \""
       << obs::detail::json_escape(c.cell.scenario)
       << "\", \"domains\": " << c.cell.domains
       << ", \"seed\": " << c.cell.seed << ", \"groups\": " << c.cell.groups
       << ", \"joins\": " << c.cell.joins
       << ", \"rib_digest\": " << c.rib_digest
       << ", \"path_digest\": " << c.path_digest
       << ", \"tree_digest\": " << c.tree_digest
       << ", \"events_run\": " << c.events_run
       << ", \"messages_sent\": " << c.messages_sent
       << ", \"recorder_frames\": " << c.recorder_frames
       << ", \"spans_recorded\": " << c.spans_recorded
       << ", \"sim_seconds\": " << c.sim_seconds
       << ", \"wall_seconds\": " << c.wall_seconds;
    if (!c.error.empty()) {
      os << ", \"error\": \"" << obs::detail::json_escape(c.error) << "\"";
    }
    os << "}";
    first = false;
  }
  os << "\n  ],\n  \"merged\": ";
  merged.write_jsonl(os);  // single line, ends in '\n'
  os << "}\n";
}

}  // namespace eval
