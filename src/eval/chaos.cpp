#include "eval/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/scenario.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "workload/session.hpp"

namespace eval {

namespace {

/// A link or whole-domain partition scheduled to heal at a later step.
struct PendingHeal {
  int heal_step;
  core::Domain* a;
  core::Domain* b;  ///< nullptr = whole-domain partition of `a`
};

}  // namespace

ChaosResult run_chaos(const ChaosConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  ChaosResult result;
  result.config = config;

  // Three independent streams, all derived from the one seed: the
  // perturbation schedule, the transport disturbance, and the workload
  // (group placement and churn picks). The disturbance RNG outlives every
  // use: the network holds a pointer to it until the final heal disables
  // the disturbance again.
  net::Rng schedule_rng(config.seed * 0x9E3779B97F4A7C15ull + 1);
  net::Rng disturbance_rng = schedule_rng.split();
  net::Rng workload_rng = make_workload_rng(config.seed);

  ScenarioSpec spec;
  spec.domains = config.domains;
  spec.seed = config.seed;
  spec.groups = config.groups;
  spec.joins = config.joins;
  spec.record_links = true;   // the schedule picks flap victims from them
  spec.track_members = true;  // churn needs coherent member sets
  spec.workload = config.workload;

  core::Internet net(config.seed);
  // Declared after the internet (destroyed first — see telemetry.hpp);
  // attached before the workload so setup-phase convergence is covered too.
  std::optional<TelemetrySession> telemetry;
  if (config.telemetry.enabled()) telemetry.emplace(net, config.telemetry);
  const BuiltScenario topo = build_scenario(net, spec);

  if (config.inject_skip_waiting_period) {
    for (std::size_t i = 0; i < net.domain_count(); ++i) {
      net.domain(i).masc_node().debug_set_waiting_period(
          net::SimTime::milliseconds(1));
    }
  }

  // ---- setup: claims, groups, initial membership (the sweep phases) ----
  phase_claim(net, topo);
  std::vector<LiveGroup> live =
      phase_groups(net, spec, topo, workload_rng);
  // The aggregate end-host layer, churning through the whole schedule.
  // Its ticks are applied at step boundaries (advance_to never runs
  // events), so the perturbation schedule and the transport-disturbance
  // stream replay identically with the workload on or off.
  std::unique_ptr<workload::Session> workload_session =
      phase_workload(net, spec, topo);

  // ---- chaos phase ------------------------------------------------------
  const net::Network::Disturbance base_disturbance{
      config.loss_rate, config.retransmit_delay, config.reorder_rate,
      config.max_jitter};
  net.network().set_disturbance(base_disturbance, &disturbance_rng);

  check::CheckerSuite suite = check::CheckerSuite::standard();
  const auto sweep = [&](int step, bool quiescent) {
    // The lifetime invariant is over *aged* state: renew/expire first.
    for (std::size_t i = 0; i < net.domain_count(); ++i) {
      net.domain(i).masc_node().age_now();
    }
    ++result.checks_run;
    for (check::Violation& v : suite.run(net, quiescent)) {
      result.violations.push_back(ChaosViolation{
          step, std::move(v.invariant), std::move(v.subject),
          std::move(v.detail)});
    }
  };

  std::vector<PendingHeal> pending;
  std::set<std::pair<core::Domain*, core::Domain*>> down_links;
  std::set<core::Domain*> down_domains;
  bool burst_active = false;

  const int weight_total = config.w_flap + config.w_partition +
                           config.w_crash + config.w_claim_storm +
                           config.w_churn + config.w_loss_burst;
  const auto note = [&](int step, const std::string& what) {
    result.schedule.push_back("step " + std::to_string(step) + ": " + what);
  };

  for (int step = 0; step < config.steps && result.violations.empty();
       ++step) {
    // Heal whatever is due, and end any loss burst from the last step.
    if (burst_active) {
      net.network().set_disturbance(base_disturbance, &disturbance_rng);
      burst_active = false;
    }
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->heal_step > step) {
        ++it;
        continue;
      }
      if (it->b != nullptr) {
        net.set_link_state(*it->a, *it->b, true);
        down_links.erase({it->a, it->b});
      } else {
        net.set_domain_connectivity(*it->a, true);
        down_domains.erase(it->a);
      }
      it = pending.erase(it);
    }

    // Draw this step's perturbation. Under waiting-period injection the
    // first step is forced to be a claim storm, so the deliberately
    // broken claim–collide exchange is exercised on every seed.
    int draw = static_cast<int>(
        schedule_rng.uniform_int(0, weight_total - 1));
    if (config.inject_skip_waiting_period && step == 0) {
      draw = config.w_flap + config.w_partition + config.w_crash;
    }
    const auto takes = [&](int weight) {
      if (draw < weight) return true;
      draw -= weight;
      return false;
    };
    if (takes(config.w_flap)) {
      const auto& victim = topo.links[schedule_rng.index(topo.links.size())];
      if (!down_links.contains(victim) && !down_domains.contains(victim.first) &&
          !down_domains.contains(victim.second)) {
        const int heal =
            step + 1 + static_cast<int>(schedule_rng.uniform_int(0, 2));
        net.set_link_state(*victim.first, *victim.second, false);
        down_links.insert(victim);
        pending.push_back({heal, victim.first, victim.second});
        note(step, "flap " + victim.first->name() + "--" +
                       victim.second->name() + " (heal @" +
                       std::to_string(heal) + ")");
      } else {
        note(step, "flap skipped (victim already partitioned)");
      }
    } else if (takes(config.w_partition)) {
      core::Domain& d = net.domain(schedule_rng.index(net.domain_count()));
      if (!down_domains.contains(&d)) {
        const int heal =
            step + 1 + static_cast<int>(schedule_rng.uniform_int(0, 2));
        net.set_domain_connectivity(d, false);
        down_domains.insert(&d);
        pending.push_back({heal, &d, nullptr});
        note(step, "partition " + d.name() + " (heal @" +
                       std::to_string(heal) + ")");
      } else {
        note(step, "partition skipped (already isolated)");
      }
    } else if (takes(config.w_crash)) {
      core::Domain& d = net.domain(schedule_rng.index(net.domain_count()));
      net.crash_restart_domain(d);
      note(step, "crash-restart " + d.name());
    } else if (takes(config.w_claim_storm)) {
      // Two sibling tops claim concurrently — the claim–collide exchange
      // under load (and, with the waiting period injected away, the very
      // overlap the checker must catch) — plus one child expanding.
      std::string storm = "claim-storm";
      const std::size_t first = schedule_rng.index(topo.tops.size());
      topo.tops[first]->masc_node().request_space(4096);
      storm += " " + topo.tops[first]->name();
      if (topo.tops.size() > 1) {
        const std::size_t second =
            (first + 1 + schedule_rng.index(topo.tops.size() - 1)) %
            topo.tops.size();
        topo.tops[second]->masc_node().request_space(4096);
        storm += "," + topo.tops[second]->name();
      }
      if (!topo.children.empty()) {
        core::Domain& c =
            *topo.children[schedule_rng.index(topo.children.size())];
        c.masc_node().request_space(256);
        storm += ",+" + c.name();
      }
      note(step, storm);
    } else if (takes(config.w_churn)) {
      std::string churn = "churn";
      const int ops = 1 + static_cast<int>(schedule_rng.uniform_int(0, 2));
      for (int op = 0; op < ops && !live.empty(); ++op) {
        LiveGroup& l = live[schedule_rng.index(live.size())];
        const int kind = static_cast<int>(schedule_rng.uniform_int(0, 9));
        if (kind < 5) {  // join
          const std::size_t pick = schedule_rng.index(net.domain_count());
          if (pick != l.root_index && l.members.insert(pick).second) {
            net.domain(pick).host_join(l.group);
            churn += " join(" + net.domain(pick).name() + "," +
                     l.group.to_string() + ")";
          }
        } else if (kind < 8) {  // leave
          if (!l.members.empty()) {
            auto it = l.members.begin();
            std::advance(it, schedule_rng.index(l.members.size()));
            net.domain(*it).host_leave(l.group);
            churn += " leave(" + net.domain(*it).name() + "," +
                     l.group.to_string() + ")";
            l.members.erase(it);
          }
        } else {  // send
          l.root->send(l.group);
          churn += " send(" + l.group.to_string() + ")";
        }
      }
      note(step, churn);
    } else {
      // Loss burst: one step of a much dirtier transport.
      net::Network::Disturbance burst = base_disturbance;
      burst.loss_rate = std::min(0.25, config.loss_rate * 10 + 0.05);
      burst.reorder_rate = std::min(0.5, config.reorder_rate * 4 + 0.1);
      net.network().set_disturbance(burst, &disturbance_rng);
      burst_active = true;
      note(step, "loss-burst");
    }

    // Let the perturbation land, sweep if due, then run out the gap.
    if (workload_session) workload_session->advance_to(net.events().now());
    net.run_until(net.events().now() + net::SimTime::milliseconds(5));
    if ((step + 1) % std::max(1, config.check_every) == 0) {
      sweep(step, /*quiescent=*/false);
    }
    net.run_until(net.events().now() + config.step_gap);
  }

  // ---- final heal, quiescence, full sweep -------------------------------
  net.network().set_disturbance({}, nullptr);
  if (result.violations.empty()) {
    for (const PendingHeal& heal : pending) {
      if (heal.b != nullptr) {
        net.set_link_state(*heal.a, *heal.b, true);
      } else {
        net.set_domain_connectivity(*heal.a, true);
      }
    }
    net.settle();
    net::ConvergenceProbe& probe = net.convergence_probe();
    probe.arm("chaos-final");
    net.settle();
    result.quiesced = !probe.armed();
    sweep(config.steps, /*quiescent=*/true);
  }

  if (workload_session) {
    workload_session->finish();
    const workload::SessionReport report = workload_session->report();
    result.workload_members = report.members_total;
    result.workload_ticks = static_cast<std::uint64_t>(report.ticks_run);
    result.workload_engine_digest = report.engine_digest;
  }
  result.events_run = net.events().events_run();
  result.sim_seconds = net.events().now().to_seconds();
  result.metrics = net.metrics_snapshot();
  if (telemetry.has_value()) {
    telemetry->final_tick();
    result.recorder_frames = telemetry->recorder_frames();
    result.spans_recorded = telemetry->spans_recorded();
    if (!config.telemetry_prefix.empty() && !result.passed()) {
      // The replay artifacts a red CI job uploads: what every metric did
      // over time, the sampled causal chains, and where convergence spent
      // its time.
      telemetry->dump(config.telemetry_prefix);
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

void ChaosResult::write_json(std::ostream& os) const {
  os << "{\n  \"bench\": \"chaos\",\n  \"seed\": " << config.seed
     << ",\n  \"domains\": " << config.domains
     << ",\n  \"steps\": " << config.steps
     << ",\n  \"check_every\": " << config.check_every
     << ",\n  \"loss_rate\": " << config.loss_rate
     << ",\n  \"reorder_rate\": " << config.reorder_rate
     << ",\n  \"inject_skip_waiting_period\": "
     << (config.inject_skip_waiting_period ? "true" : "false")
     << ",\n  \"passed\": " << (passed() ? "true" : "false")
     << ",\n  \"quiesced\": " << (quiesced ? "true" : "false")
     << ",\n  \"events_run\": " << events_run
     << ",\n  \"checks_run\": " << checks_run
     << ",\n  \"recorder_frames\": " << recorder_frames
     << ",\n  \"spans_recorded\": " << spans_recorded
     << ",\n  \"workload_members\": " << workload_members
     << ",\n  \"workload_ticks\": " << workload_ticks
     << ",\n  \"workload_engine_digest\": " << workload_engine_digest
     << ",\n  \"sim_seconds\": " << sim_seconds
     << ",\n  \"wall_seconds\": " << wall_seconds << ",\n  \"schedule\": [";
  bool first = true;
  for (const std::string& line : schedule) {
    os << (first ? "" : ",") << "\n    \"" << obs::detail::json_escape(line)
       << "\"";
    first = false;
  }
  os << "\n  ],\n  \"violations\": [";
  first = true;
  for (const ChaosViolation& v : violations) {
    os << (first ? "" : ",") << "\n    {\"step\": " << v.step
       << ", \"invariant\": \"" << obs::detail::json_escape(v.invariant)
       << "\", \"subject\": \"" << obs::detail::json_escape(v.subject)
       << "\", \"detail\": \"" << obs::detail::json_escape(v.detail)
       << "\"}";
    first = false;
  }
  os << "\n  ],\n  \"metrics\": ";
  metrics.write_jsonl(os);  // single line, ends in '\n'
  os << "}\n";
}

}  // namespace eval
