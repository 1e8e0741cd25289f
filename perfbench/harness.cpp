// perfbench harness — drives one benchmark workload through the
// simulator's public API and prints one JSON object of raw measurements.
//
//   perfbench_harness --workload converge-4k|churn-week-1k|flap-1k
//                     --seed N --seconds S --trace 0|1
//                     [--extra-cycles K] [--spans-out FILE]
//
// Every workload converges its starting state in set-up and times only
// the phase it exists to measure (perfbench/README.md has the layer map).
// The loop repeats that phase a fixed number of times (see Plan),
// recording the wall time of every step of every repetition; between
// timed intervals the process moves to the least loaded CPU (see
// pin_fastest_cpu). With --trace 1 the repetitions alternate between
// untraced and traced: a traced repetition runs on an Internet with step
// profiling installed and records spans around every layer call the
// benchmark makes, and only traced repetitions feed the per-layer
// numbers. The untraced ones give the baseline for the tracing overhead.
//
// perfbench/run.py builds this binary, turns its output into the
// benchmark's metrics and checks the digests it reports.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariant.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/args.hpp"
#include "eval/scenario.hpp"
#include "obs/metrics.hpp"
#include "workload/session.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The highest percentile with at least 10 samples beyond it (the
/// maximum when there are fewer than 11 samples).
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

// ---------------------------------------------------------------- spans

/// Benchmark-side spans (name, start, end, parent), kept in memory and
/// written once at exit. Disabled, open() costs a branch and no clock read.
class SpanLog {
 public:
  void set_enabled(bool on) { on_ = on; }

  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back(
        {name, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  void write_json(std::ostream& os) const {
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"start\": " << s.start << ", \"end\": " << s.end
         << ", \"parent\": " << s.parent << "}";
    }
    os << "]\n";
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };

  double now() const { return seconds_since(origin_); }

  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class Scope {
 public:
  explicit Scope(const char* name) : id_(g_spans.open(name)) {}
  ~Scope() { g_spans.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ------------------------------------------------------- CPU placement

/// The CPUs the process may run on, captured before any pinning.
cpu_set_t g_allowed_cpus;

/// A fixed few milliseconds of integer work, timed.
double calibration_seconds() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return seconds_since(t0);
}

/// Pins the process to the allowed CPU that currently runs a calibration
/// loop fastest. On a shared host a virtual CPU can run 1.5x slower for
/// seconds at a time while its neighbours run at full speed; moving off
/// it between timed intervals keeps most of that interference out of the
/// timings. Never called inside a timed interval.
void pin_fastest_cpu() {
  Scope span("cpu.pin");
  int best = -1;
  double best_s = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &g_allowed_cpus)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double s = std::min(calibration_seconds(), calibration_seconds());
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

// ---------------------------------------------------------- observations

/// Raw measurements of one harness run; printed as JSON at the end.
struct Output {
  std::vector<double> setup_s;
  /// Untraced repetitions: the wall seconds of each timed position, in
  /// order. Every repetition runs the same deterministic positions; the
  /// first `steps` of them are the workload's steps.
  std::vector<std::vector<double>> reps;
  std::size_t steps = 0;
  /// Traced repetitions' total timed seconds (--trace 1).
  std::vector<double> traced_s;
  std::vector<std::uint64_t> rib_digests;
  std::vector<std::uint64_t> engine_digests;
  std::vector<std::uint64_t> members_totals;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  /// Traced timings of each eval phase call, in seconds.
  std::map<std::string, std::vector<double>> phase_s;
  std::map<std::string, double> layer;
};

/// The counters and step-profile sums a layer metric is a delta of.
struct Counts {
  std::map<std::string, double> v;

  static Counts take(core::Internet& net) {
    static const char* const kCounters[] = {
        "net.messages_sent",     "net.messages_delivered",
        "net.deliveries_batched", "bgp.updates_sent",
        "bgp.routes_announced",  "bgp.routes_withdrawn",
        "masc.claims_sent",      "masc.claims_granted",
        "masc.collisions_suffered", "bgmp.joins_sent",
        "bgmp.prunes_sent",      "workload.joins_total",
        "workload.leaves_total", "workload.tree_joins",
        "workload.tree_prunes"};
    const obs::Snapshot snap = net.metrics_snapshot();
    Counts c;
    for (const char* name : kCounters) {
      c.v[name] = static_cast<double>(snap.counter_value(name));
    }
    double handlers = 0.0;
    for (const obs::HistogramSample& h : snap.histograms) {
      constexpr std::string_view kPrefix = "sim.step_wall_seconds.";
      if (h.name.starts_with(kPrefix)) {
        c.v["step." + h.name.substr(kPrefix.size())] = h.stats.sum;
        handlers += h.stats.sum;
      }
    }
    c.v["step.all"] = handlers;
    c.v["events"] = static_cast<double>(net.events().events_run());
    c.v["bgmp.tree_entries"] = snap.gauge_value("bgmp.tree_entries");
    c.v["core.state_bytes_per_domain"] =
        snap.gauge_value("core.state_bytes_per_domain");
    c.v["paths.full_builds"] =
        static_cast<double>(net.domain_paths().stats().full_builds);
    c.v["paths.nodes_touched"] =
        static_cast<double>(net.domain_paths().stats().nodes_touched);
    return c;
  }

  double operator[](const std::string& name) const {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Fills the per-layer metrics that every workload reports, from counter
/// values before and after one traced measured repetition. The MASC
/// numbers cover the whole instance (set-up included): claims happen in
/// set-up on every workload but converge-4k.
void fill_layers(Output& out, const Counts& before, const Counts& after,
                 double run_s, double steps) {
  const auto delta = [&](const std::string& name) {
    return after[name] - before[name];
  };
  auto& l = out.layer;
  for (const char* phase : {"eval.build", "eval.claim", "eval.groups",
                            "eval.leases"}) {
    const auto it = out.phase_s.find(phase);
    l[std::string(phase) + "_s"] =
        it == out.phase_s.end() ? 0.0 : median(it->second);
  }
  l["net.msgs"] = delta("net.messages_sent");
  l["net.events"] = delta("events");
  l["net.settle_s"] = delta("step.all");
  l["net.us_per_msg"] = ratio(run_s * 1e6, delta("net.messages_sent"));
  l["net.batched_frac"] = ratio(delta("net.deliveries_batched"),
                                delta("net.messages_delivered"));
  l["net.batched_frac_base"] = delta("net.messages_delivered");
  l["net.deliver_s"] = delta("step.net.deliver");
  l["bgp.updates_sent"] = delta("bgp.updates_sent");
  l["bgp.routes_per_update"] =
      ratio(delta("bgp.routes_announced") + delta("bgp.routes_withdrawn"),
            delta("bgp.updates_sent"));
  l["bgp.routes_per_update_base"] = delta("bgp.updates_sent");
  l["bgp.updates_per_step"] = ratio(delta("bgp.updates_sent"), steps);
  l["bgp.updates_per_step_base"] = steps;
  l["masc.claims_sent"] = after["masc.claims_sent"];
  l["masc.claim_yield"] =
      ratio(after["masc.claims_granted"], after["masc.claims_sent"]);
  l["masc.claim_yield_base"] = after["masc.claims_sent"];
  l["masc.collisions"] = after["masc.collisions_suffered"];
  l["masc.waiting_period_s"] = after["step.masc.waiting_period"];
  l["bgmp.joins_sent"] = delta("bgmp.joins_sent");
  l["bgmp.prunes_sent"] = delta("bgmp.prunes_sent");
  l["bgmp.tree_entries"] = after["bgmp.tree_entries"];
  l["bgmp.repair_s"] =
      delta("step.bgmp.repair") + delta("step.bgmp.reresolve");
  const double member_events =
      delta("workload.joins_total") + delta("workload.leaves_total");
  l["workload.transition_frac"] = ratio(
      delta("workload.tree_joins") + delta("workload.tree_prunes"),
      member_events);
  l["workload.transition_frac_base"] = member_events;
  l["topology.nodes_touched"] = delta("paths.nodes_touched");
  l["topology.full_builds"] = delta("paths.full_builds");
  l["core.state_bytes_per_domain"] = after["core.state_bytes_per_domain"];
}

/// One quiescent sweep of the full invariant suite over the final state.
void sweep_final_state(core::Internet& net, Output& out) {
  const auto t0 = Clock::now();
  std::size_t found = 0;
  {
    Scope span("check.sweep");
    // The lifetime invariant is over aged state: renew/expire first.
    for (std::size_t i = 0; i < net.domain_count(); ++i) {
      net.domain(i).masc_node().age_now();
    }
    check::CheckerSuite suite = check::CheckerSuite::standard();
    for (const check::Violation& v : suite.run(net, /*quiescent=*/true)) {
      if (found++ < 5) {
        std::cerr << "perfbench: " << v.invariant << " violated on "
                  << v.subject << ": " << v.detail << "\n";
      }
    }
  }
  out.layer["check.sweep_ms"] = seconds_since(t0) * 1e3;
  out.layer["check.sweeps"] = 1.0;
  out.violations += found;
}

// -------------------------------------------------------------- set-up

/// The committed ladder rung shape above 512 domains: 64 tops, 256 active
/// children, 128 groups of 4 joins.
eval::ScenarioSpec rung_spec(int domains, std::uint64_t seed) {
  eval::ScenarioSpec spec;
  spec.domains = domains;
  spec.seed = seed;
  spec.groups = 128;
  spec.joins = 4;
  spec.max_tops = 64;
  spec.active_children = 256;
  spec.flap_pairs = 2;
  return spec;
}

/// One simulated Internet with its scenario. The workload session is
/// declared after the Internet so it is destroyed first.
struct Instance {
  std::unique_ptr<core::Internet> net;
  eval::BuiltScenario topo;
  std::unique_ptr<workload::Session> session;
  std::vector<double> lease_us;
  std::uint64_t lease_failures = 0;
};

/// Times one eval phase call: always by wall clock, and as a span plus a
/// per-layer sample when the repetition is traced.
template <typename Fn>
double timed_phase(Output& out, bool traced, const char* name, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    Scope span(name);
    fn();
  }
  const double s = seconds_since(t0);
  if (traced) out.phase_s[name].push_back(s);
  return s;
}

/// Counts a settle that stopped on the event budget instead of quiescence.
void check_quiescent(core::Internet& net, Output& out) {
  if (!net.events().empty()) ++out.failed;
}

enum class Stage { kBuild, kGroups, kLeases };

/// Builds and converges a workload's starting state up to `stage`,
/// records the set-up time, and returns the live instance.
Instance set_up(const eval::ScenarioSpec& spec, Stage stage, bool traced,
                Output& out) {
  pin_fastest_cpu();
  g_spans.set_enabled(traced);
  Instance inst;
  const auto t0 = Clock::now();
  {
    Scope span("setup");
    inst.net = std::make_unique<core::Internet>(spec.seed);
    if (traced) inst.net->enable_step_profiling();
    core::Internet& net = *inst.net;
    // The ladder's delivery-stretch observer: each delivery asks for the
    // hop distance from its source, so one BFS tree per source domain is
    // watched and every later flap exercises the incremental repairs.
    // Pure observation; the digests are unaffected.
    net.set_delivery_observer([&net](const core::Delivery& d) {
      const core::Domain* source = net.domain_of_address(d.source);
      if (source != nullptr && source != d.domain) {
        (void)net.domain_hops(*source, *d.domain);
      }
    });
    timed_phase(out, traced, "eval.build",
                [&] { inst.topo = eval::build_scenario(net, spec); });
    if (stage != Stage::kBuild) {
      timed_phase(out, traced, "eval.claim",
                  [&] { eval::phase_claim(net, inst.topo); });
      timed_phase(out, traced, "eval.groups", [&] {
        net::Rng rng = eval::make_workload_rng(spec.seed);
        (void)eval::phase_groups(net, spec, inst.topo, rng);
      });
      check_quiescent(net, out);
    }
    if (stage == Stage::kLeases) {
      // The MAAS address-request load of eval::phase_workload, one call
      // at a time so each lease is timed: round-robin over the active
      // children, retrying once after a settle. The pinned engine digest
      // checks that the resulting session is the one phase_workload makes.
      timed_phase(out, traced, "eval.leases", [&] {
        std::vector<workload::GroupSite> sites;
        const auto& active = inst.topo.active;
        for (int g = 0; g < spec.workload.groups; ++g) {
          const std::size_t pick = static_cast<std::size_t>(g) % active.size();
          const auto l0 = Clock::now();
          auto lease = active[pick]->create_group();
          if (!lease.has_value()) {
            net.settle();
            lease = active[pick]->create_group();
          }
          inst.lease_us.push_back(seconds_since(l0) * 1e6);
          if (lease.has_value()) {
            sites.push_back({inst.topo.tops.size() + pick, lease->address});
          } else {
            ++inst.lease_failures;
          }
        }
        net.settle();
        inst.session = std::make_unique<workload::Session>(
            net, spec.workload, std::move(sites), spec.seed);
        inst.session->set_lease_failures(inst.lease_failures);
      });
      check_quiescent(net, out);
    }
  }
  out.setup_s.push_back(seconds_since(t0));
  return inst;
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// How many measured repetitions a run makes, and which are traced. The
/// count follows from --seconds and the workload's nominal repetition
/// time alone, never from how fast the program under test runs, so two
/// builds compared on the same --seconds take the same number of samples.
struct Plan {
  int untraced = 1;
  int traced = 0;

  Plan(double seconds, double nominal_rep_s, bool trace) {
    const int n = std::max(
        1, static_cast<int>(std::lround(seconds / nominal_rep_s)));
    untraced = trace ? std::max(1, n / 2) : n;
    traced = trace ? untraced : 0;
  }

  int total() const { return untraced + traced; }
  /// Untraced and traced repetitions alternate, untraced first.
  bool is_traced(int rep) const { return traced > 0 && rep % 2 == 1; }
};

/// Tops up the set-up samples so the median has several to work with.
void extra_setups(const eval::ScenarioSpec& spec, Stage stage, Output& out,
                  std::size_t want) {
  while (out.setup_s.size() < want) (void)set_up(spec, stage, false, out);
}

// ------------------------------------------------------------ workloads

/// converge-4k: set-up builds the 4096-domain rung; the timed phase is
/// claim → groups → 2-pair flap, the whole BGP convergence. The workload
/// repeats nothing of its own, so its steps are the three eval phase
/// calls: they stay the same however the work inside them is reshaped.
void run_converge(std::uint64_t seed, const Plan& plan, Output& out) {
  const eval::ScenarioSpec spec = rung_spec(4096, seed);
  out.steps = 3;
  for (int rep = 0; rep < plan.total(); ++rep) {
    const bool traced = plan.is_traced(rep);
    Instance inst = set_up(spec, Stage::kBuild, traced, out);
    core::Internet& net = *inst.net;
    const Counts before = traced ? Counts::take(net) : Counts{};
    std::vector<double> positions;
    {
      Scope span("run");
      const auto phase = [&](const char* name, auto&& fn) {
        pin_fastest_cpu();
        positions.push_back(timed_phase(out, traced, name, fn));
      };
      phase("eval.claim", [&] { eval::phase_claim(net, inst.topo); });
      phase("eval.groups", [&] {
        net::Rng rng = eval::make_workload_rng(spec.seed);
        (void)eval::phase_groups(net, spec, inst.topo, rng);
      });
      phase("eval.flap", [&] { eval::phase_flap(net, spec, inst.topo); });
    }
    const double run_s = sum(positions);
    ++out.attempted;
    check_quiescent(net, out);
    out.rib_digests.push_back(eval::rib_digest(net));
    if (traced) {
      out.traced_s.push_back(run_s);
      fill_layers(out, before, Counts::take(net), run_s,
                  static_cast<double>(out.steps));
      sweep_final_state(net, out);
    } else {
      out.reps.push_back(std::move(positions));
    }
  }
  extra_setups(spec, Stage::kBuild, out, 5);
}

/// churn-week-1k: set-up converges the 1024 rung and leases 2500 groups;
/// the timed phase is the simulated week, one step per 10-minute tick
/// (Session::advance_to, then Internet::run_until to the next tick), then
/// the final settle.
void run_churn(std::uint64_t seed, const Plan& plan, Output& out) {
  constexpr std::int64_t kTicksPerPin = 126;
  eval::ScenarioSpec spec = rung_spec(1024, seed);
  spec.workload.enabled = true;
  const std::int64_t ticks = spec.workload.ticks();
  const double tick_seconds = spec.workload.tick_seconds;
  out.steps = static_cast<std::size_t>(ticks);
  for (int rep = 0; rep < plan.total(); ++rep) {
    const bool traced = plan.is_traced(rep);
    Instance inst = set_up(spec, Stage::kLeases, traced, out);
    core::Internet& net = *inst.net;
    workload::Session& session = *inst.session;
    const net::SimTime start = net.events().now();
    std::vector<double> positions;
    std::vector<double> tick_ms;
    double engine_s = 0.0;
    double protocol_s = 0.0;
    const Counts before = traced ? Counts::take(net) : Counts{};
    {
      Scope span("run");
      for (std::int64_t i = 0; i < ticks; ++i) {
        if (i % kTicksPerPin == 0) pin_fastest_cpu();
        const auto s0 = Clock::now();
        {
          Scope tick_span("workload.tick");
          session.advance_to(
              start + net::SimTime::seconds_f(tick_seconds *
                                              static_cast<double>(i)));
        }
        const auto s1 = Clock::now();
        {
          Scope run_span("net.run_until");
          net.run_until(start + net::SimTime::seconds_f(
                                    tick_seconds * static_cast<double>(i + 1)));
        }
        const double engine = std::chrono::duration<double>(s1 - s0).count();
        const double step = seconds_since(s0);
        engine_s += engine;
        protocol_s += step - engine;
        tick_ms.push_back(engine * 1e3);
        positions.push_back(step);
      }
      const auto f0 = Clock::now();
      {
        Scope settle_span("net.settle");
        net.settle();
        session.finish();
      }
      positions.push_back(seconds_since(f0));
      protocol_s += positions.back();
    }
    const double run_s = sum(positions);
    out.attempted += static_cast<std::uint64_t>(ticks) + inst.lease_us.size();
    check_quiescent(net, out);
    const workload::SessionReport report = session.report();
    out.engine_digests.push_back(report.engine_digest);
    out.members_totals.push_back(report.members_total);
    out.rib_digests.push_back(eval::rib_digest(net));
    if (traced) {
      out.traced_s.push_back(run_s);
      const Counts after = Counts::take(net);
      fill_layers(out, before, after, run_s, static_cast<double>(ticks));
      auto& l = out.layer;
      l["workload.tick_ms_p50"] = median(tick_ms);
      l["workload.tick_ms_tail"] = tail(tick_ms);
      l["workload.ns_per_member_event"] =
          ratio(engine_s * 1e9, l["workload.transition_frac_base"]);
      l["workload.protocol_s"] = protocol_s;
      l["masc.lease_us_p50"] = median(inst.lease_us);
      l["masc.lease_us_tail"] = tail(inst.lease_us);
      l["masc.lease_fail_frac"] =
          ratio(static_cast<double>(inst.lease_failures),
                static_cast<double>(inst.lease_us.size()));
      l["masc.lease_fail_frac_base"] =
          static_cast<double>(inst.lease_us.size());
      sweep_final_state(net, out);
    } else {
      out.reps.push_back(std::move(positions));
    }
  }
  extra_setups(spec, Stage::kLeases, out, 3);
}

/// flap-1k: set-up converges the 1024 rung; the timed phase is one round
/// over every backbone ring pair, one step per link down → settle → up →
/// settle cycle. `extra_cycles` re-flaps that many pairs per round (the
/// resolution self-test's known extra work). The converged RIBs must come
/// back bit-identical after every round.
void run_flap(std::uint64_t seed, const Plan& plan, int extra_cycles,
              Output& out) {
  constexpr std::size_t kCyclesPerPin = 8;
  const eval::ScenarioSpec spec = rung_spec(1024, seed);
  // The untraced rounds on one instance, then (with --trace 1) the traced
  // rounds on another with step profiling installed.
  for (const bool traced : {false, true}) {
    const int rounds = traced ? plan.traced : plan.untraced;
    if (rounds == 0) continue;
    Instance inst = set_up(spec, Stage::kGroups, traced, out);
    core::Internet& net = *inst.net;
    out.rib_digests.push_back(eval::rib_digest(net));
    const auto& tops = inst.topo.tops;
    std::vector<std::size_t> cycle_pairs;
    for (std::size_t i = 0; i + 1 < tops.size(); i += 2) {
      cycle_pairs.push_back(i);
    }
    const std::size_t ring_pairs = cycle_pairs.size();
    for (int k = 0; k < extra_cycles; ++k) {
      cycle_pairs.push_back(cycle_pairs[static_cast<std::size_t>(k) %
                                        ring_pairs]);
    }
    out.steps = cycle_pairs.size();
    for (int round = 0; round < rounds; ++round) {
      const Counts before = traced ? Counts::take(net) : Counts{};
      std::vector<double> positions;
      {
        Scope span("run");
        for (std::size_t k = 0; k < cycle_pairs.size(); ++k) {
          if (k % kCyclesPerPin == 0) pin_fastest_cpu();
          const std::size_t i = cycle_pairs[k];
          const auto s0 = Clock::now();
          Scope cycle_span("step");
          {
            Scope down_span("core.link_down");
            net.set_link_state(*tops[i], *tops[i + 1], false);
          }
          {
            Scope settle_span("net.settle");
            net.settle();
          }
          {
            Scope up_span("core.link_up");
            net.set_link_state(*tops[i], *tops[i + 1], true);
          }
          {
            Scope settle_span("net.settle");
            net.settle();
          }
          positions.push_back(seconds_since(s0));
        }
      }
      const double run_s = sum(positions);
      out.attempted += cycle_pairs.size();
      check_quiescent(net, out);
      out.rib_digests.push_back(eval::rib_digest(net));
      if (traced) {
        out.traced_s.push_back(run_s);
        fill_layers(out, before, Counts::take(net), run_s,
                    static_cast<double>(cycle_pairs.size()));
      } else {
        out.reps.push_back(std::move(positions));
      }
    }
    if (traced) sweep_final_state(net, out);
  }
  extra_setups(spec, Stage::kGroups, out, 3);
}

// -------------------------------------------------------------- output

std::uint64_t peak_rss_kib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

template <typename T>
void write_list(std::ostream& os, const std::vector<T>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
}

template <typename T>
void write_list(std::ostream& os, const char* key, const std::vector<T>& v) {
  os << "\"" << key << "\": ";
  write_list(os, v);
}

void write_output(const Output& out, std::ostream& os) {
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{";
  write_list(os, "setup_s", out.setup_s);
  os << ", \"reps\": [";
  for (std::size_t i = 0; i < out.reps.size(); ++i) {
    os << (i ? ", " : "");
    write_list(os, out.reps[i]);
  }
  os << "], \"steps\": " << out.steps << ", ";
  write_list(os, "traced_s", out.traced_s);
  os << ", ";
  write_list(os, "rib_digests", out.rib_digests);
  os << ", ";
  write_list(os, "engine_digests", out.engine_digests);
  os << ", ";
  write_list(os, "members_totals", out.members_totals);
  os << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"violations\": " << out.violations
     << ", \"peak_rss_kib\": " << peak_rss_kib() << ", \"layer\": {";
  bool first = true;
  for (const auto& [name, value] : out.layer) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int extra_cycles = 0;
  std::string spans_out;

  eval::Args args("perfbench_harness",
                  "one benchmark workload, raw measurements as JSON");
  args.opt("--workload", &workload, "converge-4k, churn-week-1k or flap-1k");
  args.opt("--seed", &seed, "scenario seed");
  args.opt("--seconds", &seconds,
           "measured time to aim for; fixes the repetition count");
  args.opt("--trace", &trace, "1 = alternate traced repetitions");
  args.opt("--extra-cycles", &extra_cycles,
           "flap-1k: extra link cycles per round");
  args.opt("--spans-out", &spans_out, "write the traced spans here");
  if (!args.parse(argc, argv)) return args.exit_code();
  if (extra_cycles < 0 || (trace != 0 && trace != 1)) {
    std::cerr << "perfbench_harness: bad --trace or --extra-cycles\n";
    return 2;
  }

  if (sched_getaffinity(0, sizeof g_allowed_cpus, &g_allowed_cpus) != 0) {
    CPU_ZERO(&g_allowed_cpus);
  }
  // Nominal seconds per repetition. They only turn --seconds into a
  // repetition count: at 16 s, enough repetitions for steady minima on a
  // 4-vCPU x86-64 VM while a run stays under about 40 s of wall time.
  Output out;
  const bool traced = trace == 1;
  if (workload == "converge-4k") {
    run_converge(seed, Plan(seconds, 5.5, traced), out);
  } else if (workload == "churn-week-1k") {
    run_churn(seed, Plan(seconds, 1.3, traced), out);
  } else if (workload == "flap-1k") {
    run_flap(seed, Plan(seconds, 1.4, traced), extra_cycles, out);
  } else {
    std::cerr << "perfbench_harness: unknown workload '" << workload << "'\n";
    return 2;
  }
  if (traced) {
    std::vector<double> untraced_s;
    for (const std::vector<double>& rep : out.reps) {
      untraced_s.push_back(sum(rep));
    }
    out.layer["obs.trace_overhead_frac"] =
        median(out.traced_s) / median(untraced_s) - 1.0;
    out.layer["obs.trace_overhead_frac_base"] = median(untraced_s);
    // Layers a workload never exercises read 0 rather than go missing.
    for (const char* idle :
         {"workload.tick_ms_p50", "workload.tick_ms_tail",
          "workload.ns_per_member_event", "workload.protocol_s",
          "masc.lease_us_p50", "masc.lease_us_tail", "masc.lease_fail_frac",
          "masc.lease_fail_frac_base"}) {
      out.layer.try_emplace(idle, 0.0);
    }
  }
  if (!spans_out.empty()) {
    std::ofstream spans(spans_out);
    g_spans.write_json(spans);
    if (!spans) {
      std::cerr << "perfbench_harness: cannot write " << spans_out << "\n";
      return 2;
    }
  }
  write_output(out, std::cout);
  return 0;
}
