// M2: macro benchmark — the full MASC → MAAS → BGP → BGMP pipeline at
// scale. Builds the shared scenario shape (src/eval/scenario.hpp): a
// backbone ring of top-level domains with customer children, the
// claim–collide exchange, group leases with remote joins, data pushed
// down the trees, then backbone link flaps. Reports wall time, simulated
// events, the protocol message economy, peak RSS and routing-state bytes
// as JSON.
//
// Usage:
//   macro_scenario [--domains N] [--groups G] [--joins J] [--seed S]
//                  [--max-tops T] [--active-children A] [--flap-pairs F]
//                  [--ladder 256,1000,4000,10000]
//                  [--out FILE] [--check BASELINE] [--tolerance FRAC]
//                  [--eps-floor FRAC]
//                  [--telemetry] [--telemetry-interval SEC]
//                  [--span-sample RATE] [--telemetry-budget FRAC]
//                  [--telemetry-reps N] [--telemetry-out PREFIX]
//                  [--workload] [--workload-groups G] [--workload-days D]
//                  [--workload-tick SEC] [--workload-arrivals RATE]
//                  [--workload-lifetime SEC]
//
// --workload runs the aggregate end-host layer (src/workload) between
// the join and flap phases: Zipf-popular groups, Poisson join/leave with
// diurnal modulation and flash crowds, BGMP joins/prunes fired on
// 0↔nonzero per-domain member-count transitions. Every rung then reports
// members_total (0 when off) plus the workload_* columns, and --check
// additionally gates members_total and the engine state digest.
//
// --telemetry runs every rung twice — once bare, once with metric frames
// and head-sampled spans on the network's record stream — and reports
// the relative events/s cost as `telemetry_overhead`. The off/on pair is
// interleaved --telemetry-reps times (default 3), odd pairs running the
// instrumented pass first; the overhead is the median of the per-pair
// estimates (adjacent passes see the same host, the median discards
// pairs a noise window straddled) and the throughput columns keep each
// side's fastest pass. The
// telemetry run must reproduce the bare run's digest and event count
// exactly (the instrumentation is passive); --check additionally fails
// when the overhead exceeds --telemetry-budget (default 5%).
// --telemetry-out P dumps each rung's records as P-<domains>.records.jsonl
// (frames, spans and probe markers in emission order) plus
// P-<domains>.critical_path.json.
//
// --ladder runs one rung per domain count (ascending) and emits a single
// {"bench": "macro_ladder", "rungs": [...]} report. Rungs above 512
// domains cap the backbone at 64 tops, activate only the first 256
// children and flap 2 ring pairs (the regime of few sources and many
// receivers); at or below 512 the legacy uncapped shape is preserved, so
// the committed 256-domain rib_digest is invariant.
//
// --check compares this run against a previously emitted JSON file: the
// baseline rung with matching parameters (a flat old-style report counts
// as one rung) must reproduce the converged RIB, path and tree digests
// exactly, and the deterministic work counters (events run, messages
// sent, BGP updates) may grow at most FRAC (default 0.25) before the exit
// code turns nonzero. Wall-clock throughput and RSS are reported but not
// gated — they are properties of the host, not of the code under test.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bgp/speaker.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/args.hpp"
#include "eval/scenario.hpp"
#include "eval/telemetry.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "workload/session.hpp"

namespace {

/// Peak resident set size of this process so far, in KiB (Linux
/// ru_maxrss units). Monotonic across rungs — run ladders ascending so
/// each rung's reading approximates its own peak.
std::uint64_t peak_rss_kib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

struct Results {
  eval::ScenarioSpec spec;
  double wall_seconds = 0.0;
  std::uint64_t events_run = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bgp_updates_sent = 0;
  std::uint64_t bgmp_joins_sent = 0;
  std::uint64_t claims_granted = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t deliveries_batched = 0;  // drained inline by a link FIFO
  std::uint64_t grib_entries_total = 0;
  std::uint64_t rib_digest = 0;  // FNV-1a over every domain's final RIBs
  std::uint64_t path_digest = 0;  // chosen neighbours and hop sequences
  std::uint64_t tree_digest = 0;  // BGMP (*,G)/(S,G) target lists
  double events_per_second = 0.0;
  double items_per_second = 0.0;  // protocol ops (claims+joins+deliveries)
  std::uint64_t peak_rss_kib = 0;
  double state_bytes_per_domain = 0.0;
  // Hop-distance cache work: BFS trees built (one per queried source
  // between link changes) and the nodes those builds settled.
  std::uint64_t path_full_builds = 0;
  std::uint64_t path_nodes_touched = 0;
  // Mean inter-domain hops actually travelled per delivery vs the
  // shortest possible — the tree-stretch measure of §5.4.
  double delivery_hops_mean = 0.0;
  double delivery_stretch = 0.0;
  // Aggregate end-host layer (--workload): the realized member population
  // and the BGMP economy it induced. members_total is reported on every
  // rung (0 when the workload is off) so ladder reports have a uniform
  // schema; the rest only when the workload ran.
  std::uint64_t members_total = 0;
  std::uint64_t members_peak = 0;
  std::uint64_t workload_joins = 0;
  std::uint64_t workload_tree_joins = 0;
  std::uint64_t workload_tree_prunes = 0;
  std::uint64_t workload_edge_load = 0;
  std::uint64_t workload_engine_digest = 0;
  // Telemetry yield of this run (non-zero only when spec.telemetry is on).
  std::uint64_t recorder_frames = 0;
  std::uint64_t spans_sampled = 0;
  // Filled by the --telemetry comparison pass: throughput with metric
  // frames + span sampling attached, and the relative events/s cost
  // ((off − on) / off, so 0.03 = 3% slower with telemetry).
  bool telemetry_measured = false;
  double events_per_second_telemetry = 0.0;
  double telemetry_overhead = 0.0;
  std::uint64_t telemetry_rib_digest = 0;
};

Results run_scenario(const eval::ScenarioSpec& spec,
                     const std::string& telemetry_prefix = {}) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  core::Internet net(spec.seed);
  // Declared after the internet so it detaches before the network dies.
  std::optional<eval::TelemetrySession> telemetry;
  if (spec.telemetry.enabled()) telemetry.emplace(net, spec.telemetry);
  const eval::BuiltScenario topo = eval::build_scenario(net, spec);
  eval::phase_claim(net, topo);

  // Delivery stretch: compare each delivery's travelled hop count with
  // the current shortest path between source and member domain. The
  // queries build one BFS tree per source domain, cached until the next
  // link change. Pure observation — no events or RNG draws — so the
  // digest gate is unaffected.
  std::uint64_t hops_travelled = 0;
  std::uint64_t hops_shortest = 0;
  std::uint64_t stretch_samples = 0;
  net.set_delivery_observer([&](const core::Delivery& d) {
    core::Domain* source = net.domain_of_address(d.source);
    if (source == nullptr || source == d.domain) return;
    const std::uint32_t shortest = net.domain_hops(*source, *d.domain);
    if (shortest == topology::kUnreachable) return;
    hops_travelled += static_cast<std::uint64_t>(d.hops);
    hops_shortest += shortest;
    ++stretch_samples;
  });

  net::Rng rng = eval::make_workload_rng(spec.seed);
  (void)eval::phase_groups(net, spec, topo, rng);
  // The aggregate end-host layer churns after the legacy join phase and
  // before the flap phase, so the backbone flaps hit trees that carry
  // live membership. A disabled workload leases nothing and draws
  // nothing: the legacy schedule and digests are byte-identical.
  std::unique_ptr<workload::Session> workload_session =
      eval::phase_workload(net, spec, topo);
  if (workload_session) workload_session->run();
  eval::phase_flap(net, spec, topo);

  const auto snap = net.metrics_snapshot();
  Results r;
  r.spec = spec;
  r.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  r.events_run = net.events().events_run();
  r.messages_sent = snap.counter_value("net.messages_sent");
  r.bgp_updates_sent = snap.counter_value("bgp.updates_sent");
  r.bgmp_joins_sent = snap.counter_value("bgmp.joins_sent");
  r.claims_granted = snap.counter_value("masc.claims_granted");
  r.deliveries = snap.counter_value("core.deliveries");
  r.deliveries_batched = snap.counter_value("net.deliveries_batched");
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    r.grib_entries_total +=
        net.domain(i).speaker().rib(bgp::RouteType::kGroup).size();
  }
  r.rib_digest = eval::rib_digest(net);
  r.path_digest = eval::path_digest(net);
  r.tree_digest = eval::tree_digest(net);
  r.events_per_second =
      static_cast<double>(r.events_run) / r.wall_seconds;
  const auto items = r.claims_granted + r.bgmp_joins_sent + r.deliveries;
  r.items_per_second = static_cast<double>(items) / r.wall_seconds;
  r.peak_rss_kib = peak_rss_kib();
  r.state_bytes_per_domain = snap.gauge_value("core.state_bytes_per_domain");
  r.path_full_builds = net.domain_paths().stats().full_builds;
  r.path_nodes_touched = net.domain_paths().stats().nodes_touched;
  if (stretch_samples > 0) {
    r.delivery_hops_mean = static_cast<double>(hops_travelled) /
                           static_cast<double>(stretch_samples);
    r.delivery_stretch = hops_shortest == 0
                             ? 0.0
                             : static_cast<double>(hops_travelled) /
                                   static_cast<double>(hops_shortest);
  }
  if (workload_session) {
    const workload::SessionReport report = workload_session->report();
    r.members_total = report.members_total;
    r.members_peak = report.members_peak;
    r.workload_joins = report.joins_total;
    r.workload_tree_joins = report.tree_joins;
    r.workload_tree_prunes = report.tree_prunes;
    r.workload_edge_load = report.edge_load_total;
    r.workload_engine_digest = report.engine_digest;
  }
  if (telemetry.has_value()) {
    telemetry->final_tick();
    r.recorder_frames = telemetry->recorder_frames();
    r.spans_sampled = telemetry->spans_recorded();
    if (!telemetry_prefix.empty()) {
      telemetry->dump(telemetry_prefix + "-" + std::to_string(spec.domains));
    }
  }
  return r;
}

/// The --telemetry comparison pass: re-runs the rung with metric frames
/// and 1%-style span sampling attached, verifies the
/// instrumentation was purely passive (identical converged digest — a
/// telemetry build that changes behavior is a bug, not an overhead), and
/// folds the on-column into the off-run's results.
Results run_with_telemetry_column(const eval::ScenarioSpec& spec,
                                  const eval::TelemetrySpec& telemetry,
                                  const std::string& telemetry_prefix,
                                  int reps) {
  // Wall-clock noise on shared runners easily swamps a single off/on pair
  // (the raw events/s of identical runs varies by more than the budget),
  // so the rung runs `reps` interleaved pairs. The two passes of one pair
  // are adjacent in time and see nearly the same host, so each pair's
  // relative overhead is close to unbiased; odd pairs run the instrumented
  // pass first, so neither side always gets the second, warmer slot; the
  // median across pairs then discards the pairs a noise window happened
  // to straddle. The reported throughput columns keep each side's fastest
  // pass. Every pass must reproduce the same digest and event count — a
  // telemetry build that changes behavior is a bug, not an overhead. All
  // three digests are compared: rib_digest alone misses a change in which
  // route wins a tie. Only pair 0 dumps its records.
  const auto same_state = [](const Results& a, const Results& b) {
    return a.rib_digest == b.rib_digest && a.path_digest == b.path_digest &&
           a.tree_digest == b.tree_digest && a.events_run == b.events_run;
  };
  const auto state_of = [](const Results& r) {
    return std::to_string(r.rib_digest) + "/" + std::to_string(r.path_digest) +
           "/" + std::to_string(r.tree_digest) + "/" +
           std::to_string(r.events_run);
  };
  eval::ScenarioSpec on_spec = spec;
  on_spec.telemetry = telemetry;
  Results off;
  Results on;
  std::vector<double> pair_overheads;
  for (int pair = 0; pair == 0 || pair < reps; ++pair) {
    const std::string prefix = pair == 0 ? telemetry_prefix : std::string();
    Results off_rep;
    Results on_rep;
    if (pair % 2 == 1) {
      on_rep = run_scenario(on_spec, prefix);
      off_rep = run_scenario(spec);
    } else {
      off_rep = run_scenario(spec);
      on_rep = run_scenario(on_spec, prefix);
    }
    if (pair == 0) {
      off = off_rep;
      on = on_rep;
    }
    if (!same_state(off_rep, off)) {
      std::cerr << "macro_scenario: unstable state across telemetry reps"
                << " (rep " << pair << "): rib/path/tree digests and events "
                << "off " << state_of(off) << ", off_rep "
                << state_of(off_rep) << "\n";
      std::exit(1);
    }
    if (!same_state(on_rep, off)) {
      std::cerr << "macro_scenario: telemetry changed the simulation"
                << " (rep " << pair << "): rib/path/tree digests and events "
                << state_of(off) << " -> " << state_of(on_rep) << "\n";
      std::exit(1);
    }
    pair_overheads.push_back(
        (off_rep.events_per_second - on_rep.events_per_second) /
        off_rep.events_per_second);
    off.events_per_second =
        std::max(off.events_per_second, off_rep.events_per_second);
    on.events_per_second =
        std::max(on.events_per_second, on_rep.events_per_second);
    off.wall_seconds = std::min(off.wall_seconds, off_rep.wall_seconds);
  }
  std::sort(pair_overheads.begin(), pair_overheads.end());
  const std::size_t n = pair_overheads.size();
  off.items_per_second =
      static_cast<double>(off.claims_granted + off.bgmp_joins_sent +
                          off.deliveries) /
      off.wall_seconds;
  off.telemetry_measured = true;
  off.events_per_second_telemetry = on.events_per_second;
  off.telemetry_overhead =
      n % 2 == 1 ? pair_overheads[n / 2]
                 : (pair_overheads[n / 2 - 1] + pair_overheads[n / 2]) / 2.0;
  off.telemetry_rib_digest = on.rib_digest;
  off.recorder_frames = on.recorder_frames;
  off.spans_sampled = on.spans_sampled;
  return off;
}

void write_rung(const Results& r, std::ostream& os, const char* indent) {
  const eval::ScenarioSpec& s = r.spec;
  os << indent << "\"params\": {\"domains\": " << s.domains
     << ", \"groups\": " << s.groups << ", \"joins\": " << s.joins
     << ", \"seed\": " << s.seed << ", \"max_tops\": " << s.max_tops
     << ", \"active_children\": " << s.active_children
     << ", \"flap_pairs\": " << s.flap_pairs
     << ", \"workload\": " << (s.workload.enabled ? 1 : 0)
     << ", \"workload_groups\": "
     << (s.workload.enabled ? s.workload.groups : 0)
     << ", \"workload_ticks\": "
     << (s.workload.enabled ? s.workload.ticks() : 0)
     << ", \"workload_arrivals_milli\": "
     << (s.workload.enabled
             ? std::llround(s.workload.arrivals_per_second * 1000.0)
             : 0)
     << "},\n"
     << indent << "\"wall_seconds\": " << r.wall_seconds << ",\n"
     << indent << "\"events_run\": " << r.events_run << ",\n"
     << indent << "\"events_per_second\": " << r.events_per_second << ",\n"
     << indent << "\"items_per_second\": " << r.items_per_second << ",\n"
     << indent << "\"messages_sent\": " << r.messages_sent << ",\n"
     << indent << "\"bgp_updates_sent\": " << r.bgp_updates_sent << ",\n"
     << indent << "\"bgmp_joins_sent\": " << r.bgmp_joins_sent << ",\n"
     << indent << "\"claims_granted\": " << r.claims_granted << ",\n"
     << indent << "\"deliveries\": " << r.deliveries << ",\n"
     << indent << "\"deliveries_batched\": " << r.deliveries_batched << ",\n"
     << indent << "\"grib_entries_total\": " << r.grib_entries_total << ",\n"
     << indent << "\"peak_rss_kib\": " << r.peak_rss_kib << ",\n"
     << indent << "\"state_bytes_per_domain\": " << r.state_bytes_per_domain
     << ",\n"
     << indent << "\"path_full_builds\": " << r.path_full_builds << ",\n"
     << indent << "\"path_nodes_touched\": " << r.path_nodes_touched << ",\n"
     << indent << "\"delivery_hops_mean\": " << r.delivery_hops_mean << ",\n"
     << indent << "\"delivery_stretch\": " << r.delivery_stretch << ",\n"
     << indent << "\"members_total\": " << r.members_total << ",\n";
  if (r.spec.workload.enabled) {
    os << indent << "\"members_peak\": " << r.members_peak << ",\n"
       << indent << "\"workload_joins\": " << r.workload_joins << ",\n"
       << indent << "\"workload_tree_joins\": " << r.workload_tree_joins
       << ",\n"
       << indent << "\"workload_tree_prunes\": " << r.workload_tree_prunes
       << ",\n"
       << indent << "\"workload_edge_load\": " << r.workload_edge_load
       << ",\n"
       << indent << "\"workload_engine_digest\": "
       << r.workload_engine_digest << ",\n";
  }
  if (r.telemetry_measured) {
    os << indent << "\"events_per_second_telemetry\": "
       << r.events_per_second_telemetry << ",\n"
       << indent << "\"telemetry_overhead\": " << r.telemetry_overhead
       << ",\n"
       << indent << "\"telemetry_rib_digest\": " << r.telemetry_rib_digest
       << ",\n"
       << indent << "\"recorder_frames\": " << r.recorder_frames << ",\n"
       << indent << "\"spans_sampled\": " << r.spans_sampled << ",\n";
  }
  os << indent << "\"path_digest\": " << r.path_digest << ",\n"
     << indent << "\"tree_digest\": " << r.tree_digest << ",\n"
     << indent << "\"rib_digest\": " << r.rib_digest << "\n";
}

void write_json(const std::vector<Results>& runs, bool ladder,
                std::ostream& os) {
  if (!ladder) {
    os << "{\n  \"bench\": \"macro_scenario\",\n";
    write_rung(runs.front(), os, "  ");
    os << "}\n";
    return;
  }
  os << "{\n  \"bench\": \"macro_ladder\",\n  \"rungs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << "    {\n";
    write_rung(runs[i], os, "      ");
    os << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// Minimal field scraper for our own flat JSON schema — keeps the
// regression check self-contained (no JSON library, no python). Returns
// the text that follows the key's colon.
std::optional<std::string_view> field(const std::string& text,
                                      const std::string& key) {
  const auto at = text.find('"' + key + '"');
  if (at == std::string::npos) return std::nullopt;
  const auto colon = text.find(':', at);
  if (colon == std::string::npos) return std::nullopt;
  const auto value = text.find_first_not_of(" \t\r\n", colon + 1);
  if (value == std::string::npos) return std::nullopt;
  return std::string_view(text).substr(value);
}

bool scrape(const std::string& text, const std::string& key, double& out) {
  const auto value = field(text, key);
  if (!value) return false;
  out = std::strtod(value->data(), nullptr);
  return true;
}

// Integer fields parse exactly: read through a double, a 64-bit digest
// near 8e18 rounds to a multiple of 1,024.
bool scrape(const std::string& text, const std::string& key,
            std::uint64_t& out) {
  const auto value = field(text, key);
  return value && std::from_chars(value->data(),
                                  value->data() + value->size(), out)
                          .ec == std::errc{};
}

// Splits a ladder baseline into its rung objects (brace-matched); a flat
// old-style report is treated as a single rung.
std::vector<std::string> baseline_rungs(const std::string& text) {
  const auto rungs_at = text.find("\"rungs\"");
  if (rungs_at == std::string::npos) return {text};
  std::vector<std::string> out;
  int depth = 0;
  std::size_t open = std::string::npos;
  for (std::size_t i = text.find('[', rungs_at); i < text.size(); ++i) {
    if (text[i] == '{') {
      if (depth++ == 0) open = i;
    } else if (text[i] == '}') {
      if (--depth == 0) out.push_back(text.substr(open, i - open + 1));
    } else if (text[i] == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

bool params_match(const Results& now, const std::string& base) {
  std::uint64_t p = 0;
  const auto required = [&](const char* key, std::uint64_t want) {
    return scrape(base, key, p) && p == want;
  };
  // The caps are absent from pre-ladder baselines; absent means 0.
  const auto cap = [&](const char* key, std::uint64_t want) {
    return scrape(base, key, p) ? p == want : want == 0;
  };
  const workload::Spec& w = now.spec.workload;
  return required("domains", static_cast<std::uint64_t>(now.spec.domains)) &&
         required("groups", static_cast<std::uint64_t>(now.spec.groups)) &&
         required("joins", static_cast<std::uint64_t>(now.spec.joins)) &&
         required("seed", now.spec.seed) &&
         cap("max_tops", static_cast<std::uint64_t>(now.spec.max_tops)) &&
         cap("active_children",
             static_cast<std::uint64_t>(now.spec.active_children)) &&
         cap("flap_pairs", static_cast<std::uint64_t>(now.spec.flap_pairs)) &&
         // Workload keys are cap-style: absent from pre-workload baselines
         // means "workload off", so old baselines keep matching.
         cap("workload", w.enabled ? 1 : 0) &&
         cap("workload_groups",
             w.enabled ? static_cast<std::uint64_t>(w.groups) : 0) &&
         cap("workload_ticks",
             w.enabled ? static_cast<std::uint64_t>(w.ticks()) : 0) &&
         cap("workload_arrivals_milli",
             w.enabled ? static_cast<std::uint64_t>(
                             std::llround(w.arrivals_per_second * 1000.0))
                       : 0);
}

int check_one(const Results& now, const std::string& base, double tolerance,
              double telemetry_budget, double eps_floor) {
  int failures = 0;
  const auto exact = [&](const char* key, std::uint64_t current) {
    std::uint64_t expected = 0;
    if (!scrape(base, key, expected)) {
      std::cerr << "macro_scenario: baseline lacks integer \"" << key
                << "\"\n";
      ++failures;
      return;
    }
    if (current != expected) {
      std::cerr << "macro_scenario: " << key << " diverged: baseline "
                << expected << ", now " << current << "\n";
      ++failures;
    }
  };
  // Deterministic (hardware-independent) quantities: the message economy
  // may grow at most `tolerance` before the check fails.
  const auto bounded = [&](const char* key, std::uint64_t current) {
    std::uint64_t expected = 0;
    if (!scrape(base, key, expected)) {
      std::cerr << "macro_scenario: baseline lacks integer \"" << key
                << "\"\n";
      ++failures;
      return;
    }
    if (static_cast<double>(current) >
        static_cast<double>(expected) * (1.0 + tolerance)) {
      std::cerr << "macro_scenario: " << key << " regressed > "
                << tolerance * 100 << "%: baseline " << expected << ", now "
                << current << "\n";
      ++failures;
    }
  };
  // Converged state must be reproduced bit-for-bit…
  exact("grib_entries_total", now.grib_entries_total);
  exact("rib_digest", now.rib_digest);
  exact("path_digest", now.path_digest);
  exact("tree_digest", now.tree_digest);
  // …including the realized member population: exact whenever the
  // baseline carries the column (post-workload baselines always do), and
  // the full engine state digest on workload rungs.
  std::uint64_t members_base = 0;
  if (now.spec.workload.enabled ||
      scrape(base, "members_total", members_base)) {
    exact("members_total", now.members_total);
  }
  if (now.spec.workload.enabled) {
    exact("workload_engine_digest", now.workload_engine_digest);
  }
  // The joins that built the trees: every (*,G) hop is a protocol
  // decision, so a change in their number is a change in behaviour.
  exact("bgmp_joins_sent", now.bgmp_joins_sent);
  // …while the work done to get there may drift a little under
  // legitimate changes, but not regress past the tolerance.
  bounded("events_run", now.events_run);
  bounded("messages_sent", now.messages_sent);
  bounded("bgp_updates_sent", now.bgp_updates_sent);
  // Work counters no gate reads: a drift is printed so a stale baseline
  // shows up, but it does not fail the check.
  const auto reported = [&](const char* key, std::uint64_t current) {
    std::uint64_t expected = 0;
    if (scrape(base, key, expected) && current != expected) {
      std::cerr << "macro_scenario: " << key << " drifted (not gated): "
                << "baseline " << expected << ", now " << current << "\n";
    }
  };
  reported("deliveries_batched", now.deliveries_batched);
  reported("path_nodes_touched", now.path_nodes_touched);
  // Wall-clock throughput varies with the host; report always, and gate
  // only when an explicit floor was requested (--eps-floor). The floor is
  // deliberately loose — it exists to catch a scheduler or hot-path
  // regression that costs a fifth of the throughput, not to measure the
  // host.
  double base_eps = 0.0;
  if (scrape(base, "events_per_second", base_eps) && base_eps > 0.0) {
    std::cerr << "macro_scenario: " << now.spec.domains << " domains: "
              << now.events_per_second << " events/s vs baseline "
              << base_eps << " (" << (now.events_per_second / base_eps)
              << "x)\n";
    if (eps_floor > 0.0 &&
        now.events_per_second < base_eps * (1.0 - eps_floor)) {
      std::cerr << "macro_scenario: events/s regressed more than "
                << eps_floor * 100 << "% below the committed baseline\n";
      ++failures;
    }
  }
  // The telemetry budget IS gated: both columns run on this host in this
  // process, so their ratio is a property of the code, not the machine.
  if (now.telemetry_measured) {
    if (now.telemetry_overhead > telemetry_budget) {
      std::cerr << "macro_scenario: telemetry overhead "
                << now.telemetry_overhead * 100 << "% exceeds the "
                << telemetry_budget * 100 << "% budget ("
                << now.events_per_second << " -> "
                << now.events_per_second_telemetry << " events/s)\n";
      ++failures;
    } else {
      std::cerr << "macro_scenario: telemetry overhead "
                << now.telemetry_overhead * 100 << "% (budget "
                << telemetry_budget * 100 << "%)\n";
    }
  }
  return failures;
}

int check_against(const std::vector<Results>& runs, const std::string& path,
                  double tolerance, double telemetry_budget,
                  double eps_floor) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "macro_scenario: cannot read baseline " << path << "\n";
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::vector<std::string> rungs = baseline_rungs(buf.str());

  int failures = 0;
  int matched = 0;
  for (const Results& r : runs) {
    bool found = false;
    for (const std::string& rung : rungs) {
      if (!params_match(r, rung)) continue;
      found = true;
      ++matched;
      failures += check_one(r, rung, tolerance, telemetry_budget, eps_floor);
      break;
    }
    if (!found) {
      std::cerr << "macro_scenario: no baseline rung matches "
                << r.spec.domains << " domains; skipping its "
                   "deterministic checks\n";
    }
  }
  if (matched == 0) {
    std::cerr << "macro_scenario: baseline parameters differ; "
                 "skipping deterministic checks\n";
  }
  if (failures == 0) {
    std::cerr << "macro_scenario: within baseline (" << path << ")\n";
  }
  return failures == 0 ? 0 : 1;
}

/// The committed ladder caps: above 512 domains the backbone stops
/// growing (the MASC sibling mesh is O(tops²)) and only the first 256
/// children source traffic; at or below 512 the legacy shape (and its
/// digests) is preserved.
eval::ScenarioSpec rung_spec(const eval::ScenarioSpec& base, int domains) {
  eval::ScenarioSpec spec = base;
  spec.domains = domains;
  if (domains > 512) {
    spec.max_tops = 64;
    spec.active_children = 256;
    spec.flap_pairs = 2;
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  eval::ScenarioSpec spec;
  spec.groups = 32;  // the historical macro default (ladders pass 128)
  std::vector<int> ladder;
  std::string out_path;
  std::string check_path;
  double tolerance = 0.25;
  bool telemetry = false;
  double telemetry_interval = 1.0;
  double span_sample = 0.01;
  double telemetry_budget = 0.05;
  int telemetry_reps = 3;
  double eps_floor = 0.0;
  std::string telemetry_out;
  bool with_workload = false;

  eval::Args args("macro_scenario",
                  "macro benchmark over the full MASC/MAAS/BGP/BGMP "
                  "pipeline, single-size or --ladder");
  args.opt("--domains", &spec.domains, "domain count (single run)");
  args.opt("--groups", &spec.groups, "groups to lease");
  args.opt("--joins", &spec.joins, "member joins per group");
  args.opt("--seed", &spec.seed, "workload seed");
  args.opt("--max-tops", &spec.max_tops,
           "cap the backbone size (0 = domains/8)");
  args.opt("--active-children", &spec.active_children,
           "cap how many children source traffic (0 = all)");
  args.opt("--flap-pairs", &spec.flap_pairs,
           "cap the ring pairs flapped in phase 3 (0 = all)");
  args.opt("--ladder", &ladder,
           "run one rung per domain count, ascending (csv); rungs > 512 "
           "domains apply the scale caps");
  args.opt("--out", &out_path, "also write the JSON report here");
  args.opt("--check", &check_path, "compare against this baseline JSON");
  args.opt("--tolerance", &tolerance,
           "allowed growth of the deterministic work counters");
  args.flag("--telemetry", &telemetry,
            "run each rung a second time with metric frames and span "
            "sampling attached; report the events/s overhead column");
  args.opt("--telemetry-interval", &telemetry_interval,
           "metric frame interval in simulated seconds");
  args.opt("--span-sample", &span_sample,
           "head-based span sampling rate for the telemetry column");
  args.opt("--telemetry-budget", &telemetry_budget,
           "max relative events/s overhead --check allows for telemetry");
  args.opt("--telemetry-reps", &telemetry_reps,
           "interleaved off/on pairs per rung; overhead is the median "
           "pair estimate (ladder rungs clamp this to >= 3)");
  args.opt("--eps-floor", &eps_floor,
           "with --check: fail if events/s drops more than this fraction "
           "below the committed baseline (0 = report only)");
  args.opt("--telemetry-out", &telemetry_out,
           "dump per-rung <prefix>-<domains>.{records.jsonl,"
           "critical_path.json} from the telemetry run");
  args.flag("--workload", &with_workload,
            "run the aggregate end-host layer (Zipf/Poisson membership "
            "churn) between the join and flap phases; adds the "
            "members_total and workload_* columns");
  args.opt("--workload-groups", &spec.workload.groups,
           "workload: multicast groups to lease");
  args.opt("--workload-days", &spec.workload.sim_days,
           "workload: simulated horizon in days");
  args.opt("--workload-tick", &spec.workload.tick_seconds,
           "workload: churn tick in simulated seconds");
  args.opt("--workload-arrivals", &spec.workload.arrivals_per_second,
           "workload: aggregate member arrivals per second");
  args.opt("--workload-lifetime", &spec.workload.mean_lifetime_seconds,
           "workload: mean membership lifetime in seconds");
  if (!args.parse(argc, argv)) return args.exit_code();
  spec.workload.enabled = with_workload;

  eval::TelemetrySpec telemetry_spec;
  telemetry_spec.recorder_interval_seconds = telemetry_interval;
  telemetry_spec.span_sample_rate = span_sample;
  // A single off/on pair per rung is below wall-clock noise (the committed
  // ladder once carried *negative* overheads) — ladder rungs are what the
  // CI budget gate reads, so force at least 3 median-filtered pairs there.
  if (!ladder.empty() && telemetry && telemetry_reps < 3) {
    std::cerr << "macro_scenario: raising --telemetry-reps to 3 for ladder "
                 "rungs (median filter needs interleaved pairs)\n";
    telemetry_reps = 3;
  }
  const auto run_one = [&](const eval::ScenarioSpec& s) {
    return telemetry
               ? run_with_telemetry_column(s, telemetry_spec, telemetry_out,
                                           telemetry_reps)
               : run_scenario(s);
  };

  std::vector<Results> runs;
  if (ladder.empty()) {
    runs.push_back(run_one(spec));
  } else {
    // Ascending keeps per-rung ru_maxrss meaningful (it is monotonic).
    std::vector<int> sizes = ladder;
    std::sort(sizes.begin(), sizes.end());
    for (const int domains : sizes) {
      const eval::ScenarioSpec rung = rung_spec(spec, domains);
      std::cerr << "macro_scenario: rung " << domains << " domains (tops="
                << rung.effective_tops() << ", active="
                << (rung.active_children > 0 ? rung.active_children
                                             : domains)
                << ")\n";
      runs.push_back(run_one(rung));
    }
  }

  write_json(runs, !ladder.empty(), std::cout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "macro_scenario: cannot write " << out_path << "\n";
      return 2;
    }
    write_json(runs, !ladder.empty(), out);
  }
  if (!check_path.empty()) {
    return check_against(runs, check_path, tolerance, telemetry_budget,
                         eps_floor);
  }
  return 0;
}
