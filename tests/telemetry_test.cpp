// Integration tests for the scale-grade telemetry layer: the
// TelemetrySession wiring (delta-encoded metric frames + head-sampled
// spans on a live internet's record stream), its zero-perturbation
// guarantee, critical-path analysis of real convergence windows, the
// records JSONL round-trip behind bench/analyze_run, and the METRICS.md
// audit — every instrument a real run exports must be documented, and
// every documented instrument must be exported by a real run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/internet.hpp"
#include "eval/critical_path.hpp"
#include "eval/masc_sim.hpp"
#include "eval/scenario.hpp"
#include "eval/telemetry.hpp"
#include "net/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "workload/session.hpp"
#include "workload/spec.hpp"

namespace {

// A small but complete workload: claim → groups/joins → flap, the same
// shape the macro ladder runs at scale.
eval::ScenarioSpec small_spec() {
  eval::ScenarioSpec spec;
  spec.domains = 16;
  spec.seed = 7;
  spec.groups = 4;
  spec.joins = 3;
  return spec;
}

struct RunOutcome {
  std::uint64_t rib_digest = 0;
  std::uint64_t path_digest = 0;
  std::uint64_t tree_digest = 0;
  std::uint64_t events_run = 0;
};

RunOutcome run_workload(core::Internet& net, const eval::ScenarioSpec& spec) {
  const eval::BuiltScenario topo = eval::build_scenario(net, spec);
  eval::phase_claim(net, topo);
  net.settle();
  net::Rng rng = eval::make_workload_rng(spec.seed);
  (void)eval::phase_groups(net, spec, topo, rng);
  net.settle();
  // The aggregate member layer, when the spec asks for it (the docs
  // audit does, so every workload.* instrument exports).
  if (const std::unique_ptr<workload::Session> session =
          eval::phase_workload(net, spec, topo)) {
    session->run();
  }
  eval::phase_flap(net, spec, topo);
  net.settle();
  return {eval::rib_digest(net), eval::path_digest(net),
          eval::tree_digest(net), net.events().events_run()};
}

// ------------------------------------------------------- zero perturbation

TEST(Telemetry, SessionDoesNotPerturbTheSimulation) {
  // The whole telemetry layer is passive: metric frames and span sampling
  // must leave the converged state — which routes won every tie included —
  // and the event count untouched.
  const eval::ScenarioSpec spec = small_spec();
  RunOutcome bare;
  {
    core::Internet net(spec.seed);
    bare = run_workload(net, spec);
  }
  RunOutcome instrumented;
  std::uint64_t frames = 0;
  std::uint64_t spans = 0;
  {
    core::Internet net(spec.seed);
    eval::TelemetrySpec telemetry;
    telemetry.recorder_interval_seconds = 1.0;
    telemetry.span_sample_rate = 0.05;
    eval::TelemetrySession session(net, telemetry);
    instrumented = run_workload(net, spec);
    session.final_tick();
    frames = session.recorder_frames();
    spans = session.spans_recorded();
  }
  EXPECT_EQ(instrumented.rib_digest, bare.rib_digest);
  EXPECT_EQ(instrumented.path_digest, bare.path_digest);
  EXPECT_EQ(instrumented.tree_digest, bare.tree_digest);
  EXPECT_EQ(instrumented.events_run, bare.events_run);
  // ... while actually recording something.
  EXPECT_GT(frames, 0u);
  EXPECT_GT(spans, 0u);
}

// ---------------------------------------------------- end-to-end pipeline

TEST(Telemetry, RecorderAndSpansCaptureARealRun) {
  const eval::ScenarioSpec spec = small_spec();
  core::Internet net(spec.seed);
  eval::TelemetrySpec telemetry;
  telemetry.recorder_interval_seconds = 1.0;
  telemetry.span_sample_rate = 0.05;
  eval::TelemetrySession session(net, telemetry);
  run_workload(net, spec);
  session.final_tick();

  // The frames saw the run as a time series...
  std::size_t frames = 0;
  std::size_t arms = 0;
  std::size_t fires = 0;
  for (const obs::Record& record : session.records()) {
    if (record.kind == obs::Record::Kind::kFrame) ++frames;
    if (record.kind == obs::Record::Kind::kProbeArm) ++arms;
    if (record.kind == obs::Record::Kind::kProbeFire) ++fires;
  }
  EXPECT_GT(session.recorder_frames(), 1u);
  EXPECT_EQ(frames, session.recorder_frames());
  // The first frame carries every series.
  const auto first_frame = std::find_if(
      session.records().begin(), session.records().end(),
      [](const obs::Record& r) { return r.kind == obs::Record::Kind::kFrame; });
  ASSERT_NE(first_frame, session.records().end());
  bool has_sent = false;
  for (const auto& [series, value] : first_frame->values) {
    has_sent |= series == "net.messages_sent";
  }
  EXPECT_TRUE(has_sent);

  // ...and the spans include the probe markers (trace_id 0 passes any
  // sampling rate) plus whole sampled chains.
  EXPECT_GT(arms, 0u);
  EXPECT_GT(fires, 0u);

  // The analyzer reconstructs at least one convergence window with a
  // critical chain attributed to protocol phases.
  const eval::CriticalPathReport report = session.critical_path();
  ASSERT_FALSE(report.windows.empty());
  EXPECT_EQ(report.unmatched_fires, 0u);
  const eval::ConvergenceWindow& longest =
      report.windows[report.longest_window()];
  EXPECT_GT(longest.duration(), 0.0);
  EXPECT_FALSE(longest.phase_seconds.empty());
}

TEST(Telemetry, CriticalPathReportIsByteIdenticalAcrossRuns) {
  const eval::ScenarioSpec spec = small_spec();
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    core::Internet net(spec.seed);
    eval::TelemetrySpec telemetry;
    telemetry.span_sample_rate = 0.05;
    eval::TelemetrySession session(net, telemetry);
    run_workload(net, spec);
    std::ostringstream os;
    session.critical_path().write_json(os);
    *out = os.str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Telemetry, SpansRoundTripThroughJsonl) {
  // write_jsonl → read_records_jsonl must reproduce the record stream
  // field-for-field — spans, probe markers, frames and a log line: the
  // dumped artifact is what bench/analyze_run sees, so the offline report
  // can only match the in-process one if nothing is lost or reordered in
  // the serialization.
  const eval::ScenarioSpec spec = small_spec();
  core::Internet net(spec.seed);
  eval::TelemetrySpec telemetry;
  telemetry.recorder_interval_seconds = 1.0;
  telemetry.span_sample_rate = 0.05;
  eval::TelemetrySession session(net, telemetry);
  run_workload(net, spec);
  obs::Stream& stream = net.network().stream();
  stream.set_level(obs::Level::kDebug);
  obs::log_debug(stream, "D1/masc", [](std::ostream& os) { os << "a \"q\""; });
  session.final_tick();

  std::stringstream jsonl;
  for (const obs::Record& record : session.records()) {
    obs::write_jsonl(record, jsonl);
  }
  const std::vector<obs::Record> decoded = eval::read_records_jsonl(jsonl);
  const std::vector<obs::Record>& original = session.records();
  ASSERT_EQ(decoded.size(), original.size());
  ASSERT_GT(decoded.size(), 0u);
  std::set<obs::Record::Kind> kinds;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    kinds.insert(original[i].kind);
    EXPECT_EQ(decoded[i].kind, original[i].kind) << i;
    EXPECT_EQ(decoded[i].sim_time, original[i].sim_time) << i;
    EXPECT_EQ(decoded[i].trace_id, original[i].trace_id) << i;
    EXPECT_EQ(decoded[i].level, original[i].level) << i;
    EXPECT_EQ(decoded[i].from, original[i].from) << i;
    EXPECT_EQ(decoded[i].to, original[i].to) << i;
    EXPECT_EQ(decoded[i].text, original[i].text) << i;
    // Frame values print at %.12g, like the snapshot writers.
    ASSERT_EQ(decoded[i].values.size(), original[i].values.size()) << i;
    for (std::size_t v = 0; v < decoded[i].values.size(); ++v) {
      const auto& [name, value] = original[i].values[v];
      EXPECT_EQ(decoded[i].values[v].first, name) << i;
      EXPECT_NEAR(decoded[i].values[v].second, value,
                  1e-11 * std::max(1.0, std::abs(value)))
          << i << " " << name;
    }
  }
  for (const obs::Record::Kind kind :
       {obs::Record::Kind::kLog, obs::Record::Kind::kSend,
        obs::Record::Kind::kDeliver, obs::Record::Kind::kProbeArm,
        obs::Record::Kind::kProbeFire, obs::Record::Kind::kFrame}) {
    EXPECT_EQ(kinds.count(kind), 1u) << obs::to_string(kind);
  }

  // And the offline analysis of the decoded stream matches the in-process
  // report byte-for-byte.
  std::ostringstream in_process;
  session.critical_path().write_json(in_process);
  std::ostringstream offline;
  eval::analyze_records(decoded).write_json(offline);
  EXPECT_EQ(offline.str(), in_process.str());
}

// --------------------------------------------------------- metric frames

TEST(Recorder, DeltaFramesCarryOnlyChangedSeries) {
  core::Internet net;
  obs::Counter& moving = net.metrics().counter("test.moving");
  net.metrics().counter("test.frozen").inc(5);
  eval::TelemetrySpec telemetry;
  telemetry.recorder_interval_seconds = 1.0;
  eval::TelemetrySession session(net, telemetry);
  session.final_tick();  // the first frame carries every series
  moving.inc();
  session.final_tick();
  moving.inc();
  session.final_tick();
  ASSERT_EQ(session.recorder_frames(), 3u);
  ASSERT_EQ(session.records().size(), 3u);

  std::vector<std::size_t> frozen;
  std::vector<double> moved;
  for (const obs::Record& frame : session.records()) {
    std::size_t mentions = 0;
    for (const auto& [series, value] : frame.values) {
      if (series == "test.frozen") ++mentions;
      if (series == "test.moving") moved.push_back(value);
    }
    frozen.push_back(mentions);
  }
  // "test.frozen" appears once (the first full frame), not per frame.
  EXPECT_EQ(frozen, (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_EQ(moved, (std::vector<double>{0, 1, 2}));
  EXPECT_EQ(session.records()[1].values.size(), 1u);
}

TEST(Recorder, HistogramsExpandToCountAndSum) {
  core::Internet net;
  net.metrics().histogram("test.latency").observe(2.0);
  net.metrics().histogram("test.latency").observe(3.0);
  net.metrics().sharded_counter("test.by_domain").add(7);
  eval::TelemetrySpec telemetry;
  telemetry.recorder_interval_seconds = 1.0;
  eval::TelemetrySession session(net, telemetry);
  session.final_tick();
  ASSERT_EQ(session.records().size(), 1u);
  std::map<std::string, double> values;
  for (const auto& [series, value] : session.records()[0].values) {
    values[series] = value;
  }
  EXPECT_EQ(values.at("test.latency.count"), 2.0);
  EXPECT_EQ(values.at("test.latency.sum"), 5.0);
  // Sharded instruments are left out of frames.
  for (const auto& [series, value] : values) {
    EXPECT_EQ(series.find("by_domain"), std::string::npos) << series;
  }
}

// ------------------------------------------------- analyzer unit behaviour

obs::Record span(std::uint64_t trace_id, double at, obs::Record::Kind kind,
                 std::string from, std::string to, std::string message) {
  obs::Record record;
  record.kind = kind;
  record.trace_id = trace_id;
  record.sim_time = net::SimTime::seconds_f(at);
  record.from = std::move(from);
  record.to = std::move(to);
  record.text = std::move(message);
  return record;
}

TEST(CriticalPath, ReconstructsTheLongestChainAndPhases) {
  using Kind = obs::Record::Kind;
  std::vector<obs::Record> events;
  events.push_back(span(0, 0.0, Kind::kProbeArm, "probe", "", "link-down"));
  // Trace 7: a two-hop BGP chain finishing at t=2.
  events.push_back(span(7, 0.0, Kind::kSend, "A", "B", "UPDATE"));
  events.push_back(span(7, 1.0, Kind::kDeliver, "A", "B", "UPDATE"));
  events.push_back(span(7, 1.0, Kind::kSend, "B", "C", "UPDATE"));
  events.push_back(span(7, 2.0, Kind::kDeliver, "B", "C", "UPDATE"));
  // Trace 9: a BGMP hop finishing later, at t=5 — the critical chain.
  events.push_back(span(9, 3.0, Kind::kSend, "B/bgmp", "C/bgmp", "JOIN"));
  events.push_back(span(9, 5.0, Kind::kDeliver, "B/bgmp", "C/bgmp", "JOIN"));
  events.push_back(span(0, 6.0, Kind::kProbeFire, "probe", "", "link-down"));
  // Log and frame records share the stream; the analyzer skips them.
  events.insert(events.begin() + 3, span(0, 1.0, Kind::kLog, "B", "", "x"));
  events.insert(events.begin() + 6, span(0, 3.0, Kind::kFrame, "", "", ""));

  const eval::CriticalPathReport report = eval::analyze_records(events);
  EXPECT_EQ(report.events_seen, 8u);
  ASSERT_EQ(report.windows.size(), 1u);
  const eval::ConvergenceWindow& w = report.windows[0];
  EXPECT_EQ(w.label, "link-down");
  EXPECT_DOUBLE_EQ(w.armed_at, 0.0);
  EXPECT_DOUBLE_EQ(w.converged_at, 6.0);
  EXPECT_EQ(w.traces, 2u);
  EXPECT_EQ(w.hops, 3u);
  EXPECT_EQ(w.critical_trace, 9u);
  ASSERT_EQ(w.critical_hops.size(), 1u);
  EXPECT_EQ(eval::hop_phase(w.critical_hops[0]), "bgmp");
  // Phase attribution: 2s of bgmp transit on the critical chain, the
  // remaining 4s of the 6s window covered by no critical hop → wait.
  EXPECT_DOUBLE_EQ(w.phase_seconds.at("bgmp"), 2.0);
  EXPECT_DOUBLE_EQ(w.phase_seconds.at("wait"), 4.0);
}

TEST(CriticalPath, ReArmSupersedesAndUnmatchedFiresAreCounted) {
  using Kind = obs::Record::Kind;
  std::vector<obs::Record> events;
  // Fire with no arm at all: counted, no window.
  events.push_back(span(0, 1.0, Kind::kProbeFire, "probe", "", "stray"));
  // Two arms before one fire: the later arm defines the window.
  events.push_back(span(0, 2.0, Kind::kProbeArm, "probe", "", "first"));
  events.push_back(span(3, 2.5, Kind::kSend, "A", "B", "UPDATE"));
  events.push_back(span(3, 2.75, Kind::kDeliver, "A", "B", "UPDATE"));
  events.push_back(span(0, 3.0, Kind::kProbeArm, "probe", "", "second"));
  events.push_back(span(0, 4.0, Kind::kProbeFire, "probe", "", "second"));

  const eval::CriticalPathReport report = eval::analyze_records(events);
  EXPECT_EQ(report.unmatched_fires, 1u);
  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_EQ(report.windows[0].label, "second");
  EXPECT_DOUBLE_EQ(report.windows[0].armed_at, 3.0);
  // The superseded arm's traffic does not leak into the new window.
  EXPECT_EQ(report.windows[0].traces, 0u);
}

// ----------------------------------------------------- METRICS.md audit

#ifdef METRICS_MD_PATH
TEST(Docs, EveryExportedMetricAppearsInMetricsMd) {
  // Run the full workload with telemetry attached, plus the MASC
  // allocation simulation (the masc_sim-only instruments), and snapshot
  // every instrument the stack registers. METRICS.md must name each one,
  // and each instrument row of METRICS.md must name one of them: a new
  // instrument without a doc row fails here, and so does a row left
  // behind when its instrument goes away.
  std::ifstream doc(METRICS_MD_PATH);
  ASSERT_TRUE(doc.is_open()) << "cannot read " << METRICS_MD_PATH;
  std::stringstream buffer;
  buffer << doc.rdbuf();
  const std::string text = buffer.str();

  eval::ScenarioSpec spec = small_spec();
  spec.workload = workload::Spec::small();
  spec.workload.groups = 8;
  spec.workload.sim_days = 1.0 / 24.0;  // 30 ticks: enough to export all
  core::Internet net(spec.seed);
  net.enable_step_profiling();
  eval::TelemetrySpec telemetry;
  telemetry.recorder_interval_seconds = 1.0;
  telemetry.span_sample_rate = 0.05;
  eval::TelemetrySession session(net, telemetry);
  run_workload(net, spec);

  eval::MascSimParams masc;
  masc.top_level_domains = 4;
  masc.children_per_top = 6;
  masc.horizon = net::SimTime::days(120);
  masc.seed = 42;

  std::set<std::string> names;
  for (const obs::Snapshot& snap :
       {net.metrics_snapshot(), eval::run_masc_sim(masc).final_metrics}) {
    for (const obs::Sample& s : snap.samples) names.insert(s.name);
    for (const obs::HistogramSample& h : snap.histograms) names.insert(h.name);
    for (const obs::ShardedSample& s : snap.sharded) names.insert(s.name);
  }
  ASSERT_GT(names.size(), 30u);  // the audit covers the real surface

  // Per-tag step histograms are documented once by their prefix row.
  const std::string kStepPrefix = "sim.step_wall_seconds.";
  const std::string kStepRow = kStepPrefix + "<tag>";
  for (const std::string& name : names) {
    const std::string lookup =
        name.rfind(kStepPrefix, 0) == 0 ? kStepRow : name;
    EXPECT_NE(text.find("`" + lookup + "`"), std::string::npos)
        << "metric \"" << name << "\" is not documented in METRICS.md";
  }

  std::istringstream lines(text);
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    const std::string row = line.substr(3, end - 3);
    ++rows;
    if (row == kStepRow) continue;
    EXPECT_EQ(names.count(row), 1u)
        << "METRICS.md documents \"" << row
        << "\" but no audited run exports it";
  }
  EXPECT_GT(rows, 30u);  // the row scan found the instrument tables
}
#endif  // METRICS_MD_PATH

}  // namespace
