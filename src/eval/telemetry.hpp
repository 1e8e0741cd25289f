// Scenario telemetry: the one knob every harness shares.
//
// `TelemetrySpec` is plain configuration — a metric-frame interval and a
// span sampling rate — carried by `eval::ScenarioSpec` so macro_scenario,
// the chaos runner and the sweep engine enable the same instrumentation
// the same way. `TelemetrySession` is the live wiring: it sets the
// internet's record stream (obs/record.hpp) to sample spans at the spec's
// rate, adds one in-memory sink to it, and emits metric frames into it
// from the network's activity listener.
//
// A frame carries only the series that changed since the previous frame
// (the first carries every series): counters and gauges as they are,
// histograms as `<name>.count` and `<name>.sum`. Sharded instruments are
// left out — one series per domain would swamp the frames, and the final
// snapshot carries them.
//
// Frames ride on activity, never on a self-rescheduling timer: the event
// queue runs to exhaustion in settle(), and a timer that always re-arms
// would keep it non-empty forever. The first activity at or past the
// next frame boundary snapshots the registry — across MASC's multi-hour
// waiting periods that costs a handful of frames, not millions.
//
// Lifetime: declare the session after the internet so it is destroyed
// first — its destructor takes its sink off the stream. The activity
// listener cannot be removed, so it holds the frame state through a
// shared_ptr and goes inert once the session dies; an internet that keeps
// running after the session is gone just stops producing frames.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/critical_path.hpp"
#include "obs/record.hpp"

namespace core {
class Internet;
}

namespace eval {

struct TelemetrySpec {
  /// Simulated seconds between metric frames; 0 disables frames.
  double recorder_interval_seconds = 0.0;
  /// Head-based span sampling rate in [0,1]; 0 disables span recording.
  /// Probe markers always pass, so any non-zero rate yields analyzable
  /// convergence windows.
  double span_sample_rate = 0.0;

  [[nodiscard]] bool enabled() const {
    return recorder_interval_seconds > 0.0 || span_sample_rate > 0.0;
  }
};

/// Attaches the spec's instrumentation to one `core::Internet` for the
/// session's lifetime. Construct it right after the internet (before the
/// workload runs) and keep it alive until the last read.
class TelemetrySession {
 public:
  TelemetrySession(core::Internet& net, const TelemetrySpec& spec);
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Captures one final frame at the current sim time (call after the
  /// workload settles — the closing state is worth a frame even if no
  /// activity crossed the last frame boundary).
  void final_tick();

  /// Every record the stream emitted while the session was attached, in
  /// emission order.
  [[nodiscard]] const std::vector<obs::Record>& records() const {
    return memory_->records();
  }
  /// Span records kept by the sampler, probe markers included.
  [[nodiscard]] std::uint64_t spans_recorded() const;
  [[nodiscard]] std::uint64_t recorder_frames() const {
    return state_->frames;
  }
  /// Runs the critical-path analyzer over the recorded spans.
  [[nodiscard]] CriticalPathReport critical_path() const {
    return analyze_records(records());
  }
  /// Writes `<stem>.records.jsonl` (every record, obs::write_jsonl) and
  /// `<stem>.critical_path.json`.
  void dump(const std::string& stem) const;

 private:
  /// Owned jointly with the activity listener; `active` flips false when
  /// the session dies so a listener that outlives it does nothing.
  struct FrameState {
    core::Internet* net = nullptr;
    double interval = 0.0;
    double next_tick = 0.0;
    bool active = false;
    bool in_tick = false;
    std::uint64_t frames = 0;
    std::map<std::string, double, std::less<>> last;  ///< series -> value

    /// Snapshots the registry and emits the changed series as a frame.
    void tick();
  };

  core::Internet* net_;
  double span_rate_;
  std::shared_ptr<FrameState> state_;
  std::shared_ptr<obs::MemorySink> memory_;
};

}  // namespace eval
