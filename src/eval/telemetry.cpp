#include "eval/telemetry.hpp"

#include <algorithm>
#include <fstream>

#include "core/internet.hpp"

namespace eval {

TelemetrySession::TelemetrySession(core::Internet& net,
                                   const TelemetrySpec& spec)
    : net_(&net),
      span_rate_(spec.span_sample_rate),
      state_(std::make_shared<FrameState>()),
      memory_(std::make_shared<obs::MemorySink>()) {
  obs::Stream& stream = net.network().stream();
  stream.add_sink(memory_);
  if (span_rate_ > 0.0) stream.set_span_rate(span_rate_);
  state_->net = &net;
  state_->interval = spec.recorder_interval_seconds;
  state_->active = state_->interval > 0.0;
  if (state_->active) {
    // The listener owns a share of the frame state, so it stays valid
    // even if the network outlives this session; `active` gates it off.
    std::shared_ptr<FrameState> state = state_;
    net.network().add_activity_listener([state]() {
      if (!state->active || state->in_tick) return;
      const double now = state->net->events().now().to_seconds();
      if (now < state->next_tick) return;
      // Snapshot inside a delivery is safe — refresh hooks only read —
      // but the guard keeps any future listener-triggering hook from
      // recursing into the frame writer.
      state->in_tick = true;
      state->tick();
      state->in_tick = false;
      state->next_tick = now + state->interval;
    });
  }
}

TelemetrySession::~TelemetrySession() {
  state_->active = false;
  state_->net = nullptr;
  obs::Stream& stream = net_->network().stream();
  stream.remove_sink(memory_.get());
  if (span_rate_ > 0.0) stream.set_span_rate(0.0);
}

void TelemetrySession::FrameState::tick() {
  const obs::Snapshot snap = net->metrics_snapshot();
  obs::Record frame;
  frame.kind = obs::Record::Kind::kFrame;
  frame.sim_time = net->events().now();
  const auto capture = [&](const std::string& name, double value) {
    const auto [it, fresh] = last.try_emplace(name, value);
    if (!fresh && it->second == value) return;
    it->second = value;
    frame.values.emplace_back(name, value);
  };
  for (const obs::Sample& s : snap.samples) {
    capture(s.name, s.kind == obs::Sample::Kind::kCounter
                        ? static_cast<double>(s.count)
                        : s.value);
  }
  for (const obs::HistogramSample& h : snap.histograms) {
    capture(h.name + ".count", static_cast<double>(h.stats.count));
    capture(h.name + ".sum", h.stats.sum);
  }
  ++frames;
  net->network().stream().emit(frame);
}

void TelemetrySession::final_tick() {
  if (state_->interval <= 0.0) return;
  state_->tick();
  state_->next_tick =
      net_->events().now().to_seconds() + state_->interval;
}

std::uint64_t TelemetrySession::spans_recorded() const {
  return static_cast<std::uint64_t>(
      std::count_if(records().begin(), records().end(),
                    [](const obs::Record& r) { return r.is_span(); }));
}

void TelemetrySession::dump(const std::string& stem) const {
  std::ofstream out(stem + ".records.jsonl");
  for (const obs::Record& record : records()) obs::write_jsonl(record, out);
  std::ofstream cp(stem + ".critical_path.json");
  critical_path().write_json(cp);
}

}  // namespace eval
