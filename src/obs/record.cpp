#include "obs/record.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "obs/json.hpp"

namespace obs {

std::string_view to_string(Level level) {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kInfo: return "info";
    case Level::kDebug: return "debug";
  }
  return "?";
}

std::string_view to_string(Record::Kind kind) {
  switch (kind) {
    case Record::Kind::kLog: return "log";
    case Record::Kind::kSend: return "send";
    case Record::Kind::kDeliver: return "deliver";
    case Record::Kind::kHold: return "hold";
    case Record::Kind::kDrop: return "drop";
    case Record::Kind::kProbeArm: return "probe-arm";
    case Record::Kind::kProbeFire: return "probe-fire";
    case Record::Kind::kFrame: return "frame";
  }
  return "?";
}

bool kind_from_string(std::string_view text, Record::Kind& out) {
  for (int k = 0; k <= static_cast<int>(Record::Kind::kFrame); ++k) {
    const auto kind = static_cast<Record::Kind>(k);
    if (text == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void write_jsonl(const Record& record, std::ostream& os) {
  using Kind = Record::Kind;
  Json::Object line;
  if (record.is_span()) line.emplace_back("trace_id", record.trace_id);
  line.emplace_back("sim_time_seconds",
                    Json::seconds(record.sim_time.to_seconds()));
  line.emplace_back("event", to_string(record.kind));
  if (record.kind == Kind::kLog) {
    line.emplace_back("level", to_string(record.level));
  }
  if (record.kind == Kind::kFrame) {
    line.emplace_back(
        "v", Json::Object(record.values.begin(), record.values.end()));
  } else {
    line.emplace_back("from", record.from);
    if (record.kind != Kind::kLog) line.emplace_back("to", record.to);
    line.emplace_back("message", record.text);
  }
  os << Json(std::move(line)).dump(Json::Style::kCompact);
}

void StderrSink::write(const Record& record) {
  if (record.kind != Record::Kind::kLog) return;
  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "[%12.6fs]", record.sim_time.to_seconds());
  std::clog << stamp << " [" << record.from << "] " << record.text << '\n';
}

std::vector<Record> MemorySink::records_for(std::uint64_t trace_id) const {
  std::vector<Record> out;
  for (const Record& r : records_) {
    if (r.is_span() && r.trace_id == trace_id) out.push_back(r);
  }
  return out;
}

Stream::Stream(const net::EventQueue& clock) : clock_(clock) {
  sinks_.push_back(std::make_shared<StderrSink>());
}

void Stream::set_span_rate(double rate) {
  span_rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  // rate × 2^64 via a 2^53 intermediate: the product stays below 2^53
  // for every rate < 1, so the cast is exact and never overflows.
  span_threshold_ =
      static_cast<std::uint64_t>(span_rate_ * 9007199254740992.0) << 11;
}

void Stream::emit(const Record& record) {
  for (const auto& sink : sinks_) sink->write(record);
}

void Stream::log(Level level, std::string_view tag, std::string text) {
  Record record;
  record.kind = Record::Kind::kLog;
  record.sim_time = clock_.now();
  record.level = level;
  record.from = std::string(tag);
  record.text = std::move(text);
  emit(record);
}

void Stream::add_sink(std::shared_ptr<Sink> sink) {
  sinks_.push_back(std::move(sink));
}

bool Stream::remove_sink(const Sink* sink) {
  const auto it = std::find_if(
      sinks_.begin(), sinks_.end(),
      [sink](const std::shared_ptr<Sink>& s) { return s.get() == sink; });
  if (it == sinks_.end()) return false;
  sinks_.erase(it);
  return true;
}

}  // namespace obs
