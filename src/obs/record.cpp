#include "obs/record.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "obs/metrics.hpp"  // detail::json_escape

namespace obs {

using detail::json_escape;

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
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9f", record.sim_time.to_seconds());
  os << '{';
  if (record.is_span()) os << "\"trace_id\":" << record.trace_id << ',';
  os << "\"sim_time_seconds\":" << buf << ",\"event\":\""
     << to_string(record.kind) << '"';
  switch (record.kind) {
    case Record::Kind::kLog:
      os << ",\"level\":\"" << to_string(record.level) << "\",\"from\":\""
         << json_escape(record.from) << "\",\"message\":\""
         << json_escape(record.text) << '"';
      break;
    case Record::Kind::kFrame: {
      // Values keep the snapshot writers' rendering: integral counters
      // print without a decimal point, gauges round-trip at %.12g.
      os << ",\"v\":{";
      const char* sep = "";
      for (const auto& [name, value] : record.values) {
        std::snprintf(buf, sizeof buf, "%.12g", value);
        os << sep << '"' << json_escape(name) << "\":" << buf;
        sep = ",";
      }
      os << '}';
      break;
    }
    default:
      os << ",\"from\":\"" << json_escape(record.from) << "\",\"to\":\""
         << json_escape(record.to) << "\",\"message\":\""
         << json_escape(record.text) << '"';
      break;
  }
  os << "}\n";
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
