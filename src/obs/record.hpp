// One record stream per network: log lines, causal message spans and
// metric frames share one record type, one sink interface and one sampler.
//
// Every `net::Network` owns an `obs::Stream`. Protocol code logs through
// it (`obs::log_info(network_.stream(), ...)`), the network emits a span
// record for every send/deliver/hold/drop, the convergence probe emits its
// arm/fire markers, and `eval::TelemetrySession` emits metric frames. The
// stream gates logs by level and spans by a deterministic head-based
// sampler, then fans each record out to its sinks: the stderr narrator
// (installed by default), a JSONL writer, or an in-memory buffer.
//
// JSONL schema (one object per line, documented in DESIGN.md):
//   {"trace_id":7,"sim_time_seconds":0.010000000,"event":"send",
//    "from":"D2/bgmp","to":"D1/bgmp","message":"JOIN (*,G) ..."}
//   {"sim_time_seconds":1.500000000,"event":"log","level":"info",
//    "from":"B/masc","message":"granted 224.0.1.0/24"}
//   {"sim_time_seconds":2.000000000,"event":"frame",
//    "v":{"net.messages_sent":40,"bgp.grib_routes":8}}
//
// Like the rest of obs, this header uses only net's inline headers
// (SimTime, EventQueue::now): net links obs, not the other way around.
// Single-threaded like the simulation that owns the stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/event.hpp"
#include "net/time.hpp"

namespace obs {

enum class Level : std::uint8_t { kOff = 0, kInfo = 1, kDebug = 2 };

[[nodiscard]] std::string_view to_string(Level level);

struct Record {
  enum class Kind : std::uint8_t {
    kLog,
    kSend,     ///< message handed to the network
    kDeliver,  ///< message arrived at its destination endpoint
    kHold,     ///< message parked in a partition queue (channel down)
    kDrop,     ///< message lost (channel down with drop-when-down)
    /// Convergence-probe markers (net::ConvergenceProbe): arm stamps the
    /// perturbation instant, fire the convergence instant (the last
    /// activity before the quiet window). They carry trace_id 0 and pass
    /// any sampling rate, so a sampled stream keeps every measurement
    /// window the critical-path analyzer cuts on.
    kProbeArm,
    kProbeFire,
    kFrame,  ///< metric series that changed since the previous frame
  };

  Kind kind = Kind::kLog;
  net::SimTime sim_time;
  std::uint64_t trace_id = 0;  ///< spans only (0 on markers)
  Level level = Level::kInfo;  ///< logs only
  std::string from;            ///< sending endpoint; the tag for logs
  std::string to;              ///< receiving endpoint
  std::string text;            ///< log text, Message::describe(), probe label
  std::vector<std::pair<std::string, double>> values;  ///< frames only

  /// Send/deliver/hold/drop and the probe markers.
  [[nodiscard]] bool is_span() const {
    return kind != Kind::kLog && kind != Kind::kFrame;
  }
};

[[nodiscard]] std::string_view to_string(Record::Kind kind);
/// Inverse of to_string; false if `text` names no kind.
[[nodiscard]] bool kind_from_string(std::string_view text, Record::Kind& out);

/// Renders one record as a JSONL line (schema above). Every kind prints
/// its time with %.9f, so records sort and compare at nanosecond precision.
void write_jsonl(const Record& record, std::ostream& os);

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const Record& record) = 0;
};

/// Narrates log records on std::clog as `[   12.345000s] [tag] message`;
/// ignores every other kind.
class StderrSink final : public Sink {
 public:
  void write(const Record& record) override;
};

/// Every record as one JSON object per line on a caller-owned stream.
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(&os) {}
  void write(const Record& record) override { write_jsonl(record, *os_); }

 private:
  std::ostream* os_;
};

/// Keeps every record in memory, in emission order.
class MemorySink final : public Sink {
 public:
  void write(const Record& record) override { records_.push_back(record); }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  /// The span records of one causal chain, in emission order.
  [[nodiscard]] std::vector<Record> records_for(std::uint64_t trace_id) const;

 private:
  std::vector<Record> records_;
};

/// The stateless 64-bit mixer (splitmix64 finalizer) behind head-based
/// span sampling. Exposed so tests can predict which ids a rate keeps.
[[nodiscard]] constexpr std::uint64_t span_hash(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A network's record stream: level gate, span sampler, sink fan-out.
class Stream {
 public:
  /// Log records are stamped with `clock.now()`; the queue must outlive
  /// the stream. Starts with one StderrSink, logs off and spans off.
  explicit Stream(const net::EventQueue& clock);

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  void set_level(Level level) { level_ = level; }
  [[nodiscard]] bool logs(Level level) const {
    return level_ >= level && !sinks_.empty();
  }

  /// Head-based span sampling in [0,1]; 0 (the default) records no spans
  /// and no markers. A chain is kept iff span_hash(trace_id) falls under
  /// rate·2⁶⁴, a pure function of the id: a kept chain is kept whole, and
  /// the kept set is the same on every rerun. Probe markers (trace_id 0)
  /// pass any non-zero rate.
  void set_span_rate(double rate);
  /// Asked before a span record is built (describe() allocates), so an
  /// unsampled chain costs one compare.
  [[nodiscard]] bool wants_span(std::uint64_t trace_id) const {
    if (span_rate_ <= 0.0 || sinks_.empty()) return false;
    return trace_id == 0 || span_rate_ >= 1.0 ||
           span_hash(trace_id) < span_threshold_;
  }

  /// Fans `record` out to every sink, unfiltered: callers gate with
  /// logs() / wants_span() first.
  void emit(const Record& record);
  /// Emits a log record stamped with the clock's current time.
  void log(Level level, std::string_view tag, std::string text);

  void add_sink(std::shared_ptr<Sink> sink);
  bool remove_sink(const Sink* sink);
  void clear_sinks() { sinks_.clear(); }
  [[nodiscard]] std::size_t sink_count() const { return sinks_.size(); }

 private:
  const net::EventQueue& clock_;
  Level level_ = Level::kOff;
  double span_rate_ = 0.0;
  std::uint64_t span_threshold_ = 0;  ///< keep iff span_hash(id) < this
  std::vector<std::shared_ptr<Sink>> sinks_;
};

/// Lazily-formatted logging: the callable receives an ostream and runs
/// only when the level is enabled and a sink is installed.
template <typename Fn>
void log_info(Stream& stream, std::string_view tag, Fn&& fill) {
  if (!stream.logs(Level::kInfo)) return;
  std::ostringstream os;
  fill(os);
  stream.log(Level::kInfo, tag, std::move(os).str());
}

template <typename Fn>
void log_debug(Stream& stream, std::string_view tag, Fn&& fill) {
  if (!stream.logs(Level::kDebug)) return;
  std::ostringstream os;
  fill(os);
  stream.log(Level::kDebug, tag, std::move(os).str());
}

}  // namespace obs
