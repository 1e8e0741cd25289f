// A unified metrics registry for the whole protocol stack.
//
// Every component registers named instruments against the registry its
// Network carries (`obs::Counter& c = metrics.counter("bgmp.joins_sent")`)
// and bumps them on its hot paths; harnesses take a Snapshot and export it
// as JSON or CSV. The paper's quantitative claims — claim/collide
// convergence, address-space utilisation (Fig. 2), tree cost (Fig. 4),
// forwarding-state size — all surface here instead of through per-class
// getter zoos.
//
// Naming convention (enforced socially, documented in DESIGN.md):
// `<module>.<noun>_<verb>`, e.g. `net.messages_sent`,
// `masc.claims_granted`, `bgp.updates_received`. Gauges that sample state
// rather than count events use plain nouns: `bgmp.tree_entries`. Latency
// histograms use `<module>.<noun>_latency` and record seconds.
//
// Single-threaded: a registry belongs to one simulation, and concurrent
// simulations (sweep cells) each own theirs.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/sharded.hpp"

namespace obs {

/// A monotonically increasing event count. References returned by
/// Metrics::counter() are stable for the registry's lifetime, so hot paths
/// cache them once at construction.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time measurement (queue depth, utilisation, RIB size).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// One exported instrument value.
struct Sample {
  enum class Kind { kCounter, kGauge };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  ///< exact value for counters
  double value = 0.0;       ///< value for gauges (== count for counters)
  /// For gauges: how many snapshots `value` is the mean of (1 until
  /// merge_from folds in another).
  std::uint64_t cells = 1;
};

/// One exported histogram distribution. Snapshots carry the full bucket
/// array (not just the stats) so snapshots from independent runs can be
/// merged with exact counts and honestly interpolated quantiles — the
/// cross-run aggregation path the sweep engine rests on.
struct HistogramSample {
  std::string name;
  HistogramStats stats;
  Histogram distribution;
};

/// A consistent export of every instrument, taken at one simulated time.
struct Snapshot {
  double sim_time_seconds = 0.0;
  std::vector<Sample> samples;  ///< sorted by name, counters and gauges mixed
  std::vector<HistogramSample> histograms;  ///< sorted by name
  std::vector<ShardedSample> sharded;       ///< sorted by name

  /// Lookups binary-search the name-sorted vectors, so a 200+-instrument
  /// snapshot costs log2(n) string compares per probe, not n.
  [[nodiscard]] const Sample* find(std::string_view name) const;
  /// Value of a counter (0 if absent) / gauge (0.0 if absent).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] std::size_t counter_count() const;

  [[nodiscard]] const HistogramSample* find_histogram(
      std::string_view name) const;
  /// Stats of a histogram; all-zero stats if absent.
  [[nodiscard]] HistogramStats histogram_stats(std::string_view name) const;

  [[nodiscard]] const ShardedSample* find_sharded(std::string_view name) const;
  /// Total of a sharded instrument (0 if absent).
  [[nodiscard]] std::uint64_t sharded_total(std::string_view name) const;

  /// {"sim_time_seconds": T, "counters": {...}, "gauges": {...},
  ///  "histograms": {...}, "sharded": {...}} — the schema bench/ and
  /// external tooling consume (see DESIGN.md). Each histogram exports
  /// count, sum, min, max, p50, p95, p99; each sharded instrument exports
  /// its total plus its top list of {key, value} items.
  void write_json(std::ostream& os) const;
  /// name,kind,value rows with a header; histograms expand into
  /// `<name>.count/.sum/.min/.max/.p50/.p95/.p99` rows of kind histogram,
  /// sharded instruments into `<name>.total` plus one `<name>.<key>` row
  /// of kind sharded per top-list item.
  void write_csv(std::ostream& os) const;
  /// The write_json schema compacted onto a single line (plus '\n'), for
  /// JSONL time series (`scenario_runner --metrics-every`).
  void write_jsonl(std::ostream& os) const;

  /// Folds another run's snapshot into this one: counters add by name,
  /// gauges become the mean over the snapshots that carried them
  /// (instruments absent on either side are kept/adopted), histograms
  /// merge at bucket level, so the combined quantiles reflect every
  /// underlying sample rather than an average of averages, and sharded
  /// instruments add per key.
  /// sim_time_seconds becomes the max of the two (the longest run). The
  /// aggregation semantics of the sweep engine: counters are event totals
  /// across cells, gauges are per-cell means (a ratio or a per-domain
  /// size summed over cells would mean nothing).
  void merge_from(const Snapshot& other);
};

class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;
  Metrics(Metrics&&) = default;
  Metrics& operator=(Metrics&&) = default;

  /// Finds or creates the named instrument. The reference stays valid for
  /// the registry's lifetime. Registering a name that already exists with
  /// a *different* kind throws std::logic_error — a silent alias would
  /// leave two subsystems updating instruments that shadow each other in
  /// every export.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  /// Dimensioned instrument (see obs/sharded.hpp): exact per-domain
  /// counts or sampled values.
  Sharded& sharded(std::string_view name);

  /// Registers a hook run at the start of every snapshot(). Harness-level
  /// owners use it to refresh sampled gauges (RIB sizes, pool utilisation,
  /// event-queue depth) without putting reads on protocol hot paths. The
  /// hook's captures must outlive the registry or stop being snapshot.
  void add_refresh_hook(std::function<void()> hook);

  /// Runs the refresh hooks, then exports every instrument.
  [[nodiscard]] Snapshot snapshot(double sim_time_seconds = 0.0);

  [[nodiscard]] std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size() +
           sharded_.size();
  }

 private:
  enum class Kind : std::uint8_t {
    kCounter,
    kGauge,
    kHistogram,
    kSharded,
  };
  /// Records `name` as `kind`, throwing std::logic_error if it is already
  /// registered as anything else.
  void check_kind(std::string_view name, Kind kind);

  // unique_ptr-valued maps: node-stable references plus registry movability.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Sharded>, std::less<>> sharded_;
  std::map<std::string, Kind, std::less<>> kinds_;
  std::vector<std::function<void()>> hooks_;
};

namespace detail {
/// Minimal JSON string escaping (quotes, backslashes, control chars).
[[nodiscard]] std::string json_escape(std::string_view text);
/// Renders `v` as printf's %g at the lowest precision, from 12 up, that
/// parses back to exactly `v`: a value with 12 or fewer significant digits
/// prints as %.12g prints it, and no value loses digits.
[[nodiscard]] std::string format_double(double v);
}  // namespace detail

}  // namespace obs
