#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace obs {

namespace detail {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  // std::to_chars ignores the locale; 17 significant digits always round
  // trip, so the loop ends there for NaN too.
  char buf[32];
  for (int precision = 12;; ++precision) {
    char* end = std::to_chars(buf, buf + sizeof buf, v,
                              std::chars_format::general, precision)
                    .ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed == v || precision == 17) return std::string(buf, end);
  }
}

}  // namespace detail

const Sample* Snapshot::find(std::string_view name) const {
  // samples is name-sorted (see snapshot()/merge_from), so probes binary
  // search instead of scanning — snapshots carry 200+ instruments and the
  // bench harnesses probe them dozens of times per run.
  const auto at = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const Sample& s, std::string_view n) { return s.name < n; });
  return at != samples.end() && at->name == name ? &*at : nullptr;
}

std::uint64_t Snapshot::counter_value(std::string_view name) const {
  const Sample* s = find(name);
  return s != nullptr && s->kind == Sample::Kind::kCounter ? s->count : 0;
}

double Snapshot::gauge_value(std::string_view name) const {
  const Sample* s = find(name);
  return s != nullptr && s->kind == Sample::Kind::kGauge ? s->value : 0.0;
}

std::size_t Snapshot::counter_count() const {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [](const Sample& s) {
        return s.kind == Sample::Kind::kCounter;
      }));
}

const HistogramSample* Snapshot::find_histogram(std::string_view name) const {
  const auto at = std::lower_bound(
      histograms.begin(), histograms.end(), name,
      [](const HistogramSample& h, std::string_view n) { return h.name < n; });
  return at != histograms.end() && at->name == name ? &*at : nullptr;
}

const ShardedSample* Snapshot::find_sharded(std::string_view name) const {
  const auto at = std::lower_bound(
      sharded.begin(), sharded.end(), name,
      [](const ShardedSample& s, std::string_view n) { return s.name < n; });
  return at != sharded.end() && at->name == name ? &*at : nullptr;
}

std::uint64_t Snapshot::sharded_total(std::string_view name) const {
  const ShardedSample* s = find_sharded(name);
  return s != nullptr ? s->total() : 0;
}

HistogramStats Snapshot::histogram_stats(std::string_view name) const {
  const HistogramSample* h = find_histogram(name);
  return h != nullptr ? h->stats : HistogramStats{};
}

void Snapshot::merge_from(const Snapshot& other) {
  sim_time_seconds = std::max(sim_time_seconds, other.sim_time_seconds);
  // Samples are name-sorted in every snapshot; a linear merge keeps them
  // that way. Counters add; gauges average over the cells carrying them.
  std::vector<Sample> merged;
  merged.reserve(samples.size() + other.samples.size());
  auto a = samples.begin();
  auto b = other.samples.begin();
  while (a != samples.end() || b != other.samples.end()) {
    if (b == other.samples.end() ||
        (a != samples.end() && a->name < b->name)) {
      merged.push_back(std::move(*a++));
    } else if (a == samples.end() || b->name < a->name) {
      merged.push_back(*b++);
    } else {
      Sample s = std::move(*a++);
      if (s.kind == Sample::Kind::kCounter) {
        s.count += b->count;
        s.value += b->value;
      } else {
        const auto cells = static_cast<double>(s.cells + b->cells);
        s.value = (s.value * static_cast<double>(s.cells) +
                   b->value * static_cast<double>(b->cells)) /
                  cells;
        s.cells += b->cells;
      }
      merged.push_back(std::move(s));
      ++b;
    }
  }
  samples = std::move(merged);

  std::vector<HistogramSample> hists;
  hists.reserve(histograms.size() + other.histograms.size());
  auto ha = histograms.begin();
  auto hb = other.histograms.begin();
  while (ha != histograms.end() || hb != other.histograms.end()) {
    if (hb == other.histograms.end() ||
        (ha != histograms.end() && ha->name < hb->name)) {
      hists.push_back(std::move(*ha++));
    } else if (ha == histograms.end() || hb->name < ha->name) {
      hists.push_back(*hb++);
    } else {
      HistogramSample h = std::move(*ha++);
      h.distribution.merge(hb->distribution);
      h.stats = h.distribution.stats();
      hists.push_back(std::move(h));
      ++hb;
    }
  }
  histograms = std::move(hists);

  std::vector<ShardedSample> shards;
  shards.reserve(sharded.size() + other.sharded.size());
  auto sa = sharded.begin();
  auto sb = other.sharded.begin();
  while (sa != sharded.end() || sb != other.sharded.end()) {
    if (sb == other.sharded.end() ||
        (sa != sharded.end() && sa->name < sb->name)) {
      shards.push_back(std::move(*sa++));
    } else if (sa == sharded.end() || sb->name < sa->name) {
      shards.push_back(*sb++);
    } else {
      ShardedSample s = std::move(*sa++);
      s.merge(*sb);
      shards.push_back(std::move(s));
      ++sb;
    }
  }
  sharded = std::move(shards);
}

namespace {

/// Shared body for the pretty (write_json) and single-line (write_jsonl)
/// renderings; only the whitespace differs.
void write_json_impl(const Snapshot& snap, std::ostream& os, bool pretty) {
  const char* nl = pretty ? "\n  " : "";
  const char* nl2 = pretty ? "\n    " : "";
  const char* sp = pretty ? " " : "";
  os << "{" << nl << "\"sim_time_seconds\":" << sp
     << detail::format_double(snap.sim_time_seconds) << "," << nl
     << "\"counters\":" << sp << "{";
  bool first = true;
  for (const Sample& s : snap.samples) {
    if (s.kind != Sample::Kind::kCounter) continue;
    os << (first ? "" : ",") << nl2 << "\"" << detail::json_escape(s.name)
       << "\":" << sp << s.count;
    first = false;
  }
  os << (first ? "" : nl) << "}," << nl << "\"gauges\":" << sp << "{";
  first = true;
  for (const Sample& s : snap.samples) {
    if (s.kind != Sample::Kind::kGauge) continue;
    os << (first ? "" : ",") << nl2 << "\"" << detail::json_escape(s.name)
       << "\":" << sp << detail::format_double(s.value);
    first = false;
  }
  os << (first ? "" : nl) << "}," << nl << "\"histograms\":" << sp << "{";
  first = true;
  for (const HistogramSample& h : snap.histograms) {
    const HistogramStats& st = h.stats;
    os << (first ? "" : ",") << nl2 << "\"" << detail::json_escape(h.name)
       << "\":" << sp << "{\"count\":" << sp << st.count << "," << sp
       << "\"sum\":" << sp << detail::format_double(st.sum) << "," << sp
       << "\"min\":" << sp << detail::format_double(st.min) << "," << sp
       << "\"max\":" << sp << detail::format_double(st.max) << "," << sp
       << "\"p50\":" << sp << detail::format_double(st.p50) << "," << sp
       << "\"p95\":" << sp << detail::format_double(st.p95) << "," << sp
       << "\"p99\":" << sp << detail::format_double(st.p99) << "}";
    first = false;
  }
  os << (first ? "" : nl) << "}," << nl << "\"sharded\":" << sp << "{";
  first = true;
  for (const ShardedSample& s : snap.sharded) {
    os << (first ? "" : ",") << nl2 << "\"" << detail::json_escape(s.name)
       << "\":" << sp << "{\"total\":" << sp << s.total() << "," << sp
       << "\"top\":" << sp << "[";
    bool first_item = true;
    for (const ShardedItem& item : s.top()) {
      os << (first_item ? "" : ",") << "{\"key\":" << sp << item.key << ","
         << sp << "\"value\":" << sp << item.value << "}";
      first_item = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : nl) << "}" << (pretty ? "\n" : "") << "}\n";
}

}  // namespace

void Snapshot::write_json(std::ostream& os) const {
  write_json_impl(*this, os, /*pretty=*/true);
}

void Snapshot::write_jsonl(std::ostream& os) const {
  write_json_impl(*this, os, /*pretty=*/false);
}

void Snapshot::write_csv(std::ostream& os) const {
  os << "name,kind,value\n";
  for (const Sample& s : samples) {
    if (s.kind == Sample::Kind::kCounter) {
      os << s.name << ",counter," << s.count << "\n";
    } else {
      os << s.name << ",gauge," << detail::format_double(s.value) << "\n";
    }
  }
  for (const HistogramSample& h : histograms) {
    const HistogramStats& st = h.stats;
    os << h.name << ".count,histogram," << st.count << "\n";
    os << h.name << ".sum,histogram," << detail::format_double(st.sum) << "\n";
    os << h.name << ".min,histogram," << detail::format_double(st.min) << "\n";
    os << h.name << ".max,histogram," << detail::format_double(st.max) << "\n";
    os << h.name << ".p50,histogram," << detail::format_double(st.p50) << "\n";
    os << h.name << ".p95,histogram," << detail::format_double(st.p95) << "\n";
    os << h.name << ".p99,histogram," << detail::format_double(st.p99) << "\n";
  }
  for (const ShardedSample& s : sharded) {
    os << s.name << ".total,sharded," << s.total() << "\n";
    for (const ShardedItem& item : s.top()) {
      os << s.name << "." << item.key << ",sharded," << item.value << "\n";
    }
  }
}

namespace {

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    case 2: return "histogram";
    case 3: return "sharded";
  }
  return "?";
}

}  // namespace

void Metrics::check_kind(std::string_view name, Kind kind) {
  const auto it = kinds_.find(name);
  if (it == kinds_.end()) {
    kinds_.emplace(std::string(name), kind);
    return;
  }
  if (it->second != kind) {
    throw std::logic_error(
        "obs::Metrics: instrument \"" + std::string(name) +
        "\" already registered as " + kind_name(static_cast<int>(it->second)) +
        ", re-registered as " + kind_name(static_cast<int>(kind)) +
        " — two subsystems would silently shadow each other");
  }
}

Counter& Metrics::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  check_kind(name, Kind::kCounter);
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Metrics::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  check_kind(name, Kind::kGauge);
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& Metrics::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  check_kind(name, Kind::kHistogram);
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

Sharded& Metrics::sharded(std::string_view name) {
  const auto it = sharded_.find(name);
  if (it != sharded_.end()) return *it->second;
  check_kind(name, Kind::kSharded);
  return *sharded_.emplace(std::string(name), std::make_unique<Sharded>())
              .first->second;
}

void Metrics::add_refresh_hook(std::function<void()> hook) {
  hooks_.push_back(std::move(hook));
}

Snapshot Metrics::snapshot(double sim_time_seconds) {
  for (const auto& hook : hooks_) hook();
  Snapshot snap;
  snap.sim_time_seconds = sim_time_seconds;
  snap.samples.reserve(counters_.size() + gauges_.size());
  // Merge the two sorted maps so samples come out name-ordered.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  while (c != counters_.end() || g != gauges_.end()) {
    const bool take_counter =
        g == gauges_.end() ||
        (c != counters_.end() && c->first <= g->first);
    Sample s;
    if (take_counter) {
      s.name = c->first;
      s.kind = Sample::Kind::kCounter;
      s.count = c->second->value();
      s.value = static_cast<double>(s.count);
      ++c;
    } else {
      s.name = g->first;
      s.kind = Sample::Kind::kGauge;
      s.value = g->second->value();
      ++g;
    }
    snap.samples.push_back(std::move(s));
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.push_back(HistogramSample{name, hist->stats(), *hist});
  }
  snap.sharded.reserve(sharded_.size());
  for (const auto& [name, inst] : sharded_) {
    snap.sharded.push_back(ShardedSample{name, inst->values()});
  }
  return snap;
}

}  // namespace obs
