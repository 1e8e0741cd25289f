#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace obs {

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

Json Snapshot::to_json() const {
  Json::Object counters;
  Json::Object gauges;
  for (const Sample& s : samples) {
    if (s.kind == Sample::Kind::kCounter) {
      counters.emplace_back(s.name, s.count);
    } else {
      gauges.emplace_back(s.name, s.value);
    }
  }
  Json::Object hists;
  for (const HistogramSample& h : histograms) {
    const HistogramStats& st = h.stats;
    hists.emplace_back(
        h.name, Json::Object{{"count", st.count}, {"sum", st.sum},
                             {"min", st.min}, {"max", st.max},
                             {"p50", st.p50}, {"p95", st.p95},
                             {"p99", st.p99}});
  }
  Json::Object shards;
  for (const ShardedSample& s : sharded) {
    Json::Array top;
    for (const ShardedItem& item : s.top()) {
      top.emplace_back(Json::Object{{"key", item.key}, {"value", item.value}});
    }
    shards.emplace_back(
        s.name, Json::Object{{"total", s.total()}, {"top", std::move(top)}});
  }
  return Json::Object{
      {"sim_time_seconds", sim_time_seconds}, {"counters", std::move(counters)},
      {"gauges", std::move(gauges)}, {"histograms", std::move(hists)},
      {"sharded", std::move(shards)}};
}

void Snapshot::write_json(std::ostream& os) const {
  os << to_json().dump(Json::Style::kPretty);
}

void Snapshot::write_jsonl(std::ostream& os) const {
  os << to_json().dump(Json::Style::kCompact);
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
