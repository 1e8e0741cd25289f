// Tests for the observability layer: the metrics registry / snapshots,
// the JSON module, latency histograms, and the record stream — span and
// log records, the memory and JSONL sinks, level gating, sim-time
// stamping from the stream's event queue, and deterministic span sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/event.hpp"
#include "net/time.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "obs/sharded.hpp"

namespace obs {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(Metrics, SameNameReturnsSameInstrument) {
  Metrics m;
  Counter& a = m.counter("net.messages_sent");
  Counter& b = m.counter("net.messages_sent");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);

  Gauge& g1 = m.gauge("net.channels");
  Gauge& g2 = m.gauge("net.channels");
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(m.instrument_count(), 2u);
}

TEST(Metrics, SnapshotCapturesValuesAndSimTime) {
  Metrics m;
  m.counter("bgmp.joins_sent").inc(7);
  m.gauge("bgp.grib_routes").set(42.5);
  const Snapshot snap = m.snapshot(12.25);
  EXPECT_DOUBLE_EQ(snap.sim_time_seconds, 12.25);
  EXPECT_EQ(snap.counter_value("bgmp.joins_sent"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("bgp.grib_routes"), 42.5);
  EXPECT_EQ(snap.counter_count(), 1u);
  // Unknown names read as zero rather than throwing.
  EXPECT_EQ(snap.counter_value("no.such_counter"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("no.such_gauge"), 0.0);
}

TEST(Metrics, RefreshHookRunsAtSnapshotTime) {
  Metrics m;
  int sampled = 0;
  m.add_refresh_hook([&m, &sampled]() {
    ++sampled;
    m.gauge("test.live_value").set(static_cast<double>(sampled));
  });
  EXPECT_EQ(sampled, 0);
  EXPECT_DOUBLE_EQ(m.snapshot().gauge_value("test.live_value"), 1.0);
  EXPECT_DOUBLE_EQ(m.snapshot().gauge_value("test.live_value"), 2.0);
  EXPECT_EQ(sampled, 2);
}

TEST(Metrics, WriteJsonEmitsSchema) {
  Metrics m;
  m.counter("masc.claims_sent").inc(3);
  m.gauge("masc.pool_utilization").set(0.5);
  std::ostringstream out;
  m.snapshot(1.5).write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"sim_time_seconds\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"masc.claims_sent\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"masc.pool_utilization\": 0.5"), std::string::npos);
}

TEST(Metrics, FormatDoubleKeepsShortValuesAndRoundTripsLongOnes) {
  // 12 or fewer significant digits print exactly as %.12g prints them.
  EXPECT_EQ(detail::format_double(0.0), "0");
  EXPECT_EQ(detail::format_double(0.5), "0.5");
  EXPECT_EQ(detail::format_double(1e-5), "1e-05");
  EXPECT_EQ(detail::format_double(1e6), "1000000");
  EXPECT_EQ(detail::format_double(123456789012.0), "123456789012");
  EXPECT_EQ(detail::format_double(1e12), "1e+12");
  // Longer values keep the digits that parse back to the same double.
  EXPECT_EQ(detail::format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(detail::format_double(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(detail::format_double(30457.7001953125), "30457.7001953125");
  for (const double v : {5757.900000048156, 2.0 / 3e7, 1e300 / 7.0}) {
    EXPECT_EQ(std::stod(detail::format_double(v)), v) << v;
  }
}

// ------------------------------------------------------------------- Json

constexpr Json::Style kCompact = Json::Style::kCompact;
constexpr Json::Style kPretty = Json::Style::kPretty;

Json every_kind() {
  return Json::Object{{"null", nullptr},
                      {"yes", true},
                      {"no", false},
                      {"negative", -42},
                      {"count", std::uint64_t{7}},
                      {"ratio", 0.25},
                      {"at", Json::seconds(2.5)},
                      {"text", "D1/bgmp"},
                      {"list", Json::Array{1, "two", Json::Array{}}},
                      {"nested", Json::Object{{"empty", Json::Object{}}}}};
}

TEST(Json, EveryKindRoundTrips) {
  const Json value = every_kind();
  EXPECT_NE(value.get<std::nullptr_t>("null"), nullptr);
  EXPECT_EQ(*value.get<bool>("yes"), true);
  EXPECT_EQ(*value.get<std::int64_t>("negative"), -42);
  EXPECT_EQ(*value.get<std::uint64_t>("count"), 7u);
  EXPECT_EQ(*value.get<double>("at"), 2.5);
  EXPECT_EQ(*value.get<std::string>("text"), "D1/bgmp");
  EXPECT_EQ(value.get<Json::Array>("list")->size(), 3u);
  EXPECT_NE(value.get<Json::Object>("nested"), nullptr);
  EXPECT_EQ(value.get<std::string>("count"), nullptr);  // another kind
  for (const Json::Style style : {kCompact, kPretty}) {
    const std::string text = value.dump(style);
    const std::optional<Json> parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, value) << text;
  }
  EXPECT_EQ(value.dump(kCompact),
            "{\"null\":null,\"yes\":true,\"no\":false,\"negative\":-42,"
            "\"count\":7,\"ratio\":0.25,\"at\":2.500000000,"
            "\"text\":\"D1/bgmp\",\"list\":[1,\"two\",[]],"
            "\"nested\":{\"empty\":{}}}\n");
}

TEST(Json, PrettyStyleIndentsOneMemberPerLine) {
  const Json value = Json::Object{{"a", 1},
                                  {"b", Json::Array{true, nullptr}},
                                  {"c", Json::Object{}},
                                  {"d", Json::Array{}}};
  EXPECT_EQ(value.dump(kPretty),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ],\n"
            "  \"c\": {},\n  \"d\": []\n}\n");
}

TEST(Json, SixtyFourBitIntegersStayExact) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Json(max).dump(kCompact), "18446744073709551615\n");
  EXPECT_EQ(*Json::parse("18446744073709551615")->get<std::uint64_t>(), max);
  // A 19-digit digest: through a double it would round to a multiple of
  // 1,024 and a one-unit drift would vanish.
  const std::uint64_t digest = 8763681109611083281ull;
  EXPECT_EQ(*Json::parse("8763681109611083281")->get<std::uint64_t>(), digest);
  EXPECT_NE(*Json::parse("8763681109611083282"), Json(digest));
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Json(min).dump(kCompact), "-9223372036854775808\n");
  EXPECT_EQ(*Json::parse("-9223372036854775808"), Json(min));
  // Equal integers are equal whatever type built them; a number past 64
  // bits becomes a double.
  EXPECT_EQ(Json(5), Json(std::uint64_t{5}));
  EXPECT_NE(Json::parse("-0")->get<std::uint64_t>(), nullptr);
  EXPECT_NE(Json::parse("18446744073709551616")->get<double>(), nullptr);
  EXPECT_EQ(Json(-1).get<std::uint64_t>(), nullptr);
  EXPECT_EQ(Json(1.0).get<std::uint64_t>(), nullptr);
  EXPECT_EQ(Json(-1).as_double(), -1.0);
  EXPECT_FALSE(Json("1").as_double().has_value());
}

TEST(Json, EscapesSurvive) {
  const std::string text = std::string("say \"hi\" \\ ") + '\x01' + "\n\t/";
  const std::string line = Json(text).dump(kCompact);
  EXPECT_EQ(line, "\"say \\\"hi\\\" \\\\ \\u0001\\n\\t/\"\n");
  EXPECT_EQ(*Json::parse(line)->get<std::string>(), text);
  // Escapes the writer never emits still decode, \u ones to UTF-8.
  EXPECT_EQ(*Json::parse(R"("\/\b\f\u00e9\ud83d\ude00")")->get<std::string>(),
            "/\b\f\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, BothNumberFormsSurvive) {
  // format_double's shortest round trip…
  for (const double v : {0.1 + 0.2, 1.0 / 3.0, 1e-5, 1e300 / 7.0, -2.5}) {
    const std::string line = Json(v).dump(kCompact);
    EXPECT_EQ(line, detail::format_double(v) + "\n");
    EXPECT_EQ(Json::parse(line)->as_double(), v) << line;
  }
  // …and %.9f for times.
  EXPECT_EQ(Json::seconds(172800.0105).dump(kCompact), "172800.010500000\n");
  EXPECT_EQ(Json::parse("172800.010500000")->as_double(), 172800.0105);
  EXPECT_EQ(Json::seconds(1.5), Json(1.5));  // the form is not the value
  // six_digits rounds the value; it then prints like any double.
  EXPECT_EQ(Json::six_digits(19.0 / 6.0).dump(kCompact), "3.16667\n");
  EXPECT_EQ(Json::six_digits(1234567.0).dump(kCompact), "1234570\n");
  // JSON has no NaN or infinity.
  EXPECT_EQ(Json(std::nan("")).dump(kCompact), "null\n");
  EXPECT_EQ(Json(-HUGE_VAL).dump(kCompact), "null\n");
}

TEST(Json, MalformedInputReturnsNothing) {
  for (const char* bad :
       {"", "{\"a\": 1", "{\"a\": 1} x", "\"\\q\"", "[1,]", "{\"a\" 1}",
        "{a: 1}", "01", "1.", "-", "1e", "+1", "tru", "\"open", "\"tab\there\"",
        "\"\\ud800\"", "\"\\udc00\"", "\"\\u12\"", "1e400", "[] []"}) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << bad;
  }
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_FALSE(Json::parse(nested(600)).has_value());
  EXPECT_TRUE(Json::parse(nested(500)).has_value());
  EXPECT_TRUE(Json::parse(" \t\r\n{ \"a\" : [ 1 , 2 ] }\n").has_value());
}

TEST(Json, ObjectsKeepInsertionOrder) {
  const Json ab = Json::Object{{"b", 2}, {"a", 1}};
  EXPECT_EQ(ab.dump(kCompact), "{\"b\":2,\"a\":1}\n");
  EXPECT_EQ(ab, (Json::Object{{"b", 2}, {"a", 1}}));
  EXPECT_NE(ab, (Json::Object{{"a", 1}, {"b", 2}}));  // order counts
  EXPECT_NE(ab, (Json::Object{{"b", 2}, {"a", 3}}));
  EXPECT_NE(ab, (Json::Object{{"b", 2}}));
  EXPECT_EQ(*ab.find("a")->get<std::uint64_t>(), 1u);
  EXPECT_EQ(ab.find("z"), nullptr);
  EXPECT_EQ(Json(1).find("a"), nullptr);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, EmptyHistogramReportsZeroEverywhere) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

TEST(Histogram, SingleSampleQuantilesAreExact) {
  // Quantiles clamp to [min, max], so one sample answers exactly itself at
  // every quantile despite the log-bucket approximation.
  Histogram h;
  h.observe(0.037);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.037);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.037);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.037);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.037);
}

TEST(Histogram, BucketIndexFollowsLog2Scheme) {
  // Bucket 0 holds [0, 1ns); bucket i >= 1 holds [1ns * 2^(i-1), 1ns * 2^i).
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(0.5e-9), 0);
  EXPECT_EQ(Histogram::bucket_index(1e-9), 1);
  EXPECT_EQ(Histogram::bucket_index(1.9e-9), 1);
  EXPECT_EQ(Histogram::bucket_index(2e-9), 2);
  // A value exactly on a boundary lands in the bucket it opens.
  for (int i = 1; i < 40; ++i) {
    const double bound = 1e-9 * std::ldexp(1.0, i - 1);
    EXPECT_EQ(Histogram::bucket_index(bound), i) << "boundary 2^" << (i - 1);
  }
  // Out-of-range values saturate rather than index out of bounds.
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(-4.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
}

TEST(Histogram, QuantilesClampToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(0.010);
  // Every sample shares one bucket; interpolation inside the bucket must
  // not invent values outside [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 0.010);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 0.010);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.010);
  EXPECT_DOUBLE_EQ(h.min(), 0.010);
  EXPECT_DOUBLE_EQ(h.max(), 0.010);
}

TEST(Histogram, QuantilesOrderAcrossDecades) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(0.001);   // 90% fast
  for (int i = 0; i < 10; ++i) h.observe(1.0);     // 10% slow tail
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 100u);
  EXPECT_NEAR(stats.sum, 10.09, 1e-9);
  // p50 sits in the fast bucket, p95/p99 in the tail bucket; the log
  // buckets bound the error to a factor of two.
  EXPECT_LT(stats.p50, 0.002);
  EXPECT_GT(stats.p95, 0.5);
  EXPECT_LE(stats.p95, 1.0);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_DOUBLE_EQ(stats.min, 0.001);
  EXPECT_DOUBLE_EQ(stats.max, 1.0);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.observe(1.0);
  h.observe(2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MergeAddsBucketsElementWise) {
  Histogram a;
  Histogram b;
  a.observe(1e-6);
  a.observe(1e-3);
  b.observe(1e-6);
  b.observe(1.0);
  b.observe(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 2e-6 + 1e-3 + 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1e-6);
  EXPECT_DOUBLE_EQ(a.max(), 1.0);
  // The fixed bucket scheme means no realignment: each source bucket's
  // population lands in the same index in the destination.
  EXPECT_EQ(a.bucket(Histogram::bucket_index(1e-6)), 2u);
  EXPECT_EQ(a.bucket(Histogram::bucket_index(1e-3)), 1u);
  EXPECT_EQ(a.bucket(Histogram::bucket_index(1.0)), 2u);
}

TEST(Histogram, MergeWithEmptyIsIdentityEitherWay) {
  Histogram empty;
  Histogram h;
  h.observe(0.5);
  h.observe(2.0);

  Histogram into_h = h;
  into_h.merge(empty);
  EXPECT_EQ(into_h.count(), 2u);
  EXPECT_DOUBLE_EQ(into_h.min(), 0.5);
  EXPECT_DOUBLE_EQ(into_h.max(), 2.0);

  Histogram into_empty;
  into_empty.merge(h);
  EXPECT_EQ(into_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(into_empty.min(), 0.5);
  EXPECT_DOUBLE_EQ(into_empty.max(), 2.0);
  EXPECT_DOUBLE_EQ(into_empty.quantile(0.5), h.quantile(0.5));
}

TEST(Histogram, MergedQuantilesMatchConcatenatedSamples) {
  // The sweep aggregation claim: merging per-run histograms must yield
  // the same p50/p95/p99 as observing every underlying sample into one
  // histogram. With bucket-level merging this holds exactly, not just
  // approximately.
  Histogram shard_a;
  Histogram shard_b;
  Histogram shard_c;
  Histogram all;
  int i = 0;
  for (Histogram* shard : {&shard_a, &shard_b, &shard_c}) {
    for (int k = 0; k < 400; ++k, ++i) {
      // Deterministic spread over ~6 decades, interleaved across shards.
      const double v = 1e-6 * std::pow(10.0, (i % 61) / 10.0);
      shard->observe(v);
      all.observe(v);
    }
  }
  Histogram merged = shard_a;
  merged.merge(shard_b);
  merged.merge(shard_c);
  EXPECT_EQ(merged.count(), all.count());
  // Sums associate differently (per-shard subtotals vs one running sum),
  // so equality is only up to floating-point rounding.
  EXPECT_NEAR(merged.sum(), all.sum(), 1e-12 * all.sum());
  EXPECT_DOUBLE_EQ(merged.min(), all.min());
  EXPECT_DOUBLE_EQ(merged.max(), all.max());
  EXPECT_DOUBLE_EQ(merged.quantile(0.50), all.quantile(0.50));
  EXPECT_DOUBLE_EQ(merged.quantile(0.95), all.quantile(0.95));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), all.quantile(0.99));
  for (int b = 0; b < Histogram::kBucketCount; ++b) {
    ASSERT_EQ(merged.bucket(b), all.bucket(b)) << "bucket " << b;
  }
}

TEST(Metrics, SnapshotMergeFromCombinesRegistries) {
  Metrics run1;
  run1.counter("net.messages_sent").inc(10);
  run1.counter("only.in_run1").inc(1);
  run1.gauge("bgp.grib_routes").set(5.0);
  run1.histogram("net.delivery_latency").observe(0.01);
  run1.histogram("net.delivery_latency").observe(0.02);

  Metrics run2;
  run2.counter("net.messages_sent").inc(32);
  run2.counter("only.in_run2").inc(2);
  run2.gauge("bgp.grib_routes").set(7.0);
  run2.histogram("net.delivery_latency").observe(0.04);

  Snapshot merged = run1.snapshot(100.0);
  merged.merge_from(run2.snapshot(250.0));

  EXPECT_EQ(merged.counter_value("net.messages_sent"), 42u);
  EXPECT_EQ(merged.counter_value("only.in_run1"), 1u);
  EXPECT_EQ(merged.counter_value("only.in_run2"), 2u);
  EXPECT_DOUBLE_EQ(merged.gauge_value("bgp.grib_routes"), 6.0);  // mean
  EXPECT_DOUBLE_EQ(merged.sim_time_seconds, 250.0);  // max, not sum

  const HistogramStats stats =
      merged.histogram_stats("net.delivery_latency");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 0.07);
  EXPECT_DOUBLE_EQ(stats.min, 0.01);
  EXPECT_DOUBLE_EQ(stats.max, 0.04);
  // Quantiles recomputed from merged buckets, not averaged stats.
  Histogram reference;
  reference.observe(0.01);
  reference.observe(0.02);
  reference.observe(0.04);
  EXPECT_DOUBLE_EQ(stats.p50, reference.quantile(0.50));
  EXPECT_DOUBLE_EQ(stats.p99, reference.quantile(0.99));
}

TEST(Metrics, MergedGaugeIsMeanOverCellsCarryingIt) {
  // Three cells fold in one at a time, as a sweep merges them; the third
  // lacks one gauge, which then averages over the two cells that had it.
  Metrics cell1;
  cell1.gauge("core.state_bytes_per_domain").set(100.0);
  cell1.gauge("masc.pool_utilization").set(0.25);
  Metrics cell2;
  cell2.gauge("core.state_bytes_per_domain").set(200.0);
  cell2.gauge("masc.pool_utilization").set(0.75);
  Metrics cell3;
  cell3.gauge("core.state_bytes_per_domain").set(600.0);
  cell3.counter("net.messages_sent").inc(3);

  Snapshot merged = cell1.snapshot();
  merged.merge_from(cell2.snapshot());
  merged.merge_from(cell3.snapshot());
  EXPECT_DOUBLE_EQ(merged.gauge_value("core.state_bytes_per_domain"), 300.0);
  EXPECT_DOUBLE_EQ(merged.gauge_value("masc.pool_utilization"), 0.5);
  EXPECT_EQ(merged.counter_value("net.messages_sent"), 3u);

  // Merging merged snapshots weighs each side by the cells behind it.
  Snapshot pair = cell1.snapshot();
  pair.merge_from(cell2.snapshot());
  Snapshot single = cell3.snapshot();
  single.merge_from(pair);
  EXPECT_DOUBLE_EQ(single.gauge_value("core.state_bytes_per_domain"), 300.0);
}

TEST(Metrics, HistogramRegistersLikeOtherInstruments) {
  Metrics m;
  Histogram& a = m.histogram("net.delivery_latency");
  Histogram& b = m.histogram("net.delivery_latency");
  EXPECT_EQ(&a, &b);
  a.observe(0.25);
  m.counter("x.y").inc();
  EXPECT_EQ(m.instrument_count(), 2u);

  const Snapshot snap = m.snapshot(3.0);
  const HistogramStats stats = snap.histogram_stats("net.delivery_latency");
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.p50, 0.25);
  // Absent histograms read as zero stats, mirroring counter_value().
  EXPECT_EQ(snap.histogram_stats("no.such").count, 0u);
}

TEST(Metrics, WriteJsonAndJsonlIncludeHistograms) {
  Metrics m;
  m.histogram("bgmp.join_propagation_latency").observe(0.04);
  std::ostringstream pretty;
  m.snapshot(1.0).write_json(pretty);
  const std::string json = pretty.str();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bgmp.join_propagation_latency\""),
            std::string::npos);
  for (const char* field : {"count", "sum", "min", "max", "p50", "p95",
                            "p99"}) {
    std::string quoted = "\"";
    quoted += field;
    quoted += '"';
    EXPECT_NE(json.find(quoted), std::string::npos) << field;
  }

  std::ostringstream compact;
  m.snapshot(1.0).write_jsonl(compact);
  const std::string line = compact.str();
  // One JSON object per line: exactly one newline, at the end.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  EXPECT_NE(line.find("\"histograms\":{"), std::string::npos);
}

// ------------------------------------------------------------------ Spans

Record make_span(std::uint64_t trace_id, Record::Kind kind) {
  Record span;
  span.kind = kind;
  span.trace_id = trace_id;
  span.sim_time = net::SimTime::milliseconds(1500);
  span.from = "D1/bgmp";
  span.to = "D2/bgmp";
  span.text = "JOIN (*,G)";
  return span;
}

TEST(Spans, MemorySinkFiltersByTraceId) {
  MemorySink sink;
  sink.write(make_span(1, Record::Kind::kSend));
  sink.write(make_span(2, Record::Kind::kSend));
  sink.write(make_span(1, Record::Kind::kDeliver));
  EXPECT_EQ(sink.records().size(), 3u);
  const auto one = sink.records_for(1);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0].kind, Record::Kind::kSend);
  EXPECT_EQ(one[1].kind, Record::Kind::kDeliver);
}

TEST(Spans, JsonlSinkEmitsDocumentedSchema) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.write(make_span(7, Record::Kind::kSend));
  EXPECT_EQ(out.str(),
            "{\"trace_id\":7,\"sim_time_seconds\":1.500000000,"
            "\"event\":\"send\",\"from\":\"D1/bgmp\",\"to\":\"D2/bgmp\","
            "\"message\":\"JOIN (*,G)\"}\n");
}

// ----------------------------------------------------------------- Tracer
//
// Log tracing through a network's obs::Stream: level gating, sim-time
// stamping from the stream's own event queue, sink fan-out.

class TracerTest : public ::testing::Test {
 protected:
  net::EventQueue queue;
  Stream stream{queue};
  std::shared_ptr<MemorySink> memory = std::make_shared<MemorySink>();

  void SetUp() override {
    stream.clear_sinks();  // drop the default stderr narrator
    stream.add_sink(memory);
  }
};

TEST_F(TracerTest, LogRecordsCarrySimTimeAndOrder) {
  stream.set_level(Level::kInfo);
  queue.schedule_at(net::SimTime::seconds(1), [this] {
    log_info(stream, "test", [](std::ostream& os) { os << "first"; });
  });
  queue.schedule_at(net::SimTime::seconds(3), [this] {
    log_info(stream, "test", [](std::ostream& os) { os << "second"; });
  });
  queue.run();

  const std::vector<Record>& records = memory->records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, Record::Kind::kLog);
  EXPECT_EQ(records[0].text, "first");
  EXPECT_EQ(records[0].sim_time, net::SimTime::seconds(1));
  EXPECT_EQ(records[0].from, "test");
  EXPECT_EQ(records[1].text, "second");
  EXPECT_EQ(records[1].sim_time, net::SimTime::seconds(3));
}

TEST_F(TracerTest, LevelGatesDebugBelowInfo) {
  stream.set_level(Level::kOff);
  log_info(stream, "t", [](std::ostream& os) { os << "silenced"; });
  EXPECT_TRUE(memory->records().empty());

  stream.set_level(Level::kInfo);
  log_debug(stream, "t", [](std::ostream& os) { os << "too detailed"; });
  log_info(stream, "t", [](std::ostream& os) { os << "heard"; });
  ASSERT_EQ(memory->records().size(), 1u);
  EXPECT_EQ(memory->records()[0].text, "heard");
  EXPECT_EQ(memory->records()[0].level, Level::kInfo);

  stream.set_level(Level::kDebug);
  log_debug(stream, "t", [](std::ostream& os) { os << "now audible"; });
  EXPECT_EQ(memory->records().size(), 2u);
}

TEST_F(TracerTest, NoSinksMeansDisabled) {
  stream.clear_sinks();
  stream.set_level(Level::kDebug);
  stream.set_span_rate(1.0);
  EXPECT_FALSE(stream.logs(Level::kInfo));
  EXPECT_FALSE(stream.wants_span(7));
  EXPECT_FALSE(stream.wants_span(0));
  stream.add_sink(memory);
  EXPECT_TRUE(stream.logs(Level::kInfo));
  EXPECT_TRUE(stream.wants_span(7));
  EXPECT_EQ(stream.sink_count(), 1u);
  EXPECT_TRUE(stream.remove_sink(memory.get()));
  EXPECT_EQ(stream.sink_count(), 0u);
  // A fresh stream narrates logs to stderr with no further setup, but
  // records nothing until a level or span rate is set.
  const Stream fresh(queue);
  EXPECT_EQ(fresh.sink_count(), 1u);
  EXPECT_FALSE(fresh.logs(Level::kInfo));
  EXPECT_FALSE(fresh.wants_span(0));
}

TEST_F(TracerTest, JsonlSinkWritesOneObjectPerLine) {
  std::ostringstream out;
  stream.add_sink(std::make_shared<JsonlSink>(out));
  stream.set_level(Level::kInfo);
  queue.schedule_at(net::SimTime::milliseconds(1500), [this] {
    log_info(stream, "bgmp.join",
             [](std::ostream& os) { os << "he said \"hi\""; });
  });
  queue.run();

  EXPECT_EQ(out.str(),
            "{\"sim_time_seconds\":1.500000000,\"event\":\"log\","
            "\"level\":\"info\",\"from\":\"bgmp.join\","
            "\"message\":\"he said \\\"hi\\\"\"}\n");
}

TEST_F(TracerTest, OneTimestampFormatForEveryKind) {
  // A log, a span and a frame at 172800.0105 s — inside a 48 h MASC
  // waiting period — through one JSONL sink: every kind keeps all nine
  // decimals, and the lines come out in emission order.
  std::ostringstream out;
  stream.add_sink(std::make_shared<JsonlSink>(out));
  stream.set_level(Level::kInfo);
  stream.set_span_rate(1.0);
  const net::SimTime at = net::SimTime::nanoseconds(172800010500000);
  queue.schedule_at(at, [this, at] {
    log_info(stream, "masc", [](std::ostream& os) { os << "granted"; });
    Record span = make_span(3, Record::Kind::kDeliver);
    span.sim_time = at;
    stream.emit(span);
    Record frame;
    frame.kind = Record::Kind::kFrame;
    frame.sim_time = at;
    frame.values = {{"net.messages_sent", 40.0}};
    stream.emit(frame);
  });
  queue.run();

  std::istringstream lines(out.str());
  std::vector<std::string> got;
  for (std::string line; std::getline(lines, line);) got.push_back(line);
  ASSERT_EQ(got.size(), 3u);
  const char* kinds[] = {"\"event\":\"log\"", "\"event\":\"deliver\"",
                         "\"event\":\"frame\""};
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NE(got[i].find(kinds[i]), std::string::npos) << got[i];
    EXPECT_NE(got[i].find("\"sim_time_seconds\":172800.010500000"),
              std::string::npos)
        << got[i];
  }
  EXPECT_NE(got[2].find("\"v\":{\"net.messages_sent\":40}"),
            std::string::npos);
}

// ---------------------------------------------------- registry kind checks

TEST(Metrics, DuplicateRegistrationWithDifferentKindThrows) {
  Metrics m;
  m.counter("net.messages_sent");
  EXPECT_THROW(m.gauge("net.messages_sent"), std::logic_error);
  EXPECT_THROW(m.histogram("net.messages_sent"), std::logic_error);
  EXPECT_THROW(m.sharded("net.messages_sent"), std::logic_error);
  // Same kind re-registers fine (and returns the same instrument).
  EXPECT_EQ(&m.counter("net.messages_sent"), &m.counter("net.messages_sent"));

  m.sharded("bgp.updates_sent.by_domain");
  EXPECT_THROW(m.counter("bgp.updates_sent.by_domain"), std::logic_error);
  EXPECT_THROW(m.gauge("bgp.updates_sent.by_domain"), std::logic_error);
  EXPECT_THROW(m.histogram("bgp.updates_sent.by_domain"), std::logic_error);
  EXPECT_EQ(&m.sharded("bgp.updates_sent.by_domain"),
            &m.sharded("bgp.updates_sent.by_domain"));
}

// --------------------------------------------------- sharded instruments

/// The registry's snapshot of one sharded instrument.
ShardedSample sample_of(const Sharded& s) {
  return ShardedSample{"test.by_domain", s.values()};
}

TEST(Sharded, CounterIsExactUnderCapacity) {
  // The capacity is the key limit: every key below it counts exactly.
  Sharded c;
  for (std::uint64_t key = 1; key <= 4; ++key) c.add(key, key * 10);
  c.add(Sharded::kKeyLimit - 1, 3);
  const ShardedSample sample = sample_of(c);
  EXPECT_EQ(sample.total(), 103u);
  for (std::uint64_t key = 1; key <= 4; ++key) {
    EXPECT_EQ(sample.value(key), key * 10);
  }
  EXPECT_EQ(sample.value(0), 0u);
  EXPECT_EQ(sample.value(Sharded::kKeyLimit - 1), 3u);
  EXPECT_EQ(sample.value(Sharded::kKeyLimit), 0u);  // past the array
  const std::vector<ShardedItem> top = sample.top();
  ASSERT_EQ(top.size(), 5u);  // zero-valued keys are not listed
  EXPECT_EQ(top[0].key, 4u);
  EXPECT_EQ(top[3].key, 1u);
  EXPECT_EQ(top[4].key, Sharded::kKeyLimit - 1);
}

TEST(Sharded, KeyAtLimitThrows) {
  Sharded s;
  EXPECT_THROW(s.add(Sharded::kKeyLimit), std::length_error);
  EXPECT_THROW(s.set(Sharded::kKeyLimit, 1), std::length_error);
  EXPECT_THROW(s.add(UINT64_MAX), std::length_error);
  EXPECT_TRUE(s.values().empty());  // nothing was allocated
}

TEST(Sharded, ExactOverTenThousandKeys) {
  // 10,000 keys with distinct known counts, streamed in four interleaved
  // rounds: every per-key value and the exported top list must equal a
  // brute-force count. A 64-slot sketch overestimates most of them.
  constexpr std::uint64_t kKeys = 10000;
  const auto count_of = [](std::uint64_t key) {
    return (key * 7919) % 10007 + 1;  // a bijection onto distinct counts
  };
  std::vector<std::uint64_t> order(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) order[i] = (i * 6007) % kKeys;
  Sharded c;
  std::map<std::uint64_t, std::uint64_t> brute;
  for (int round = 0; round < 4; ++round) {
    for (const std::uint64_t key : order) {
      const std::uint64_t share =
          count_of(key) / 4 + (round == 0 ? count_of(key) % 4 : 0);
      c.add(key, share);
      brute[key] += share;
    }
  }
  const ShardedSample sample = sample_of(c);
  ASSERT_EQ(brute.size(), kKeys);
  std::uint64_t total = 0;
  for (const auto& [key, count] : brute) {
    ASSERT_EQ(count, count_of(key));
    EXPECT_EQ(sample.value(key), count) << "key " << key;
    total += count;
  }
  EXPECT_EQ(sample.total(), total);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked;
  for (const auto& [key, count] : brute) ranked.emplace_back(count, key);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const std::vector<ShardedItem> top = sample.top();
  ASSERT_EQ(top.size(), kShardedTop);
  for (std::size_t i = 0; i < kShardedTop; ++i) {
    EXPECT_EQ(top[i].key, ranked[i].second) << "rank " << i;
    EXPECT_EQ(top[i].value, ranked[i].first) << "rank " << i;
  }
}

TEST(Sharded, MergedTopNeedsKeysBelowEachSidesTop) {
  // Keys 17..32 rank below 16 in both snapshots, yet their merged counts
  // beat every key that tops either side: only a merge that carries every
  // key finds them.
  Metrics left;
  Metrics right;
  Sharded& a = left.sharded("test.by_domain");
  Sharded& b = right.sharded("test.by_domain");
  for (std::uint64_t key = 1; key <= 16; ++key) a.add(key, 100);
  for (std::uint64_t key = 33; key <= 48; ++key) b.add(key, 100);
  for (std::uint64_t key = 17; key <= 32; ++key) {
    a.add(key, 60);
    b.add(key, 60);
  }
  for (const ShardedItem& item :
       left.snapshot().find_sharded("test.by_domain")->top()) {
    EXPECT_LE(item.key, 16u);
  }
  Snapshot merged = left.snapshot();
  merged.merge_from(right.snapshot());
  const ShardedSample* sample = merged.find_sharded("test.by_domain");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->total(), 16u * 100 + 16u * 100 + 32u * 60);
  const std::vector<ShardedItem> top = sample->top();
  ASSERT_EQ(top.size(), kShardedTop);
  for (std::size_t i = 0; i < kShardedTop; ++i) {
    EXPECT_EQ(top[i].key, 17 + i);
    EXPECT_EQ(top[i].value, 120u);
  }
  EXPECT_EQ(sample->value(1), 100u);
  EXPECT_EQ(sample->value(48), 100u);
}

TEST(Sharded, TopOrdersValueDescendingThenKeyAscending) {
  Sharded c;
  c.add(5, 10);
  c.add(3, 10);
  c.add(9, 20);
  const std::vector<ShardedItem> top = sample_of(c).top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 9u);
  EXPECT_EQ(top[1].key, 3u);  // ties break key-ascending — deterministic
  EXPECT_EQ(top[2].key, 5u);
}

TEST(Sharded, GaugeClearStartsFreshEpoch) {
  Sharded g;
  for (std::uint64_t key = 1; key <= 20; ++key) g.set(key, key * 100);
  ShardedSample sample = sample_of(g);
  EXPECT_EQ(sample.total(), 21000u);
  ASSERT_EQ(sample.top().size(), kShardedTop);
  EXPECT_EQ(sample.top()[0].key, 20u);
  EXPECT_EQ(sample.top()[15].key, 5u);

  // A new epoch starts from scratch — stale keys do not linger.
  g.clear();
  g.set(42, 7);
  sample = sample_of(g);
  EXPECT_EQ(sample.total(), 7u);
  EXPECT_EQ(sample.value(20), 0u);
  ASSERT_EQ(sample.top().size(), 1u);
  EXPECT_EQ(sample.top()[0].key, 42u);
}

TEST(Sharded, SnapshotExportsBoundedTopAndExactTotal) {
  Metrics m;
  Sharded& c = m.sharded("bgp.updates_sent.by_domain");
  for (std::uint64_t key = 1; key <= 20; ++key) c.add(key, key);
  const Snapshot snap = m.snapshot();
  const ShardedSample* sample = snap.find_sharded("bgp.updates_sent.by_domain");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->total(), 210u);
  EXPECT_EQ(sample->value(3), 3u);              // every key is carried
  EXPECT_EQ(sample->top().size(), kShardedTop);  // the export is bounded
  EXPECT_EQ(sample->top()[0].key, 20u);
  EXPECT_EQ(snap.sharded_total("bgp.updates_sent.by_domain"), 210u);
  EXPECT_EQ(snap.find_sharded("no.such"), nullptr);
  EXPECT_EQ(snap.sharded_total("no.such"), 0u);

  std::ostringstream os;
  snap.write_jsonl(os);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"sharded\":{\"bgp.updates_sent.by_domain\":"
                      "{\"total\":210,\"top\":[{\"key\":20,\"value\":20},"
                      "{\"key\":19,\"value\":19},"),
            std::string::npos)
      << line;
  std::size_t items = 0;
  for (std::size_t at = line.find("\"key\""); at != std::string::npos;
       at = line.find("\"key\"", at + 1)) {
    ++items;
  }
  EXPECT_EQ(items, kShardedTop);
  EXPECT_EQ(line.find("\"error\""), std::string::npos);
}

// ------------------------------------------------ snapshot binary search

TEST(Snapshots, FindLocatesEveryInstrumentInLargeSnapshots) {
  // 300 instruments: the binary-search path must find every name exactly
  // and miss cleanly — this is the lookup bench/micro_core benchmarks.
  Metrics m;
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    std::string name = "bench.metric." + std::to_string(i);
    if (i % 2 == 0) {
      m.counter(name).inc(static_cast<std::uint64_t>(i) + 1);
    } else {
      m.gauge(name).set(static_cast<double>(i) + 0.5);
    }
    names.push_back(std::move(name));
  }
  m.histogram("bench.latency").observe(1.0);
  const Snapshot snap = m.snapshot();
  ASSERT_EQ(snap.samples.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    const Sample* s = snap.find(names[static_cast<std::size_t>(i)]);
    ASSERT_NE(s, nullptr) << names[static_cast<std::size_t>(i)];
    if (i % 2 == 0) {
      EXPECT_EQ(s->kind, Sample::Kind::kCounter);
      EXPECT_EQ(s->count, static_cast<std::uint64_t>(i) + 1);
    } else {
      EXPECT_EQ(s->kind, Sample::Kind::kGauge);
      EXPECT_DOUBLE_EQ(s->value, static_cast<double>(i) + 0.5);
    }
  }
  // Misses: before the first name, between names, after the last.
  EXPECT_EQ(snap.find("aaaa"), nullptr);
  EXPECT_EQ(snap.find("bench.metric.1500"), nullptr);
  EXPECT_EQ(snap.find("zzzz"), nullptr);
  ASSERT_NE(snap.find_histogram("bench.latency"), nullptr);
  EXPECT_EQ(snap.find_histogram("bench.metric.0"), nullptr);
}

// ------------------------------------------------------ span head sampling

TEST(Sampling, RateOneKeepsEverythingMarkersAlwaysPass) {
  net::EventQueue queue;
  Stream stream(queue);
  for (std::uint64_t id = 0; id <= 50; ++id) {
    EXPECT_FALSE(stream.wants_span(id));
  }
  stream.set_span_rate(1.0);
  for (std::uint64_t id = 1; id <= 50; ++id) EXPECT_TRUE(stream.wants_span(id));
  // Probe markers (trace_id 0) pass any non-zero rate, even one too small
  // to keep a single chain: the analyzer needs the measurement windows.
  stream.set_span_rate(1e-12);
  for (std::uint64_t id = 1; id <= 50; ++id) {
    EXPECT_FALSE(stream.wants_span(id));
  }
  EXPECT_TRUE(stream.wants_span(0));
  // Rate 0 turns spans off, markers included.
  stream.set_span_rate(0.0);
  EXPECT_FALSE(stream.wants_span(0));
}

TEST(Sampling, KeptSetIsAPureFunctionOfTheTraceId) {
  net::EventQueue queue;
  Stream first(queue);
  Stream second(queue);
  first.set_span_rate(0.25);
  second.set_span_rate(0.25);
  std::size_t kept = 0;
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    const bool want = first.wants_span(id);
    // Two independent streams at the same rate agree on every id, and
    // asking twice never changes the answer — no order/time dependence.
    EXPECT_EQ(second.wants_span(id), want);
    EXPECT_EQ(first.wants_span(id), want);
    if (want) ++kept;
  }
  // A hash-based 25% sample of 2000 ids lands near 500.
  EXPECT_GT(kept, 350u);
  EXPECT_LT(kept, 650u);
}

TEST(Sampling, KeepsWholeCausalChainsIntact) {
  // Every hop of a chain carries the same trace id, so a kept chain is
  // kept in full: the decision never splits a chain.
  net::EventQueue queue;
  Stream stream(queue);
  auto memory = std::make_shared<MemorySink>();
  stream.add_sink(memory);
  stream.set_span_rate(0.5);
  constexpr std::uint64_t kIds = 200;
  for (std::uint64_t id = 1; id <= kIds; ++id) {
    for (const Record::Kind kind :
         {Record::Kind::kSend, Record::Kind::kDeliver, Record::Kind::kSend,
          Record::Kind::kDeliver}) {
      if (stream.wants_span(id)) stream.emit(make_span(id, kind));
    }
  }
  std::set<std::uint64_t> seen;
  for (const Record& record : memory->records()) seen.insert(record.trace_id);
  for (const std::uint64_t id : seen) {
    EXPECT_EQ(memory->records_for(id).size(), 4u) << "chain " << id << " torn";
  }
  EXPECT_GT(seen.size(), 0u);
  EXPECT_LT(seen.size(), kIds);
}

TEST(Sampling, WantsMatchesTheExposedHash) {
  // The decision is exactly `span_hash(id) < rate * 2^53 << 11` — the
  // contract tests and offline tooling can rely on to predict samples.
  const double rate = 0.01;
  net::EventQueue queue;
  Stream stream(queue);
  stream.set_span_rate(rate);
  const std::uint64_t threshold =
      static_cast<std::uint64_t>(rate * 9007199254740992.0) << 11;
  for (std::uint64_t id = 1; id <= 5000; ++id) {
    EXPECT_EQ(stream.wants_span(id), span_hash(id) < threshold) << id;
  }
}

}  // namespace
}  // namespace obs
