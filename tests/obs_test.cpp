// The observability layer's contract: instrument semantics (counters,
// gauges, timers, histograms), exact sums under concurrent mutation,
// deterministic registry merges, span hierarchy/export semantics, the
// sampling profiler's source registry, and a JSON model whose writer and
// parser round-trip each other, pinned byte for byte by golden strings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/profile_io.hpp"
#include "analysis/profiles.hpp"
#include "netlist/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"

namespace dp::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON model

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(JsonValue::parse("null").kind(), JsonValue::Kind::Null);
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_EQ(JsonValue::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(JsonValue::parse("\"a\\nb\\\"c\\\\\"").as_string(), "a\nb\"c\\");
}

TEST(Json, ObjectPreservesInsertionOrderAndRoundTrips) {
  JsonValue v = JsonValue::object();
  v["zebra"] = 1;
  v["alpha"] = "two";
  v["nested"]["deep"] = true;
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  v["list"] = std::move(arr);

  const std::string text = v.dump();
  const JsonValue back = JsonValue::parse(text);
  ASSERT_TRUE(back.is_object());
  EXPECT_EQ(back.members()[0].first, "zebra");  // order survives the trip
  EXPECT_EQ(back.members()[1].first, "alpha");
  EXPECT_EQ(back.at("zebra").as_int(), 1);
  EXPECT_TRUE(back.at("nested").at("deep").as_bool());
  ASSERT_EQ(back.at("list").size(), 3u);
  EXPECT_DOUBLE_EQ(back.at("list").at(1).as_double(), 2.5);
  // Idempotent: dump(parse(dump(v))) == dump(v).
  EXPECT_EQ(back.dump(), text);
}

TEST(Json, StrictParserRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(JsonValue::parse("'single'"), JsonError);
  EXPECT_THROW(JsonValue::parse("nul"), JsonError);
}

// ---- protocol-facing edge cases ----------------------------------------
// The serve protocol feeds network frames straight into parse(); these
// pin exactly the shapes a hostile or broken peer can produce.

TEST(Json, DeepNestingIsBoundedNotAStackOverflow) {
  // Within the bound: parses fine and round-trips.
  const int ok_depth = 64;
  std::string ok(static_cast<std::size_t>(ok_depth), '[');
  ok += "1";
  ok.append(static_cast<std::size_t>(ok_depth), ']');
  const JsonValue v = JsonValue::parse(ok);
  EXPECT_EQ(JsonValue::parse(v.dump()).dump(), v.dump());

  // Far past the bound: a clean JsonError naming the problem, not UB.
  std::string hostile(100000, '[');
  try {
    JsonValue::parse(hostile);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nested too deeply"),
              std::string::npos);
  }
  // Same bound for objects.
  std::string hostile_obj;
  for (int i = 0; i < 100000; ++i) hostile_obj += "{\"k\":";
  EXPECT_THROW(JsonValue::parse(hostile_obj), JsonError);
}

TEST(Json, EscapedUnicodeRoundTrips) {
  // \uXXXX escapes decode to UTF-8; the writer re-escapes only control
  // characters, so a parse→dump→parse cycle is stable.
  const JsonValue v = JsonValue::parse("\"\\u0041\\u00e9\\u20ac\\u0007\"");
  EXPECT_EQ(v.as_string(),
            "A\xC3\xA9\xE2\x82\xAC\x07");  // A, é, €, BEL
  const JsonValue back = JsonValue::parse(v.dump());
  EXPECT_EQ(back.as_string(), v.as_string());
  // Escapes inside object KEYS round-trip too (the protocol hashes on
  // exact key bytes).
  const JsonValue obj = JsonValue::parse("{\"a\\u0062c\": 1}");
  EXPECT_TRUE(obj.contains("abc"));
  // Malformed escapes are rejected, not decoded permissively.
  EXPECT_THROW(JsonValue::parse("\"\\u12\""), JsonError);    // short
  EXPECT_THROW(JsonValue::parse("\"\\u12g4\""), JsonError);  // bad hex
  EXPECT_THROW(JsonValue::parse("\"\\x41\""), JsonError);    // bad escape
}

TEST(Json, RejectsNanAndInfLiterals) {
  for (const char* bad :
       {"NaN", "nan", "-NaN", "Infinity", "-Infinity", "inf", "-inf",
        "[1, NaN]", "{\"x\": Infinity}"}) {
    EXPECT_THROW(JsonValue::parse(bad), JsonError) << bad;
  }
  // The writer's stand-in for non-finite doubles is null -- pinned so
  // exported metrics can never smuggle a NaN into a consumer.
  JsonValue v = JsonValue::object();
  v["bad"] = std::numeric_limits<double>::quiet_NaN();
  v["worse"] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(v.dump(0), "{\"bad\":null,\"worse\":null}");
}

TEST(Json, TruncatedDocumentsThrowWithOffset) {
  for (const char* bad :
       {"{\"a\"", "{\"a\":", "{\"a\":1,", "[1, 2", "\"unterminated",
        "\"esc\\", "\"u\\u00", "tru", "12e", "-"}) {
    try {
      JsonValue::parse(bad);
      FAIL() << "expected JsonError for: " << bad;
    } catch (const JsonError& e) {
      // Every parse error carries the byte offset for debuggability.
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << bad;
    }
  }
}

TEST(Json, TypedAccessorsThrowOnKindMismatch) {
  const JsonValue v = JsonValue::parse("{\"a\": 1}");
  EXPECT_THROW(v.as_int(), JsonError);
  EXPECT_THROW(v.at("missing"), JsonError);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_TRUE(v.contains("a"));
}

TEST(Json, FileRoundTrip) {
  JsonValue v = JsonValue::object();
  v["x"] = 7;
  const std::string path = ::testing::TempDir() + "obs_test_roundtrip.json";
  std::string error;
  ASSERT_TRUE(write_json_file(path, v, &error)) << error;
  EXPECT_EQ(read_json_file(path).at("x").as_int(), 7);
  std::remove(path.c_str());
  // Unwritable path reports instead of throwing.
  EXPECT_FALSE(write_json_file("/nonexistent-dir/x.json", v, &error));
  EXPECT_FALSE(error.empty());
}

// ---- byte-exact writer output ------------------------------------------
// Served responses, artifact-store documents and cache keys hash these
// exact bytes, so the writer's output is pinned character by character.

TEST(JsonGolden, StringEscapesAndNonFiniteDoubles) {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  s += "\x7f/\"\\\xC3\xA9";  // DEL, slash and UTF-8 pass through raw
  JsonValue v = JsonValue::object();
  v["s"] = s;
  v["nan"] = std::numeric_limits<double>::quiet_NaN();
  v["ninf"] = -std::numeric_limits<double>::infinity();
  const std::string escaped =
      "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      "\x7f/\\\"\\\\\xC3\xA9\"";
  EXPECT_EQ(v.dump(0),
            "{\"s\":" + escaped + ",\"nan\":null,\"ninf\":null}");
  EXPECT_EQ(v.dump(2), "{\n  \"s\": " + escaped +
                           ",\n  \"nan\": null,\n  \"ninf\": null\n}");
  // Escapes in keys, and at both ends of an escape-free run.
  JsonValue k = JsonValue::object();
  k["\"a\tb\n"] = "\\x\\";
  EXPECT_EQ(k.dump(0), "{\"\\\"a\\tb\\n\":\"\\\\x\\\\\"}");
}

TEST(JsonGolden, NestedEmptyContainers) {
  JsonValue v = JsonValue::object();
  v["a"] = JsonValue::array();
  v["b"] = JsonValue::object();
  JsonValue c = JsonValue::array();
  c.push_back(JsonValue::array());
  c.push_back(JsonValue::object());
  JsonValue d = JsonValue::object();
  d["x"] = JsonValue::object();
  c.push_back(std::move(d));
  v["c"] = std::move(c);
  EXPECT_EQ(v.dump(0), "{\"a\":[],\"b\":{},\"c\":[[],{},{\"x\":{}}]}");
  EXPECT_EQ(v.dump(2),
            "{\n"
            "  \"a\": [],\n"
            "  \"b\": {},\n"
            "  \"c\": [\n"
            "    [],\n"
            "    {},\n"
            "    {\n"
            "      \"x\": {}\n"
            "    }\n"
            "  ]\n"
            "}");
  EXPECT_EQ(JsonValue::array().dump(2), "[]");
  EXPECT_EQ(JsonValue().dump(0), "null");
}

TEST(JsonGolden, IntegerExtremesAndShortestRoundTripDoubles) {
  JsonValue n = JsonValue::array();
  n.push_back(std::numeric_limits<long long>::min());
  n.push_back(std::numeric_limits<long long>::max());
  // Beyond long long: stored (and written) as the nearest double.
  n.push_back(std::numeric_limits<unsigned long long>::max());
  n.push_back(0);
  n.push_back(-1);
  n.push_back(true);
  n.push_back(false);
  for (const double x : {0.1, 1.0 / 3, 1e-7, 5e-324, 1.7976931348623157e308,
                         -0.0, 1e21, 100.0, 123456789012.0, 2.5, 1e22,
                         0.000123}) {
    n.push_back(x);
  }
  const char* const items[] = {
      "-9223372036854775808", "9223372036854775807", "18446744073709551616",
      "0", "-1", "true", "false", "0.1", "0.3333333333333333", "1e-07",
      "5e-324", "1.7976931348623157e+308", "-0", "1e+21", "100",
      "123456789012", "2.5", "1e+22", "0.000123"};
  std::string compact = "[", pretty = "[";
  for (std::size_t i = 0; i < std::size(items); ++i) {
    compact += (i ? "," : "") + std::string(items[i]);
    pretty += (i ? ",\n  " : "\n  ") + std::string(items[i]);
  }
  EXPECT_EQ(n.dump(0), compact + "]");
  EXPECT_EQ(n.dump(2), pretty + "\n]");
  // Every double reads back to the same text ("-0" has no fraction or
  // exponent, so it reads back as the integer 0).
  const JsonValue back = JsonValue::parse(n.dump(0));
  for (std::size_t i = 7; i < std::size(items); ++i) {
    const std::string item = items[i];
    EXPECT_EQ(back.at(i).dump(0), item == "-0" ? "0" : item);
  }
}

// ---- parser fast paths -------------------------------------------------

TEST(JsonParse, EscapesAtEveryPositionOfARun) {
  EXPECT_EQ(JsonValue::parse("\"\\nabc\"").as_string(), "\nabc");
  EXPECT_EQ(JsonValue::parse("\"ab\\ncd\"").as_string(), "ab\ncd");
  EXPECT_EQ(JsonValue::parse("\"abc\\n\"").as_string(), "abc\n");
  EXPECT_EQ(JsonValue::parse("\"\\\"\\\\\\/\"").as_string(), "\"\\/");
  EXPECT_EQ(JsonValue::parse("\"\"").as_string(), "");
  EXPECT_EQ(JsonValue::parse("\"x\\u00e9y\\u0041\"").as_string(),
            "x\xC3\xA9yA");
  const JsonValue obj = JsonValue::parse("{\"\\tk\\\"ey\\n\": \"v\"}");
  EXPECT_EQ(obj.members()[0].first, "\tk\"ey\n");
}

TEST(JsonParse, UnterminatedStringInsideARunThrows) {
  for (const char* bad : {"\"abc", "{\"key", "{\"k\":\"abc", "[\"a\\nbc"}) {
    try {
      JsonValue::parse(bad);
      FAIL() << "expected JsonError for: " << bad;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("unterminated string"),
                std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(JsonParse, DuplicateKeysKeepTheLastValueInTheFirstPosition) {
  const JsonValue v = JsonValue::parse("{\"a\":1,\"b\":2,\"a\":{\"c\":3}}");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.members()[0].first, "a");
  EXPECT_EQ(v.members()[1].first, "b");
  EXPECT_EQ(v.dump(0), "{\"a\":{\"c\":3},\"b\":2}");
}

TEST(JsonParse, BridgeProfileRoundTripsByteForByte) {
  // A large real document: c95's 1,000-record AND bridge profile.
  const netlist::Circuit c95 = netlist::make_benchmark("c95");
  const analysis::AnalysisOptions options;
  const JsonValue profile = analysis::profile_to_json(
      analysis::analyze_bridging(c95, fault::BridgeType::And, options),
      analysis::profile_cache_key(c95, "bf.and", options));
  const std::string compact = profile.dump(0);
  ASSERT_GT(compact.size(), 100000u);
  EXPECT_EQ(JsonValue::parse(compact).dump(0), compact);
  const std::string pretty = profile.dump(2);
  EXPECT_EQ(JsonValue::parse(pretty).dump(2), pretty);
}

// ---------------------------------------------------------------------------
// Instruments

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry r;
  r.counter("c").add();
  r.counter("c").add(41);
  EXPECT_EQ(r.counter("c").value(), 42u);

  r.gauge("g").set(2.0);
  r.gauge("g").set_max(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(r.gauge("g").value(), 2.0);
  r.gauge("g").set_max(5.0);  // higher: taken
  EXPECT_DOUBLE_EQ(r.gauge("g").value(), 5.0);
  r.gauge("g").add(0.5);
  EXPECT_DOUBLE_EQ(r.gauge("g").value(), 5.5);
}

TEST(Metrics, TimerAggregates) {
  MetricsRegistry r;
  Timer& t = r.timer("t");
  t.record(0.25);
  t.record(0.75);
  t.record(0.5);
  const Timer::Snapshot s = t.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.total, 1.5);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 0.75);
}

TEST(Metrics, ScopedTimerRecordsOnceEvenWhenMoved) {
  MetricsRegistry r;
  {
    ScopedTimer a = r.scoped_timer("phase");
    ScopedTimer b = std::move(a);  // a is disarmed, b owns the record
    EXPECT_GE(b.stop(), 0.0);
    EXPECT_DOUBLE_EQ(b.stop(), 0.0);  // second stop is a no-op
  }
  EXPECT_EQ(r.timer("phase").snapshot().count, 1u);
}

TEST(Metrics, ScopedTimerMovedFromIsInertAndStopIsIdempotent) {
  MetricsRegistry r;
  ScopedTimer a = r.scoped_timer("phase");
  ScopedTimer b = std::move(a);
  // The moved-from timer must record nothing, however it's poked.
  EXPECT_DOUBLE_EQ(a.stop(), 0.0);
  EXPECT_DOUBLE_EQ(a.stop(), 0.0);
  EXPECT_EQ(r.timer("phase").snapshot().count, 0u);
  EXPECT_GE(b.stop(), 0.0);
  EXPECT_DOUBLE_EQ(b.stop(), 0.0);
  EXPECT_DOUBLE_EQ(b.stop(), 0.0);  // arbitrary further stops stay no-ops
  EXPECT_EQ(r.timer("phase").snapshot().count, 1u);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  MetricsRegistry r;
  Histogram& h = r.histogram("h", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(s.counts[0], 2u);      // 0.5, 1.0 (bucket is <= bound)
  EXPECT_EQ(s.counts[1], 1u);      // 1.5
  EXPECT_EQ(s.counts[2], 1u);      // 3.0
  EXPECT_EQ(s.counts[3], 1u);      // 100.0 overflow
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 106.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Bounds are honored on first creation only.
  EXPECT_EQ(r.histogram("h", {9.0}).snapshot().bounds.size(), 3u);
}

TEST(Metrics, ConcurrentIncrementsSumExactly) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Counter& c = r.counter("hits");
  Gauge& g = r.gauge("sum");
  Timer& t = r.timer("work");
  Histogram& h = r.histogram("dist", {0.25, 0.5, 0.75});
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(1.0);
        t.record(0.001);
        h.observe(0.5);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(t.snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const Histogram::Snapshot hs = h.snapshot();
  EXPECT_EQ(hs.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hs.counts[1], hs.count);  // all samples land in (0.25, 0.5]
}

TEST(Metrics, MergeFromFoldsEverySection) {
  MetricsRegistry a, b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.counter("only_b").add(7);
  a.gauge("peak").set(3.0);
  b.gauge("peak").set(9.0);
  a.timer("t").record(1.0);
  b.timer("t").record(3.0);
  a.histogram("h", {1.0}).observe(0.5);
  b.histogram("h", {1.0}).observe(2.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 3u);
  EXPECT_EQ(a.counter("only_b").value(), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("peak").value(), 9.0);  // gauges take the max
  const Timer::Snapshot t = a.timer("t").snapshot();
  EXPECT_EQ(t.count, 2u);
  EXPECT_DOUBLE_EQ(t.min, 1.0);
  EXPECT_DOUBLE_EQ(t.max, 3.0);
  const Histogram::Snapshot h = a.histogram("h", {1.0}).snapshot();
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
}

TEST(Metrics, ToJsonShapeIsSortedAndComplete) {
  MetricsRegistry r;
  r.counter("b.count").add(2);
  r.counter("a.count").add(1);
  r.gauge("nodes").set(12.5);
  r.timer("phase.x").record(0.5);
  r.histogram("lat", {1.0}).observe(0.25);
  r.histogram("lat", {1.0}).observe(5.0);

  const JsonValue j = r.to_json();
  ASSERT_TRUE(j.is_object());
  // Fixed section order...
  ASSERT_EQ(j.members().size(), 4u);
  EXPECT_EQ(j.members()[0].first, "counters");
  EXPECT_EQ(j.members()[1].first, "gauges");
  EXPECT_EQ(j.members()[2].first, "timers");
  EXPECT_EQ(j.members()[3].first, "histograms");
  // ...and sorted names inside each section.
  EXPECT_EQ(j.at("counters").members()[0].first, "a.count");
  EXPECT_EQ(j.at("counters").members()[1].first, "b.count");
  EXPECT_EQ(j.at("counters").at("b.count").as_int(), 2);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("nodes").as_double(), 12.5);

  const JsonValue& timer = j.at("timers").at("phase.x");
  EXPECT_EQ(timer.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(timer.at("total_s").as_double(), 0.5);
  EXPECT_TRUE(timer.contains("min_s"));
  EXPECT_TRUE(timer.contains("max_s"));

  const JsonValue& hist = j.at("histograms").at("lat");
  EXPECT_EQ(hist.at("count").as_int(), 2);
  ASSERT_EQ(hist.at("buckets").size(), 2u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").at(0).at("le").as_double(), 1.0);
  EXPECT_EQ(hist.at("buckets").at(0).at("count").as_int(), 1);
  EXPECT_EQ(hist.at("buckets").at(1).at("le").as_string(), "inf");

  // The whole document survives a serialize/parse cycle.
  EXPECT_EQ(JsonValue::parse(j.dump()).dump(), j.dump());
}

TEST(Metrics, HistogramQuantilesAreExactNearestRank) {
  MetricsRegistry r;
  Histogram& h = r.histogram("lat", {5.0});
  // Insert out of order: quantiles must sort, not trust insertion order.
  for (double v : {7.0, 2.0, 10.0, 1.0, 5.0, 3.0, 9.0, 4.0, 8.0, 6.0}) {
    h.observe(v);
  }
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.samples.size(), 10u);
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 5.0);  // rank ceil(5)-1 over 1..10
  EXPECT_DOUBLE_EQ(s.quantile(0.90), 9.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);

  const JsonValue j = r.to_json();
  const JsonValue& hist = j.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(hist.at("p50").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(hist.at("p90").as_double(), 9.0);
  EXPECT_DOUBLE_EQ(hist.at("p99").as_double(), 10.0);
}

TEST(Metrics, HistogramMergeConcatenatesSamplesSoQuantilesStayExact) {
  MetricsRegistry a, b;
  for (double v : {1.0, 2.0, 3.0}) a.histogram("h", {10.0}).observe(v);
  for (double v : {100.0, 200.0, 300.0}) {
    b.histogram("h", {10.0}).observe(v);
  }
  a.merge_from(b);
  const Histogram::Snapshot s = a.histogram("h", {10.0}).snapshot();
  ASSERT_EQ(s.samples.size(), 6u);
  // Union quantiles, not a bucket interpolation: the p50 of
  // {1,2,3,100,200,300} is 3, which no bucket-midpoint scheme produces
  // with one coarse bound at 10.
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 300.0);
}

// ---------------------------------------------------------------------------
// Spans

TEST(Span, NestedSpansParentViaThreadLocalStack) {
  SpanCollector c(16);
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    ScopedSpan outer(&c, "outer");
    ASSERT_TRUE(outer.enabled());
    outer_id = outer.id();
    {
      ScopedSpan inner(&c, "inner");
      inner_id = inner.id();
      EXPECT_NE(inner_id, outer_id);
    }
  }
  const SpanCollector::Snapshot s = c.snapshot();
  ASSERT_EQ(s.spans.size(), 2u);
  EXPECT_EQ(s.recorded, 2u);
  EXPECT_EQ(s.dropped, 0u);
  // Chronological by start: outer opened first.
  EXPECT_EQ(s.spans[0].name, "outer");
  EXPECT_EQ(s.spans[0].parent, 0u);
  EXPECT_EQ(s.spans[1].name, "inner");
  EXPECT_EQ(s.spans[1].parent, outer_id);
  EXPECT_EQ(s.spans[1].id, inner_id);
  // The inner interval nests inside the outer one.
  EXPECT_GE(s.spans[1].start_ns, s.spans[0].start_ns);
  EXPECT_LE(s.spans[1].start_ns + s.spans[1].dur_ns,
            s.spans[0].start_ns + s.spans[0].dur_ns);
}

TEST(Span, ExplicitParentCrossesThreadsAndChildrenNestLocally) {
  SpanCollector c(16);
  std::uint64_t root_id = 0, worker_id = 0;
  {
    ScopedSpan root(&c, "sweep");
    root_id = root.id();
    std::thread worker([&] {
      ScopedSpan w(&c, "worker", root.id());
      worker_id = w.id();
      ScopedSpan child(&c, "fault");  // nests under w via the local stack
    });
    worker.join();
  }
  const SpanCollector::Snapshot s = c.snapshot();
  ASSERT_EQ(s.spans.size(), 3u);
  EXPECT_EQ(s.threads, 2u);
  std::uint64_t fault_parent = 0, worker_parent = 0;
  std::uint32_t worker_tid = 0, root_tid = 0;
  for (const SpanRecord& r : s.spans) {
    if (r.name == "fault") fault_parent = r.parent;
    if (r.name == "worker") {
      worker_parent = r.parent;
      worker_tid = r.tid;
    }
    if (r.name == "sweep") root_tid = r.tid;
  }
  EXPECT_EQ(worker_parent, root_id);
  EXPECT_EQ(fault_parent, worker_id);
  EXPECT_NE(worker_tid, root_tid);
}

TEST(Span, AttrsSurviveToSnapshotAndJson) {
  SpanCollector c(16);
  {
    ScopedSpan s(&c, "op");
    s.attr("faults", std::size_t{42});
    s.attr("rate", 0.5);
    s.attr("site", "n1 sa0");
  }
  const SpanCollector::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  ASSERT_EQ(snap.spans[0].attrs.size(), 3u);
  EXPECT_EQ(snap.spans[0].attrs[0].key, "faults");
  EXPECT_EQ(snap.spans[0].attrs[0].i, 42);
  EXPECT_DOUBLE_EQ(snap.spans[0].attrs[1].f, 0.5);
  EXPECT_EQ(snap.spans[0].attrs[2].text, "n1 sa0");

  const JsonValue j = c.to_json();
  ASSERT_EQ(j.at("events").size(), 1u);
  const JsonValue& args = j.at("events").at(0).at("args");
  EXPECT_EQ(args.at("faults").as_int(), 42);
  EXPECT_DOUBLE_EQ(args.at("rate").as_double(), 0.5);
  EXPECT_EQ(args.at("site").as_string(), "n1 sa0");
}

TEST(Span, ScopedSpanRecordsOnceEvenWhenMoved) {
  SpanCollector c(16);
  {
    ScopedSpan a(&c, "phase");
    ScopedSpan b = std::move(a);  // a is disarmed, b owns the record
    EXPECT_FALSE(a.enabled());
    EXPECT_EQ(a.id(), 0u);
    EXPECT_TRUE(b.enabled());
    a.stop();  // no-op on the moved-from span
    b.stop();
    b.stop();  // second stop is a no-op, mirroring ScopedTimer
    EXPECT_FALSE(b.enabled());
  }
  const SpanCollector::Snapshot s = c.snapshot();
  ASSERT_EQ(s.spans.size(), 1u);
  EXPECT_EQ(s.recorded, 1u);
}

TEST(Span, NullCollectorIsANoOp) {
  ScopedSpan s(nullptr, "anything");
  EXPECT_FALSE(s.enabled());
  EXPECT_EQ(s.id(), 0u);
  s.attr("k", 1);  // must not crash
  s.stop();
  s.stop();
}

TEST(Span, InstallAndCurrentLifecycle) {
  EXPECT_EQ(SpanCollector::current(), nullptr);
  {
    SpanCollector c(16);
    SpanCollector::install(&c);
    EXPECT_EQ(SpanCollector::current(), &c);
    // The destructor uninstalls itself if still current.
  }
  EXPECT_EQ(SpanCollector::current(), nullptr);
}

TEST(Span, PerThreadRingWrapDropsOldestAndCounts) {
  SpanCollector c(4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan s(&c, "s" + std::to_string(i));
  }
  const SpanCollector::Snapshot snap = c.snapshot();
  EXPECT_EQ(snap.recorded, 10u);
  EXPECT_EQ(snap.dropped, 6u);
  ASSERT_EQ(snap.spans.size(), 4u);
  // The tail survives, chronologically.
  EXPECT_EQ(snap.spans.front().name, "s6");
  EXPECT_EQ(snap.spans.back().name, "s9");
  for (std::size_t i = 1; i < snap.spans.size(); ++i) {
    EXPECT_GE(snap.spans[i].start_ns, snap.spans[i - 1].start_ns);
  }
}

TEST(Span, ConcurrentRecordingMergesChronologically) {
  SpanCollector c(1u << 10);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) ScopedSpan s(&c, "m");
    });
  }
  for (std::thread& th : threads) th.join();
  const SpanCollector::Snapshot snap = c.snapshot();
  EXPECT_EQ(snap.recorded,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.threads, static_cast<std::size_t>(kThreads));
  ASSERT_EQ(snap.spans.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::size_t i = 1; i < snap.spans.size(); ++i) {
    EXPECT_GE(snap.spans[i].start_ns, snap.spans[i - 1].start_ns);
  }
}

TEST(Span, MakeTraceDocumentShape) {
  SpanCollector c(16);
  { ScopedSpan s(&c, "phase.total"); }
  const JsonValue doc =
      make_trace_document("bench", "unit", 2, c, JsonValue(), 0.5);
  EXPECT_EQ(doc.at("schema").as_string(), "dp.trace.v1");
  EXPECT_EQ(doc.at("bench").as_string(), "unit");
  EXPECT_EQ(doc.at("jobs").as_int(), 2);
  EXPECT_DOUBLE_EQ(doc.at("wall_seconds").as_double(), 0.5);
  EXPECT_EQ(doc.at("spans").at("recorded").as_int(), 1);
  EXPECT_EQ(doc.at("spans").at("dropped").as_int(), 0);
  ASSERT_EQ(doc.at("spans").at("events").size(), 1u);
  EXPECT_FALSE(doc.contains("profile"));  // null profile omits the section
  // The Chrome mirror carries at least the thread-name metadata event
  // plus one complete ("X") event per span.
  const JsonValue& te = doc.at("traceEvents");
  ASSERT_TRUE(te.is_array());
  ASSERT_GE(te.size(), 2u);
  bool saw_complete = false;
  for (std::size_t i = 0; i < te.size(); ++i) {
    if (te.at(i).at("ph").as_string() == "X") {
      saw_complete = true;
      EXPECT_EQ(te.at(i).at("name").as_string(), "phase.total");
    }
  }
  EXPECT_TRUE(saw_complete);
  // Round-trips through the parser (the file the benches write).
  EXPECT_EQ(JsonValue::parse(doc.dump()).dump(), doc.dump());
}

// ---------------------------------------------------------------------------
// Sampling profiler

namespace {
class FixedSource : public ProfileSource {
 public:
  void profile_sample(
      std::vector<std::pair<std::string, double>>& out) const override {
    out.emplace_back("test.fixed_gauge", 17.0);
  }
};
}  // namespace

TEST(Profiler, CollectsRegisteredSourcesIntoSeries) {
  FixedSource source;
  SourceRegistry::instance().add(&source);
  SamplingProfiler profiler(std::chrono::milliseconds(1000));
  profiler.sample_now();
  profiler.sample_now();
  SourceRegistry::instance().remove(&source);
  // After remove() returns the profiler can no longer touch the source.
  const JsonValue j = profiler.to_json();
  EXPECT_GE(j.at("ticks").as_int(), 2);
  const JsonValue& series = j.at("series");
  ASSERT_TRUE(series.is_array());
  bool found = false;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const JsonValue& s = series.at(i);
    if (s.at("name").as_string() != "test.fixed_gauge") continue;
    found = true;
    ASSERT_EQ(s.at("samples").size(), 2u);
    EXPECT_DOUBLE_EQ(
        s.at("samples").at(0).at(std::size_t{1}).as_double(), 17.0);
  }
  EXPECT_TRUE(found);
  // The process RSS gauge is always present.
  bool rss = false;
  for (std::size_t i = 0; i < series.size(); ++i) {
    rss |= series.at(i).at("name").as_string() == "process.rss_mb";
  }
  EXPECT_TRUE(rss);
}

}  // namespace
}  // namespace dp::obs
