#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mpc/stats.h"
#include "obs/audit/audit.h"
#include "obs/audit/catalog.h"
#include "obs/audit/causal.h"
#include "obs/bench_report.h"
#include "obs/chrome_trace.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sa/plan/agreement.h"

namespace lamp::obs {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zeta", 1);
  obj.Set("alpha", 2);
  obj.Set("mid", 3);
  EXPECT_EQ(obj.Dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Replacing keeps the original position.
  obj.Set("zeta", 9);
  EXPECT_EQ(obj.Dump(), "{\"zeta\":9,\"alpha\":2,\"mid\":3}");
}

TEST(JsonTest, EscapingSpecialCharacters) {
  EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJson("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(EscapeJson(std::string_view("\x01", 1)), "\\u0001");
  // A string containing every escape class round-trips through
  // Dump -> Parse.
  const std::string nasty = "quote\" back\\slash \n\r\t ctrl\x02 utf8 \xC3\xA9";
  const JsonValue v(nasty);
  const auto parsed = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), nasty);
}

TEST(JsonTest, ParseUnicodeEscapes) {
  const auto bmp = JsonValue::Parse("\"\\u00e9\"");
  ASSERT_TRUE(bmp.has_value());
  EXPECT_EQ(bmp->AsString(), "\xC3\xA9");  // e-acute as UTF-8.
  // Surrogate pair: U+1F600.
  const auto astral = JsonValue::Parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(astral.has_value());
  EXPECT_EQ(astral->AsString(), "\xF0\x9F\x98\x80");
  // Lone high surrogate is rejected.
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\"").has_value());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(JsonValue::Parse("1 trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("'single'").has_value());
  EXPECT_FALSE(JsonValue::Parse("nul").has_value());
}

TEST(JsonTest, ExactIntegersRoundTrip) {
  const std::int64_t big = 9007199254740993;  // 2^53 + 1: not a double.
  JsonValue v(big);
  const auto parsed = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsInt(), big);

  // Numbers beyond int64 (strtoll rejects the last one, strtod takes it)
  // saturate instead of hitting an undefined double-to-int cast.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const auto& [text, want] :
       std::vector<std::pair<std::string, std::int64_t>>{
           {"1e300", kMax},
           {"-1e30", kMin},
           {"99999999999999999999", kMax},
           {"-99999999999999999999", kMin},
           {"-9223372036854775808", kMin},
           {"1.5", 1}}) {
    const auto value = JsonValue::Parse(text);
    ASSERT_TRUE(value.has_value()) << text;
    EXPECT_EQ(value->AsInt(), want) << text;
  }
}

TEST(JsonTest, NestedRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", "bench");
  JsonValue arr = JsonValue::Array();
  arr.PushBack(1);
  arr.PushBack(2.5);
  arr.PushBack(JsonValue());
  obj.Set("xs", std::move(arr));
  JsonValue inner = JsonValue::Object();
  inner.Set("flag", true);
  obj.Set("inner", std::move(inner));

  const auto parsed = JsonValue::Parse(obj.Dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Dump(), obj.Dump());
  const JsonValue* xs = parsed->Find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_EQ(xs->at(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(xs->at(1).AsDouble(), 2.5);
  EXPECT_TRUE(xs->at(2).IsNull());
}

TEST(JsonTest, ParseBoundsNestingDepth) {
  // A megabyte of '[' used to recurse the parser off the stack.
  EXPECT_FALSE(JsonValue::Parse(std::string(1 << 20, '[')).has_value());
  EXPECT_FALSE(JsonValue::Parse(std::string(1 << 20, '{')).has_value());
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(JsonValue::Parse(nested(kMaxJsonDepth)).has_value());
  EXPECT_FALSE(JsonValue::Parse(nested(kMaxJsonDepth + 1)).has_value());
}

// ------------------------------------------------------------- Metrics --

TEST(MetricsTest, CounterAndGauge) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.Empty());
  EXPECT_EQ(registry.CounterValue("absent"), 0u);

  registry.GetCounter("c").Increment();
  registry.GetCounter("c").Add(4);
  EXPECT_EQ(registry.CounterValue("c"), 5u);

  Gauge& g = registry.GetGauge("g");
  g.Max(3.0);
  g.Max(1.0);  // Not larger: ignored.
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.Set(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);

  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindHistogram("c"), nullptr);
  EXPECT_FALSE(registry.Empty());
}

TEST(MetricsTest, EmptyHistogramIsAllZero) {
  // Every accessor is a total function on the empty histogram (the
  // documented contract in metrics.h): all-zero, never a crash or NaN,
  // including the percentile edge values and out-of-range q (clamped).
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  for (double q : {0.0, 50.0, 100.0, -3.0, 250.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(q), 0.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.P50(), 0.0);
  EXPECT_DOUBLE_EQ(h.P95(), 0.0);
  EXPECT_DOUBLE_EQ(h.P99(), 0.0);
  // Serialisation of the empty histogram is well-formed, not garbage.
  const JsonValue snapshot = h.ToJson();
  ASSERT_TRUE(snapshot.IsObject());
  const JsonValue* count = snapshot.Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->Dump(), "0");
}

TEST(MetricsTest, PercentileClampsOutOfRangeQ) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(-10.0), h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(h.Percentile(1000.0), 3.0);
}

TEST(MetricsTest, HistogramPercentilesMatchSortedReference) {
  // Compare against the definition directly: nearest rank on the fully
  // sorted sample.
  Rng rng(99);
  Histogram h;
  std::vector<double> reference;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>(rng.Uniform(100000));
    h.Observe(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());
  for (double q : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(reference.size())));
    rank = std::max<std::size_t>(rank, 1);
    EXPECT_DOUBLE_EQ(h.Percentile(q), reference[rank - 1]) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.Min(), reference.front());
  EXPECT_DOUBLE_EQ(h.Max(), reference.back());
  EXPECT_EQ(h.Count(), reference.size());
}

TEST(MetricsTest, HistogramInterleavesObserveAndQuery) {
  // Percentile sorts lazily; observing after a query must invalidate the
  // sorted view.
  Histogram h;
  h.Observe(10.0);
  h.Observe(5.0);
  EXPECT_DOUBLE_EQ(h.P50(), 5.0);
  h.Observe(1.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 10.0);
}

TEST(MetricsTest, RegistryToJsonIsFlatAndTyped) {
  MetricsRegistry registry;
  registry.GetCounter("net.transitions").Add(12);
  registry.GetGauge("mpc.max_load").Max(847.0);
  registry.GetHistogram("mpc.round.max_load").Observe(847.0);

  const JsonValue snapshot = registry.ToJson();
  ASSERT_TRUE(snapshot.IsObject());
  const JsonValue* transitions = snapshot.Find("net.transitions");
  ASSERT_NE(transitions, nullptr);
  EXPECT_EQ(transitions->AsInt(), 12);
  const JsonValue* hist = snapshot.Find("mpc.round.max_load");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->IsObject());
  EXPECT_EQ(hist->Find("count")->AsInt(), 1);
  EXPECT_DOUBLE_EQ(hist->Find("p50")->AsDouble(), 847.0);
}

// -------------------------------------------------------------- Tracer --

TEST(TracerTest, RingWrapsAndCountsDrops) {
  Tracer tracer(/*capacity=*/4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.Emit(EventKind::kMpcRoundBegin, i, 0, i * 100);
  }
  EXPECT_EQ(tracer.total_emitted(), 10u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);

  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: the last four emits (a = 6, 7, 8, 9).
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, 6 + i);
    EXPECT_EQ(events[i].value, (6 + i) * 100u);
  }
}

TEST(TracerTest, EventsBelowCapacityKeepOrder) {
  Tracer tracer(/*capacity=*/8);
  tracer.Emit(EventKind::kNetStart, 3, 0, 0);
  tracer.Emit(EventKind::kNetBroadcast, 3, 0, 5);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kNetStart);
  EXPECT_EQ(events[1].kind, EventKind::kNetBroadcast);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
}

TEST(TracerTest, ClearResets) {
  Tracer tracer(4);
  tracer.Emit(EventKind::kNetStart, 0, 0, 0);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_emitted(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(TracerTest, InstallationIsScopedAndNested) {
  EXPECT_EQ(InstalledTracer(), nullptr);
  Tracer outer;
  {
    ScopedTracer a(outer);
    EXPECT_EQ(InstalledTracer(), &outer);
    Tracer inner;
    {
      ScopedTracer b(inner);
      EXPECT_EQ(InstalledTracer(), &inner);
      Emit(EventKind::kNetStart, 1);
    }
    EXPECT_EQ(InstalledTracer(), &outer);
    EXPECT_EQ(inner.total_emitted(), 1u);
    EXPECT_EQ(outer.total_emitted(), 0u);
  }
  EXPECT_EQ(InstalledTracer(), nullptr);
}

TEST(TracerTest, NullSinkRecordsNothingAndIsCheap) {
  ASSERT_EQ(InstalledTracer(), nullptr);
  // A TraceSpan without a sink reads no clock and emits nothing; the free
  // Emit is a load + branch. 10M no-op emits finishing quickly (seconds,
  // vs minutes if each did work) is a coarse smoke check that the fast
  // path stays trivial.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10'000'000; ++i) {
    TraceSpan span("noop", 0);
    Emit(EventKind::kMpcServerLoad, 0, 0, 42);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(TracerTest, SpanOutlivingScopedTracerIsDroppedSafely) {
  // The span captures the installed tracer at construction. If the
  // installation changes before the span ends, emitting through the
  // captured pointer could dangle — the destructor must notice and drop
  // the event instead.
  auto tracer = std::make_unique<Tracer>();
  auto install = std::make_unique<ScopedTracer>(*tracer);
  auto span = std::make_unique<TraceSpan>("outlives", 1);
  install.reset();  // Uninstalls; the span's pointer is now stale.
  tracer.reset();   // And now dangling.
  span.reset();     // Must not crash, must not emit.

  // A different tracer installed in between must not receive the span
  // either: the event belongs to the uninstalled recording.
  Tracer replacement;
  Tracer original;
  {
    ScopedTracer outer(original);
    auto inner_span = std::make_unique<TraceSpan>("swapped", 2);
    ScopedTracer swap(replacement);
    inner_span.reset();
  }
  EXPECT_EQ(original.total_emitted(), 0u);
  EXPECT_EQ(replacement.total_emitted(), 0u);

  // The unchanged-installation case still records.
  Tracer stable;
  {
    ScopedTracer install_stable(stable);
    TraceSpan span_ok("ok", 3);
  }
  EXPECT_EQ(stable.total_emitted(), 1u);
}

TEST(TracerTest, TraceToJsonSchema) {
  Tracer tracer(8);
  {
    ScopedTracer install(tracer);
    Emit(EventKind::kMpcRoundBegin, 0, 0, 16);
    Emit(EventKind::kMpcServerLoad, 0, 3, 250);
    { TraceSpan span("mpc.route", 0); }
  }
  const JsonValue json = TraceToJson(tracer);
  EXPECT_EQ(json.Find("schema")->AsString(), "lamp.trace.v1");
  EXPECT_EQ(json.Find("total_emitted")->AsInt(), 3);
  EXPECT_EQ(json.Find("dropped")->AsInt(), 0);
  EXPECT_EQ(json.Find("shards")->AsInt(), 1);
  const JsonValue* events = json.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ(events->at(0).Find("kind")->AsString(), "mpc.round_begin");
  EXPECT_EQ(events->at(0).Find("shard")->AsInt(), 0);
  EXPECT_EQ(events->at(1).Find("kind")->AsString(), "mpc.server_load");
  EXPECT_EQ(events->at(1).Find("b")->AsInt(), 3);
  EXPECT_EQ(events->at(2).Find("kind")->AsString(), "span");
  EXPECT_EQ(events->at(2).Find("label")->AsString(), "mpc.route");
  // The serialised trace parses back.
  EXPECT_TRUE(JsonValue::Parse(TraceToJson(tracer).Dump()).has_value());
}

TEST(TracerTest, EventCodecPinsKeyOrderAndRoundTrips) {
  TraceEvent e;
  e.t_ns = 12;
  e.kind = EventKind::kNetDeliver;
  e.a = 3;
  e.b = 4;
  e.value = 5;
  // Shard files omit "shard"; trace documents put it before "label".
  EXPECT_EQ(EventToJson(e).Dump(),
            R"({"t_ns":12,"kind":"net.deliver","a":3,"b":4,"value":5})");
  e.label = "l";
  EXPECT_EQ(EventToJson(e, 2).Dump(),
            R"({"t_ns":12,"kind":"net.deliver","a":3,"b":4,"value":5,)"
            R"("shard":2,"label":"l"})");
  const EventRecord back = EventFromJson(EventToJson(e, 2));
  EXPECT_EQ(back.t_ns, 12u);
  EXPECT_EQ(back.kind, "net.deliver");
  EXPECT_EQ(back.a, 3u);
  EXPECT_EQ(back.b, 4u);
  EXPECT_EQ(back.value, 5u);
  EXPECT_EQ(back.label, "l");
  // Absent or mistyped fields read as zero / empty.
  const auto odd = JsonValue::Parse(R"({"t_ns":"x","kind":7,"a":[1]})");
  ASSERT_TRUE(odd.has_value());
  const EventRecord zero = EventFromJson(*odd);
  EXPECT_EQ(zero.t_ns, 0u);
  EXPECT_EQ(zero.kind, "");
  EXPECT_EQ(zero.a, 0u);
  EXPECT_TRUE(EventsFromJson(JsonValue::Object()).empty());
}

// ------------------------------------------------------- BenchReporter --

TEST(BenchReporterTest, RecordsRenderAsUniformJsonLines) {
  BenchReporter reporter("unit_test_bench");
  MetricsRegistry registry;
  registry.GetCounter("mpc.rounds").Add(2);
  reporter.NewRecord()
      .Param("p", 64)
      .Param("query", "triangle")
      .Metrics(registry)
      .Metric("predicted", 123.5)
      .WallMs(4.25);
  reporter.NewRecord().Param("p", 256).WallMs(9.0);
  ASSERT_EQ(reporter.NumRecords(), 2u);

  std::istringstream lines(reporter.RenderJsonLines());
  std::string line;
  std::vector<JsonValue> records;
  while (std::getline(lines, line)) {
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    records.push_back(std::move(*parsed));
  }
  ASSERT_EQ(records.size(), 2u);
  for (const JsonValue& rec : records) {
    // The uniform shape: bench, params, metrics, threads, repeat,
    // wall_ms, wall_ns — in order ("meta" only with LAMP_BENCH_META).
    ASSERT_EQ(rec.members().size(), 7u);
    EXPECT_EQ(rec.members()[0].first, "bench");
    EXPECT_EQ(rec.members()[1].first, "params");
    EXPECT_EQ(rec.members()[2].first, "metrics");
    EXPECT_EQ(rec.members()[3].first, "threads");
    EXPECT_EQ(rec.members()[4].first, "repeat");
    EXPECT_EQ(rec.members()[5].first, "wall_ms");
    EXPECT_EQ(rec.members()[6].first, "wall_ns");
    EXPECT_EQ(rec.Find("bench")->AsString(), "unit_test_bench");
    EXPECT_GE(rec.Find("threads")->AsInt(), 1);
    EXPECT_GE(rec.Find("repeat")->AsInt(), 0);
  }
  EXPECT_EQ(records[0].Find("params")->Find("p")->AsInt(), 64);
  EXPECT_EQ(records[0].Find("metrics")->Find("mpc.rounds")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(records[0].Find("metrics")->Find("predicted")->AsDouble(),
                   123.5);
  EXPECT_DOUBLE_EQ(records[0].Find("wall_ms")->AsDouble(), 4.25);
  EXPECT_EQ(records[0].Find("wall_ns")->AsInt(), 4250000);
}

TEST(BenchReporterTest, FlushAppendsToEnvSelectedFile) {
  const std::string path =
      ::testing::TempDir() + "/lamp_bench_report_test.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv(kBenchJsonEnvVar, path.c_str(), /*overwrite=*/1), 0);
  {
    BenchReporter reporter("env_file_bench");
    reporter.NewRecord().Param("p", 8).WallMs(1.0);
    reporter.Flush();
    EXPECT_EQ(reporter.NumRecords(), 0u);  // Flush clears.
    reporter.NewRecord().Param("p", 16).WallMs(2.0);
    // Second batch flushes via the destructor and appends.
  }
  ASSERT_EQ(unsetenv(kBenchJsonEnvVar), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<std::int64_t> ps;
  while (std::getline(in, line)) {
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ps.push_back(parsed->Find("params")->Find("p")->AsInt());
  }
  EXPECT_EQ(ps, (std::vector<std::int64_t>{8, 16}));
  std::remove(path.c_str());
}

TEST(BenchReporterTest, FlushFallsBackToStdoutWhenFileUnopenable) {
  // Records must never be dropped: pointing LAMP_BENCH_JSON into a
  // directory that does not exist sends them down the stdout path.
  ASSERT_EQ(setenv(kBenchJsonEnvVar,
                   "/nonexistent-dir-for-lamp-test/bench.json", 1),
            0);
  ::testing::internal::CaptureStdout();
  {
    BenchReporter reporter("fallback_bench");
    reporter.NewRecord().Param("p", 4).WallMs(1.0);
  }
  const std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(unsetenv(kBenchJsonEnvVar), 0);
  EXPECT_NE(out.find("# bench-json:"), std::string::npos) << out;
  EXPECT_NE(out.find("\"bench\":\"fallback_bench\""), std::string::npos)
      << out;
}

TEST(BenchReporterTest, RepeatIndexIsStamped) {
  SetBenchRepeatIndex(2);
  BenchReporter reporter("repeat_bench");
  reporter.NewRecord().Param("p", 1).WallMs(1.0);
  SetBenchRepeatIndex(0);
  const std::string lines = reporter.RenderJsonLines();
  const auto rec = JsonValue::Parse(lines.substr(0, lines.find('\n')));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->Find("repeat")->AsInt(), 2);
  {
    // Drain without writing to the environment-selected file.
    ::testing::internal::CaptureStdout();
    reporter.Flush();
    ::testing::internal::GetCapturedStdout();
  }
}

// -------------------------------------------------------- LoadBenchFile --

std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  return path;
}

TEST(LoadBenchFileTest, ReadsJsonLinesAndRunnerDocuments) {
  const std::string lines = WriteTempFile(
      "lamp_load_lines.jsonl",
      "# bench-json: 2 record(s) for b\n"
      "{\"bench\":\"b\",\"audit\":[{\"n\":1},{\"n\":2}]}\n"
      "\n"
      "{\"bench\":\"b\",\"plan\":[{\"n\":3}]}\n");
  const std::string report = WriteTempFile(
      "lamp_load_report.json",
      "{\"schema\":\"lamp.bench_report.v1\",\"summaries\":[],\n"
      " \"records\":[{\"bench\":\"b\",\"audit\":[{\"n\":4}]}]}\n");
  const std::string baseline = WriteTempFile(
      "lamp_load_baseline.json",
      "{\"schema\":\"lamp.perf_baseline.v1\",\"summaries\":[]}");
  std::string error;

  const std::optional<BenchFile> from_lines = LoadBenchFile(lines, &error);
  ASSERT_TRUE(from_lines.has_value()) << error;
  EXPECT_EQ(from_lines->records.size(), 2u);
  EXPECT_TRUE(from_lines->summaries.IsNull());
  const std::optional<BenchFile> from_report = LoadBenchFile(report, &error);
  ASSERT_TRUE(from_report.has_value()) << error;
  EXPECT_EQ(from_report->records.size(), 1u);
  EXPECT_TRUE(from_report->summaries.IsArray());
  const std::optional<BenchFile> from_baseline =
      LoadBenchFile(baseline, &error);
  ASSERT_TRUE(from_baseline.has_value()) << error;
  EXPECT_TRUE(from_baseline->records.empty());

  const auto audit = LoadAttachedEntries({lines, report}, "audit", &error);
  ASSERT_TRUE(audit.has_value()) << error;
  ASSERT_EQ(audit->size(), 3u);
  EXPECT_EQ((*audit)[2].Find("n")->AsInt(), 4);
  const auto plan = LoadAttachedEntries({lines, report}, "plan", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->size(), 1u);
  for (const std::string& path : {lines, report, baseline}) {
    std::remove(path.c_str());
  }
}

TEST(LoadBenchFileTest, RejectsWhatAGateWouldOtherwiseDrop) {
  std::string error;
  EXPECT_FALSE(LoadBenchFile(::testing::TempDir() + "/lamp_no_such_file",
                             &error)
                   .has_value());
  const std::string truncated = WriteTempFile(
      "lamp_load_truncated.jsonl",
      "{\"bench\":\"b\"}\n{\"bench\":\"b\",\"plan\":[{\"n\":1}\n");
  EXPECT_FALSE(LoadBenchFile(truncated, &error).has_value());
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;
  const std::string not_object =
      WriteTempFile("lamp_load_array.jsonl", "{\"bench\":\"b\"}\n[1]\n");
  EXPECT_FALSE(LoadBenchFile(not_object, &error).has_value());
  const std::string bad_entries = WriteTempFile(
      "lamp_load_entries.jsonl",
      "{\"bench\":\"b\",\"audit\":5}\n{\"bench\":\"b\",\"plan\":[1]}\n");
  EXPECT_FALSE(LoadAttachedEntries({bad_entries}, "audit", &error));
  EXPECT_FALSE(LoadAttachedEntries({bad_entries}, "plan", &error));
  for (const std::string& path : {truncated, not_object, bad_entries}) {
    std::remove(path.c_str());
  }
}

// --------------------------------------- seeded record mutation test --

// A dumped audit record, agreement record and bench record carrying
// both, with seeded loads, labels and race outcomes.
std::vector<std::string> MutationCorpus(Rng& rng) {
  using audit::Strategy;
  RunStats stats;
  for (std::size_t r = 1 + rng.Uniform(3); r > 0; --r) {
    RoundStats round;
    for (std::size_t s = 1 + rng.Uniform(5); s > 0; --s) {
      round.received.push_back(rng.Uniform(1000));
      round.wire_bytes.push_back(rng.Uniform(100000));
    }
    stats.rounds.push_back(std::move(round));
  }
  audit::LoadBound bound;
  bound.has_bound = rng.Uniform(2) == 0;
  bound.tuples = rng.UniformDouble() * 500.0;
  bound.formula = "m/p";
  audit::AuditRecord audit_record = audit::MakeAuditRecord(
      "bench_" + std::to_string(rng.Uniform(10)), "label/\"q\"\u00e9",
      Strategy::kRepartition, 1 + rng.Uniform(64), bound, stats);
  audit_record.expected_violation = rng.Uniform(2) == 0;

  sa::plan::AgreementRecord agreement;
  agreement.bench = "join_strategies";
  agreement.label = "skewed/p=" + std::to_string(rng.Uniform(256));
  agreement.p = 1 + rng.Uniform(256);
  agreement.predicted = Strategy::kHyperCube;
  agreement.measured = rng.Uniform(2) == 0 ? Strategy::kHyperCube
                                           : Strategy::kSharesSkew;
  for (const Strategy s : {Strategy::kHyperCube, Strategy::kSharesSkew}) {
    agreement.outcomes.push_back(
        {s, static_cast<double>(rng.Uniform(5000))});
    agreement.predicted_loads.push_back(rng.UniformDouble() * 5000.0);
  }

  BenchReporter reporter("mutation_bench");
  reporter.NewRecord()
      .Param("p", agreement.p)
      .Metric("mpc.max_load", audit_record.measured_max_load)
      .WallNs(rng.Uniform(1000000))
      .Attach("audit", audit_record.ToJson())
      .Attach("plan", agreement.ToJson());
  std::string bench_line = reporter.RenderJsonLines();
  bench_line.pop_back();  // The trailing newline.
  {
    ::testing::internal::CaptureStdout();  // Drain, don't print.
    reporter.Flush();
    ::testing::internal::GetCapturedStdout();
  }
  return {audit_record.ToJson().Dump(), agreement.ToJson().Dump(),
          bench_line};
}

// Every decoder a gate runs over a parsed value, for crash coverage.
void DecodeEverything(const JsonValue& value) {
  (void)audit::AuditRecord::FromJson(value);
  (void)sa::plan::AgreementRecord::FromJson(value);
  for (const char* array : {"audit", "plan"}) {
    const JsonValue* entries = value.Find(array);
    if (entries == nullptr || !entries->IsArray()) continue;
    for (std::size_t i = 0; i < entries->size(); ++i) {
      (void)audit::AuditRecord::FromJson(entries->at(i));
      (void)sa::plan::AgreementRecord::FromJson(entries->at(i));
    }
  }
}

// Parse's contract on arbitrary text: reject it, or return a value whose
// Dump is a fixed point of Parse-then-Dump. Returns whether it parsed.
bool ExpectRejectedOrStable(const std::string& text) {
  const std::optional<JsonValue> value = JsonValue::Parse(text);
  if (!value.has_value()) return false;
  const std::string dump = value->Dump();
  const std::optional<JsonValue> again = JsonValue::Parse(dump);
  EXPECT_TRUE(again.has_value()) << text;
  if (again.has_value()) {
    EXPECT_EQ(again->Dump(), dump) << text;
  }
  DecodeEverything(*value);
  return true;
}

TEST(JsonFuzzTest, RecordsSurviveTruncationsAndByteFlips) {
  // Bytes that change a document's structure, plus seeded random ones.
  const std::string structural = "{}[]\",:\\ 0-e.tfn";
  std::size_t accepted_flips = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    for (const std::string& doc : MutationCorpus(rng)) {
      // The unmutated document decodes and is already a fixed point.
      const std::optional<JsonValue> parsed = JsonValue::Parse(doc);
      ASSERT_TRUE(parsed.has_value()) << doc;
      EXPECT_EQ(parsed->Dump(), doc);
      // Every proper prefix leaves the top-level object open.
      for (std::size_t len = 0; len < doc.size(); ++len) {
        EXPECT_FALSE(ExpectRejectedOrStable(doc.substr(0, len)))
            << "seed " << seed << " prefix " << len;
      }
      // Every byte, flipped to two structural and two random values.
      for (std::size_t at = 0; at < doc.size(); ++at) {
        std::string flipped = doc;
        std::string values;
        for (int k = 0; k < 2; ++k) {
          values += structural[rng.Uniform(structural.size())];
          values += static_cast<char>(rng.Uniform(256));
        }
        for (const char v : values) {
          if (v == doc[at]) continue;
          flipped[at] = v;
          if (ExpectRejectedOrStable(flipped)) ++accepted_flips;
        }
      }
    }
  }
  // Digit and letter flips inside strings and numbers still parse; the
  // harness must have exercised both outcomes.
  EXPECT_GT(accepted_flips, 0u);
}

TEST(JsonFuzzTest, DepthBombInsideARecordIsRejected) {
  std::string bomb = "{\"bench\":\"b\",\"audit\":";
  bomb += std::string(1 << 20, '[');
  EXPECT_FALSE(JsonValue::Parse(bomb).has_value());
  const std::string path = WriteTempFile("lamp_depth_bomb.jsonl", bomb);
  std::string error;
  EXPECT_FALSE(LoadAttachedEntries({path}, "audit", &error).has_value());
  std::remove(path.c_str());
}

// --------------------------------------- trace, shard, catalog loaders --
// The loaders of outside trace and catalog files, under the same seeded
// mutations as JsonFuzzTest: every proper prefix and every byte flipped
// to structural and random values. Each must decode or reject without
// crashing (run under ASan+UBSan in CI), and decode∘encode is the
// identity on the unmutated documents.

void ForEachMutation(const std::string& doc, Rng& rng,
                     const std::function<void(const std::string&)>& visit) {
  const std::string structural = "{}[]\",:\\ 0-e.9\n";
  for (std::size_t len = 0; len < doc.size(); ++len) visit(doc.substr(0, len));
  for (std::size_t at = 0; at < doc.size(); ++at) {
    std::string flipped = doc;
    for (int k = 0; k < 2; ++k) {
      for (const char v : {structural[rng.Uniform(structural.size())],
                           static_cast<char>(rng.Uniform(256))}) {
        if (v == doc[at]) continue;
        flipped[at] = v;
        visit(flipped);
      }
    }
  }
}

// Random events with payloads near the u32/u64 edges and causal-packed
// values, so flipped digits land on every overflow boundary.
std::vector<TraceEvent> RandomEvents(Rng& rng) {
  static const char* kLabels[] = {nullptr, "mpc.route", "q\"é"};
  std::vector<TraceEvent> events;
  for (std::size_t i = 2 + rng.Uniform(4); i > 0; --i) {
    TraceEvent e;
    e.t_ns = rng.Uniform(1000000);
    e.kind = static_cast<EventKind>(rng.Uniform(
        static_cast<std::uint64_t>(EventKind::kDistRecv) + 1));
    e.a = static_cast<std::uint32_t>(rng.Next());
    e.b = static_cast<std::uint32_t>(rng.Uniform(8));
    e.value = rng.Uniform(2) == 0 ? rng.Uniform(1000)
                                  : (rng.Uniform(16) << 32) | rng.Uniform(9);
    e.label = kLabels[rng.Uniform(3)];
    events.push_back(e);
  }
  return events;
}

void ExpectDecodes(const TraceEvent& want, const EventRecord& got) {
  EXPECT_EQ(got.t_ns, want.t_ns);
  EXPECT_EQ(got.kind, EventKindName(want.kind));
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.label, want.label == nullptr ? "" : want.label);
}

TEST(LoaderFuzzTest, TraceEventDecoderSurvivesMutations) {
  std::size_t decoded = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const std::vector<TraceEvent> events = RandomEvents(rng);
    JsonValue doc = JsonValue::Object();
    doc.Set("schema", "lamp.trace.v1");
    doc.Set("dropped", rng.Uniform(3));
    JsonValue array = JsonValue::Array();
    for (std::size_t i = 0; i < events.size(); ++i) {
      array.PushBack(EventToJson(events[i], static_cast<std::uint32_t>(i % 2)));
    }
    doc.Set("events", std::move(array));
    const std::string text = doc.Dump();

    const std::optional<JsonValue> parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.has_value());
    const std::vector<EventRecord> back = EventsFromJson(*parsed);
    ASSERT_EQ(back.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ExpectDecodes(events[i], back[i]);
    }

    ForEachMutation(text, rng, [&decoded](const std::string& mutated) {
      const std::optional<JsonValue> value = JsonValue::Parse(mutated);
      if (!value.has_value()) return;
      ++decoded;
      (void)EventsFromJson(*value);
      (void)ChromeTraceFromTraceJson(*value);
      (void)audit::CausalReportFromTraceJson(*value);
    });
  }
  EXPECT_GT(decoded, 0u);
}

// Every mutated shard ParseShard accepts is also merged with an intact
// peer: the other rank of the same two-rank run, which receives the
// shard's one message and sends it another, so merges pair events.
TEST(LoaderFuzzTest, ShardParserSurvivesMutations) {
  std::size_t loaded = 0;
  std::size_t merged = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    dist::ShardHeader header;
    header.rank = rng.Uniform(2);
    header.procs = 2;
    header.trace_id = rng.Next() >> 1;
    header.label = "fuzz/" + std::to_string(seed);
    header.ring_t0_ns = rng.Uniform(1000);
    header.ring_t1_ns = header.ring_t0_ns + rng.Uniform(100000);
    header.ring_fold_ns = rng.Uniform(100000);
    header.total_emitted = rng.Uniform(10);
    const auto peer_rank = static_cast<std::uint32_t>(1 - header.rank);
    std::vector<TraceEvent> events = RandomEvents(rng);
    events.push_back({100, 5000, peer_rank, 0, EventKind::kDistSend});
    events.push_back({400, 5001, peer_rank, 0, EventKind::kDistRecv});
    dist::TraceShard peer;
    peer.header = header;
    peer.header.rank = peer_rank;
    const auto own_rank = static_cast<std::uint32_t>(header.rank);
    peer.events = {{200, "dist.recv", own_rank, 0, 5000, ""},
                   {300, "dist.send", own_rank, 0, 5001, ""}};
    // WriteShard's format: the header line, then one event per line.
    std::string text = header.ToJson().Dump() + "\n";
    for (const TraceEvent& e : events) text += EventToJson(e).Dump() + "\n";

    std::istringstream whole(text);
    std::string error;
    const auto shard = dist::ParseShard(whole, &error);
    ASSERT_TRUE(shard.has_value()) << error;
    EXPECT_EQ(shard->header.ToJson().Dump(), header.ToJson().Dump());
    ASSERT_EQ(shard->events.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ExpectDecodes(events[i], shard->events[i]);
    }
    const auto intact = dist::MergeShards({*shard, peer}, &error);
    ASSERT_TRUE(intact.has_value()) << error;
    EXPECT_EQ(intact->pairs.size(), 2u);

    ForEachMutation(text, rng, [&](const std::string& mutated) {
      std::istringstream is(mutated);
      std::string err;
      const auto parsed = dist::ParseShard(is, &err);
      if (!parsed.has_value()) {
        EXPECT_FALSE(err.empty());
        return;
      }
      ++loaded;
      std::string merge_error;
      const bool ok =
          dist::MergeShards({*parsed, peer}, &merge_error).has_value();
      EXPECT_EQ(ok, merge_error.empty()) << merge_error;
      if (ok) ++merged;
    });
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(merged, 0u);
}

TEST(LoaderFuzzTest, CatalogLoaderSurvivesMutations) {
  std::size_t loaded = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    audit::Catalog catalog;
    for (std::size_t r = 1 + rng.Uniform(3); r > 0; --r) {
      audit::RelationStats rel;
      rel.name = std::string(1, static_cast<char>('A' + r));
      rel.arity = 1 + rng.Uniform(3);
      rel.cardinality = rng.Uniform(100000);
      for (std::size_t c = 0; c < rel.arity; ++c) {
        audit::ColumnStats col;
        col.distinct = rng.Uniform(1000);
        col.zipf_s = rng.UniformDouble() * 2.0;
        col.avg_bytes = rng.UniformDouble() * 8.0;
        for (std::size_t h = rng.Uniform(3); h > 0; --h) {
          const std::uint64_t count = rng.Uniform(5000);
          col.heavy.push_back(
              {rng.UniformInt(-50, 50), count, rng.Uniform(count + 1)});
        }
        rel.columns.push_back(std::move(col));
      }
      catalog.relations.push_back(std::move(rel));
    }
    const std::string text = catalog.ToJson().Dump();

    const std::optional<JsonValue> parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.has_value());
    const std::optional<audit::Catalog> back =
        audit::Catalog::FromJson(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->ToJson().Dump(), text);

    ForEachMutation(text, rng, [&loaded](const std::string& mutated) {
      const std::optional<JsonValue> value = JsonValue::Parse(mutated);
      if (!value.has_value()) return;
      const std::optional<audit::Catalog> c = audit::Catalog::FromJson(*value);
      if (!c.has_value()) return;
      ++loaded;
      // What `lamp_obs catalog` and the planner read off a loaded catalog.
      (void)c->TotalFacts();
      for (const audit::RelationStats& rel : c->relations) {
        (void)rel.SkewEstimate();
        (void)rel.HasHeavyHitter(0.05);
        for (const audit::ColumnStats& col : rel.columns) {
          (void)col.MaxFrequencyLower();
        }
      }
    });
  }
  EXPECT_GT(loaded, 0u);
}

}  // namespace
}  // namespace lamp::obs
