// Golden-file test for the Chrome Trace Event export
// (src/obs/chrome_trace.h). A synthetic lamp.trace.v1 document with
// fixed timestamps exercises every mapping rule — span → "X" complete
// event, instants, per-kind counter tracks, shard → tid, dropped-count
// passthrough — and the exported JSON must match
// tests/golden/chrome_trace_golden.json byte for byte.
//
// Regenerate the golden after an intentional format change with:
//   LAMP_REGEN_GOLDEN=1 ./build/tests/chrome_trace_test

#include "obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/trace.h"

#ifndef LAMP_TESTS_DIR
#error "tests/CMakeLists.txt must define LAMP_TESTS_DIR"
#endif

namespace lamp::obs {
namespace {

// Fixed timestamps, two shards, one span, every counter-mapped kind,
// and a non-zero dropped count.
constexpr const char kSyntheticTrace[] = R"({
  "schema": "lamp.trace.v1",
  "capacity": 65536,
  "total_emitted": 8,
  "dropped": 2,
  "shards": 2,
  "events": [
    {"t_ns": 1000, "kind": "mpc.round_begin", "a": 1, "b": 0, "value": 0, "shard": 0},
    {"t_ns": 5000, "kind": "mpc.round_end", "a": 1, "b": 0, "value": 120, "shard": 0},
    {"t_ns": 6000, "kind": "net.broadcast", "a": 3, "b": 7, "value": 42, "shard": 1},
    {"t_ns": 7000, "kind": "net.deliver", "a": 7, "b": 3, "value": 42, "shard": 1},
    {"t_ns": 8000, "kind": "datalog.iteration", "a": 2, "b": 0, "value": 9, "shard": 0},
    {"t_ns": 9000, "kind": "span", "a": 4, "b": 0, "value": 4000, "shard": 1, "label": "eval"},
    {"t_ns": 9500, "kind": "mpc.server_load", "a": 5, "b": 0, "value": 77, "shard": 1}
  ]
})";

std::string GoldenPath() {
  return std::string(LAMP_TESTS_DIR) + "/golden/chrome_trace_golden.json";
}

std::string Export() {
  const auto trace = JsonValue::Parse(kSyntheticTrace);
  EXPECT_TRUE(trace.has_value());
  return ChromeTraceFromTraceJson(*trace).Dump(1) + "\n";
}

TEST(ChromeTraceTest, MatchesGoldenFile) {
  const std::string got = Export();

  if (std::getenv("LAMP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << GoldenPath();
    out << got;
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << "missing golden " << GoldenPath()
      << " — regenerate with LAMP_REGEN_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "Chrome export drifted from the golden. If the change is "
         "intentional, rerun with LAMP_REGEN_GOLDEN=1.";
}

TEST(ChromeTraceTest, StructuralInvariants) {
  const auto parsed = JsonValue::Parse(Export());
  ASSERT_TRUE(parsed.has_value());

  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->IsArray());

  std::map<std::string, int> by_ph;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const JsonValue* ph = e.Find("ph");
    ASSERT_TRUE(ph != nullptr && ph->IsString()) << i;
    ++by_ph[ph->AsString()];
    const JsonValue* pid = e.Find("pid");
    ASSERT_TRUE(pid != nullptr && pid->IsNumber());
    EXPECT_EQ(pid->AsInt(), 1);
    ASSERT_TRUE(e.Find("tid") != nullptr);
  }
  // 1 process_name + 2 thread_name metadata records.
  EXPECT_EQ(by_ph["M"], 3);
  // One span.
  EXPECT_EQ(by_ph["X"], 1);
  // Six non-span input events become instants.
  EXPECT_EQ(by_ph["i"], 6);
  // round_end, broadcast, deliver, iteration, server_load feed counters.
  EXPECT_EQ(by_ph["C"], 5);

  // The span: starts at (9000 - 4000) ns = 5 us, lasts 4 us, on tid 1.
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    if (e.Find("ph")->AsString() != "X") continue;
    EXPECT_EQ(e.Find("name")->AsString(), "eval");
    EXPECT_DOUBLE_EQ(e.Find("ts")->AsDouble(), 5.0);
    EXPECT_DOUBLE_EQ(e.Find("dur")->AsDouble(), 4.0);
    EXPECT_EQ(e.Find("tid")->AsInt(), 1);
  }

  const JsonValue* other = parsed->Find("otherData");
  ASSERT_TRUE(other != nullptr && other->IsObject());
  EXPECT_EQ(other->Find("dropped")->AsInt(), 2);
}

TEST(ChromeTraceTest, ExportsLiveTracer) {
  Tracer tracer(1024);
  {
    ScopedTracer scope(tracer);
    Emit(EventKind::kMpcRoundBegin, 1);
    {
      TraceSpan span("live_span", 9);
      Emit(EventKind::kMpcRoundEnd, 1, 0, 50);
    }
  }
  const JsonValue chrome = ChromeTraceFromTraceJson(TraceToJson(tracer));
  const JsonValue* events = chrome.Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->IsArray());

  bool saw_span = false;
  bool saw_counter = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.Find("ph")->AsString();
    if (ph == "X" && e.Find("name")->AsString() == "live_span") {
      saw_span = true;
    }
    if (ph == "C" && e.Find("name")->AsString() == "mpc.round_load") {
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);

  // The whole document must survive a dump/parse round trip.
  EXPECT_TRUE(JsonValue::Parse(chrome.Dump(1)).has_value());
}

}  // namespace
}  // namespace lamp::obs
