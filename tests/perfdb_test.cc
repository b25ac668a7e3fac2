// Unit tests for the perf database (src/obs/perfdb.h): summary
// statistics over repeats, ingestion of records read by LoadBenchFile,
// summary round-tripping, and the noise-aware regression diff. The diff cases
// deliberately include "noisy but not regressed": a median shift that
// clears the relative tolerance yet stays within the observed
// run-to-run noise must NOT be flagged.

#include "obs/perfdb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "obs/json.h"

namespace lamp::obs {
namespace {

JsonValue MakeRecord(const std::string& bench, const std::string& params,
                     int threads, std::uint64_t wall_ns) {
  const std::string line = "{\"bench\":\"" + bench + "\",\"params\":" + params +
                           ",\"metrics\":{\"x\":1},\"threads\":" +
                           std::to_string(threads) +
                           ",\"repeat\":0,\"wall_ms\":0.1,\"wall_ns\":" +
                           std::to_string(wall_ns) + "}";
  auto parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.has_value()) << line;
  return *parsed;
}

PerfSummary MakeSummary(double median_ns, double stddev_ns,
                        std::size_t count = 5) {
  PerfSummary s;
  s.count = count;
  s.median_ns = median_ns;
  s.mean_ns = median_ns;
  s.min_ns = static_cast<std::uint64_t>(median_ns / 2);
  s.max_ns = static_cast<std::uint64_t>(median_ns * 2);
  s.stddev_ns = stddev_ns;
  s.cv = median_ns > 0 ? stddev_ns / median_ns : 0.0;
  return s;
}

TEST(SummarizeTest, EvenSampleCount) {
  const PerfSummary s = Summarize({400, 100, 300, 200});
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min_ns, 100u);
  EXPECT_EQ(s.max_ns, 400u);
  EXPECT_DOUBLE_EQ(s.mean_ns, 250.0);
  EXPECT_DOUBLE_EQ(s.median_ns, 250.0);  // Mean of the middle two.
  // Sample stddev: sqrt((150^2 + 50^2 + 50^2 + 150^2) / 3).
  EXPECT_NEAR(s.stddev_ns, std::sqrt(50000.0 / 3.0), 1e-9);
  EXPECT_NEAR(s.cv, s.stddev_ns / 250.0, 1e-12);
}

TEST(SummarizeTest, OddSampleCountAndSingletons) {
  const PerfSummary odd = Summarize({30, 10, 20});
  EXPECT_DOUBLE_EQ(odd.median_ns, 20.0);
  EXPECT_DOUBLE_EQ(odd.mean_ns, 20.0);

  const PerfSummary one = Summarize({42});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.median_ns, 42.0);
  EXPECT_DOUBLE_EQ(one.stddev_ns, 0.0);
  EXPECT_DOUBLE_EQ(one.cv, 0.0);

  const PerfSummary none = Summarize({});
  EXPECT_EQ(none.count, 0u);
}

TEST(PerfDbTest, AddRejectsMalformedRecords) {
  PerfDb db;
  std::string error;

  EXPECT_TRUE(db.Add(MakeRecord("b", "{\"n\":1}", 2, 1000)));
  EXPECT_EQ(db.NumRecords(), 1u);

  // Missing bench.
  auto no_bench = JsonValue::Parse("{\"params\":{},\"wall_ns\":1}");
  ASSERT_TRUE(no_bench.has_value());
  EXPECT_FALSE(db.Add(*no_bench, &error));
  EXPECT_FALSE(error.empty());

  // params is not an object.
  auto bad_params =
      JsonValue::Parse("{\"bench\":\"b\",\"params\":[1],\"wall_ns\":1}");
  ASSERT_TRUE(bad_params.has_value());
  EXPECT_FALSE(db.Add(*bad_params, &error));

  // wall_ns missing.
  auto no_wall = JsonValue::Parse("{\"bench\":\"b\",\"params\":{}}");
  ASSERT_TRUE(no_wall.has_value());
  EXPECT_FALSE(db.Add(*no_wall, &error));

  // Rejections must not have touched the store.
  EXPECT_EQ(db.NumRecords(), 1u);
}

TEST(PerfDbTest, SummarisesRecordsReadByLoadBenchFile) {
  const std::string path = ::testing::TempDir() + "/lamp_perfdb_lines.jsonl";
  const std::string valid =
      "# bench-json: comment line, skipped\n"
      "{\"bench\":\"b\",\"params\":{\"n\":1},\"threads\":1,\"wall_ns\":100}\n"
      "\n"
      "{\"bench\":\"b\",\"params\":{\"n\":1},\"threads\":1,\"wall_ns\":200}\n"
      "{\"bench\":\"b\",\"params\":\"oops\",\"wall_ns\":3}\n";
  std::ofstream(path) << valid;
  std::string error;
  const std::optional<BenchFile> file = LoadBenchFile(path, &error);
  ASSERT_TRUE(file.has_value()) << error;
  ASSERT_EQ(file->records.size(), 3u);
  PerfDb db;
  std::size_t rejected = 0;
  for (const JsonValue& record : file->records) {
    if (!db.Add(record, &error)) ++rejected;
  }
  EXPECT_EQ(rejected, 1u);  // Parses, but "params" is not an object.
  EXPECT_EQ(db.NumRecords(), 2u);

  // Both valid records share a key; the summary covers both samples.
  const auto summaries = db.Summaries();
  ASSERT_EQ(summaries.size(), 1u);
  const PerfSummary& s = summaries.begin()->second;
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.median_ns, 150.0);

  // A line that is not JSON fails the whole file instead of dropping out.
  std::ofstream(path) << valid << "not json at all\n";
  EXPECT_FALSE(LoadBenchFile(path, &error).has_value());
  std::remove(path.c_str());
}

TEST(PerfDbTest, KeysSeparateBenchParamsAndThreads) {
  PerfDb db;
  ASSERT_TRUE(db.Add(MakeRecord("a", "{\"n\":1}", 1, 10)));
  ASSERT_TRUE(db.Add(MakeRecord("a", "{\"n\":1}", 4, 10)));
  ASSERT_TRUE(db.Add(MakeRecord("a", "{\"n\":2}", 1, 10)));
  ASSERT_TRUE(db.Add(MakeRecord("b", "{\"n\":1}", 1, 10)));
  EXPECT_EQ(db.Summaries().size(), 4u);

  const PerfKey key{"a", "{\"n\":1}", 4};
  EXPECT_NE(key.Label().find("a"), std::string::npos);
  EXPECT_NE(key.Label().find("4"), std::string::npos);
}

TEST(PerfDbTest, SummariesRoundTripThroughJson) {
  PerfDb db;
  for (std::uint64_t ns : {1000u, 1100u, 1200u}) {
    ASSERT_TRUE(db.Add(MakeRecord("rt", "{\"n\":8,\"mode\":\"x\"}", 2, ns)));
  }
  ASSERT_TRUE(db.Add(MakeRecord("rt", "{\"n\":16}", 1, 500)));

  const JsonValue json = db.SummariesToJson();
  const JsonValue* arr = json.Find("summaries");
  ASSERT_TRUE(arr != nullptr && arr->IsArray());

  const auto direct = db.Summaries();
  const auto parsed = SummariesFromJson(json);
  ASSERT_EQ(parsed.size(), direct.size());
  for (const auto& [key, want] : direct) {
    const auto it = parsed.find(key);
    ASSERT_NE(it, parsed.end()) << key.Label();
    EXPECT_EQ(it->second.count, want.count);
    EXPECT_DOUBLE_EQ(it->second.median_ns, want.median_ns);
    EXPECT_DOUBLE_EQ(it->second.stddev_ns, want.stddev_ns);
  }

  // The serialised text itself must round-trip through the parser.
  const auto reparsed = JsonValue::Parse(json.Dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(SummariesFromJson(*reparsed).size(), direct.size());
}

TEST(DiffTest, FlagsGenuineRegressionsAndImprovements) {
  std::map<PerfKey, PerfSummary> base, cur;
  const PerfKey slow{"bench", "{\"n\":1}", 1};
  const PerfKey fast{"bench", "{\"n\":2}", 1};
  base[slow] = MakeSummary(1.0e6, 1.0e4);
  cur[slow] = MakeSummary(1.5e6, 1.2e4);  // +50%, far beyond noise.
  base[fast] = MakeSummary(1.0e6, 1.0e4);
  cur[fast] = MakeSummary(6.0e5, 1.0e4);  // -40%.

  const DiffReport report = DiffSummaries(base, cur, DiffThresholds{});
  EXPECT_EQ(report.num_regressed, 1u);
  EXPECT_EQ(report.num_improved, 1u);
  EXPECT_TRUE(report.HasRegressions());
  ASSERT_FALSE(report.entries.empty());
  // Regressions sort first.
  EXPECT_EQ(report.entries.front().status, DiffStatus::kRegressed);
  EXPECT_EQ(report.entries.front().key, slow);
  EXPECT_NEAR(report.entries.front().delta_rel, 0.5, 1e-9);
}

TEST(DiffTest, NoisyButNotRegressed) {
  // The acceptance case: median rose 30% (past the 10% tolerance), but
  // the run-to-run stddev is 200us, so the 300us delta sits inside
  // noise_mult(3) * 200us = 600us. Must be reported unchanged.
  std::map<PerfKey, PerfSummary> base, cur;
  const PerfKey key{"noisy", "{\"n\":1}", 1};
  base[key] = MakeSummary(1.0e6, 2.0e5);
  cur[key] = MakeSummary(1.3e6, 1.5e5);

  const DiffReport report = DiffSummaries(base, cur, DiffThresholds{});
  EXPECT_EQ(report.num_regressed, 0u);
  EXPECT_EQ(report.num_unchanged, 1u);
  EXPECT_FALSE(report.HasRegressions());
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].status, DiffStatus::kUnchanged);
  EXPECT_DOUBLE_EQ(report.entries[0].noise_ns, 2.0e5);
}

TEST(DiffTest, SmallAbsoluteDeltasAreIgnored) {
  // 3x relative blowup, zero noise — but only 20us absolute, under the
  // 50us floor. Sub-microsecond configs must not flake on jitter.
  std::map<PerfKey, PerfSummary> base, cur;
  const PerfKey key{"tiny", "{\"n\":1}", 1};
  base[key] = MakeSummary(1.0e4, 0.0);
  cur[key] = MakeSummary(3.0e4, 0.0);

  const DiffReport report = DiffSummaries(base, cur, DiffThresholds{});
  EXPECT_EQ(report.num_regressed, 0u);
  EXPECT_EQ(report.num_unchanged, 1u);
}

TEST(DiffTest, NewAndMissingKeys) {
  std::map<PerfKey, PerfSummary> base, cur;
  base[PerfKey{"old", "{}", 1}] = MakeSummary(1.0e6, 1.0e3);
  cur[PerfKey{"new", "{}", 1}] = MakeSummary(1.0e6, 1.0e3);

  const DiffReport report = DiffSummaries(base, cur, DiffThresholds{});
  EXPECT_EQ(report.num_new, 1u);
  EXPECT_EQ(report.num_missing, 1u);
  EXPECT_EQ(report.num_regressed, 0u);
  EXPECT_FALSE(report.HasRegressions());
}

TEST(DiffTest, RendersConsoleAndMarkdown) {
  std::map<PerfKey, PerfSummary> base, cur;
  const PerfKey key{"render_bench", "{\"n\":1}", 2};
  base[key] = MakeSummary(1.0e6, 1.0e3);
  cur[key] = MakeSummary(2.0e6, 1.0e3);

  const DiffReport report = DiffSummaries(base, cur, DiffThresholds{});
  ASSERT_TRUE(report.HasRegressions());
  const std::string console = report.RenderConsole();
  EXPECT_NE(console.find("render_bench"), std::string::npos) << console;
  EXPECT_NE(console.find("REGRESSED"), std::string::npos) << console;
  const std::string md = report.RenderMarkdown();
  EXPECT_NE(md.find("render_bench"), std::string::npos) << md;
  EXPECT_NE(md.find("|"), std::string::npos) << md;
}

}  // namespace
}  // namespace lamp::obs
