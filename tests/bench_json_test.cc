// End-to-end validation of the machine-readable bench reporting
// (acceptance: bench binaries emit uniform JSON records via
// obs::BenchReporter). The harness receives bench binary paths on the
// command line (wired in tests/CMakeLists.txt), runs each with
// LAMP_BENCH_JSON pointing at a temp file and a benchmark filter that
// matches nothing (so only the table/report section executes), then
// parses every emitted line and checks the uniform record shape,
// including the audit and planner-agreement entries a record may carry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/audit/audit.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "sa/plan/agreement.h"

namespace lamp::obs {
namespace {

std::vector<std::string> g_bench_binaries;

// Options for one validation run: repeat count and whether the record
// should carry the bench_runner-style "meta" object (set via
// LAMP_BENCH_META).
struct RunCheck {
  int repeat = 1;
  bool with_meta = false;
};

void CheckBenchEmitsUniformJson(const std::string& binary,
                                const RunCheck& check) {
  const std::string json_path =
      ::testing::TempDir() + "/lamp_bench_json_test.jsonl";
  std::remove(json_path.c_str());

  // The filter matches no registered benchmark, so only PrintTable (and
  // with it the BenchReporter flush) runs — the table is the slow part we
  // actually want to validate, the microbenchmarks are not.
  std::string cmd = "LAMP_BENCH_JSON='" + json_path + "' ";
  if (check.with_meta) {
    cmd += "LAMP_BENCH_META='{\"git_rev\":\"test\"}' ";
  }
  cmd += "'" + binary + "' --repeat " + std::to_string(check.repeat) +
         " --benchmark_filter='$^' > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.is_open()) << "bench wrote no " << json_path;
  std::string line;
  std::size_t records = 0;
  int max_repeat_seen = -1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++records;
    const auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << "invalid JSON line: " << line;
    ASSERT_TRUE(parsed->IsObject());
    // The uniform shape: bench, params, metrics, threads, repeat,
    // wall_ms, wall_ns — exactly, in order — plus a "meta" object when
    // LAMP_BENCH_META is set, then only the attached "audit" / "plan"
    // arrays.
    const std::size_t fixed = check.with_meta ? 8u : 7u;
    ASSERT_GE(parsed->members().size(), fixed) << line;
    std::size_t audits = 0;
    std::size_t plans = 0;
    for (std::size_t i = fixed; i < parsed->members().size(); ++i) {
      const auto& [name, entries] = parsed->members()[i];
      ASSERT_TRUE(name == "audit" || name == "plan") << name;
      ASSERT_TRUE(entries.IsArray()) << name;
      for (std::size_t e = 0; e < entries.size(); ++e) {
        if (name == "audit") {
          EXPECT_TRUE(audit::AuditRecord::FromJson(entries.at(e)).has_value())
              << entries.at(e).Dump();
          ++audits;
        } else {
          EXPECT_TRUE(
              sa::plan::AgreementRecord::FromJson(entries.at(e)).has_value())
              << entries.at(e).Dump();
          ++plans;
        }
      }
    }
    EXPECT_EQ(parsed->members()[0].first, "bench");
    EXPECT_EQ(parsed->members()[1].first, "params");
    EXPECT_EQ(parsed->members()[2].first, "metrics");
    EXPECT_EQ(parsed->members()[3].first, "threads");
    EXPECT_EQ(parsed->members()[4].first, "repeat");
    EXPECT_EQ(parsed->members()[5].first, "wall_ms");
    EXPECT_EQ(parsed->members()[6].first, "wall_ns");
    if (check.with_meta) {
      EXPECT_EQ(parsed->members()[7].first, "meta");
    }

    const JsonValue* bench = parsed->Find("bench");
    ASSERT_TRUE(bench != nullptr && bench->IsString());
    EXPECT_FALSE(bench->AsString().empty());
    // hypercube_load audits and plans every configuration; the CALM
    // bench runs no MPC strategy, so it attaches nothing.
    if (bench->AsString() == "hypercube_load") {
      EXPECT_GT(audits, 0u) << line;
      EXPECT_GT(plans, 0u) << line;
    } else if (bench->AsString() == "calm_convergence") {
      EXPECT_EQ(audits + plans, 0u) << line;
    }
    const JsonValue* params = parsed->Find("params");
    ASSERT_TRUE(params != nullptr && params->IsObject());
    EXPECT_GT(params->size(), 0u);
    const JsonValue* metrics = parsed->Find("metrics");
    ASSERT_TRUE(metrics != nullptr && metrics->IsObject());
    EXPECT_GT(metrics->size(), 0u);
    const JsonValue* threads = parsed->Find("threads");
    ASSERT_TRUE(threads != nullptr && threads->IsNumber());
    EXPECT_GE(threads->AsInt(), 1);
    const JsonValue* repeat = parsed->Find("repeat");
    ASSERT_TRUE(repeat != nullptr && repeat->IsNumber());
    EXPECT_GE(repeat->AsInt(), 0);
    EXPECT_LT(repeat->AsInt(), check.repeat);
    max_repeat_seen =
        std::max(max_repeat_seen, static_cast<int>(repeat->AsInt()));
    const JsonValue* wall = parsed->Find("wall_ms");
    ASSERT_TRUE(wall != nullptr && wall->IsNumber());
    EXPECT_GE(wall->AsDouble(), 0.0);
    const JsonValue* wall_ns = parsed->Find("wall_ns");
    ASSERT_TRUE(wall_ns != nullptr && wall_ns->IsNumber());
    EXPECT_GE(wall_ns->AsInt(), 0);
    if (check.with_meta) {
      const JsonValue* meta = parsed->Find("meta");
      ASSERT_TRUE(meta != nullptr && meta->IsObject());
      const JsonValue* rev = meta->Find("git_rev");
      ASSERT_TRUE(rev != nullptr && rev->IsString());
      EXPECT_EQ(rev->AsString(), "test");
    }
  }
  EXPECT_GT(records, 0u) << "no records in " << json_path;
  // Every repeat index up to --repeat N-1 must actually appear.
  EXPECT_EQ(max_repeat_seen, check.repeat - 1);
  std::remove(json_path.c_str());
}

TEST(BenchJsonTest, AllListedBenchesEmitUniformJsonRecords) {
  ASSERT_FALSE(g_bench_binaries.empty())
      << "pass bench binary paths on the command line (see "
         "tests/CMakeLists.txt)";
  for (const std::string& binary : g_bench_binaries) {
    SCOPED_TRACE(binary);
    CheckBenchEmitsUniformJson(binary, RunCheck{});
  }
}

TEST(BenchJsonTest, RepeatAndMetaStamping) {
  ASSERT_FALSE(g_bench_binaries.empty())
      << "pass bench binary paths on the command line (see "
         "tests/CMakeLists.txt)";
  // One binary suffices: --repeat/--meta handling lives in the shared
  // BenchReporter, not the individual benches.
  SCOPED_TRACE(g_bench_binaries.front());
  CheckBenchEmitsUniformJson(g_bench_binaries.front(),
                             RunCheck{/*repeat=*/2, /*with_meta=*/true});
}

}  // namespace
}  // namespace lamp::obs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      lamp::obs::g_bench_binaries.push_back(argv[i]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
