// Golden-file tests for the static analyzer's "lamp.sa.v1" JSON
// diagnostics document (src/sa/analyzer.h) — the same document
// tools/lamp_lint --json emits. Three fixtures cover the three verdict
// shapes: a clean stratified program, an unstratifiable one (negation
// cycle witness) and one full of range-restriction violations. Each must
// match tests/golden/sa_<name>.json byte for byte.
//
// Regenerate the goldens after an intentional format change with:
//   LAMP_REGEN_GOLDEN=1 ./build/tests/lamp_lint_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "sa/analyzer.h"

#ifndef LAMP_TESTS_DIR
#error "tests/CMakeLists.txt must define LAMP_TESTS_DIR"
#endif

namespace lamp::sa {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Analyzed {
  Schema schema;
  ProgramAnalysis analysis;
};

Analyzed AnalyzeFixture(const std::string& name) {
  Analyzed result;
  result.analysis = AnalyzeProgramText(
      result.schema,
      ReadFileOrDie(std::string(LAMP_TESTS_DIR) + "/data/sa/" + name +
                    ".dl"));
  result.analysis.name = name;
  return result;
}

void CheckGolden(const std::string& name) {
  const Analyzed a = AnalyzeFixture(name);
  const std::string got =
      AnalysisToJson(a.schema, a.analysis).Dump(2) + "\n";
  const std::string golden_path =
      std::string(LAMP_TESTS_DIR) + "/golden/sa_" + name + ".json";

  if (std::getenv("LAMP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << golden_path;
    out << got;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open()) << "missing golden " << golden_path
                            << " — regenerate with LAMP_REGEN_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "lamp.sa.v1 output drifted from the golden. If the change is "
         "intentional, rerun with LAMP_REGEN_GOLDEN=1.";

  // The document must stay parseable JSON regardless of the diff.
  EXPECT_TRUE(obs::JsonValue::Parse(got).has_value());
}

TEST(LampLintGoldenTest, CleanProgram) { CheckGolden("clean"); }

TEST(LampLintGoldenTest, UnstratifiableProgram) {
  CheckGolden("unstratifiable");
}

TEST(LampLintGoldenTest, UnsafeProgram) { CheckGolden("unsafe"); }

TEST(LampLintGoldenTest, CrossProductProgram) {
  CheckGolden("cross_product");
}

// Structural guards independent of the golden bytes, so a bad regen
// cannot silently bless a wrong analysis.

TEST(LampLintFixtureTest, CleanHasNoDiagnostics) {
  const Analyzed a = AnalyzeFixture("clean");
  EXPECT_TRUE(a.analysis.parse_ok);
  EXPECT_EQ(a.analysis.ErrorCount(), 0u);
  EXPECT_EQ(a.analysis.WarningCount(), 0u);
  ASSERT_TRUE(a.analysis.fragments.strata.has_value());
  EXPECT_EQ(a.analysis.fragments.strata->num_strata, 2u);
  ASSERT_TRUE(a.analysis.fragments.strongest.has_value());
  EXPECT_EQ(*a.analysis.fragments.strongest, Fragment::kSemiConnected);
}

TEST(LampLintFixtureTest, UnstratifiableNamesTheCycle) {
  const Analyzed a = AnalyzeFixture("unstratifiable");
  EXPECT_FALSE(a.analysis.fragments.strata.has_value());
  ASSERT_EQ(a.analysis.ErrorCount(), 1u);
  bool found = false;
  for (const LintDiagnostic& d : a.analysis.diagnostics) {
    if (d.pass != "stratification") continue;
    found = true;
    EXPECT_EQ(d.severity, LintSeverity::kError);
    EXPECT_NE(d.message.find("Win"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("Lose"), std::string::npos) << d.message;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(a.analysis.fragments.strongest.has_value());
}

TEST(LampLintFixtureTest, UnsafeFlagsEveryViolationWithLines) {
  const Analyzed a = AnalyzeFixture("unsafe");
  std::size_t safety = 0;
  for (const LintDiagnostic& d : a.analysis.diagnostics) {
    if (d.pass != "safety") continue;
    ++safety;
    EXPECT_EQ(d.severity, LintSeverity::kError);
    EXPECT_GT(d.line, 0) << d.message;  // Source lines must be mapped.
  }
  EXPECT_EQ(safety, 3u);  // Head var, negated var, inequality var.
  bool dead = false;
  for (const LintDiagnostic& d : a.analysis.diagnostics) {
    dead = dead || d.pass == "dead-rule";
  }
  EXPECT_TRUE(dead) << "Q(x) cannot reach the declared output H";
}

TEST(LampLintFixtureTest, CrossProductNamesBothComponents) {
  const Analyzed a = AnalyzeFixture("cross_product");
  EXPECT_TRUE(a.analysis.parse_ok);
  EXPECT_EQ(a.analysis.ErrorCount(), 0u);
  bool found = false;
  for (const LintDiagnostic& d : a.analysis.diagnostics) {
    if (d.pass != "cross-product") continue;
    found = true;
    EXPECT_EQ(d.severity, LintSeverity::kWarning);
    EXPECT_NE(d.message.find("R(x,y)"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("S(u,v)"), std::string::npos) << d.message;
    EXPECT_GT(d.line, 0) << d.message;
  }
  EXPECT_TRUE(found);
}

/// The cross-product messages of \p text, one per flagged rule.
std::vector<std::string> CrossProductMessages(std::string_view text) {
  Schema schema;
  std::vector<std::string> messages;
  for (const LintDiagnostic& d :
       AnalyzeProgramText(schema, text).diagnostics) {
    if (d.pass == "cross-product") messages.push_back(d.message);
  }
  return messages;
}

TEST(LampLintFixtureTest, CrossProductListsComponentsByFirstAtom) {
  // B(w) forms the second component: it comes after A(x), the first atom
  // of the other one, though C(y) and D(x,y) follow it.
  const std::vector<std::string> messages =
      CrossProductMessages("H(x,w,y) <- A(x), B(w), C(y), D(x,y)");
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_NE(messages[0].find("body splits into 2 components sharing no "
                             "variable ({A(x), C(y), D(x,y)} x {B(w)})"),
            std::string::npos)
      << messages[0];
}

TEST(LampLintFixtureTest, NegatedAtomsAndInequalitiesJoinComponents) {
  EXPECT_TRUE(CrossProductMessages("H(x,y) <- A(x), B(y), !N(x,y)").empty());
  EXPECT_TRUE(CrossProductMessages("H(x,y) <- A(x), B(y), x != y").empty());
  // Only variables the body binds link: u (unbound; the safety pass's
  // error) does not chain !N(x,u) to u != y.
  const std::vector<std::string> messages =
      CrossProductMessages("H(x,y) <- A(x), B(y), !N(x,u), u != y");
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_NE(messages[0].find("({A(x)} x {B(y)})"), std::string::npos)
      << messages[0];
}

TEST(LampLintFixtureTest, NoStatisticsFlagsOnlyUncataloguedEdbAtoms) {
  AnalyzerOptions options;
  options.have_catalog = true;
  options.catalog_relations = {"R"};
  Schema schema;
  const ProgramAnalysis analysis = AnalyzeProgramText(
      schema,
      "T(x,y) <- R(x,y)\n"
      "H(x,z) <- T(x,y), S(y,z)\n",
      options);
  std::size_t flagged = 0;
  for (const LintDiagnostic& d : analysis.diagnostics) {
    if (d.pass != "no-statistics") continue;
    ++flagged;
    EXPECT_EQ(d.severity, LintSeverity::kWarning);
    // S is extensional and uncatalogued; R is catalogued and T is
    // derived — only S may be flagged.
    EXPECT_NE(d.message.find("S/2"), std::string::npos) << d.message;
  }
  EXPECT_EQ(flagged, 1u);

  // Without a catalog the pass must stay silent.
  Schema schema2;
  const ProgramAnalysis no_catalog = AnalyzeProgramText(
      schema2, "H(x,z) <- T(x,y), S(y,z)\n");
  for (const LintDiagnostic& d : no_catalog.diagnostics) {
    EXPECT_NE(d.pass, "no-statistics") << d.message;
  }
}

TEST(LampLintFixtureTest, ParseErrorsAreDiagnosticsNotAborts) {
  Schema schema;
  const ProgramAnalysis analysis = AnalyzeProgramText(
      schema, "H(x) <- E(x,y)\nH(x <- E(x,y)\nH(x) <- E(x,y,z)\n");
  EXPECT_FALSE(analysis.parse_ok);
  EXPECT_EQ(analysis.program.rules().size(), 1u);
  std::size_t parse_errors = 0;
  for (const LintDiagnostic& d : analysis.diagnostics) {
    if (d.pass == "parse") {
      ++parse_errors;
      EXPECT_EQ(d.severity, LintSeverity::kError);
    }
  }
  EXPECT_EQ(parse_errors, 2u);  // Malformed atom; arity mismatch.
}

}  // namespace
}  // namespace lamp::sa
