// Unit tests for the static analyzer (src/sa): dependency graph and SCC
// condensation, stratification with negation-cycle witnesses, fragment
// classification against the Figure 2 hierarchy, the lint passes, and a
// seeded mutation test of the text front end.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "cq/parser.h"
#include "datalog/program.h"
#include "sa/analyzer.h"
#include "sa/catalog.h"
#include "sa/depgraph.h"
#include "sa/fragment.h"
#include "sa/lint.h"

#ifndef LAMP_TESTS_DIR
#error "tests/CMakeLists.txt must define LAMP_TESTS_DIR"
#endif

namespace lamp::sa {
namespace {

DatalogProgram Parse(Schema& schema, std::string_view text) {
  return ParseProgram(schema, text);
}

// --- Dependency graph ----------------------------------------------------

TEST(DepGraphTest, EdgesCarryRuleAndPolarity) {
  Schema schema;
  DatalogProgram prog =
      Parse(schema, "OUT(x,y) <- E(x,y), !F(x,y)");
  const DependencyGraph graph(prog);
  ASSERT_EQ(graph.edges().size(), 2u);
  EXPECT_FALSE(graph.edges()[0].negative);
  EXPECT_EQ(graph.edges()[0].body, schema.IdOf("E"));
  EXPECT_TRUE(graph.edges()[1].negative);
  EXPECT_EQ(graph.edges()[1].body, schema.IdOf("F"));
  EXPECT_EQ(graph.edges()[1].rule_index, 0u);
}

TEST(DepGraphTest, SccCondensationIsReverseTopological) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "TC(x,y) <- E(x,y)\n"
                              "TC(x,y) <- TC(x,z), E(z,y)\n"
                              "OUT(x,y) <- TC(x,y), TC(y,x)");
  const DependencyGraph graph(prog);
  // TC is its own (recursive) component; E and OUT are singletons.
  EXPECT_EQ(graph.Components().size(), 3u);
  // Reverse topological: every component precedes its dependents.
  EXPECT_LT(graph.ComponentOf(schema.IdOf("E")),
            graph.ComponentOf(schema.IdOf("TC")));
  EXPECT_LT(graph.ComponentOf(schema.IdOf("TC")),
            graph.ComponentOf(schema.IdOf("OUT")));
}

TEST(DepGraphTest, StratifyMatchesDatalogProgramStratify) {
  const std::string_view programs[] = {
      "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)",
      "TC(x,y) <- E(x,y)\n"
      "TC(x,y) <- TC(x,z), TC(z,y)\n"
      "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)",
      "A(x) <- E(x,y)\nB(x) <- A(x), !C(x)\nC(x) <- E(x,x)\n"
      "D(x) <- B(x), !A(x)",
      "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)",
  };
  for (std::string_view text : programs) {
    Schema schema;
    DatalogProgram prog = Parse(schema, text);
    const DependencyGraph graph(prog);
    const auto via_graph = graph.Stratify();
    const auto via_program = prog.Stratify();
    ASSERT_TRUE(via_graph.has_value()) << text;
    ASSERT_TRUE(via_program.has_value()) << text;
    // Both compute the least fixpoint of the same constraints, so the
    // rule groupings must be identical.
    EXPECT_EQ(via_graph->rule_strata, *via_program) << text;
  }
}

TEST(DepGraphTest, WinMoveDoesNotStratifyAndNamesItsCycle) {
  Schema schema;
  DatalogProgram prog = Parse(schema, "Win(x) <- Move(x,y), !Win(y)");
  const DependencyGraph graph(prog);
  EXPECT_FALSE(graph.IsStratifiable());
  EXPECT_FALSE(graph.Stratify().has_value());
  EXPECT_FALSE(prog.Stratify().has_value());  // Agreement on "no".
  const auto cycle = graph.FindNegationCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->rule_index, 0u);
  EXPECT_EQ(cycle->relations,
            std::vector<RelationId>{schema.IdOf("Win")});
  const std::string description = DescribeNegationCycle(schema, *cycle);
  EXPECT_NE(description.find("Win -!-> Win"), std::string::npos)
      << description;
}

TEST(DepGraphTest, MutualNegationCycleListsBothRelations) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "Win(x) <- Move(x,y), !Lose(y)\n"
                              "Lose(x) <- Move(x,y), !Win(y)");
  const DependencyGraph graph(prog);
  const auto cycle = graph.FindNegationCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->relations.size(), 2u);
  const std::set<RelationId> on_cycle(cycle->relations.begin(),
                                      cycle->relations.end());
  EXPECT_TRUE(on_cycle.count(schema.IdOf("Win")) > 0);
  EXPECT_TRUE(on_cycle.count(schema.IdOf("Lose")) > 0);
}

TEST(DepGraphTest, EdbNegationDoesNotBumpStratum) {
  Schema schema;
  DatalogProgram prog = Parse(schema, "H(x,y) <- E(x,y), !F(x,y)");
  const DependencyGraph graph(prog);
  const auto strata = graph.Stratify();
  ASSERT_TRUE(strata.has_value());
  EXPECT_EQ(strata->num_strata, 1u);  // F is extensional: known upfront.
  EXPECT_EQ(strata->relation_stratum.at(schema.IdOf("F")), 0u);
  EXPECT_EQ(strata->relation_stratum.at(schema.IdOf("H")), 0u);
}

TEST(DepGraphTest, UnreachableRulesFindsDeadDerivations) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "A(x) <- E(x,y)\n"
                              "B(x) <- A(x)\n"
                              "C(x) <- E(x,x)");
  const DependencyGraph graph(prog);
  const auto dead = graph.UnreachableRules({schema.IdOf("B")});
  EXPECT_EQ(dead, std::vector<std::size_t>{2u});  // Only C is dead.
  EXPECT_TRUE(graph.UnreachableRules({schema.IdOf("B"), schema.IdOf("C")})
                  .empty());
}

// --- Fragment classification ---------------------------------------------

TEST(FragmentTest, RefutationsNameRuleAndAtom) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "TC(x,y) <- E(x,y)\n"
                              "OUT(x,y) <- E(x,y), !TC(x,y)");
  const FragmentReport report = ClassifyFragments(schema, prog);
  EXPECT_TRUE(report.stratified);

  const FragmentVerdict& nf = report.Verdict(Fragment::kNegationFree);
  ASSERT_EQ(nf.refutations.size(), 1u);
  EXPECT_EQ(nf.refutations[0].rule_index, 1u);
  EXPECT_EQ(nf.refutations[0].atom_index, 0);
  EXPECT_TRUE(nf.refutations[0].in_negated);

  const FragmentVerdict& sp = report.Verdict(Fragment::kSemiPositive);
  ASSERT_EQ(sp.refutations.size(), 1u);
  EXPECT_NE(sp.refutations[0].reason.find("TC"), std::string::npos);

  ASSERT_TRUE(report.strongest.has_value());
  EXPECT_EQ(*report.strongest, Fragment::kSemiConnected);
  EXPECT_EQ(report.guarantee, MonotonicityKind::kDomainDisjoint);
}

TEST(FragmentTest, DisconnectedRuleInNonFinalStratumRefutesSemiConnected) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "P(x,w) <- E(x,y), F(w)\n"
                              "OUT(x,w) <- P(x,w), !Q(x)\n"
                              "Q(x) <- P(x,x)");
  // P and Q are below OUT's stratum; the P rule is disconnected.
  const FragmentReport report = ClassifyFragments(schema, prog);
  ASSERT_TRUE(report.stratified);
  const FragmentVerdict& sc = report.Verdict(Fragment::kSemiConnected);
  EXPECT_FALSE(sc.certified);
  ASSERT_FALSE(sc.refutations.empty());
  EXPECT_EQ(sc.refutations[0].rule_index, 0u);
  EXPECT_NE(sc.refutations[0].reason.find("disconnected"),
            std::string::npos);
}

TEST(FragmentTest, ClassifierAgreesWithDatalogProgramPredicates) {
  for (const CatalogEntry& entry : ExampleCatalog()) {
    Schema schema;
    ProgramAnalysis analysis = AnalyzeProgramText(schema, entry.text);
    const DatalogProgram& prog = analysis.program;
    const FragmentReport& report = analysis.fragments;
    EXPECT_EQ(report.Verdict(Fragment::kNegationFree).certified,
              !prog.HasNegation())
        << entry.id;
    EXPECT_EQ(report.Verdict(Fragment::kSemiPositive).certified,
              prog.IsSemiPositive())
        << entry.id;
    EXPECT_EQ(report.Verdict(Fragment::kSemiConnected).certified,
              prog.IsSemiConnected())
        << entry.id;
  }
}

TEST(FragmentTest, BodyAtomComponentsSplitsOnSharedVariables) {
  Schema schema;
  const ConjunctiveQuery rule =
      ParseQuery(schema, "H(x,w) <- E(x,y), E(y,z), F(w)");
  const std::vector<std::size_t> roots = BodyAtomComponents(rule);
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_EQ(roots[0], roots[1]);  // Chained through y.
  EXPECT_NE(roots[0], roots[2]);  // F(w) is an island.
}

// --- Lint ----------------------------------------------------------------

std::size_t CountPass(const std::vector<LintDiagnostic>& diagnostics,
                      std::string_view pass) {
  std::size_t n = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.pass == pass) ++n;
  }
  return n;
}

TEST(LintTest, CleanProgramHasNoDiagnostics) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "TC(x,y) <- E(x,y)\n"
                              "TC(x,y) <- TC(x,z), E(z,y)");
  EXPECT_TRUE(LintProgram(schema, prog).empty());
}

TEST(LintTest, UnsatisfiableRuleFlagged) {
  Schema schema;
  DatalogProgram contradiction =
      Parse(schema, "H(x) <- E(x,x), !E(x,x)");
  const auto d1 = LintProgram(schema, contradiction);
  EXPECT_EQ(CountPass(d1, "unsatisfiable-rule"), 1u);

  Schema schema2;
  DatalogProgram never = Parse(schema2, "H(x) <- E(x,x), x != x");
  const auto d2 = LintProgram(schema2, never);
  EXPECT_EQ(CountPass(d2, "unsatisfiable-rule"), 1u);
}

TEST(LintTest, DuplicateAtomFlagged) {
  Schema schema;
  DatalogProgram prog = Parse(schema, "H(x,y) <- E(x,y), E(x,y)");
  const auto diagnostics = LintProgram(schema, prog);
  ASSERT_EQ(CountPass(diagnostics, "duplicate-atom"), 1u);
}

TEST(LintTest, SubsumedRuleFlagged) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "H(x,y) <- E(x,y)\n"
                              "H(x,y) <- E(x,y), E(y,x)");
  const auto diagnostics = LintProgram(schema, prog);
  ASSERT_EQ(CountPass(diagnostics, "subsumed-rule"), 1u);
  for (const LintDiagnostic& d : diagnostics) {
    if (d.pass == "subsumed-rule") {
      EXPECT_EQ(d.rule_index, 1);
    }
  }
}

TEST(LintTest, EquivalentRulePairFlagsExactlyOne) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "H(x,y) <- E(x,y)\n"
                              "H(a,b) <- E(a,b)");
  const auto diagnostics = LintProgram(schema, prog);
  EXPECT_EQ(CountPass(diagnostics, "subsumed-rule"), 1u);
}

TEST(LintTest, SubsumptionPassCanBeDisabled) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "H(x,y) <- E(x,y)\n"
                              "H(x,y) <- E(x,y), E(y,x)");
  LintOptions options;
  options.subsumption = false;
  EXPECT_EQ(CountPass(LintProgram(schema, prog, options), "subsumed-rule"),
            0u);
}

TEST(LintTest, UnusedRelationFlagged) {
  Schema schema;
  const RelationId unused = schema.AddRelation("Ghost", 1);
  DatalogProgram prog = Parse(schema, "H(x,y) <- E(x,y)");
  LintOptions options;
  options.declared_relations = {unused, schema.IdOf("E")};
  const auto diagnostics = LintProgram(schema, prog, options);
  ASSERT_EQ(CountPass(diagnostics, "unused-relation"), 1u);
  for (const LintDiagnostic& d : diagnostics) {
    if (d.pass == "unused-relation") {
      EXPECT_NE(d.message.find("Ghost"), std::string::npos);
    }
  }
}

TEST(LintTest, SafetyPassNamesTheVariable) {
  Schema schema;
  DatalogProgram prog;
  Schema scratch;
  CqParseResult parsed = TryParseQuery(scratch, "H(x,z) <- E(x,y)");
  ASSERT_TRUE(parsed.ok());
  prog.AddRule(std::move(*parsed.query));
  const auto diagnostics = LintProgram(scratch, prog);
  ASSERT_EQ(CountPass(diagnostics, "safety"), 1u);
  EXPECT_EQ(diagnostics[0].severity, LintSeverity::kError);
  EXPECT_NE(diagnostics[0].message.find("'z'"), std::string::npos)
      << diagnostics[0].message;
}

// --- Analyzer front end --------------------------------------------------

TEST(AnalyzerTest, PragmasDeclareEdbAndOutputs) {
  Schema schema;
  const ProgramAnalysis analysis = AnalyzeProgramText(
      schema,
      "# @edb E/2\n"
      "# @edb Ghost/1\n"
      "# @output B\n"
      "A(x) <- E(x,y)\n"
      "B(x) <- A(x)\n"
      "C(x) <- E(x,x)\n");
  std::size_t unused = 0;
  std::size_t dead = 0;
  for (const LintDiagnostic& d : analysis.diagnostics) {
    if (d.pass == "unused-relation") ++unused;
    if (d.pass == "dead-rule") ++dead;
  }
  EXPECT_EQ(unused, 1u);  // Ghost.
  EXPECT_EQ(dead, 1u);    // C cannot reach B.
}

TEST(AnalyzerTest, MalformedPragmaIsAnError) {
  Schema schema;
  const ProgramAnalysis analysis =
      AnalyzeProgramText(schema, "# @edb Broken\nH(x) <- E(x,x)\n");
  EXPECT_FALSE(analysis.parse_ok);
  bool found = false;
  for (const LintDiagnostic& d : analysis.diagnostics) {
    found = found || (d.pass == "pragma" &&
                      d.severity == LintSeverity::kError);
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzerTest, JsonDocumentHasStableShape) {
  Schema schema;
  ProgramAnalysis analysis =
      AnalyzeProgramText(schema, "TC(x,y) <- E(x,y)\n");
  analysis.name = "probe";
  const obs::JsonValue doc = AnalysisToJson(schema, analysis);
  ASSERT_TRUE(doc.IsObject());
  ASSERT_NE(doc.Find("schema"), nullptr);
  EXPECT_EQ(doc.Find("schema")->AsString(), "lamp.sa.v1");
  EXPECT_EQ(doc.Find("program")->AsString(), "probe");
  EXPECT_EQ(doc.Find("num_rules")->AsInt(), 1);
  EXPECT_EQ(doc.Find("strongest_fragment")->AsString(), "negation_free");
  EXPECT_EQ(doc.Find("monotonicity_class")->AsString(), "M");
  EXPECT_TRUE(doc.Find("stratification")->Find("stratified")->AsBool());
  EXPECT_EQ(doc.Find("errors")->AsInt(), 0);
  // Round-trips through the strict parser.
  EXPECT_TRUE(obs::JsonValue::Parse(doc.Dump(2)).has_value());
}

TEST(AnalyzerTest, RuleRenderingRoundTrips) {
  Schema schema;
  ProgramAnalysis analysis = AnalyzeProgramText(
      schema, "H(x,y) <- E(x,y), !F(x,y), x != y\n");
  const obs::JsonValue doc = AnalysisToJson(schema, analysis);
  ASSERT_EQ(doc.Find("rules")->size(), 1u);
  const std::string rendered = doc.Find("rules")->at(0).AsString();
  // The rendered rule must parse back to an equivalent rule.
  Schema schema2;
  CqParseResult reparsed = TryParseQuery(schema2, rendered);
  EXPECT_TRUE(reparsed.ok()) << rendered;
}

// --- seeded mutation test of the text front end --------------------------

// AnalyzeProgramText's contract on arbitrary text: it returns (no abort),
// and what it returns renders as a lamp.sa.v1 document and as text. Returns
// whether every line parsed.
bool ExpectAnalyzedAndRendered(const std::string& text) {
  Schema schema;
  const ProgramAnalysis analysis = AnalyzeProgramText(schema, text);
  const obs::JsonValue doc = AnalysisToJson(schema, analysis);
  EXPECT_TRUE(doc.IsObject()) << text;
  EXPECT_TRUE(obs::JsonValue::Parse(doc.Dump(0)).has_value()) << text;
  EXPECT_FALSE(RenderAnalysisText(schema, analysis).empty()) << text;
  return analysis.parse_ok;
}

TEST(AnalyzerFuzzTest, AnalyzeProgramTextSurvivesMutations) {
  // The .dl fixtures: comments, @edb/@output pragmas, negation,
  // inequalities, ADom, recursion, a cross product and an unstratifiable
  // program.
  std::vector<std::string> seeds;
  for (const char* name :
       {"clean", "cross_product", "unsafe", "unstratifiable"}) {
    std::ifstream in(std::string(LAMP_TESTS_DIR) + "/data/sa/" + name +
                     ".dl");
    ASSERT_TRUE(in.is_open()) << name;
    std::stringstream text;
    text << in.rdbuf();
    seeds.push_back(text.str());
  }
  // Bytes that change a program's structure.
  const std::string structural = "(),!=<-:#%@/\n x1_9EA";
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  const auto visit = [&](const std::string& text) {
    ++(ExpectAnalyzedAndRendered(text) ? parsed : rejected);
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto any_byte = [&] {
      return rng.Uniform(2) == 0
                 ? structural[rng.Uniform(structural.size())]
                 : static_cast<char>(rng.Uniform(256));
    };
    for (const std::string& program : seeds) {
      EXPECT_TRUE(ExpectAnalyzedAndRendered(program)) << program;
      for (std::size_t at = 0; at < program.size(); ++at) {
        visit(program.substr(0, at));                        // Truncation.
        visit(program.substr(0, at) + program.substr(at + 1));  // Deletion.
        std::string text = program;
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    any_byte());
        visit(text);  // Insertion.
        for (int k = 0; k < 2; ++k) {
          text = program;
          text[at] = any_byte();
          visit(text);  // Byte flip.
        }
      }
      // Several edits at once.
      for (int round = 0; round < 200; ++round) {
        std::string text = program;
        for (std::size_t edits = 1 + rng.Uniform(6); edits > 0; --edits) {
          const std::size_t at = rng.Uniform(text.size() + 1);
          switch (rng.Uniform(3)) {
            case 0:
              text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                          any_byte());
              break;
            case 1:
              if (at < text.size()) text.erase(at, 1);
              break;
            default:
              if (at < text.size()) text[at] = any_byte();
              break;
          }
        }
        visit(text);
      }
    }
  }
  // Both outcomes must have been exercised.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace lamp::sa
