// Unit tests for the static analyzer (src/sa): dependency graph and SCC
// condensation, stratification with negation-cycle witnesses, fragment
// classification against the Figure 2 hierarchy, the lint passes, and a
// seeded mutation test of the text front end.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/parser.h"
#include "datalog/depgraph.h"
#include "datalog/program.h"
#include "sa/analyzer.h"
#include "sa/catalog.h"
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

FragmentReport Classify(const Schema& schema, const DatalogProgram& prog) {
  return ClassifyFragments(schema, prog, DependencyGraph(prog));
}

std::vector<LintDiagnostic> Lint(const Schema& schema,
                                 const DatalogProgram& prog,
                                 const LintOptions& options = {}) {
  return LintProgram(schema, prog, DependencyGraph(prog), options);
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

/// A random safe program over unary relations P0..P5 and E0..E2: 1-8
/// rules, each with 1-3 positive atoms and 0-2 negated atoms over x, so
/// recursion, negation through recursion and negation cycles all occur.
std::string RandomUnaryProgram(Rng& rng) {
  constexpr const char* kRelations[] = {"P0", "P1", "P2", "P3", "P4",
                                        "P5", "E0", "E1", "E2"};
  const auto atom = [&rng, &kRelations](std::uint64_t among) {
    return std::string(kRelations[rng.Uniform(among)]) + "(x)";
  };
  std::string text;
  const std::uint64_t num_rules = 1 + rng.Uniform(8);
  for (std::uint64_t k = 0; k < num_rules; ++k) {
    text += atom(6) + " <- " + atom(9);
    const std::uint64_t positive = rng.Uniform(3);
    for (std::uint64_t i = 0; i < positive; ++i) text += ", " + atom(9);
    const std::uint64_t negated = rng.Uniform(3);
    for (std::uint64_t i = 0; i < negated; ++i) text += ", !" + atom(9);
    text += "\n";
  }
  return text;
}

/// True when \p program has a rule with head \p head and a body atom
/// (negated when \p negative) over \p body.
bool HasEdge(const DatalogProgram& program, RelationId head, RelationId body,
             bool negative) {
  for (const ConjunctiveQuery& rule : program.rules()) {
    if (rule.head().relation != head) continue;
    for (const Atom& atom : negative ? rule.negated() : rule.body()) {
      if (atom.relation == body) return true;
    }
  }
  return false;
}

TEST(DepGraphTest, StratifySweepIsLeastAndRefusesExactlyTheNegationCycles) {
  Rng rng(20161);
  std::size_t stratified = 0;
  std::size_t refused = 0;
  for (int draw = 0; draw < 400; ++draw) {
    Schema schema;
    const std::string text = RandomUnaryProgram(rng);
    const DatalogProgram prog = Parse(schema, text);
    const DependencyGraph graph(prog);
    const std::set<RelationId> idb = prog.IdbRelations();
    const auto strata = graph.Stratify();
    const auto cycle = graph.FindNegationCycle();
    ASSERT_EQ(strata.has_value(), !cycle.has_value()) << text;

    if (cycle.has_value()) {
      ++refused;
      // The witness is a cycle of the program: its first step is the
      // negated atom it names, every later step some rule's body atom.
      const std::vector<RelationId>& rels = cycle->relations;
      ASSERT_FALSE(rels.empty()) << text;
      const ConjunctiveQuery& rule = prog.rules().at(cycle->rule_index);
      EXPECT_EQ(rule.head().relation, rels[0]) << text;
      EXPECT_EQ(rule.negated().at(cycle->atom_index).relation,
                rels[1 % rels.size()])
          << text;
      for (std::size_t i = 1; i < rels.size(); ++i) {
        const RelationId next = rels[(i + 1) % rels.size()];
        EXPECT_TRUE(HasEdge(prog, rels[i], next, false) ||
                    HasEdge(prog, rels[i], next, true))
            << text;
      }
      continue;
    }

    ++stratified;
    const std::map<RelationId, std::size_t>& stratum =
        strata->relation_stratum;
    // Every edge into the IDB is respected, strictly when negated.
    for (const ConjunctiveQuery& rule : prog.rules()) {
      const std::size_t head = stratum.at(rule.head().relation);
      for (const Atom& atom : rule.body()) {
        if (idb.count(atom.relation) == 0) continue;
        EXPECT_GE(head, stratum.at(atom.relation)) << text;
      }
      for (const Atom& atom : rule.negated()) {
        if (idb.count(atom.relation) == 0) continue;
        EXPECT_GT(head, stratum.at(atom.relation)) << text;
      }
    }
    // Least: every relation above stratum 0 is held there by an edge to
    // a relation that is itself held (or at 0). Otherwise the relations
    // not held could all move down one stratum without breaking an edge.
    std::set<RelationId> held;
    for (const RelationId rel : idb) {
      if (stratum.at(rel) == 0) held.insert(rel);
    }
    for (bool grew = true; grew;) {
      grew = false;
      for (const ConjunctiveQuery& rule : prog.rules()) {
        const RelationId head = rule.head().relation;
        if (held.count(head) > 0) continue;
        for (const bool negative : {false, true}) {
          for (const Atom& atom : negative ? rule.negated() : rule.body()) {
            if (held.count(atom.relation) == 0) continue;
            if (stratum.at(atom.relation) + (negative ? 1 : 0) !=
                stratum.at(head)) {
              continue;
            }
            grew = held.insert(head).second || grew;
          }
        }
      }
    }
    EXPECT_EQ(held, idb) << text;
    // The rule grouping follows the heads' strata.
    std::size_t grouped = 0;
    for (std::size_t s = 0; s < strata->rule_strata.size(); ++s) {
      for (const std::size_t k : strata->rule_strata[s]) {
        EXPECT_EQ(stratum.at(prog.rules()[k].head().relation), s) << text;
        ++grouped;
      }
    }
    EXPECT_EQ(grouped, prog.rules().size()) << text;
  }
  // The draws cover both verdicts.
  EXPECT_GT(stratified, 100u);
  EXPECT_GT(refused, 50u);
}

TEST(DepGraphTest, GraphOutlivesTheProgramItWasBuiltFrom) {
  Schema schema;
  const DependencyGraph graph(Parse(schema,
                                    "A(x) <- E(x)\n"
                                    "B(x) <- E(x), !A(x)\n"
                                    "C(x) <- B(x)"));
  const auto strata = graph.Stratify();
  ASSERT_TRUE(strata.has_value());
  EXPECT_EQ(strata->rule_strata, (Stratification{{0u}, {1u, 2u}}));
  EXPECT_EQ(graph.UnreachableRules({schema.IdOf("B")}),
            std::vector<std::size_t>{2u});
}

TEST(DepGraphTest, WinMoveDoesNotStratifyAndNamesItsCycle) {
  Schema schema;
  DatalogProgram prog = Parse(schema, "Win(x) <- Move(x,y), !Win(y)");
  const DependencyGraph graph(prog);
  EXPECT_FALSE(graph.IsStratifiable());
  EXPECT_FALSE(graph.Stratify().has_value());
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
  const FragmentReport report = Classify(schema, prog);
  EXPECT_TRUE(report.strata.has_value());

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
  const FragmentReport report = Classify(schema, prog);
  ASSERT_TRUE(report.strata.has_value());
  const FragmentVerdict& sc = report.Verdict(Fragment::kSemiConnected);
  EXPECT_FALSE(sc.certified);
  ASSERT_FALSE(sc.refutations.empty());
  EXPECT_EQ(sc.refutations[0].rule_index, 0u);
  EXPECT_NE(sc.refutations[0].reason.find("disconnected"),
            std::string::npos);
}

// Example 5.13 program (1): complement of transitive closure.
constexpr const char* kComplementTc = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), TC(z,y)
  OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)
)";

// Example 5.13 program (2): edge relation when no triangle exists.
constexpr const char* kNoTriangle = R"(
  T(x,y,z) <- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z
  S(x) <- ADom(x), T(u,v,w)
  OUT(x,y) <- E(x,y), !S(x)
)";

bool Certified(const Schema& schema, const DatalogProgram& prog,
               Fragment fragment) {
  return Classify(schema, prog).Verdict(fragment).certified;
}

TEST(FragmentTest, SemiPositivity) {
  Schema schema;
  // Negation on the EDB only.
  const DatalogProgram sp = Parse(schema, "OUT(x,y) <- E(x,y), !F(x,y)");
  EXPECT_TRUE(Certified(schema, sp, Fragment::kSemiPositive));

  Schema schema2;
  const DatalogProgram not_sp = Parse(schema2, kComplementTc);
  // !TC negates an IDB relation.
  EXPECT_FALSE(Certified(schema2, not_sp, Fragment::kSemiPositive));
}

TEST(FragmentTest, ConnectednessOfPaperExamples) {
  Schema schema;
  const DatalogProgram tc = Parse(schema, kComplementTc);
  // TC rules are connected; the OUT rule (ADom(x), ADom(y)) is not.
  const auto connected = [](const ConjunctiveQuery& rule) {
    for (const std::size_t c : AtomComponents(rule.body())) {
      if (c != 0) return false;
    }
    return true;
  };
  EXPECT_TRUE(connected(tc.rules()[0]));
  EXPECT_TRUE(connected(tc.rules()[1]));
  EXPECT_FALSE(connected(tc.rules()[2]));
  // Semi-connected: the disconnected rule sits in the last stratum.
  EXPECT_TRUE(Certified(schema, tc, Fragment::kSemiConnected));
}

TEST(FragmentTest, NoTriangleProgramIsNotSemiConnected) {
  // The paper: "the rule defining S is not connected", and S feeds a
  // negation in a later stratum.
  Schema schema;
  const DatalogProgram p = Parse(schema, kNoTriangle);
  const FragmentReport report = Classify(schema, p);
  ASSERT_TRUE(report.strata.has_value());
  EXPECT_FALSE(report.Verdict(Fragment::kSemiConnected).certified);
}

TEST(FragmentTest, AtomComponentsNumberByFirstAtom) {
  Schema schema;
  const ConjunctiveQuery rule =
      ParseQuery(schema, "H(x,w) <- F(w), E(x,y), G(3), E(y,z), F(w)");
  // F(w) twice; E(x,y), E(y,z) chained through y; G(3) shares no
  // variable (constants never connect atoms).
  EXPECT_EQ(AtomComponents(rule.body()),
            (std::vector<std::size_t>{0u, 1u, 2u, 1u, 0u}));
  EXPECT_TRUE(AtomComponents({}).empty());
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
  EXPECT_TRUE(Lint(schema, prog).empty());
}

TEST(LintTest, UnsatisfiableRuleFlagged) {
  Schema schema;
  DatalogProgram contradiction =
      Parse(schema, "H(x) <- E(x,x), !E(x,x)");
  const auto d1 = Lint(schema, contradiction);
  EXPECT_EQ(CountPass(d1, "unsatisfiable-rule"), 1u);

  Schema schema2;
  DatalogProgram never = Parse(schema2, "H(x) <- E(x,x), x != x");
  const auto d2 = Lint(schema2, never);
  EXPECT_EQ(CountPass(d2, "unsatisfiable-rule"), 1u);
}

TEST(LintTest, DuplicateAtomFlagged) {
  Schema schema;
  DatalogProgram prog = Parse(schema, "H(x,y) <- E(x,y), E(x,y)");
  const auto diagnostics = Lint(schema, prog);
  ASSERT_EQ(CountPass(diagnostics, "duplicate-atom"), 1u);
}

TEST(LintTest, SubsumedRuleFlagged) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "H(x,y) <- E(x,y)\n"
                              "H(x,y) <- E(x,y), E(y,x)");
  const auto diagnostics = Lint(schema, prog);
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
  const auto diagnostics = Lint(schema, prog);
  EXPECT_EQ(CountPass(diagnostics, "subsumed-rule"), 1u);
}

TEST(LintTest, SubsumptionPassCanBeDisabled) {
  Schema schema;
  DatalogProgram prog = Parse(schema,
                              "H(x,y) <- E(x,y)\n"
                              "H(x,y) <- E(x,y), E(y,x)");
  LintOptions options;
  options.subsumption = false;
  EXPECT_EQ(CountPass(Lint(schema, prog, options), "subsumed-rule"),
            0u);
}

TEST(LintTest, UnusedRelationFlagged) {
  Schema schema;
  const RelationId unused = schema.AddRelation("Ghost", 1);
  DatalogProgram prog = Parse(schema, "H(x,y) <- E(x,y)");
  LintOptions options;
  options.declared_relations = {unused, schema.IdOf("E")};
  const auto diagnostics = Lint(schema, prog, options);
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
  const auto diagnostics = Lint(scratch, prog);
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
