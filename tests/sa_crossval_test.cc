// Cross-validation of the static analyzer against the dynamic
// falsifiers — the certify-vs-falsify contract made executable:
//
//  * every program the fragment classifier *certifies* must produce zero
//    violations from FindMonotonicityViolation at the certified kind
//    (and, for the M certificate, stay confluent under every fault class
//    of the fault layer's ClassifyConfluence);
//  * every program it *refutes* must either be falsified dynamically
//    within the catalog's documented bounds, or be a documented
//    precision gap (the fragments are sound, not complete).
//
// The example catalog (sa/catalog.h) carries the ground truth for both
// directions; the PrecisionGap test pins a program where the static
// refutation intentionally has no dynamic witness.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "datalog/eval.h"
#include "datalog/monotone.h"
#include "fault/confluence.h"
#include "net/datalog_program.h"
#include "net/network.h"
#include "relational/generators.h"
#include "sa/analyzer.h"
#include "sa/catalog.h"

namespace lamp::sa {
namespace {

constexpr std::array<MonotonicityKind, 3> kKindOfFragment = {
    MonotonicityKind::kPlain,            // negation_free certifies M
    MonotonicityKind::kDomainDistinct,   // semi_positive => Mdistinct
    MonotonicityKind::kDomainDisjoint};  // semi_connected => Mdisjoint

struct AnalyzedEntry {
  Schema schema;
  ProgramAnalysis analysis;
};

AnalyzedEntry Analyze(const CatalogEntry& entry) {
  AnalyzedEntry result;
  result.analysis = AnalyzeProgramText(result.schema, entry.text);
  result.analysis.name = std::string(entry.id);
  return result;
}

/// The EDB relations the falsifier enumerates instances over: everything
/// extensional except the built-in active-domain predicate.
std::vector<RelationId> FalsifierEdbs(const Schema& schema,
                                      const DatalogProgram& program) {
  std::vector<RelationId> edbs;
  for (RelationId rel : program.EdbRelations()) {
    if (schema.NameOf(rel) == kADomRelationName) continue;
    edbs.push_back(rel);
  }
  return edbs;
}

TEST(SaCatalogTest, EveryEntryMeetsItsExpectations) {
  for (const CatalogEntry& entry : ExampleCatalog()) {
    const AnalyzedEntry a = Analyze(entry);
    for (const std::string& mismatch :
         CheckCatalogExpectations(entry, a.analysis)) {
      ADD_FAILURE() << entry.id << ": " << mismatch;
    }
  }
}

// For every catalog entry with a stratified semantics, every fragment
// verdict must agree with the dynamic falsifier at the corresponding
// monotonicity kind: certificates are never falsified, refutations are
// witnessed (the catalog documents no precision gaps — the one we keep
// on purpose is pinned in PrecisionGap below).
TEST(SaCrossvalTest, VerdictsMatchDynamicFalsifier) {
  for (const CatalogEntry& entry : ExampleCatalog()) {
    if (!entry.run_falsifier) continue;
    AnalyzedEntry a = Analyze(entry);
    ASSERT_TRUE(a.analysis.fragments.strata.has_value()) << entry.id;
    const DatalogProgram& program = a.analysis.program;
    const QueryFunction q = [&a, &program](const Instance& i) {
      return EvaluateProgram(a.schema, program, i);
    };
    const std::vector<RelationId> edbs = FalsifierEdbs(a.schema, program);
    ASSERT_FALSE(edbs.empty()) << entry.id;

    for (Fragment fragment : kAllFragments) {
      const std::size_t fi = static_cast<std::size_t>(fragment);
      const auto violation = FindMonotonicityViolation(
          a.schema, edbs, q, kKindOfFragment[fi], entry.domain_size,
          entry.extra_values, entry.max_facts);
      EXPECT_EQ(!violation.has_value(), entry.expected_monotone[fi])
          << entry.id << " at " << FragmentClassName(fragment);
      if (a.analysis.fragments.Verdict(fragment).certified) {
        EXPECT_FALSE(violation.has_value())
            << entry.id << ": certificate for "
            << FragmentClassName(fragment)
            << " contradicted by a dynamic witness";
      } else {
        EXPECT_TRUE(violation.has_value())
            << entry.id << ": refutation of " << FragmentClassName(fragment)
            << " has no witness within the catalog bounds";
      }
    }
  }
}

// The M certificate also has to hold up on the network side: the
// negation-free tc entry, run distributed, must stay correct under
// every injectable fault class.
TEST(SaCrossvalTest, CertifiedMonotoneProgramIsConfluentUnderFaults) {
  const CatalogEntry* entry = FindCatalogEntry("tc");
  ASSERT_NE(entry, nullptr);
  AnalyzedEntry a = Analyze(*entry);
  ASSERT_TRUE(a.analysis.fragments.strongest.has_value());
  ASSERT_EQ(*a.analysis.fragments.strongest, Fragment::kNegationFree);

  Instance edges;
  AddPathGraph(a.schema, a.schema.IdOf("E"), 6, edges);
  const Instance everything =
      EvaluateProgram(a.schema, a.analysis.program, edges);
  Instance expected;
  everything.ForEachFactOf(a.schema.IdOf("TC"), [&](const Fact& f) {
    expected.Insert(f);
  });

  DistributedDatalogProgram program(a.schema, a.analysis.program);
  const std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(edges, 3)};
  const fault::ConfluenceReport report = fault::ClassifyConfluence(
      program, distributions, expected, /*num_seeds=*/2, nullptr,
      /*aware=*/false);
  std::string broken;
  for (const fault::FaultSweep& sweep : report.by_class) {
    if (!sweep.all_runs_correct) {
      broken = std::string(fault::FaultClassName(sweep.fault_class));
      break;
    }
  }
  EXPECT_TRUE(report.confluent)
      << "certified-M program diverged under fault class " << broken;
}

// The documented precision gap: H can never fire (its body asserts
// E(x,x), which makes F(x) true, which the rule negates), so the program
// is semantically monotone — but syntactically it negates the IDB
// relation F, so semi-positive is refuted. The fragments are sound, not
// complete; this test pins the gap so it stays documented rather than
// silently "fixed" into unsoundness.
TEST(SaCrossvalTest, PrecisionGapIsDocumentedNotFalsified) {
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "F(x) <- E(x,x)\n"
                                     "H(x,y) <- E(x,y), E(x,x), !F(x)");
  const FragmentReport report =
      ClassifyFragments(schema, prog, DependencyGraph(prog));
  EXPECT_FALSE(report.Verdict(Fragment::kNegationFree).certified);
  EXPECT_FALSE(report.Verdict(Fragment::kSemiPositive).certified);
  ASSERT_TRUE(report.strongest.has_value());
  EXPECT_EQ(*report.strongest, Fragment::kSemiConnected);

  const QueryFunction q = [&schema, &prog](const Instance& i) {
    return EvaluateProgram(schema, prog, i);
  };
  const std::vector<RelationId> edbs = {schema.IdOf("E")};
  // No dynamic witness exists even for plain monotonicity: the refuted
  // verdicts overshoot the semantics here, by design.
  EXPECT_FALSE(FindMonotonicityViolation(schema, edbs, q,
                                         MonotonicityKind::kPlain, 2, 1, 3)
                   .has_value());
  EXPECT_FALSE(FindMonotonicityViolation(schema, edbs, q,
                                         MonotonicityKind::kDomainDistinct,
                                         2, 1, 3)
                   .has_value());
}

}  // namespace
}  // namespace lamp::sa
