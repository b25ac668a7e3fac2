// Scenario: the Datalog side of the paper (Section 5.3) — recursive
// queries, stratified negation, structural analysis (semi-positive /
// connected / semi-connected) and the well-founded semantics for win-move.

#include <cstdio>

#include "datalog/depgraph.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "relational/generators.h"
#include "sa/fragment.h"

namespace {

/// The Figure 2 classification of \p program (stratification included).
lamp::sa::FragmentReport Classify(const lamp::Schema& schema,
                                  const lamp::DatalogProgram& program) {
  return lamp::sa::ClassifyFragments(schema, program,
                                     lamp::DependencyGraph(program));
}

const char* YesNo(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main() {
  using namespace lamp;

  // -- Transitive closure and its complement (Example 5.13, program 1) -----
  {
    Schema schema;
    DatalogProgram program =
        ParseProgram(schema,
                     "# complement of reachability\n"
                     "TC(x,y) <- E(x,y)\n"
                     "TC(x,y) <- TC(x,z), TC(z,y)\n"
                     "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)");
    const sa::FragmentReport report = Classify(schema, program);
    std::printf("program 1 (not-TC):\n");
    std::printf("  stratifies: %s\n", YesNo(report.strata.has_value()));
    std::printf(
        "  semi-positive: %s\n",
        YesNo(report.Verdict(sa::Fragment::kSemiPositive).certified));
    std::printf("  semi-connected: %s (disconnected rule is in the last "
                "stratum)\n",
                YesNo(report.Verdict(sa::Fragment::kSemiConnected).certified));

    Instance edb;
    AddPathGraph(schema, schema.IdOf("E"), 8, edb);
    DatalogStats stats;
    const Instance result = EvaluateProgram(schema, program, edb, &stats);
    std::printf("  8-node path: |TC| = %zu, |OUT| = %zu "
                "(%zu semi-naive rounds)\n",
                result.NumRows(schema.IdOf("TC")),
                result.NumRows(schema.IdOf("OUT")), stats.iterations);
  }

  // -- The no-triangle program (Example 5.13, program 2) -------------------
  {
    Schema schema;
    DatalogProgram program = ParseProgram(
        schema,
        "T(x,y,z) <- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z\n"
        "S(x) <- ADom(x), T(u,v,w)\n"
        "OUT(x,y) <- E(x,y), !S(x)");
    const sa::FragmentReport report = Classify(schema, program);
    std::printf("program 2 (no-triangle):\n");
    std::printf("  stratifies: %s\n", YesNo(report.strata.has_value()));
    std::printf("  semi-connected: %s (the S rule is disconnected and not "
                "last)\n",
                YesNo(report.Verdict(sa::Fragment::kSemiConnected).certified));
  }

  // -- win-move under the well-founded semantics ----------------------------
  {
    Schema schema;
    DatalogProgram program =
        ParseProgram(schema, "WIN(x) <- MOVE(x,y), !WIN(y)");
    std::printf("win-move:\n");
    std::printf("  stratifies: %s (negative recursion)\n",
                YesNo(Classify(schema, program).strata.has_value()));

    // A small game: a chain 3->2->1->0 plus a draw cycle 7<->8.
    Instance edb;
    const RelationId move = schema.IdOf("MOVE");
    edb.Insert(Fact(move, {3, 2}));
    edb.Insert(Fact(move, {2, 1}));
    edb.Insert(Fact(move, {1, 0}));
    edb.Insert(Fact(move, {7, 8}));
    edb.Insert(Fact(move, {8, 7}));

    const WellFoundedModel model = EvaluateWellFounded(schema, program, edb);
    std::printf("  winning positions: %s\n",
                model.true_facts.ToString(schema).c_str());
    std::printf("  drawn (undefined) positions: %s\n",
                model.undefined_facts.ToString(schema).c_str());
    std::printf("  gamma applications: %zu\n", model.gamma_applications);
  }

  return 0;
}
