#include <gtest/gtest.h>

#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "obs/trace.h"
#include "relational/generators.h"

namespace lamp {
namespace {

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

constexpr const char* kWinMove = "WIN(x) <- MOVE(x,y), !WIN(y)";

TEST(Program, IdbEdbSplit) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kComplementTc);
  const auto idb = p.IdbRelations();
  EXPECT_EQ(idb.size(), 2u);
  EXPECT_TRUE(idb.count(schema.IdOf("TC")));
  EXPECT_TRUE(idb.count(schema.IdOf("OUT")));
  const auto edb = p.EdbRelations();
  EXPECT_TRUE(edb.count(schema.IdOf("E")));
  EXPECT_TRUE(edb.count(schema.IdOf("ADom")));
}

TEST(Program, StratifiesComplementTc) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kComplementTc);
  const auto strata = p.Stratify();
  ASSERT_TRUE(strata.has_value());
  ASSERT_EQ(strata->size(), 2u);
  // TC rules in stratum 0, OUT rule in stratum 1.
  EXPECT_EQ((*strata)[0].size(), 2u);
  EXPECT_EQ((*strata)[1].size(), 1u);
}

TEST(Program, WinMoveDoesNotStratify) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kWinMove);
  EXPECT_FALSE(p.Stratify().has_value());
}

TEST(Program, SemiPositivity) {
  Schema schema;
  // Negation on the EDB only.
  const DatalogProgram sp = ParseProgram(
      schema, "OUT(x,y) <- E(x,y), !F(x,y)");
  EXPECT_TRUE(sp.IsSemiPositive());

  Schema schema2;
  const DatalogProgram not_sp = ParseProgram(schema2, kComplementTc);
  EXPECT_FALSE(not_sp.IsSemiPositive());  // !TC negates an IDB relation.
}

TEST(Program, ConnectednessOfPaperExamples) {
  Schema schema;
  const DatalogProgram tc = ParseProgram(schema, kComplementTc);
  // TC rules are connected; the OUT rule (ADom(x), ADom(y)) is not.
  EXPECT_TRUE(DatalogProgram::IsConnectedRule(tc.rules()[0]));
  EXPECT_TRUE(DatalogProgram::IsConnectedRule(tc.rules()[1]));
  EXPECT_FALSE(DatalogProgram::IsConnectedRule(tc.rules()[2]));
  EXPECT_FALSE(tc.IsConnected());
  // Semi-connected: the disconnected rule sits in the last stratum.
  EXPECT_TRUE(tc.IsSemiConnected());
}

TEST(Program, NoTriangleProgramIsNotSemiConnected) {
  // The paper: "the rule defining S is not connected", and S feeds a
  // negation in a later stratum.
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kNoTriangle);
  ASSERT_TRUE(p.Stratify().has_value());
  EXPECT_FALSE(p.IsSemiConnected());
}

TEST(Eval, TransitiveClosureOnPath) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema,
                                  "TC(x,y) <- E(x,y)\n"
                                  "TC(x,y) <- TC(x,z), E(z,y)");
  Instance edb;
  AddPathGraph(schema, schema.IdOf("E"), 6, edb);  // 0 -> 1 -> ... -> 5.
  const Instance result = EvaluateProgram(schema, p, edb);
  const RelationId tc = schema.IdOf("TC");
  // |TC| of a 6-node path = 5+4+3+2+1 = 15.
  EXPECT_EQ(result.NumRows(tc), 15u);
  EXPECT_TRUE(result.Contains(Fact(tc, {0, 5})));
  EXPECT_FALSE(result.Contains(Fact(tc, {5, 0})));
}

TEST(Eval, TransitiveClosureOnCycleIsComplete) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema,
                                  "TC(x,y) <- E(x,y)\n"
                                  "TC(x,y) <- TC(x,z), E(z,y)");
  Instance edb;
  AddCycleGraph(schema, schema.IdOf("E"), 5, edb);
  const Instance result = EvaluateProgram(schema, p, edb);
  EXPECT_EQ(result.NumRows(schema.IdOf("TC")), 25u);
}

TEST(Eval, SemiNaiveAgreesWithNaive) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema,
                                  "TC(x,y) <- E(x,y)\n"
                                  "TC(x,y) <- TC(x,z), TC(z,y)");
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Instance edb;
    AddRandomGraph(schema, schema.IdOf("E"), 30, 15, rng, edb);
    DatalogStats semi_stats;
    DatalogStats naive_stats;
    const Instance semi = EvaluateProgram(schema, p, edb, &semi_stats);
    const Instance naive = EvaluateProgramNaive(schema, p, edb, &naive_stats);
    // Results agree fact-for-fact on the TC relation.
    const RelationId tc = schema.IdOf("TC");
    EXPECT_EQ(semi.NumRows(tc), naive.NumRows(tc));
    naive.ForEachFactOf(
        tc, [&](const Fact& f) { EXPECT_TRUE(semi.Contains(f)); });
    EXPECT_EQ(semi_stats.facts_derived, naive_stats.facts_derived);
  }
}

TEST(Eval, ComplementOfTransitiveClosure) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kComplementTc);
  Instance edb;
  // Two components: 0 -> 1 and the isolated loop 2 -> 2.
  edb.Insert(Fact(schema.IdOf("E"), {0, 1}));
  edb.Insert(Fact(schema.IdOf("E"), {2, 2}));
  const Instance result = EvaluateProgram(schema, p, edb);
  const RelationId out = schema.IdOf("OUT");
  // Reachable pairs: (0,1), (2,2). All 9 adom pairs minus these.
  EXPECT_EQ(result.NumRows(out), 7u);
  EXPECT_TRUE(result.Contains(Fact(out, {1, 0})));
  EXPECT_FALSE(result.Contains(Fact(out, {0, 1})));
}

TEST(Eval, NoTriangleProgramSemantics) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kNoTriangle);
  const RelationId e = schema.IdOf("E");
  const RelationId out = schema.IdOf("OUT");

  Instance no_triangle;
  no_triangle.Insert(Fact(e, {0, 1}));
  no_triangle.Insert(Fact(e, {1, 2}));
  const Instance r1 = EvaluateProgram(schema, p, no_triangle);
  EXPECT_EQ(r1.NumRows(out), 2u);  // OUT = E.

  Instance with_triangle = no_triangle;
  with_triangle.Insert(Fact(e, {2, 0}));
  const Instance r2 = EvaluateProgram(schema, p, with_triangle);
  EXPECT_EQ(r2.NumRows(out), 0u);  // Triangle kills everything.
}

TEST(Eval, InequalityInRecursiveRule) {
  Schema schema;
  DatalogProgram p = ParseProgram(
      schema, "P(x,y) <- E(x,y), x != y\nP(x,y) <- P(x,z), E(z,y), x != y");
  Instance edb;
  AddCycleGraph(schema, schema.IdOf("E"), 4, edb);
  const Instance result = EvaluateProgram(schema, p, edb);
  // All pairs (x,y), x != y, reachable on the 4-cycle: 12 pairs.
  EXPECT_EQ(result.NumRows(schema.IdOf("P")), 12u);
}

// Negation-free programs for the fixpoint continuation: linear TC, and a
// non-linear TC under a second positive stratum.
constexpr const char* kLinearTc = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), E(z,y)
)";
constexpr const char* kNonLinearTcSym = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), TC(z,y)
  Sym(x,y) <- TC(x,y), TC(y,x)
)";

/// The rows of \p state past \p marks, as an instance.
Instance RowsPast(const Instance& state,
                  const FixpointContinuation::Marks& marks) {
  Instance past;
  for (RelationId rel = 0; rel < state.RelationBound(); ++rel) {
    const RowsView rows = state.RowsOf(rel);
    for (std::size_t i = rel < marks.size() ? marks[rel] : 0;
         i < rows.num_rows; ++i) {
      past.InsertRow(rel, rows.Row(i), rows.arity);
    }
  }
  return past;
}

TEST(Continuation, ContinuingAFixpointEqualsEvaluatingTheUnion) {
  for (const char* text : {kLinearTc, kNonLinearTcSym}) {
    Schema schema;
    const DatalogProgram p = ParseProgram(schema, text);
    const FixpointContinuation continuation(schema, p);
    const RelationId e = schema.IdOf("E");
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
      Instance graph;
      AddRandomGraph(schema, e, 24, 10, rng, graph);
      // A random split E = A ∪ B.
      Instance a;
      Instance b;
      graph.ForEachFact([&](const Fact& f) {
        (rng.Uniform(2) == 0 ? a : b).Insert(f);
      });

      Instance state = EvaluateProgram(schema, p, a);
      const Instance before = state;
      const FixpointContinuation::Marks closed =
          FixpointContinuation::Mark(state);
      state.InsertAll(b);
      continuation.Continue(state, closed);

      EXPECT_EQ(state, EvaluateProgram(schema, p, graph))
          << text << " trial " << trial;
      // The rows past the mark are exactly the facts that are new.
      Instance difference;
      state.ForEachFact([&](const Fact& f) {
        if (!before.Contains(f)) difference.Insert(f);
      });
      EXPECT_EQ(RowsPast(state, closed), difference)
          << text << " trial " << trial;
      EXPECT_EQ(state.Size(), before.Size() + difference.Size());
      // No tagged delta rows are left behind.
      for (RelationId rel = 0; rel < state.RelationBound(); ++rel) {
        if (schema.NameOf(rel).starts_with("__cont_")) {
          EXPECT_EQ(state.NumRows(rel), 0u) << schema.NameOf(rel);
        }
      }
    }
  }
}

TEST(Continuation, RecordsIterationsLikeTheFullEvaluation) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kNonLinearTcSym);
  const FixpointContinuation continuation(schema, p);
  const RelationId e = schema.IdOf("E");
  Instance path;
  AddPathGraph(schema, e, 12, path);
  Instance state = EvaluateProgram(schema, p, path);
  const FixpointContinuation::Marks closed =
      FixpointContinuation::Mark(state);
  state.Insert(Fact(e, {11, 0}));  // Closes the path into a cycle.

  obs::Tracer tracer;
  DatalogStats stats;
  obs::MetricsRegistry metrics;
  {
    obs::ScopedTracer install(tracer);
    continuation.Continue(state, closed, &stats, &metrics);
  }
  std::size_t events = 0;
  std::size_t delta_total = 0;
  for (const obs::TraceEvent& ev : tracer.Events()) {
    if (ev.kind != obs::EventKind::kDatalogIteration) continue;
    ++events;
    delta_total += ev.value;
  }
  EXPECT_GT(stats.iterations, 1u);
  EXPECT_EQ(events, stats.iterations);
  EXPECT_EQ(metrics.CounterValue(obs::kDatalogIterations), stats.iterations);
  // Every derived fact is counted once: everything new but the edge.
  EXPECT_EQ(stats.facts_derived, RowsPast(state, closed).Size() - 1);
  EXPECT_EQ(delta_total, stats.facts_derived);
  EXPECT_GT(stats.rows_scanned, 0u);
}

TEST(Continuation, RefusesNegationAndADom) {
  Schema negation_schema;
  const DatalogProgram negation = ParseProgram(
      negation_schema, "TC(x,y) <- E(x,y)\nOUT(x,y) <- E(x,y), !TC(y,x)");
  EXPECT_DEATH(FixpointContinuation(negation_schema, negation),
               "negation-free");

  Schema adom_schema;
  const DatalogProgram adom =
      ParseProgram(adom_schema, "Loop(x) <- ADom(x), E(x,x)");
  EXPECT_DEATH(FixpointContinuation(adom_schema, adom), "ADom");
}

TEST(WellFounded, WinMoveSimpleGame) {
  // Positions: 3 -> 2 -> 1 -> 0 (0 has no moves: losing).
  // 1 moves to 0 (loser) -> 1 wins; 2 -> 1 (winner) -> 2 loses;
  // 3 -> 2 (loser) -> 3 wins.
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kWinMove);
  Instance edb;
  const RelationId move = schema.IdOf("MOVE");
  edb.Insert(Fact(move, {3, 2}));
  edb.Insert(Fact(move, {2, 1}));
  edb.Insert(Fact(move, {1, 0}));
  const WellFoundedModel model = EvaluateWellFounded(schema, p, edb);
  const RelationId win = schema.IdOf("WIN");
  EXPECT_TRUE(model.true_facts.Contains(Fact(win, {1})));
  EXPECT_TRUE(model.true_facts.Contains(Fact(win, {3})));
  EXPECT_FALSE(model.true_facts.Contains(Fact(win, {2})));
  EXPECT_FALSE(model.true_facts.Contains(Fact(win, {0})));
  EXPECT_TRUE(model.undefined_facts.Empty());
}

TEST(WellFounded, DrawPositionsAreUndefined) {
  // A 2-cycle a <-> b: both positions are draws (undefined in WFS).
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kWinMove);
  Instance edb;
  const RelationId move = schema.IdOf("MOVE");
  edb.Insert(Fact(move, {10, 11}));
  edb.Insert(Fact(move, {11, 10}));
  const WellFoundedModel model = EvaluateWellFounded(schema, p, edb);
  const RelationId win = schema.IdOf("WIN");
  EXPECT_TRUE(model.true_facts.Empty());
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {10})));
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {11})));
}

TEST(WellFounded, MixedGameGraph) {
  // 0 <- losing leaf; 1 -> 0 wins; draw cycle 5 <-> 6 with an escape
  // 5 -> 0? No: give 6 -> 1: moving to a winning position doesn't help;
  // 6's only other option is the cycle -> still a draw.
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kWinMove);
  Instance edb;
  const RelationId move = schema.IdOf("MOVE");
  edb.Insert(Fact(move, {1, 0}));
  edb.Insert(Fact(move, {5, 6}));
  edb.Insert(Fact(move, {6, 5}));
  edb.Insert(Fact(move, {6, 1}));
  const WellFoundedModel model = EvaluateWellFounded(schema, p, edb);
  const RelationId win = schema.IdOf("WIN");
  EXPECT_TRUE(model.true_facts.Contains(Fact(win, {1})));
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {5})));
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {6})));
}

TEST(WellFounded, AgreesWithStratifiedOnStratifiedProgram) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kComplementTc);
  Instance edb;
  AddPathGraph(schema, schema.IdOf("E"), 4, edb);
  const Instance stratified = EvaluateProgram(schema, p, edb);
  const WellFoundedModel wfs = EvaluateWellFounded(schema, p, edb);
  EXPECT_TRUE(wfs.undefined_facts.Empty());
  for (const Fact& f : wfs.true_facts.AllFacts()) {
    EXPECT_TRUE(stratified.Contains(f));
  }
  // Same OUT relation in both.
  const RelationId out = schema.IdOf("OUT");
  EXPECT_EQ(wfs.true_facts.NumRows(out), stratified.NumRows(out));
}

}  // namespace
}  // namespace lamp
