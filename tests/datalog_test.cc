#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datalog/depgraph.h"
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

// Linear TC, and a non-linear TC under a second positive stratum.
constexpr const char* kLinearTc = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), E(z,y)
)";
constexpr const char* kNonLinearTcSym = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), TC(z,y)
  Sym(x,y) <- TC(x,y), TC(y,x)
)";

// Negation-free, with the built-in active domain.
constexpr const char* kADomLoops = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), E(z,y)
  Loop(x) <- ADom(x), TC(x,x)
)";

// A head constant next to ADom: 100 is derived, never in the EDB, so it is
// not in the active domain and A(100) is never derived.
constexpr const char* kADomHeadConstant = R"(
  Tag(x,100) <- E(x,y)
  A(x) <- ADom(x)
)";

// Nullary heads (and a nullary body atom) over three strata.
constexpr const char* kNullaryHeads = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), E(z,y)
  Cyclic() <- TC(x,x)
  OnCycle(x) <- Cyclic(), TC(x,x)
  Acyclic() <- ADom(x), !Cyclic()
)";

constexpr const char* kSemiPositive = "OUT(x,y) <- E(x,y), !F(x,y)";
constexpr const char* kRecursiveInequality =
    "P(x,y) <- E(x,y), x != y\nP(x,y) <- P(x,z), E(z,y), x != y";

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
  const auto strata = DependencyGraph(p).Stratify();
  ASSERT_TRUE(strata.has_value());
  // TC rules in stratum 0, OUT rule in stratum 1.
  EXPECT_EQ(strata->rule_strata,
            (Stratification{{0u, 1u}, {2u}}));
}

TEST(Program, WinMoveDoesNotStratify) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kWinMove);
  EXPECT_FALSE(DependencyGraph(p).Stratify().has_value());
}

// The stratifier as first written: relax component strata over every edge
// until nothing changes, then group the rules by their heads' strata. The
// one-pass DependencyGraph::Stratify must give the same assignment.
StratumAssignment RelaxedStratify(const DatalogProgram& program,
                                  const DependencyGraph& graph) {
  const std::set<RelationId>& idb = graph.idb();
  std::vector<std::size_t> component_stratum(graph.Components().size(), 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (const DepEdge& e : graph.edges()) {
      const std::size_t head = graph.ComponentOf(e.head);
      const std::size_t body = graph.ComponentOf(e.body);
      if (head == body || idb.count(e.body) == 0) continue;
      const std::size_t need = component_stratum[body] + (e.negative ? 1 : 0);
      if (component_stratum[head] < need) {
        component_stratum[head] = need;
        changed = true;
      }
    }
  }
  StratumAssignment out;
  for (const RelationId rel : graph.used_relations()) {
    out.relation_stratum[rel] =
        idb.count(rel) > 0 ? component_stratum[graph.ComponentOf(rel)] : 0;
  }
  std::map<std::size_t, std::size_t> dense;
  for (const ConjunctiveQuery& rule : program.rules()) {
    dense[out.relation_stratum.at(rule.head().relation)] = 0;
  }
  std::size_t next = 0;
  for (auto& [raw, renumbered] : dense) renumbered = next++;
  out.rule_strata.assign(next == 0 ? 1 : next, {});
  for (std::size_t k = 0; k < program.rules().size(); ++k) {
    const RelationId head = program.rules()[k].head().relation;
    out.rule_strata[dense.at(out.relation_stratum.at(head))].push_back(k);
  }
  out.num_strata = out.rule_strata.size();
  return out;
}

/// A random unary program over IDB P0..P7 and EDB E0..E2. A negated atom
/// reads an EDB relation or a P below the head, so most draws stratify and
/// negation stacks strata; positive atoms read anything, so recursion and
/// the odd negation cycle through it occur too.
std::string RandomLayeredProgram(Rng& rng) {
  std::string text;
  const auto atom = [&rng, &text](std::uint64_t idb_below) {
    const std::uint64_t pick = rng.Uniform(idb_below + 3);
    text += pick < idb_below ? 'P' : 'E';
    text += std::to_string(pick < idb_below ? pick : pick - idb_below);
    text += "(x)";
  };
  const std::uint64_t num_rules = 1 + rng.Uniform(12);
  for (std::uint64_t k = 0; k < num_rules; ++k) {
    const std::uint64_t head = rng.Uniform(8);
    text += 'P';
    text += std::to_string(head);
    text += "(x) <- ";
    atom(8);
    for (std::uint64_t i = rng.Uniform(3); i > 0; --i) {
      text += ", ";
      atom(8);
    }
    for (std::uint64_t i = rng.Uniform(3); i > 0; --i) {
      text += ", !";
      atom(head);
    }
    text += '\n';
  }
  return text;
}

TEST(Program, OnePassStratifyEqualsTheRelaxation) {
  Rng rng(1405);
  std::size_t stratified = 0;
  std::size_t deepest = 0;
  for (int draw = 0; draw < 500; ++draw) {
    Schema schema;
    const std::string text = RandomLayeredProgram(rng);
    const DatalogProgram program = ParseProgram(schema, text);
    const DependencyGraph graph(program);
    const auto strata = graph.Stratify();
    if (!strata.has_value()) continue;
    ++stratified;
    const StratumAssignment expected = RelaxedStratify(program, graph);
    EXPECT_EQ(strata->relation_stratum, expected.relation_stratum) << text;
    EXPECT_EQ(strata->rule_strata, expected.rule_strata) << text;
    EXPECT_EQ(strata->num_strata, expected.num_strata) << text;
    deepest = std::max(deepest, strata->num_strata);
  }
  // The sweep reaches deep stratifications, not only one-stratum programs.
  EXPECT_GE(stratified, 300u);
  EXPECT_GE(deepest, 4u);
}

TEST(ProgramDeathTest, EvaluatorRefusesWinMoveNamingItsCycle) {
  Schema schema;
  const DatalogProgram p =
      ParseProgram(schema, "Win(x) <- Move(x,y), !Win(y)");
  EXPECT_DEATH(EvaluateProgram(schema, p, Instance()), "Win -!-> Win");
  EXPECT_DEATH(EvaluateProgramNaive(schema, p, Instance()), "Win -!-> Win");
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
  // Every stratifiable program of this file: recursion (linear and not),
  // stratified negation, ADom, inequalities, nullary heads, multi-strata.
  for (const char* text :
       {kComplementTc, kNoTriangle, kLinearTc, kNonLinearTcSym, kADomLoops,
        kADomHeadConstant, kNullaryHeads, kSemiPositive,
        kRecursiveInequality}) {
    Schema schema;
    const DatalogProgram p = ParseProgram(schema, text);
    Rng rng(7);
    for (int trial = 0; trial < 8; ++trial) {
      // Random EDB relations over a small domain (loops and triangles
      // included); trial 0 keeps the EDB empty.
      Instance edb;
      for (RelationId rel : p.EdbRelations()) {
        if (trial == 0 || schema.NameOf(rel) == kADomRelationName) continue;
        const std::size_t arity = schema.ArityOf(rel);
        const std::size_t tuples = arity == 1 ? 6 : 5 + rng.Uniform(20);
        AddUniformRelation(schema, rel, 1 + rng.Uniform(tuples), 7, rng,
                           edb);
      }
      DatalogStats semi_stats;
      DatalogStats naive_stats;
      const Instance semi = EvaluateProgram(schema, p, edb, &semi_stats);
      const Instance naive =
          EvaluateProgramNaive(schema, p, edb, &naive_stats);
      EXPECT_EQ(semi, naive) << text << " trial " << trial;
      EXPECT_EQ(semi_stats.facts_derived, naive_stats.facts_derived)
          << text << " trial " << trial;
    }
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
  DatalogProgram p = ParseProgram(schema, kRecursiveInequality);
  Instance edb;
  AddCycleGraph(schema, schema.IdOf("E"), 4, edb);
  const Instance result = EvaluateProgram(schema, p, edb);
  // All pairs (x,y), x != y, reachable on the 4-cycle: 12 pairs.
  EXPECT_EQ(result.NumRows(schema.IdOf("P")), 12u);
}

/// The rows of \p state past \p marks, as an instance.
Instance RowsPast(const Instance& state,
                  const FixpointContinuation::Marks& marks) {
  Instance past;
  for (RelationId rel = 0; rel < state.NumRelationIds(); ++rel) {
    const RowsView rows = state.RowsOf(rel);
    for (std::size_t i = rel < marks.size() ? marks[rel] : 0;
         i < rows.num_rows; ++i) {
      past.InsertRow(rel, rows.Row(i), rows.arity);
    }
  }
  return past;
}

TEST(Continuation, ContinuingAFixpointEqualsEvaluatingTheUnion) {
  for (const char* text :
       {kLinearTc, kNonLinearTcSym, kComplementTc, kADomLoops,
        kADomHeadConstant}) {
    Schema schema;
    const DatalogProgram p = ParseProgram(schema, text);
    const std::size_t relations = schema.NumRelations();
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
      const Instance given = state;
      continuation.Continue(state, closed);

      // The closed state plus B, evaluated whole. A conclusion is never
      // withdrawn, so under negation that is not the fixpoint over the
      // graph; without negation it is.
      EXPECT_EQ(state, EvaluateProgram(schema, p, given))
          << text << " trial " << trial;
      if (!p.HasNegation()) {
        EXPECT_EQ(state, EvaluateProgram(schema, p, graph))
            << text << " trial " << trial;
      }
      // The rows past the mark are exactly the facts that are new.
      Instance difference;
      state.ForEachFact([&](const Fact& f) {
        if (!before.Contains(f)) difference.Insert(f);
      });
      EXPECT_EQ(RowsPast(state, closed), difference)
          << text << " trial " << trial;
      EXPECT_EQ(state.Size(), before.Size() + difference.Size());
      // Neither evaluation nor continuation registers relations.
      EXPECT_EQ(schema.NumRelations(), relations) << text;
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
