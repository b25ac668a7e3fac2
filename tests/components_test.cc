#include <gtest/gtest.h>

#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/components.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"

namespace lamp {
namespace {

class ComponentsTest : public ::testing::Test {
 protected:
  ComponentsTest() { e_ = schema_.AddRelation("E", 2); }

  Schema schema_;
  RelationId e_ = 0;
};

TEST_F(ComponentsTest, ConnectedCqDistributes) {
  // A connected query (triangle) only ever matches inside one component.
  const ConjunctiveQuery triangle =
      ParseQuery(schema_, "H(x,y,z) <- E(x,y), E(y,z), E(z,x)");
  QueryFunction q = [&triangle](const Instance& i) {
    return Evaluate(triangle, i);
  };
  EXPECT_FALSE(
      FindComponentDistributionViolation(schema_, {e_}, q, 4, 3).has_value());
}

TEST_F(ComponentsTest, DisconnectedCqDoesNotDistribute) {
  // A cartesian pair can straddle two components.
  const ConjunctiveQuery pair =
      ParseQuery(schema_, "H(x,u) <- E(x,y), E(u,v)");
  QueryFunction q = [&pair](const Instance& i) { return Evaluate(pair, i); };
  const auto witness =
      FindComponentDistributionViolation(schema_, {e_}, q, 4, 2);
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(DistributesOverComponentsOn(q, *witness));
}

TEST_F(ComponentsTest, TransitiveClosureDistributes) {
  // Connected Datalog (the Ameloot et al. [17] effective syntax):
  // reachability never crosses components.
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), TC(z,y)");
  const RelationId tc = schema.IdOf("TC");
  QueryFunction q = [&schema, &prog, tc](const Instance& edb) {
    const Instance everything = EvaluateProgram(schema, prog, edb);
    Instance out;
    everything.ForEachFactOf(tc, [&](const Fact& f) { out.Insert(f); });
    return out;
  };
  EXPECT_FALSE(FindComponentDistributionViolation(schema, {schema.IdOf("E")},
                                                  q, 4, 3)
                   .has_value());
}

TEST_F(ComponentsTest, ComplementTcDoesNotDistribute) {
  // not-TC relates values *across* components (a cannot reach b in a
  // different component), so the per-component union misses those pairs.
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), TC(z,y)\n"
                                     "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)");
  const RelationId out_rel = schema.IdOf("OUT");
  QueryFunction q = [&schema, &prog, out_rel](const Instance& edb) {
    const Instance everything = EvaluateProgram(schema, prog, edb);
    Instance out;
    everything.ForEachFactOf(out_rel, [&](const Fact& f) { out.Insert(f); });
    return out;
  };
  Instance two_components;
  two_components.Insert(Fact(schema.IdOf("E"), {0, 1}));
  two_components.Insert(Fact(schema.IdOf("E"), {5, 6}));
  EXPECT_FALSE(DistributesOverComponentsOn(q, two_components));
}

TEST_F(ComponentsTest, WinMoveDistributesOverComponents) {
  // Zinn-Green-Ludaescher via Ameloot et al.: win-move under the
  // well-founded semantics is domain-disjoint-monotone; in particular the
  // true facts distribute over game components.
  Schema schema;
  DatalogProgram prog = ParseProgram(schema, "WIN(x) <- MOVE(x,y), !WIN(y)");
  QueryFunction q = [&schema, &prog](const Instance& edb) {
    return EvaluateWellFounded(schema, prog, edb).true_facts;
  };
  // Two independent games: a chain (decided) and a cycle (drawn).
  Instance games;
  const RelationId move = schema.IdOf("MOVE");
  games.Insert(Fact(move, {1, 0}));
  games.Insert(Fact(move, {2, 1}));
  games.Insert(Fact(move, {10, 11}));
  games.Insert(Fact(move, {11, 10}));
  EXPECT_TRUE(DistributesOverComponentsOn(q, games));
  // And exhaustively over small games.
  EXPECT_FALSE(FindComponentDistributionViolation(schema,
                                                  {move}, q, 3, 3)
                   .has_value());
}

TEST_F(ComponentsTest, RandomFalsifierFindsCartesianViolation) {
  const ConjunctiveQuery pair =
      ParseQuery(schema_, "H(x,u) <- E(x,y), E(u,v)");
  QueryFunction q = [&pair](const Instance& i) { return Evaluate(pair, i); };
  Rng rng(5);
  EXPECT_TRUE(RandomComponentDistributionViolation(schema_, {e_}, q, 8, 4,
                                                   50, rng)
                  .has_value());
}

}  // namespace
}  // namespace lamp
