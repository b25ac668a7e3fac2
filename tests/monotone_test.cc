#include <gtest/gtest.h>

#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/monotone.h"
#include "datalog/program.h"

namespace lamp {
namespace {

/// Wraps a CQ (possibly with negation) as a black-box QueryFunction.
QueryFunction WrapQuery(const ConjunctiveQuery& q) {
  return [&q](const Instance& instance) { return Evaluate(q, instance); };
}

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest() {
    e_ = schema_.AddRelation("E", 2);
    triangle_ = ParseQuery(schema_, "H(x,y,z) <- E(x,y), E(y,z), E(z,x)");
    open_triangle_ =
        ParseQuery(schema_, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  }

  Schema schema_;
  RelationId e_ = 0;
  ConjunctiveQuery triangle_;
  ConjunctiveQuery open_triangle_;
};

TEST_F(HierarchyTest, TriangleIsMonotone) {
  // Plain CQs are monotone: no violation even in the exhaustive search.
  EXPECT_FALSE(FindMonotonicityViolation(schema_, {e_}, WrapQuery(triangle_),
                                         MonotonicityKind::kPlain, 2, 1, 3)
                   .has_value());
}

TEST_F(HierarchyTest, OpenTriangleIsNotMonotone) {
  // Example 5.1(2): adding the closing edge retracts the open triangle.
  const auto violation = FindMonotonicityViolation(
      schema_, {e_}, WrapQuery(open_triangle_), MonotonicityKind::kPlain, 2,
      1, 3);
  ASSERT_TRUE(violation.has_value());
  // The witness must be a genuine violation.
  const Instance& base = violation->first;
  Instance merged = base;
  merged.InsertAll(violation->second);
  const Instance before = Evaluate(open_triangle_, base);
  const Instance after = Evaluate(open_triangle_, merged);
  bool retracted = false;
  for (const Fact& f : before.AllFacts()) {
    if (!after.Contains(f)) retracted = true;
  }
  EXPECT_TRUE(retracted);
}

TEST_F(HierarchyTest, OpenTriangleIsDomainDistinctMonotone) {
  // Example 5.6: the open-triangle query is in Mdistinct — the closing
  // edge E(c,a) uses only values already in adom(I), so no domain-distinct
  // J can retract an answer.
  EXPECT_FALSE(FindMonotonicityViolation(schema_, {e_},
                                         WrapQuery(open_triangle_),
                                         MonotonicityKind::kDomainDistinct,
                                         2, 2, 3)
                   .has_value());
}

TEST_F(HierarchyTest, ComplementTcIsNotDomainDistinctMonotone) {
  // Example 5.6: Q_notTC((a,b)) holds on I = {E(a,a), E(b,b)} (no a->b
  // path) but adding the domain-distinct path {E(a,c), E(c,b)} retracts
  // it.
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), TC(z,y)\n"
                                     "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)");
  const RelationId out = schema.IdOf("OUT");
  QueryFunction not_tc = [&schema, &prog, out](const Instance& edb) {
    const Instance everything = EvaluateProgram(schema, prog, edb);
    Instance result;
    everything.ForEachFactOf(out, [&](const Fact& f) { result.Insert(f); });
    return result;
  };
  // The paper's witness, found automatically by the exhaustive search.
  const auto violation = FindMonotonicityViolation(
      schema, {schema.IdOf("E")}, not_tc, MonotonicityKind::kDomainDistinct,
      2, 1, 2);
  EXPECT_TRUE(violation.has_value());
}

TEST_F(HierarchyTest, ComplementTcIsDomainDisjointMonotone) {
  // Example 5.10: domain-disjoint additions cannot create new paths
  // between old values.
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), TC(z,y)\n"
                                     "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)");
  const RelationId out = schema.IdOf("OUT");
  QueryFunction not_tc = [&schema, &prog, out](const Instance& edb) {
    const Instance everything = EvaluateProgram(schema, prog, edb);
    Instance result;
    everything.ForEachFactOf(out, [&](const Fact& f) { result.Insert(f); });
    return result;
  };
  EXPECT_FALSE(FindMonotonicityViolation(schema, {schema.IdOf("E")}, not_tc,
                                         MonotonicityKind::kDomainDisjoint,
                                         2, 2, 2)
                   .has_value());
}

TEST_F(HierarchyTest, NoTriangleQueryIsNotDomainDisjointMonotone) {
  // Example 5.10: Q_NT returns E if the graph has no (3-node) triangle.
  // I = {E(a,a)}: output E(a,a); adding a disjoint triangle empties it.
  const ConjunctiveQuery strict_triangle = ParseQuery(
      schema_, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, z != x");
  QueryFunction q_nt = [this, &strict_triangle](const Instance& edb) {
    Instance out;
    if (Evaluate(strict_triangle, edb).Empty()) {
      edb.ForEachFactOf(e_, [&](const Fact& f) { out.Insert(f); });
    }
    return out;
  };
  const auto violation = FindMonotonicityViolation(
      schema_, {e_}, q_nt, MonotonicityKind::kDomainDisjoint, 1, 3, 3);
  EXPECT_TRUE(violation.has_value());
}

TEST(MonotoneConstraints, AdditionConstraintSemantics) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  Instance base;
  base.Insert(Fact(e, {1, 2}));

  Instance mixed;  // One old value, one new.
  mixed.Insert(Fact(e, {2, 9}));
  EXPECT_TRUE(SatisfiesAdditionConstraint(base, mixed,
                                          MonotonicityKind::kPlain));
  EXPECT_TRUE(SatisfiesAdditionConstraint(base, mixed,
                                          MonotonicityKind::kDomainDistinct));
  EXPECT_FALSE(SatisfiesAdditionConstraint(
      base, mixed, MonotonicityKind::kDomainDisjoint));

  Instance old_only;
  old_only.Insert(Fact(e, {2, 1}));
  EXPECT_FALSE(SatisfiesAdditionConstraint(
      base, old_only, MonotonicityKind::kDomainDistinct));

  Instance fresh;
  fresh.Insert(Fact(e, {8, 9}));
  EXPECT_TRUE(SatisfiesAdditionConstraint(base, fresh,
                                          MonotonicityKind::kDomainDisjoint));
}

TEST(MonotoneRandom, RandomFalsifierFindsOpenTriangleViolation) {
  Schema schema;
  const ConjunctiveQuery open_triangle =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(13);
  const auto violation = RandomMonotonicityViolation(
      schema, {schema.IdOf("E")}, WrapQuery(open_triangle),
      MonotonicityKind::kPlain, 6, 8, 500, rng);
  EXPECT_TRUE(violation.has_value());
}

TEST(MonotoneRandom, RandomFalsifierRespectsDistinctConstraint) {
  Schema schema;
  const ConjunctiveQuery open_triangle =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(17);
  // In Mdistinct: the falsifier must come up empty.
  EXPECT_FALSE(RandomMonotonicityViolation(
                   schema, {schema.IdOf("E")}, WrapQuery(open_triangle),
                   MonotonicityKind::kDomainDistinct, 6, 8, 300, rng)
                   .has_value());
}

}  // namespace
}  // namespace lamp
