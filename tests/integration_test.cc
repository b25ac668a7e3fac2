// Cross-module integration: the paper's two halves composed — MPC-style
// distribution policies feeding asynchronous transducer networks — plus
// checked-error behaviour at module boundaries.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "mpc/hypercube_run.h"
#include "mpc/simulator.h"
#include "net/consistency.h"
#include "net/programs.h"
#include "relational/generators.h"

namespace lamp {
namespace {

TEST(Integration, HypercubeDistributionFeedsTransducerNetwork) {
  // Distribute a database with the HyperCube policy (Section 3/4), then
  // let an asynchronous network (Section 5) answer the same query under
  // eventual consistency: the synchronous reshuffle and the asynchronous
  // broadcast agree on the result.
  Schema schema;
  const ConjunctiveQuery triangle =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  Rng rng(3);
  Instance db;
  AddRandomGraph(schema, schema.IdOf("R"), 60, 15, rng, db);
  AddRandomGraph(schema, schema.IdOf("S"), 60, 15, rng, db);
  AddRandomGraph(schema, schema.IdOf("T"), 60, 15, rng, db);

  const Instance expected = Evaluate(triangle, db);

  // Synchronous: one MPC round.
  const MpcRunResult mpc = RunHyperCubeUniform(triangle, db, 8, 5);
  EXPECT_EQ(mpc.output, expected);

  // Asynchronous: the HyperCube locals as the horizontal distribution.
  const HypercubePolicy policy(triangle, UniformShares(triangle, 8),
                               MakeUniverse(1), 5);
  NetQueryFunction q = [&triangle](const Instance& i) {
    return Evaluate(triangle, i);
  };
  MonotoneBroadcastProgram program(q);
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, {DistributeByPolicy(db, policy)}, expected, 5, nullptr,
      /*aware=*/false);
  EXPECT_TRUE(sweep.all_runs_correct);
}

TEST(Integration, ValuationToStringNamesVariables) {
  Schema schema;
  ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,y)");
  Valuation v(q.NumVars());
  v.Bind(q.VarIdOf("x"), Value(3));
  const std::string s = v.ToString(q);
  EXPECT_NE(s.find("x->3"), std::string::npos);
  EXPECT_EQ(s.find("y->"), std::string::npos);  // Unbound not printed.
}

TEST(IntegrationDeath, ParserRejectsInconsistentArity) {
  Schema schema;
  ParseQuery(schema, "H(x) <- R(x,y)");
  EXPECT_DEATH(ParseQuery(schema, "G(x) <- R(x)"), "arity");
}

TEST(IntegrationDeath, ValidateRejectsUnsafeHead) {
  Schema schema;
  EXPECT_DEATH(ParseQuery(schema, "H(z) <- R(x,y)"), "unsafe");
}

TEST(IntegrationDeath, ValidateRejectsUnsafeNegation) {
  Schema schema;
  EXPECT_DEATH(ParseQuery(schema, "H(x) <- R(x,y), !S(z)"), "unsafe");
}

TEST(IntegrationDeath, SchemaRejectsArityChange) {
  Schema schema;
  schema.AddRelation("R", 2);
  EXPECT_DEATH(schema.AddRelation("R", 3), "arity");
}

TEST(IntegrationDeath, HypercubeRejectsWrongShareCount) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y) <- R(x,y)");
  EXPECT_DEATH(HypercubePolicy(q, {2, 2, 2}, MakeUniverse(2)),
               "shares_.size");
}

}  // namespace
}  // namespace lamp
