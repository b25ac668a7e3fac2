#include <cmath>

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "lp/edge_packing.h"
#include "lp/simplex.h"

namespace lamp {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> optimum at (4, 0) = 12.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {3.0, 2.0};
  lp.constraints.push_back({{1.0, 1.0}, ConstraintType::kLe, 4.0});
  lp.constraints.push_back({{1.0, 3.0}, ConstraintType::kLe, 6.0});
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpSolution::Status::kOptimal);
  EXPECT_NEAR(sol.objective_value, 12.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y s.t. x + y = 3, x <= 1 -> 3 with x in [0,1].
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{1.0, 1.0}, ConstraintType::kEq, 3.0});
  lp.constraints.push_back({{1.0, 0.0}, ConstraintType::kLe, 1.0});
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpSolution::Status::kOptimal);
  EXPECT_NEAR(sol.objective_value, 3.0, 1e-9);
}

TEST(Simplex, GeConstraint) {
  // min x (== max -x) s.t. x >= 2.5 -> 2.5.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {-1.0};
  lp.constraints.push_back({{1.0}, ConstraintType::kGe, 2.5});
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpSolution::Status::kOptimal);
  EXPECT_NEAR(-sol.objective_value, 2.5, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  // x <= 1 and x >= 2.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.constraints.push_back({{1.0}, ConstraintType::kLe, 1.0});
  lp.constraints.push_back({{1.0}, ConstraintType::kGe, 2.0});
  EXPECT_EQ(SolveLp(lp).status, LpSolution::Status::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 0.0};
  lp.constraints.push_back({{0.0, 1.0}, ConstraintType::kLe, 1.0});
  EXPECT_EQ(SolveLp(lp).status, LpSolution::Status::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // -x <= -2 is x >= 2; max -x -> -2.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {-1.0};
  lp.constraints.push_back({{-1.0}, ConstraintType::kLe, -2.0});
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpSolution::Status::kOptimal);
  EXPECT_NEAR(sol.objective_value, -2.0, 1e-9);
}

// --- Edge packing values from the paper and the BKS line of work ---------

TEST(EdgePacking, BinaryJoinHasTauOne) {
  // Q1: H(x,y,z) <- R(x,y), S(y,z): tau* = 1 (y is shared), load m/p.
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  EXPECT_NEAR(FractionalEdgePackingValue(q), 1.0, 1e-9);
}

TEST(EdgePacking, TriangleHasTauThreeHalves) {
  // Section 3.1: tau*(triangle) = 3/2, load m/p^{2/3}.
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  EXPECT_NEAR(FractionalEdgePackingValue(q), 1.5, 1e-9);
}

TEST(EdgePacking, CartesianProductTauTwo) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y) <- R(x), S(y)");
  EXPECT_NEAR(FractionalEdgePackingValue(q), 2.0, 1e-9);
}

TEST(EdgePacking, StarQueryTauOne) {
  // All atoms share the center variable: at most total weight 1.
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,a,b,c) <- R(x,a), S(x,b), T(x,c)");
  EXPECT_NEAR(FractionalEdgePackingValue(q), 1.0, 1e-9);
}

TEST(EdgePacking, PathOfLengthThreeIsTwo) {
  // R and T are disjoint edges: pack both with weight 1.
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w)");
  EXPECT_NEAR(FractionalEdgePackingValue(q), 2.0, 1e-9);
}

TEST(EdgePacking, FourCycleTauTwo) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)");
  EXPECT_NEAR(FractionalEdgePackingValue(q), 2.0, 1e-9);
}

TEST(Shares, TriangleExponentsAreUniform) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  const ShareExponents shares = OptimalShareExponents(q);
  EXPECT_NEAR(shares.load_exponent, 2.0 / 3.0, 1e-9);
  for (double e : shares.exponent) EXPECT_NEAR(e, 1.0 / 3.0, 1e-9);
}

TEST(Shares, LoadExponentIsInverseTauStar) {
  // LP duality: min-max share exponent == 1/tau*, checked on a family of
  // queries with different structure.
  const char* queries[] = {
      "H(x,y,z) <- R(x,y), S(y,z)",
      "H(x,y,z) <- R(x,y), S(y,z), T(z,x)",
      "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)",
      "H(x,a,b,c) <- R(x,a), S(x,b), T(x,c)",
      "H(x,y) <- R(x), S(y)",
      "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w)",
  };
  for (const char* text : queries) {
    Schema schema;  // Fresh schema: H has a different arity per query.
    const ConjunctiveQuery q = ParseQuery(schema, text);
    const double tau = FractionalEdgePackingValue(q);
    const ShareExponents shares = OptimalShareExponents(q);
    EXPECT_NEAR(shares.load_exponent, 1.0 / tau, 1e-7) << text;
  }
}

TEST(Shares, JoinPutsAllShareOnJoinVariable) {
  // For R(x,y) |x| S(y,z) the optimal grid hashes only y: x_y = 1.
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  const ShareExponents shares = OptimalShareExponents(q);
  EXPECT_NEAR(shares.exponent[q.FindVar("y")], 1.0, 1e-9);
  EXPECT_NEAR(shares.exponent[q.FindVar("x")], 0.0, 1e-9);
  EXPECT_NEAR(shares.exponent[q.FindVar("z")], 0.0, 1e-9);
}

}  // namespace
}  // namespace lamp
