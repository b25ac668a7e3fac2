// Parameterized property sweeps across the whole stack: every MPC
// strategy must agree with centralized evaluation on every query shape;
// HyperCube policies must be parallel-correct for any share vector and
// hash seed; LP solutions must be feasible optima.

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cq/acyclic.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "distribution/hypercube.h"
#include "distribution/parallel_correctness.h"
#include "distribution/policies.h"
#include "lp/edge_packing.h"
#include "lp/simplex.h"
#include "mpc/cascade.h"
#include "mpc/gym.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "mpc/shares_skew.h"
#include "mpc/yannakakis.h"
#include "net/network.h"
#include "net/programs.h"
#include "relational/generators.h"
#include "route_row_check.h"

namespace lamp {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: MPC strategies vs centralized evaluation, across query shapes.
// ---------------------------------------------------------------------------

struct QueryCase {
  const char* name;
  const char* text;
  bool acyclic;
  bool self_join_free;
};

class MpcEquivalence : public ::testing::TestWithParam<QueryCase> {
 protected:
  Instance RandomInput(Schema& schema, const ConjunctiveQuery& q,
                       std::uint64_t seed) {
    Rng rng(seed);
    Instance db;
    std::set<RelationId> done;
    for (const Atom& atom : q.body()) {
      if (!done.insert(atom.relation).second) continue;
      AddUniformRelation(schema, atom.relation, 150, 25, rng, db);
    }
    return db;
  }
};

TEST_P(MpcEquivalence, HyperCubeMatchesCentralized) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, GetParam().text);
  const Instance db = RandomInput(schema, q, 1);
  const Instance expected = Evaluate(q, db);
  for (std::size_t p : {1u, 8u, 27u}) {
    EXPECT_EQ(RunHyperCubeUniform(q, db, p, 3).output, expected)
        << GetParam().name << " p=" << p;
    EXPECT_EQ(RunHyperCubeLpShares(q, db, p, 3).output, expected)
        << GetParam().name << " lp p=" << p;
  }
}

TEST_P(MpcEquivalence, CascadeMatchesCentralized) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, GetParam().text);
  const Instance db = RandomInput(schema, q, 2);
  EXPECT_EQ(CascadeJoin(schema, q, db, 6, 5).output, Evaluate(q, db))
      << GetParam().name;
}

TEST_P(MpcEquivalence, GymMatchesCentralized) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, GetParam().text);
  if (q.HasSelfJoin()) GTEST_SKIP() << "GYM phase 2 assumes no self-joins";
  const Instance db = RandomInput(schema, q, 3);
  EXPECT_EQ(GymEvaluate(schema, q, db, 6, 7).output, Evaluate(q, db))
      << GetParam().name;
}

TEST_P(MpcEquivalence, YannakakisMatchesCentralizedWhenAcyclic) {
  if (!GetParam().acyclic || !GetParam().self_join_free) {
    GTEST_SKIP() << "Yannakakis needs an acyclic self-join-free query";
  }
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, GetParam().text);
  const Instance db = RandomInput(schema, q, 4);
  EXPECT_EQ(YannakakisMpc(schema, q, db, 6, 9).output, Evaluate(q, db))
      << GetParam().name;
}

// The one-round join strategies' policies are the routing the simulator
// runs, so the deciders judge that routing itself: on every binary
// self-join-free shape, the HashPolicy RepartitionJoin builds, the
// fragment-replicate grid and the SharesSkew policy (value 1 heavy) are
// parallel-correct over a 3-value universe, and each one's RouteRow is
// well formed, also for a relation outside the query (routed nowhere).
TEST_P(MpcEquivalence, ShippedOneRoundPoliciesAreParallelCorrect) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, GetParam().text);
  if (q.body().size() != 2 || q.HasSelfJoin()) {
    GTEST_SKIP() << "the binary join policies need two distinct atoms";
  }
  const RelationId outside = schema.AddRelation("Outside", 2);
  const std::vector<Value> universe = MakeUniverse(3);
  std::vector<Fact> facts;
  for (const RelationId rel :
       {q.body()[0].relation, q.body()[1].relation, outside}) {
    for (const Value a : universe) {
      for (const Value b : universe) facts.push_back(Fact(rel, {a, b}));
    }
  }
  for (const std::size_t p : {1u, 5u, 9u, 16u}) {
    for (const std::uint64_t seed : {0u, 7u, 99u}) {
      SCOPED_TRACE(::testing::Message() << "p=" << p << " seed=" << seed);
      const HashPolicy repartition = RepartitionPolicy(q, p, seed, universe);
      const GridPolicy grid = FragmentReplicatePolicy(q, p, seed, universe);
      const SharesSkewPolicy skew(q, p, {Value(1)}, universe, seed);
      for (const DistributionPolicy* policy :
           {static_cast<const DistributionPolicy*>(&repartition),
            static_cast<const DistributionPolicy*>(&grid),
            static_cast<const DistributionPolicy*>(&skew)}) {
        EXPECT_TRUE(IsParallelCorrect(q, *policy));
        for (const Fact& f : facts) {
          const std::vector<NodeId> routed =
              ExpectRouteRowWellFormed(*policy, schema, f);
          if (f.relation == outside) {
            EXPECT_TRUE(routed.empty());
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueryShapes, MpcEquivalence,
    ::testing::Values(
        QueryCase{"join", "H(x,y,z) <- R(x,y), S(y,z)", true, true},
        QueryCase{"triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)", false,
                  true},
        QueryCase{"path3", "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w)", true,
                  true},
        QueryCase{"star", "H(x,a,b) <- R(x,a), S(x,b)", true, true},
        QueryCase{"selfjoin_path", "H(x,z) <- R(x,y), R(y,z)", true, false},
        QueryCase{"cycle4",
                  "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)", false,
                  true},
        QueryCase{"tri_ineq",
                  "H(x,y,z) <- R(x,y), S(y,z), T(z,x), x != y", false, true},
        QueryCase{"repeated_var", "H(x,y) <- R(x,x), S(x,y)", true, true},
        QueryCase{"constant", "H(x,z) <- R(x,y), S(y,z), T(z,3)", true,
                  true},
        QueryCase{"selfjoin_path3", "H(x,w) <- R(x,y), R(y,z), R(z,w)",
                  true, false}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Sweep 2: HyperCube policies saturate their query for any share vector
// and hash seed (Section 4.1's "every Hypercube distribution strongly
// saturates Q").
// ---------------------------------------------------------------------------

class HypercubeSaturation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HypercubeSaturation, StronglySaturatesTriangle) {
  const int share_case = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  Schema schema;
  const ConjunctiveQuery triangle =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  static constexpr std::size_t kShareTable[][3] = {
      {1, 1, 1}, {2, 2, 2}, {1, 4, 2}, {3, 1, 1}};
  const auto& row = kShareTable[share_case];
  const HypercubePolicy policy(triangle, {row[0], row[1], row[2]},
                               MakeUniverse(3),
                               static_cast<std::uint64_t>(seed));
  EXPECT_TRUE(StronglySaturates(policy, triangle));
  EXPECT_TRUE(IsParallelCorrect(triangle, policy));
}

INSTANTIATE_TEST_SUITE_P(SharesAndSeeds, HypercubeSaturation,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(0, 7, 99)));

// A repartition that keys R on x but S on y does not make R(a,b) and
// S(a,b) meet: both deciders must catch it. Over a finite universe a
// verdict is a falsifier, not a proof for the 64-bit domain.
TEST(ShippedPolicies, MutantRepartitionIsRejected) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y) <- R(x,y), S(x,y)");
  for (const std::size_t p : {2u, 4u, 8u}) {
    for (const std::uint64_t seed : {0u, 7u}) {
      SCOPED_TRACE(::testing::Message() << "p=" << p << " seed=" << seed);
      HashPolicy mutant(p, MakeUniverse(4), seed);
      mutant.SetKey(schema.IdOf("R"), {0});
      mutant.SetKey(schema.IdOf("S"), {1});
      EXPECT_FALSE(Saturates(mutant, q));
      EXPECT_FALSE(IsParallelCorrect(q, mutant));
      const std::optional<Instance> witness =
          FindPcCounterexample(schema, q, mutant, /*max_facts=*/2);
      ASSERT_TRUE(witness.has_value());
      EXPECT_FALSE(IsParallelCorrectOn(q, mutant, *witness));
      // The shipped key (both atoms on (x, y)) is correct.
      EXPECT_TRUE(IsParallelCorrect(
          q, RepartitionPolicy(q, p, seed, MakeUniverse(4))));
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep 2b: SemijoinReduce is a full reducer (Section 3.2): afterwards
// each atom's relation holds exactly the facts some answer-reaching
// valuation maps the atom to, on random acyclic queries whose atoms carry
// constants and repeated variables.
// ---------------------------------------------------------------------------

class FullReducer : public ::testing::TestWithParam<int> {};

TEST_P(FullReducer, SemijoinReduceKeepsExactlyTheAnswerFacts) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  // A random join tree of 2-4 atoms (draws 0-39) or a single atom (draws
  // 40-49, which run no round): atom i > 0 shares one variable of a random
  // earlier atom; every other term is a constant, a repeat of one of the
  // atom's variables or a fresh variable.
  std::vector<std::vector<std::string>> atoms;
  std::size_t num_vars = 0;
  const std::size_t n = GetParam() < 40 ? 2 + rng.Uniform(3) : 1;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> vars;
    if (i > 0) {
      std::vector<std::string> parent_vars;
      for (const std::string& t : atoms[rng.Uniform(i)]) {
        if (t[0] == 'v') parent_vars.push_back(t);
      }
      vars.push_back(parent_vars[rng.Uniform(parent_vars.size())]);
    } else {
      vars.push_back(std::string("v").append(std::to_string(num_vars++)));
    }
    std::vector<std::string> terms = vars;
    const std::size_t arity = 2 + rng.Uniform(2);
    while (terms.size() < arity) {
      const std::uint64_t kind = rng.Uniform(5);
      if (kind == 0) {
        terms.push_back(std::to_string(rng.Uniform(4)));
      } else if (kind == 1) {
        terms.push_back(vars[rng.Uniform(vars.size())]);
      } else {
        vars.push_back(std::string("v").append(std::to_string(num_vars++)));
        terms.push_back(vars.back());
      }
    }
    rng.Shuffle(terms);
    atoms.push_back(std::move(terms));
  }
  std::string text = "Full(";
  for (std::size_t v = 0; v < num_vars; ++v) {
    text.append(v > 0 ? ",v" : "v").append(std::to_string(v));
  }
  text.append(") <- ");
  for (std::size_t i = 0; i < n; ++i) {
    text.append(i > 0 ? ", R" : "R").append(std::to_string(i)).append("(");
    for (std::size_t t = 0; t < atoms[i].size(); ++t) {
      text.append(t > 0 ? "," : "").append(atoms[i][t]);
    }
    text.append(")");
  }
  SCOPED_TRACE(text);
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, text);
  const JoinTree tree = BuildJoinTree(q);
  ASSERT_TRUE(tree.acyclic);

  Instance db;
  for (const Atom& atom : q.body()) {
    AddUniformRelation(schema, atom.relation,
                       atom.terms.size() == 2 ? 10 : 30, 4, rng, db);
  }
  // The head lists v0, v1, ... in order, so column k of an answer is vk.
  Instance expected;
  Evaluate(q, db).ForEachRow(q.head().relation, [&](const Value* answer) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Value> args;
      for (const std::string& t : atoms[i]) {
        args.push_back(t[0] == 'v' ? answer[std::stoul(t.substr(1))]
                                   : Value(std::stoll(t)));
      }
      expected.Insert(Fact(q.body()[i].relation, std::move(args)));
    }
  });
  for (const std::size_t p : {1u, 6u, 16u}) {
    EXPECT_EQ(SemijoinReduce(q, tree, db, p, 3).output, expected)
        << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomAcyclicQueries, FullReducer,
                         ::testing::Range(0, 50));

// ---------------------------------------------------------------------------
// Sweep 3: simplex solutions are feasible optima on random LPs.
// ---------------------------------------------------------------------------

class SimplexProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexProperty, OptimumIsFeasibleAndUndominated) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  LinearProgram lp;
  lp.num_vars = 3;
  lp.objective = {rng.UniformDouble(), rng.UniformDouble(),
                  rng.UniformDouble()};
  // Random <= constraints with positive coefficients: always feasible
  // (origin) and bounded (every variable has positive weight somewhere).
  for (int c = 0; c < 4; ++c) {
    LinearProgram::Constraint row;
    row.coeffs = {0.1 + rng.UniformDouble(), 0.1 + rng.UniformDouble(),
                  0.1 + rng.UniformDouble()};
    row.type = ConstraintType::kLe;
    row.rhs = 1.0 + 4.0 * rng.UniformDouble();
    lp.constraints.push_back(std::move(row));
  }
  const LpSolution sol = SolveLp(lp);
  ASSERT_EQ(sol.status, LpSolution::Status::kOptimal);

  auto feasible = [&lp](const std::vector<double>& x) {
    for (const auto& row : lp.constraints) {
      double lhs = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) lhs += row.coeffs[i] * x[i];
      if (lhs > row.rhs + 1e-7) return false;
    }
    for (double v : x) {
      if (v < -1e-9) return false;
    }
    return true;
  };
  EXPECT_TRUE(feasible(sol.x));

  // No random feasible point beats the reported optimum.
  for (int t = 0; t < 200; ++t) {
    std::vector<double> x = {5 * rng.UniformDouble(), 5 * rng.UniformDouble(),
                             5 * rng.UniformDouble()};
    if (!feasible(x)) continue;
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      value += lp.objective[i] * x[i];
    }
    EXPECT_LE(value, sol.objective_value + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Sweep 4: LP duality tau* vs share exponents across generated star
// queries of increasing width.
// ---------------------------------------------------------------------------

class StarDuality : public ::testing::TestWithParam<int> {};

TEST_P(StarDuality, LoadExponentIsInverseTau) {
  const int arms = GetParam();
  Schema schema;
  std::string text = "H(x";
  for (int i = 0; i < arms; ++i) {
    text += ",a";
    text += std::to_string(i);
  }
  text += ") <- ";
  for (int i = 0; i < arms; ++i) {
    if (i > 0) text += ", ";
    text += "R";
    text += std::to_string(i);
    text += "(x,a";
    text += std::to_string(i);
    text += ")";
  }
  const ConjunctiveQuery q = ParseQuery(schema, text);
  const double tau = FractionalEdgePackingValue(q);
  EXPECT_NEAR(tau, 1.0, 1e-9);  // All arms share the hub variable.
  EXPECT_NEAR(OptimalShareExponents(q).load_exponent, 1.0 / tau, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Widths, StarDuality, ::testing::Range(1, 6));


// ---------------------------------------------------------------------------
// Sweep 5: scheduler robustness — the monotone broadcast strategy is
// consistent for every (node count, seed) combination (the operational
// content of "every run computes Q").
// ---------------------------------------------------------------------------

class SchedulerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedulerSweep, MonotoneBroadcastConsistentOnEverySchedule) {
  const auto nodes = static_cast<std::size_t>(std::get<0>(GetParam()));
  const auto seed = static_cast<std::uint64_t>(std::get<1>(GetParam()));
  Schema schema;
  const ConjunctiveQuery wedge =
      ParseQuery(schema, "H(x,z) <- E(x,y), E(y,z)");
  Rng rng(99);
  Instance graph;
  AddRandomGraph(schema, schema.IdOf("E"), 30, 10, rng, graph);
  const Instance expected = Evaluate(wedge, graph);

  NetQueryFunction q = [&wedge](const Instance& i) {
    return Evaluate(wedge, i);
  };
  MonotoneBroadcastProgram program(q);
  TransducerNetwork network(DistributeRoundRobin(graph, nodes), program,
                            nullptr, /*aware=*/false);
  EXPECT_EQ(network.Run(seed).output, expected);
}

INSTANTIATE_TEST_SUITE_P(NodesAndSeeds, SchedulerSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 6),
                                            ::testing::Range(0, 6)));

}  // namespace
}  // namespace lamp
