#include <set>

#include <gtest/gtest.h>

#include "cq/eval.h"
#include "cq/parser.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "distribution/parallel_correctness.h"
#include "relational/generators.h"
#include "route_row_check.h"

namespace lamp {
namespace {

class HypercubeTest : public ::testing::Test {
 protected:
  HypercubeTest()
      : triangle_(
            ParseQuery(schema_, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)")) {}

  Schema schema_;
  ConjunctiveQuery triangle_;
};

TEST_F(HypercubeTest, GridGeometry) {
  // Example 3.2 with alpha_x = 2, alpha_y = 3, alpha_z = 4: 24 servers.
  HypercubePolicy policy(triangle_, {2, 3, 4}, MakeUniverse(10));
  EXPECT_EQ(policy.NumNodes(), 24u);
  for (NodeId node = 0; node < 24; ++node) {
    EXPECT_EQ(policy.NodeAt(policy.Coordinates(node)), node);
  }
}

TEST_F(HypercubeTest, ReplicationFactorsMatchExample32) {
  // R(a,b) is replicated alpha_z times, S alpha_x times, T alpha_y times.
  HypercubePolicy policy(triangle_, {2, 3, 4}, MakeUniverse(10));
  EXPECT_EQ(policy.ReplicationOf(0), 4u);  // R(x,y): free dim z.
  EXPECT_EQ(policy.ReplicationOf(1), 2u);  // S(y,z): free dim x.
  EXPECT_EQ(policy.ReplicationOf(2), 3u);  // T(z,x): free dim y.

  const Fact r_fact(schema_.IdOf("R"), {5, 6});
  EXPECT_EQ(policy.ResponsibleNodes(r_fact).size(), 4u);
  const Fact s_fact(schema_.IdOf("S"), {5, 6});
  EXPECT_EQ(policy.ResponsibleNodes(s_fact).size(), 2u);
  const Fact t_fact(schema_.IdOf("T"), {5, 6});
  EXPECT_EQ(policy.ResponsibleNodes(t_fact).size(), 3u);
}

// Every fact over \p relations with arities 1..3 and values in [0, 4).
std::vector<Fact> SmallFacts(const std::vector<RelationId>& relations) {
  std::vector<Fact> facts;
  for (const RelationId rel : relations) {
    for (std::int64_t a = 0; a < 4; ++a) {
      facts.push_back(Fact(rel, {a}));
      for (std::int64_t b = 0; b < 4; ++b) {
        facts.push_back(Fact(rel, {a, b}));
        facts.push_back(Fact(rel, {a, b, (a + b) % 4}));
      }
    }
  }
  return facts;
}

// The coordinate-membership oracle of Example 3.2: \p node holds \p f
// when f matches some body atom of \p query (relation, arity, constants)
// and the node's coordinate along every variable of that atom is the
// hash of the value at each of the variable's positions.
bool OnCoordinates(const HypercubePolicy& policy,
                   const ConjunctiveQuery& query, NodeId node, const Fact& f) {
  const std::vector<std::size_t> coords = policy.Coordinates(node);
  for (const Atom& atom : query.body()) {
    if (atom.relation != f.relation || atom.terms.size() != f.args.size()) {
      continue;
    }
    bool on = true;
    for (std::size_t i = 0; i < f.args.size() && on; ++i) {
      const Term& t = atom.terms[i];
      on = t.IsConst() ? t.constant == f.args[i]
                       : policy.HashVar(t.var, f.args[i]) == coords[t.var];
    }
    if (on) return true;
  }
  return false;
}

TEST_F(HypercubeTest, RouteRowMatchesCoordinateOracle) {
  // Plain atoms, a self-join, a repeated variable and a constant; the
  // facts include arities no atom has and a relation no atom uses.
  const char* const queries[] = {
      "H(x,y,z) <- R(x,y), S(y,z), T(z,x)",
      "H(x,y,z) <- R(x,y), R(y,z)",
      "H(x,y,z) <- R(x,y), R(y,z), R(z,x)",
      "H2(x,y) <- R(x,x), S(x,y)",
      "H2(x,y) <- R(x,2), S(x,y), R(y,y)",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    const ConjunctiveQuery q = ParseQuery(schema_, text);
    const RelationId unused = schema_.AddRelation("U", 2);
    std::vector<RelationId> relations = {unused};
    for (const Atom& atom : q.body()) relations.push_back(atom.relation);
    for (const std::uint64_t seed : {3u, 11u}) {
      const HypercubePolicy policy(q, Shares(q.NumVars(), 3),
                                   MakeUniverse(6), seed);
      for (const Fact& f : SmallFacts(relations)) {
        const std::vector<NodeId> routed =
            ExpectRouteRowWellFormed(policy, schema_, f);
        std::set<NodeId> oracle;
        for (NodeId n = 0; n < policy.NumNodes(); ++n) {
          if (OnCoordinates(policy, q, n, f)) oracle.insert(n);
        }
        EXPECT_EQ(std::set<NodeId>(routed.begin(), routed.end()), oracle)
            << FactToString(schema_, f);
      }
    }
  }
}

TEST_F(HypercubeTest, ValuationsMeetAtTheirServer) {
  // Correctness argument of Example 3.2: for every valuation (a,b,c),
  // the three required facts meet at server (h_x(a), h_y(b), h_z(c)).
  HypercubePolicy policy(triangle_, {2, 3, 2}, MakeUniverse(8), 17);
  const VarId x = triangle_.FindVar("x");
  const VarId y = triangle_.FindVar("y");
  const VarId z = triangle_.FindVar("z");
  for (std::int64_t a = 0; a < 8; ++a) {
    for (std::int64_t b = 0; b < 8; ++b) {
      for (std::int64_t c = 0; c < 8; ++c) {
        std::vector<std::size_t> coords(3);
        coords[x] = policy.HashVar(x, Value(a));
        coords[y] = policy.HashVar(y, Value(b));
        coords[z] = policy.HashVar(z, Value(c));
        const NodeId server = policy.NodeAt(coords);
        EXPECT_TRUE(
            policy.IsResponsible(server, Fact(schema_.IdOf("R"), {a, b})));
        EXPECT_TRUE(
            policy.IsResponsible(server, Fact(schema_.IdOf("S"), {b, c})));
        EXPECT_TRUE(
            policy.IsResponsible(server, Fact(schema_.IdOf("T"), {c, a})));
      }
    }
  }
}

TEST_F(HypercubeTest, StronglySaturatesItsQuery) {
  // Section 4.1: every HyperCube distribution strongly saturates its query,
  // independent of shares and hash functions.
  for (std::uint64_t seed : {0ULL, 1ULL, 99ULL}) {
    HypercubePolicy policy(triangle_, {2, 1, 3}, MakeUniverse(4), seed);
    EXPECT_TRUE(StronglySaturates(policy, triangle_));
    EXPECT_TRUE(Saturates(policy, triangle_));
    EXPECT_TRUE(IsParallelCorrect(triangle_, policy));
  }
}

TEST_F(HypercubeTest, DistributedEvalMatchesCentralized) {
  HypercubePolicy policy(triangle_, {2, 2, 2}, MakeUniverse(12), 5);
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst;
    AddRandomGraph(schema_, schema_.IdOf("R"), 40, 12, rng, inst);
    AddRandomGraph(schema_, schema_.IdOf("S"), 40, 12, rng, inst);
    AddRandomGraph(schema_, schema_.IdOf("T"), 40, 12, rng, inst);
    EXPECT_TRUE(IsParallelCorrectOn(triangle_, policy, inst));
  }
}

TEST_F(HypercubeTest, SelfJoinFactsRoutedForBothAtoms) {
  Schema schema;
  const ConjunctiveQuery path =
      ParseQuery(schema, "H(x,z) <- R(x,y), R(y,z)");
  HypercubePolicy policy(path, {2, 2, 2}, MakeUniverse(8), 1);
  // An R-fact must reach servers for both its role as R(x,y) and R(y,z).
  const Fact f(schema.IdOf("R"), {3, 4});
  const std::vector<NodeId> nodes = policy.ResponsibleNodes(f);
  // Role R(x,y): z free (2 servers); role R(y,z): x free (2 servers);
  // overlaps possible but at least max(2,2) distinct.
  EXPECT_GE(nodes.size(), 2u);
  // Parallel-correctness despite the self-join.
  EXPECT_TRUE(IsParallelCorrect(path, policy));
}

TEST_F(HypercubeTest, ConstantsInAtomsFilterRouting) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x, 7)");
  HypercubePolicy policy(q, {4}, MakeUniverse(10), 2);
  // Facts not matching the constant are routed nowhere.
  EXPECT_TRUE(policy.ResponsibleNodes(Fact(schema.IdOf("R"), {1, 8})).empty());
  EXPECT_EQ(policy.ResponsibleNodes(Fact(schema.IdOf("R"), {1, 7})).size(),
            1u);
  EXPECT_TRUE(IsParallelCorrect(q, policy));
}

TEST_F(HypercubeTest, UniformSharesRespectBudget) {
  const Shares shares = UniformShares(triangle_, 27);
  EXPECT_EQ(shares, Shares(3, 3));
  const Shares small = UniformShares(triangle_, 20);
  EXPECT_EQ(small, Shares(3, 2));
}

TEST_F(HypercubeTest, OptimizedSharesBeatUniformOnAsymmetricSizes) {
  // Join R(x,y) |x| S(y,z) with |R| = 1000, |S| = 10: all budget should go
  // to y (hash-join behaviour), not spread over x and z.
  Schema schema;
  const ConjunctiveQuery join =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  const Shares shares = OptimizeIntegerShares(join, 16, {1000.0, 10.0});
  EXPECT_EQ(shares[join.FindVar("y")], 16u);
  EXPECT_EQ(shares[join.FindVar("x")], 1u);
  EXPECT_EQ(shares[join.FindVar("z")], 1u);
}

TEST_F(HypercubeTest, OptimizedSharesForTriangleAreBalanced) {
  const Shares shares = OptimizeIntegerShares(triangle_, 8, {1e4, 1e4, 1e4});
  EXPECT_EQ(shares, Shares(3, 2));
}

}  // namespace
}  // namespace lamp
