#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "mpc/cascade.h"
#include "mpc/gym.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "mpc/shares_skew.h"
#include "mpc/skew.h"
#include "mpc/yannakakis.h"
#include "relational/generators.h"

namespace lamp {
namespace {

/// Shared workload builder: R and S random binary relations.
Instance MakeJoinInput(const Schema& schema, RelationId r, RelationId s,
                       std::size_t m, std::size_t domain, Rng& rng) {
  Instance inst;
  AddUniformRelation(schema, r, m, domain, rng, inst);
  AddUniformRelation(schema, s, m, domain, rng, inst);
  return inst;
}

class JoinStrategiesTest : public ::testing::Test {
 protected:
  JoinStrategiesTest()
      : q1_(ParseQuery(schema_, "H(x,y,z) <- R(x,y), S(y,z)")),
        r_(schema_.IdOf("R")),
        s_(schema_.IdOf("S")) {}

  Schema schema_;
  ConjunctiveQuery q1_;
  RelationId r_, s_;
};

TEST_F(JoinStrategiesTest, RepartitionJoinIsCorrect) {
  Rng rng(1);
  const Instance input = MakeJoinInput(schema_, r_, s_, 300, 80, rng);
  const MpcRunResult result = RepartitionJoin(q1_, input, 8, 3);
  EXPECT_EQ(result.output, Evaluate(q1_, input));
  EXPECT_EQ(result.stats.NumRounds(), 1u);
}

TEST_F(JoinStrategiesTest, FragmentReplicateJoinIsCorrect) {
  Rng rng(2);
  const Instance input = MakeJoinInput(schema_, r_, s_, 300, 80, rng);
  const MpcRunResult result = FragmentReplicateJoin(q1_, input, 9, 3);
  EXPECT_EQ(result.output, Evaluate(q1_, input));
}

TEST_F(JoinStrategiesTest, RepartitionDegradesUnderSkewFragmentDoesNot) {
  // Example 3.1: with a heavy join value, the repartition join piles a
  // constant fraction of the data onto one server, while the
  // fragment-replicate load stays ~m/sqrt(p).
  Rng rng(3);
  Instance skewed;
  const std::size_t m = 2000;
  // Half of each relation shares one join value: a maximal heavy hitter.
  for (std::size_t i = 0; i < m / 2; ++i) {
    skewed.Insert(Fact(r_, {static_cast<std::int64_t>(i), 0}));
    skewed.Insert(Fact(s_, {0, static_cast<std::int64_t>(i)}));
  }
  AddUniformRelation(schema_, r_, m / 2, 8 * m, rng, skewed);
  AddUniformRelation(schema_, s_, m / 2, 8 * m, rng, skewed);
  const std::size_t p = 64;
  const MpcRunResult repart = RepartitionJoin(q1_, skewed, p, 7);
  const MpcRunResult fragrep = FragmentReplicateJoin(q1_, skewed, p, 7);
  EXPECT_EQ(repart.output, fragrep.output);
  // Repartition: the heavy value's ~m tuples all land on one server.
  EXPECT_GE(repart.stats.MaxLoad(), m * 9 / 10);
  // Fragment-replicate: every server gets ~2m/sqrt(p) = m/4 tuples,
  // regardless of the skew.
  EXPECT_LT(fragrep.stats.MaxLoad(), m / 2);
  EXPECT_GT(repart.stats.MaxLoad(), 2 * fragrep.stats.MaxLoad());
}

TEST_F(JoinStrategiesTest, SkewFreeRepartitionIsWellBalanced) {
  Rng rng(4);
  Instance matching;
  // Matching databases: every value occurs once per column -> zero skew.
  AddMatchingRelation(schema_, r_, 1024, 0, rng, matching);
  // Overlap S's first column with R's second so the join is nonempty.
  AddMatchingRelation(schema_, s_, 1024, 1024, rng, matching);
  const MpcRunResult result = RepartitionJoin(q1_, matching, 8, 5);
  // Perfectly balanced loads: ~2m/p per server.
  EXPECT_LT(result.stats.MaxLoad(), 2 * 2 * 1024 / 8);
}

class HyperCubeRunTest : public ::testing::Test {
 protected:
  HyperCubeRunTest()
      : triangle_(
            ParseQuery(schema_, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)")) {}

  Instance TriangleInput(std::size_t edges, std::size_t nodes,
                         std::uint64_t seed) {
    Rng rng(seed);
    Instance inst;
    AddRandomGraph(schema_, schema_.IdOf("R"), edges, nodes, rng, inst);
    AddRandomGraph(schema_, schema_.IdOf("S"), edges, nodes, rng, inst);
    AddRandomGraph(schema_, schema_.IdOf("T"), edges, nodes, rng, inst);
    return inst;
  }

  Schema schema_;
  ConjunctiveQuery triangle_;
};

TEST_F(HyperCubeRunTest, OutputMatchesCentralizedEvaluation) {
  const Instance input = TriangleInput(200, 40, 11);
  for (std::size_t p : {1u, 8u, 27u, 64u}) {
    const MpcRunResult result = RunHyperCubeUniform(triangle_, input, p, 2);
    EXPECT_EQ(result.output, Evaluate(triangle_, input)) << "p=" << p;
  }
}

TEST_F(HyperCubeRunTest, LpSharesMatchUniformForTriangle) {
  EXPECT_EQ(LpRoundedShares(triangle_, 27), Shares(3, 3));
}

TEST_F(HyperCubeRunTest, LpSharesConcentrateForJoin) {
  Schema schema;
  const ConjunctiveQuery join =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  const Shares shares = LpRoundedShares(join, 16);
  EXPECT_EQ(shares[join.FindVar("y")], 16u);
  EXPECT_EQ(shares[join.FindVar("x")], 1u);
}

TEST_F(HyperCubeRunTest, LoadScalesAsPredicted) {
  // Skew-free triangle: load ~ 3 * m / p^{2/3}; check p=8 halves p=1's
  // per-relation share within slack.
  const Instance input = TriangleInput(600, 3000, 13);
  const MpcRunResult p8 = RunHyperCubeUniform(triangle_, input, 8, 4);
  // Predicted: each server receives about 3 * m / p^{2/3} = 3*600/4 = 450.
  EXPECT_LT(p8.stats.MaxLoad(), 700u);
  EXPECT_GT(p8.stats.MaxLoad(), 200u);
}

TEST(CascadeTest, TwoRoundTriangleCascadeIsCorrect) {
  Schema schema;
  const ConjunctiveQuery triangle =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  Rng rng(17);
  Instance input;
  AddRandomGraph(schema, schema.IdOf("R"), 150, 30, rng, input);
  AddRandomGraph(schema, schema.IdOf("S"), 150, 30, rng, input);
  AddRandomGraph(schema, schema.IdOf("T"), 150, 30, rng, input);
  const Instance expected = Evaluate(triangle, input);

  const MpcRunResult result = CascadeJoin(schema, triangle, input, 8, 1);
  EXPECT_EQ(result.output, expected);
  EXPECT_EQ(result.stats.NumRounds(), 2u);  // Example 3.1(2): two rounds.
}

TEST(CascadeTest, PathQueryWithSelfJoin) {
  Schema schema;
  const ConjunctiveQuery path =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), R(y,z)");
  Instance input;
  AddPathGraph(schema, schema.IdOf("R"), 30, input);
  const MpcRunResult result = CascadeJoin(schema, path, input, 4, 2);
  EXPECT_EQ(result.output, Evaluate(path, input));
}

TEST(CascadeTest, FourAtomChain) {
  Schema schema;
  const ConjunctiveQuery chain = ParseQuery(
      schema, "H(a,b,c,d,e) <- R1(a,b), R2(b,c), R3(c,d), R4(d,e)");
  Rng rng(23);
  Instance input;
  for (const char* rel : {"R1", "R2", "R3", "R4"}) {
    AddUniformRelation(schema, schema.IdOf(rel), 100, 25, rng, input);
  }
  const MpcRunResult result = CascadeJoin(schema, chain, input, 6, 3);
  EXPECT_EQ(result.output, Evaluate(chain, input));
  EXPECT_EQ(result.stats.NumRounds(), 3u);
}

TEST(CascadeTest, InequalitiesAppliedAtTheEnd) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), x != z");
  Instance input;
  input.Insert(Fact(schema.IdOf("R"), {1, 2}));
  input.Insert(Fact(schema.IdOf("S"), {2, 1}));  // Would give x == z.
  input.Insert(Fact(schema.IdOf("S"), {2, 3}));
  const MpcRunResult result = CascadeJoin(schema, q, input, 4, 4);
  EXPECT_EQ(result.output, Evaluate(q, input));
  EXPECT_EQ(result.output.Size(), 1u);
}

TEST(SkewTest, SkewResilientTriangleIsCorrect) {
  Schema schema;
  const ConjunctiveQuery triangle =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  Rng rng(31);
  Instance input;
  AddZipfRelation(schema, schema.IdOf("R"), 500, 100, 1.2, 1, rng, input);
  AddZipfRelation(schema, schema.IdOf("S"), 500, 100, 1.2, 0, rng, input);
  AddUniformRelation(schema, schema.IdOf("T"), 500, 100, rng, input);
  const Instance expected = Evaluate(triangle, input);

  const MpcRunResult result = SkewResilientTriangle(triangle, input, 27, 5);
  EXPECT_EQ(result.output, expected);
  EXPECT_LE(result.stats.NumRounds(), 2u);
}

TEST(SkewTest, TwoRoundsBeatOneRoundUnderSkew) {
  // The Section 3.2 claim: under join-value skew, the one-round HyperCube
  // load degrades while the two-round algorithm stays near the skew-free
  // load.
  Schema schema;
  const ConjunctiveQuery triangle =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  Rng rng(37);
  Instance input;
  const std::size_t m = 4000;
  // Extreme skew: a single super-heavy join value in half the tuples.
  for (std::size_t i = 0; i < m / 2; ++i) {
    input.Insert(Fact(schema.IdOf("R"), {static_cast<std::int64_t>(i), 0}));
    input.Insert(Fact(schema.IdOf("S"), {0, static_cast<std::int64_t>(i)}));
  }
  AddUniformRelation(schema, schema.IdOf("R"), m / 2, 4 * m, rng, input);
  AddUniformRelation(schema, schema.IdOf("S"), m / 2, 4 * m, rng, input);
  AddUniformRelation(schema, schema.IdOf("T"), m, 4 * m, rng, input);

  const std::size_t p = 64;
  const MpcRunResult one_round = RunHyperCubeUniform(triangle, input, p, 9);
  const MpcRunResult two_rounds = SkewResilientTriangle(triangle, input, p, 9);
  EXPECT_EQ(one_round.output, two_rounds.output);
  // One round: the heavy value's R-tuples concentrate on a p^{1/3} x
  // p^{1/3} slice -> load >= (m/2) / p^{2/3} from the R relation alone,
  // but crucially all S-tuples of the heavy value hit the same slice too.
  // Two rounds spread the heavy residual over a dedicated grid.
  EXPECT_LT(two_rounds.stats.MaxLoad(), one_round.stats.MaxLoad());
}

TEST(YannakakisTest, SemijoinReduceRemovesDanglingTuples) {
  Schema schema;
  const ConjunctiveQuery path =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  Instance input;
  input.Insert(Fact(schema.IdOf("R"), {1, 2}));
  input.Insert(Fact(schema.IdOf("R"), {5, 6}));  // Dangling: no S(6, _).
  input.Insert(Fact(schema.IdOf("S"), {2, 3}));
  input.Insert(Fact(schema.IdOf("S"), {7, 8}));  // Dangling: no R(_, 7).
  const JoinTree tree = BuildJoinTree(path);
  const MpcRunResult reduced = SemijoinReduce(path, tree, input, 4, 0);
  EXPECT_EQ(reduced.output.Size(), 2u);
  EXPECT_TRUE(reduced.output.Contains(Fact(schema.IdOf("R"), {1, 2})));
  EXPECT_TRUE(reduced.output.Contains(Fact(schema.IdOf("S"), {2, 3})));
}

TEST(YannakakisTest, FullAlgorithmMatchesCentralized) {
  Schema schema;
  const ConjunctiveQuery chain = ParseQuery(
      schema, "H(x,y,z,w) <- R1(x,y), R2(y,z), R3(z,w)");
  Rng rng(41);
  Instance input;
  for (const char* rel : {"R1", "R2", "R3"}) {
    AddUniformRelation(schema, schema.IdOf(rel), 200, 40, rng, input);
  }
  const MpcRunResult result = YannakakisMpc(schema, chain, input, 8, 6);
  EXPECT_EQ(result.output, Evaluate(chain, input));
  // 2*(3-1) semijoin rounds + 2 join rounds.
  EXPECT_EQ(result.stats.NumRounds(), 6u);
}

TEST(YannakakisTest, IntermediateBoundedByReducedData) {
  // A chain where the plain cascade explodes but Yannakakis stays small:
  // R2 joins nothing in R3, so the full output is empty and the semijoin
  // phase wipes almost everything before the join phase.
  Schema schema;
  const ConjunctiveQuery chain =
      ParseQuery(schema, "H(x,y,z,w) <- R1(x,y), R2(y,z), R3(z,w)");
  Instance input;
  // R1 x R2 on y=0 is a 50x50 cartesian blow-up...
  for (int i = 0; i < 50; ++i) {
    input.Insert(Fact(schema.IdOf("R1"), {i, 0}));
    input.Insert(Fact(schema.IdOf("R2"), {0, 100 + i}));
  }
  // ...but no R3 tuple continues from any R2 endpoint.
  for (int i = 0; i < 50; ++i) {
    input.Insert(Fact(schema.IdOf("R3"), {500 + i, 600 + i}));
  }
  Schema cascade_schema = schema;
  const MpcRunResult plain =
      CascadeJoin(cascade_schema, chain, input, 4, 7);
  const MpcRunResult yan = YannakakisMpc(schema, chain, input, 4, 7);
  EXPECT_TRUE(plain.output.Empty());
  EXPECT_TRUE(yan.output.Empty());
  // The cascade communicated the 2500-tuple intermediate; Yannakakis did
  // not (its join phase ran on an empty reduced database).
  EXPECT_GT(plain.stats.TotalCommunication(),
            2 * yan.stats.TotalCommunication());
}


// The multi-round algorithms' loads, pinned: an order-insensitive
// fingerprint of every round's per-server `received` and `wire_bytes`.
// The correctness sweeps cannot see a router that ships rows an atom
// cannot bind (a constant or a repeated variable that does not match):
// the output stays right and only these numbers move. The shapes cover a
// constant, a repeated variable, a three-atom self-join path (R rides
// along to the last round) and a single atom.
std::uint64_t LoadFingerprint(const RunStats& stats) {
  std::uint64_t sum = HashMix(stats.NumRounds());
  for (std::size_t r = 0; r < stats.rounds.size(); ++r) {
    const RoundStats& round = stats.rounds[r];
    for (std::size_t s = 0; s < round.received.size(); ++s) {
      const std::size_t wire =
          s < round.wire_bytes.size() ? round.wire_bytes[s] : 0;
      sum += HashCombine(HashCombine(HashCombine(HashMix(r), s),
                                     round.received[s]),
                         wire);
    }
  }
  return sum;
}

TEST(MultiRoundLoadTest, RoundLoadsArePinned) {
  struct Case {
    const char* name;
    const char* text;
    std::uint64_t cascade, yannakakis, gym;  // 0: not run on this shape.
  };
  const Case cases[] = {
      {"constant", "H(x,z) <- R(x,y), S(y,z), T(z,3)",
       16839038053810735239ull, 13391657687811987922ull,
       4352856530205161149ull},
      {"repeated_var", "H(x,y) <- R(x,x), S(x,y)", 14180887705828580957ull,
       15155983003011180254ull, 11128601001329635265ull},
      {"selfjoin_path3", "H(x,w) <- R(x,y), R(y,z), R(z,w)",
       8806496352188008433ull, 0, 0},
      {"single_atom", "H(x) <- R(x,3)", 12655333555661037261ull,
       12655333555661037261ull, 6848746814729651086ull},
  };
  for (const Case& c : cases) {
    Schema schema;
    const ConjunctiveQuery q = ParseQuery(schema, c.text);
    Rng rng(61);
    Instance db;
    std::set<RelationId> done;
    for (const Atom& atom : q.body()) {
      if (!done.insert(atom.relation).second) continue;
      AddUniformRelation(schema, atom.relation, 80, 10, rng, db);
    }
    const Instance expected = Evaluate(q, db);
    std::uint64_t cascade = 0, yannakakis = 0, gym = 0;
    for (const std::size_t p : {1u, 6u, 16u}) {
      Schema s1 = schema;
      const MpcRunResult cr = CascadeJoin(s1, q, db, p, 5);
      EXPECT_EQ(cr.output, expected) << c.name << " p=" << p;
      cascade = HashCombine(cascade, LoadFingerprint(cr.stats));
      if (q.HasSelfJoin()) continue;
      Schema s2 = schema;
      const MpcRunResult yr = YannakakisMpc(s2, q, db, p, 9);
      EXPECT_EQ(yr.output, expected) << c.name << " p=" << p;
      yannakakis = HashCombine(yannakakis, LoadFingerprint(yr.stats));
      Schema s3 = schema;
      const MpcRunResult gr = GymEvaluate(s3, q, db, p, 7);
      EXPECT_EQ(gr.output, expected) << c.name << " p=" << p;
      gym = HashCombine(gym, LoadFingerprint(gr.stats));
    }
    if (q.HasSelfJoin()) yannakakis = gym = 0;
    EXPECT_EQ(cascade, c.cascade) << c.name;
    EXPECT_EQ(yannakakis, c.yannakakis) << c.name;
    EXPECT_EQ(gym, c.gym) << c.name;
  }
}

// The one-round binary joins' loads, pinned the same way. The input is
// skewed on the join column (two heavy values on both sides), so
// SharesSkew takes its heavy sub-grids from p = 10 on; the second input
// also holds a relation outside the query, which no strategy ships.
Instance SkewedJoinInput(Schema& schema, const ConjunctiveQuery& q,
                         bool with_outsider) {
  const JoinShape shape = AnalyzeBinaryJoin(q);
  Rng rng(73);
  Instance db;
  const std::size_t heavy_rows[2][2] = {{120, 40}, {80, 80}};
  for (std::size_t side = 0; side < 2; ++side) {
    const Atom& atom = q.body()[side];
    const std::size_t key = side == 0 ? shape.left_positions[0]
                                      : shape.right_positions[0];
    for (std::int64_t heavy = 0; heavy < 2; ++heavy) {
      for (std::size_t i = 0; i < heavy_rows[heavy][side]; ++i) {
        std::vector<Value> args(atom.terms.size(),
                                Value(static_cast<std::int64_t>(1000 + i)));
        args[key] = Value(heavy);
        db.Insert(Fact(atom.relation, std::move(args)));
      }
    }
    AddUniformRelation(schema, atom.relation, 200, 64, rng, db);
  }
  if (with_outsider) {
    AddUniformRelation(schema, schema.AddRelation("T", 2), 90, 64, rng, db);
  }
  return db;
}

TEST(OneRoundLoadTest, RoundLoadsArePinned) {
  struct Case {
    const char* name;
    const char* text;
    bool with_outsider;
    std::uint64_t repartition, fragment_replicate, shares_skew;
  };
  const Case cases[] = {
      {"join", "H(x,y,z) <- R(x,y), S(y,z)", false,
       13560826150116674606ull, 9174201182359771957ull,
       6353754287287698733ull},
      {"join_outsider", "H(x,y,z) <- R(x,y), S(y,z)", true,
       13560826150116674606ull, 9174201182359771957ull,
       6353754287287698733ull},
      {"star", "H(x,a,b) <- R(x,a), S(x,b)", false,
       12438219789332894598ull, 10744317783874710141ull,
       17713008554279481625ull},
      {"star_outsider", "H(x,a,b) <- R(x,a), S(x,b)", true,
       12438219789332894598ull, 10744317783874710141ull,
       17713008554279481625ull},
  };
  for (const Case& c : cases) {
    Schema schema;
    const ConjunctiveQuery q = ParseQuery(schema, c.text);
    const Instance db = SkewedJoinInput(schema, q, c.with_outsider);
    const Instance expected = Evaluate(q, db);
    std::uint64_t repartition = 0, fragment_replicate = 0, shares_skew = 0;
    for (const std::size_t p : {1u, 10u, 16u, 64u}) {
      const MpcRunResult rj = RepartitionJoin(q, db, p, 3);
      EXPECT_EQ(rj.output, expected) << c.name << " p=" << p;
      repartition = HashCombine(repartition, LoadFingerprint(rj.stats));
      const MpcRunResult fr = FragmentReplicateJoin(q, db, p, 3);
      EXPECT_EQ(fr.output, expected) << c.name << " p=" << p;
      fragment_replicate =
          HashCombine(fragment_replicate, LoadFingerprint(fr.stats));
      const MpcRunResult ss = SharesSkewJoin(q, db, p, 3);
      EXPECT_EQ(ss.output, expected) << c.name << " p=" << p;
      shares_skew = HashCombine(shares_skew, LoadFingerprint(ss.stats));
      if (p == 64) {
        // The heavy path: SharesSkew spreads what repartition pins.
        EXPECT_LT(ss.stats.MaxLoad(), rj.stats.MaxLoad()) << c.name;
      }
    }
    EXPECT_EQ(repartition, c.repartition) << c.name;
    EXPECT_EQ(fragment_replicate, c.fragment_replicate) << c.name;
    EXPECT_EQ(shares_skew, c.shares_skew) << c.name;
  }
}

TEST(SharesSkewTest, OneRoundSkewAwareJoinIsCorrect) {
  Schema schema;
  const ConjunctiveQuery join =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  Rng rng(51);
  Instance input;
  const std::size_t m = 2000;
  // Heavy value 0 in R, small matching S side (linear output).
  for (std::size_t i = 0; i < m / 2; ++i) {
    input.Insert(Fact(schema.IdOf("R"), {static_cast<std::int64_t>(i), 0}));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    input.Insert(Fact(schema.IdOf("S"), {0, static_cast<std::int64_t>(i)}));
  }
  AddUniformRelation(schema, schema.IdOf("R"), m / 2, 16 * m, rng, input);
  AddUniformRelation(schema, schema.IdOf("S"), m - 8, 16 * m, rng, input);

  const MpcRunResult result = SharesSkewJoin(join, input, 64, 3);
  EXPECT_EQ(result.output, Evaluate(join, input));
  EXPECT_EQ(result.stats.NumRounds(), 1u);  // One round, unlike BKS 2-round.
}

TEST(SharesSkewTest, BeatsRepartitionUnderSkew) {
  Schema schema;
  const ConjunctiveQuery join =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  Rng rng(52);
  Instance input;
  const std::size_t m = 4000;
  for (std::size_t i = 0; i < m / 2; ++i) {
    input.Insert(Fact(schema.IdOf("R"), {static_cast<std::int64_t>(i), 0}));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    input.Insert(Fact(schema.IdOf("S"), {0, static_cast<std::int64_t>(i)}));
  }
  AddUniformRelation(schema, schema.IdOf("R"), m / 2, 16 * m, rng, input);
  AddUniformRelation(schema, schema.IdOf("S"), m - 8, 16 * m, rng, input);

  const std::size_t p = 64;
  const MpcRunResult repart = RepartitionJoin(join, input, p, 3);
  const MpcRunResult skew_aware = SharesSkewJoin(join, input, p, 3);
  EXPECT_EQ(repart.output, skew_aware.output);
  // Repartition pins the heavy value's ~m/2 tuples on one server;
  // SharesSkew spreads them over its sub-grid.
  EXPECT_GT(repart.stats.MaxLoad(), 2 * skew_aware.stats.MaxLoad());
}

TEST(SharesSkewTest, NoHeavyHittersFallsBackToHashing) {
  Schema schema;
  const ConjunctiveQuery join =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  Rng rng(53);
  Instance input;
  AddMatchingRelation(schema, schema.IdOf("R"), 1000, 0, rng, input);
  AddMatchingRelation(schema, schema.IdOf("S"), 1000, 1000, rng, input);
  const MpcRunResult result = SharesSkewJoin(join, input, 16, 3);
  EXPECT_EQ(result.output, Evaluate(join, input));
  // Matching data: balanced like the plain repartition join.
  EXPECT_LT(result.stats.MaxLoad(), 2 * 2 * 1000 / 16 + 64);
}

}  // namespace
}  // namespace lamp
