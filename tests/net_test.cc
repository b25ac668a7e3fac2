#include <gtest/gtest.h>

#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "distribution/domain_guided.h"
#include "distribution/policies.h"
#include "net/consistency.h"
#include "net/datalog_program.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/trace.h"
#include "relational/generators.h"

namespace lamp {
namespace {

NetQueryFunction WrapCq(const ConjunctiveQuery& q) {
  return [&q](const Instance& instance) { return Evaluate(q, instance); };
}

class NetTest : public ::testing::Test {
 protected:
  NetTest() {
    e_ = schema_.AddRelation("E", 2);
    triangle_ = ParseQuery(
        schema_, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
    open_triangle_ =
        ParseQuery(schema_, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  }

  Instance MakeGraph(std::uint64_t seed, std::size_t edges = 40,
                     std::size_t nodes = 12) {
    Rng rng(seed);
    Instance g;
    AddRandomGraph(schema_, e_, edges, nodes, rng, g);
    // Guarantee some triangles.
    AddTriangleClusters(schema_, e_, 2, 100, g);
    return g;
  }

  Schema schema_;
  RelationId e_ = 0;
  ConjunctiveQuery triangle_;
  ConjunctiveQuery open_triangle_;
};

TEST_F(NetTest, MonotoneBroadcastComputesTrianglesOnAllSchedules) {
  // Example 5.1(1): Pi_4 computes the triangle query on every network,
  // distribution and message order.
  const Instance graph = MakeGraph(1);
  const Instance expected = Evaluate(triangle_, graph);
  ASSERT_FALSE(expected.Empty());

  MonotoneBroadcastProgram program(WrapCq(triangle_));
  std::vector<std::vector<Instance>> distributions;
  for (std::size_t n : {1u, 2u, 5u}) {
    distributions.push_back(DistributeRoundRobin(graph, n));
    distributions.push_back(DistributeReplicated(graph, n));
  }
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 6, nullptr, /*aware=*/false);
  EXPECT_TRUE(sweep.all_runs_correct);
  EXPECT_EQ(sweep.runs, 36u);
}

TEST_F(NetTest, MonotoneBroadcastIsCoordinationFree) {
  // The ideal distribution replicates I everywhere; the heartbeat-only run
  // already produces the full answer.
  const Instance graph = MakeGraph(2);
  const Instance expected = Evaluate(triangle_, graph);
  MonotoneBroadcastProgram program(WrapCq(triangle_));
  EXPECT_TRUE(ComputesWithoutCommunication(
      program, DistributeReplicated(graph, 4), expected, nullptr,
      /*aware=*/false));
}

TEST_F(NetTest, NaiveBroadcastFailsForOpenTriangles) {
  // Example 5.1(2): the open-triangle query is not monotone, so the naive
  // strategy emits facts that are wrong globally on some distribution.
  const Instance graph = MakeGraph(3);
  const Instance expected = Evaluate(open_triangle_, graph);

  MonotoneBroadcastProgram program(WrapCq(open_triangle_));
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(graph, 4)};
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 5, nullptr, /*aware=*/false);
  EXPECT_FALSE(sweep.all_runs_correct);
}

TEST_F(NetTest, PolicyAwareProgramComputesOpenTriangles) {
  // Example 5.4 / Theorem 5.8: with policy awareness, the open-triangle
  // query (in Mdistinct) becomes computable coordination-free: a node
  // outputs a wedge once it is responsible for the (absent) closing edge.
  const Instance graph = MakeGraph(4, 25, 8);
  const Instance expected = Evaluate(open_triangle_, graph);
  ASSERT_FALSE(expected.Empty());

  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(3, MakeUniverse(1), 7);
  PolicyAwareNegationProgram program(open_triangle_);

  std::vector<std::vector<Instance>> distributions = {
      DistributeByPolicy(graph, policy)};
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 6, &policy, /*aware=*/false);
  EXPECT_TRUE(sweep.all_runs_correct);
}

TEST_F(NetTest, PolicyAwareProgramIsCoordinationFree) {
  // Ideal distribution: the full instance everywhere. Every missing edge
  // has some responsible node (domain-guided alpha is total), so the
  // heartbeat-only union over nodes is already Q(I).
  const Instance graph = MakeGraph(8, 20, 7);
  const Instance expected = Evaluate(open_triangle_, graph);
  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(3, MakeUniverse(1), 11);
  PolicyAwareNegationProgram program(open_triangle_);
  EXPECT_TRUE(ComputesWithoutCommunication(
      program, DistributeReplicated(graph, 3), expected, &policy,
      /*aware=*/false));
}

TEST_F(NetTest, DistinctCompleteComputesOpenTriangles) {
  // The Theorem 5.8 sketch itself: nodes wait until their active domain is
  // distinct-complete. Example 4.3-style policy: both nodes responsible
  // for everything except one specific edge each; since those edges are in
  // I, both nodes become complete after the exchange.
  Instance graph = MakeGraph(9, 20, 6);
  graph.Insert(Fact(e_, {0, 1}));
  graph.Insert(Fact(e_, {1, 0}));
  const Instance expected = Evaluate(open_triangle_, graph);
  ASSERT_FALSE(expected.Empty());

  const RelationId e = e_;
  const LambdaPolicy policy(
      2, MakeUniverse(1), [e](NodeId node, const Fact& f) {
        const Fact e01(e, {0, 1});
        const Fact e10(e, {1, 0});
        if (node == 0) return !(f == e01);
        return !(f == e10);
      });
  DistinctCompleteProgram program(WrapCq(open_triangle_), schema_, {e_});

  std::vector<std::vector<Instance>> distributions = {
      DistributeByPolicy(graph, policy)};
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 4, &policy, /*aware=*/false);
  EXPECT_TRUE(sweep.all_runs_correct);
}

TEST_F(NetTest, DistinctCompleteComputesOpenTrianglesUnderHashDomainGuided) {
  // The C2 shape (bench_fig2_hierarchy): a random graph plus triangle
  // clusters, four nodes, alpha(a) = {hash(a) mod 4}. A node is
  // responsible only for the edges touching its own values, so it learns
  // every other absent edge from its owner's marker.
  for (const std::uint64_t seed : {31u, 32u}) {
    SCOPED_TRACE(seed);
    const Instance graph = MakeGraph(seed, 40, 10);
    const Instance expected = Evaluate(open_triangle_, graph);
    ASSERT_FALSE(expected.Empty());
    const DomainGuidedPolicy policy =
        DomainGuidedPolicy::HashBased(4, MakeUniverse(1), 13);
    DistinctCompleteProgram program(WrapCq(open_triangle_), schema_, {e_});
    const ConsistencySweep sweep = CheckEventualConsistency(
        program, {DistributeByPolicy(graph, policy)}, expected, 8, &policy,
        /*aware=*/false);
    EXPECT_TRUE(sweep.all_runs_correct);
  }
}

TEST_F(NetTest, DistinctCompleteIsCoordinationFree) {
  // Ideal distribution: everything everywhere. Every node is then
  // distinct-complete immediately (all facts of I received/local), so the
  // heartbeat run outputs Q(I) — when every node is also responsible for
  // everything (the replicate-all policy).
  const Instance graph = MakeGraph(5, 20, 7);
  const Instance expected = Evaluate(open_triangle_, graph);
  const LambdaPolicy replicate_all(3, MakeUniverse(1),
                                   [](NodeId, const Fact&) { return true; });
  DistinctCompleteProgram program(WrapCq(open_triangle_), schema_, {e_});
  EXPECT_TRUE(ComputesWithoutCommunication(
      program, DistributeReplicated(graph, 3), expected, &replicate_all,
      /*aware=*/false));
}

TEST_F(NetTest, ComponentProgramComputesComplementOfTc) {
  // Theorem 5.12: not-TC (in Mdisjoint) under a domain-guided policy.
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), TC(z,y)\n"
                                     "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)");
  const RelationId out = schema.IdOf("OUT");
  NetQueryFunction not_tc = [&schema, &prog, out](const Instance& edb) {
    const Instance everything = EvaluateProgram(schema, prog, edb);
    Instance result;
    everything.ForEachFactOf(out, [&](const Fact& f) { result.Insert(f); });
    return result;
  };

  // Two disconnected paths.
  Instance edb;
  const RelationId e = schema.IdOf("E");
  edb.Insert(Fact(e, {0, 1}));
  edb.Insert(Fact(e, {1, 2}));
  edb.Insert(Fact(e, {10, 11}));
  const Instance expected = not_tc(edb);

  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(3, MakeUniverse(1), 3);
  ComponentProgram program(not_tc, schema);

  std::vector<std::vector<Instance>> distributions = {
      DistributeByPolicy(edb, policy)};
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 8, &policy, /*aware=*/false);
  EXPECT_TRUE(sweep.all_runs_correct);
}

TEST_F(NetTest, ComponentProgramIsCoordinationFreeOnIdealDistribution) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const ConjunctiveQuery edges = ParseQuery(schema, "H(x,y) <- E(x,y)");
  Instance edb;
  edb.Insert(Fact(e, {0, 1}));
  edb.Insert(Fact(e, {5, 6}));
  const Instance expected = Evaluate(edges, edb);

  // Ideal: one node owns everything (alpha(a) = {0} for all a), and the
  // distribution gives it the full database.
  const DomainGuidedPolicy own_all(
      2, MakeUniverse(1),
      [](Value, std::vector<NodeId>& nodes) { nodes.push_back(0); });
  ComponentProgram program(WrapCq(edges), schema);
  EXPECT_TRUE(ComputesWithoutCommunication(
      program, DistributeByPolicy(edb, own_all), expected, &own_all,
      /*aware=*/false));
}

TEST_F(NetTest, ObliviousnessAuditAborts) {
  // Programs in A_i must not read |All|; the runner aborts if one does.
  class NosyProgram : public TransducerProgram {
   public:
    void OnStart(NodeContext& ctx) override {
      (void)ctx.NetworkSize();  // Forbidden for aware == false.
    }
    void OnReceive(NodeContext&, const Message&) override {}
  };
  NosyProgram nosy;
  std::vector<Instance> locals(2);
  TransducerNetwork network(locals, nosy, nullptr, /*aware=*/false);
  EXPECT_DEATH(network.Run(0), "oblivious");
}

TEST_F(NetTest, EconomicalBroadcastSendsLessForSameAnswer) {
  // Ketsman-Neven (Section 6): only query-relevant facts travel.
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,x), S(x)");
  const RelationId r = schema.IdOf("R");
  const RelationId s = schema.IdOf("S");
  Instance edb;
  // Only diagonal R-facts and S-facts are relevant.
  for (int i = 0; i < 10; ++i) {
    edb.Insert(Fact(r, {i, i}));
    edb.Insert(Fact(r, {i, i + 1}));  // Irrelevant for R(x,x).
    edb.Insert(Fact(s, {i}));
  }
  const Instance expected = Evaluate(q, edb);

  MonotoneBroadcastProgram naive(WrapCq(q));
  EconomicalBroadcastProgram economical(q);

  const std::vector<Instance> locals = DistributeRoundRobin(edb, 4);
  TransducerNetwork naive_net(locals, naive, nullptr, false);
  TransducerNetwork econ_net(locals, economical, nullptr, false);
  const NetworkRunResult naive_run = naive_net.Run(1);
  const NetworkRunResult econ_run = econ_net.Run(1);

  EXPECT_EQ(naive_run.output, expected);
  EXPECT_EQ(econ_run.output, expected);
  EXPECT_LT(econ_run.facts_transferred(), naive_run.facts_transferred());
  // Exactly the 10 off-diagonal R-facts per... at least a third saved.
  EXPECT_LE(econ_run.facts_transferred() * 3,
            naive_run.facts_transferred() * 2 + 3);
}

TEST_F(NetTest, EconomicalRelevanceFilter) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,x), S(x, 7)");
  EconomicalBroadcastProgram program(q);
  const RelationId r = schema.IdOf("R");
  const RelationId s = schema.IdOf("S");
  const auto relevant = [&program](const Fact& f) {
    return program.IsRelevant(transport::RowRef::Of(f));
  };
  EXPECT_TRUE(relevant(Fact(r, {3, 3})));
  EXPECT_FALSE(relevant(Fact(r, {3, 4})));  // Repeated var.
  EXPECT_TRUE(relevant(Fact(s, {1, 7})));
  EXPECT_FALSE(relevant(Fact(s, {1, 8})));  // Constant mismatch.
  EXPECT_FALSE(relevant(Fact(schema.AddRelation("T", 1), {1})));
}

TEST_F(NetTest, MessageCountsAreTracked) {
  const Instance graph = MakeGraph(6, 10, 6);
  MonotoneBroadcastProgram program(WrapCq(triangle_));
  TransducerNetwork network(DistributeRoundRobin(graph, 3), program, nullptr,
                            false);
  const NetworkRunResult result = network.Run(42);
  EXPECT_GT(result.messages_sent(), 0u);
  EXPECT_GT(result.facts_transferred(), 0u);
  EXPECT_GT(result.transitions(), 0u);
}

TEST_F(NetTest, HeartbeatOnlyRunCountsItsSends) {
  // MonotoneBroadcastProgram broadcasts only in its heartbeat, so the
  // heartbeat-only run sends exactly what a full run sends, and traces
  // every broadcast.
  const Instance graph = MakeGraph(6, 10, 6);
  MonotoneBroadcastProgram program(WrapCq(triangle_));
  TransducerNetwork network(DistributeRoundRobin(graph, 3), program, nullptr,
                            false);
  const NetworkRunResult full = network.Run(42);
  obs::Tracer tracer;
  NetworkRunResult heartbeats;
  {
    obs::ScopedTracer install(tracer);
    heartbeats = network.RunWithoutDelivery();
  }
  EXPECT_EQ(heartbeats.transitions(), 0u);
  EXPECT_GT(heartbeats.wire_bytes(), 0u);
  EXPECT_EQ(heartbeats.messages_sent(), full.messages_sent());
  EXPECT_EQ(heartbeats.facts_transferred(), full.facts_transferred());
  EXPECT_EQ(heartbeats.wire_bytes(), full.wire_bytes());
  std::size_t traced = 0;
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.kind == obs::EventKind::kNetBroadcast) ++traced;
  }
  EXPECT_EQ(traced, heartbeats.metrics.CounterValue(obs::kNetBroadcasts));
  EXPECT_GT(traced, 0u);
}

TEST_F(NetTest, SingleNodeNetworkNeedsNoMessages) {
  const Instance graph = MakeGraph(7, 10, 6);
  MonotoneBroadcastProgram program(WrapCq(triangle_));
  TransducerNetwork network({graph}, program, nullptr, false);
  const NetworkRunResult result = network.Run(0);
  EXPECT_EQ(result.output, Evaluate(triangle_, graph));
  EXPECT_EQ(result.messages_sent(), 0u);
}


TEST_F(NetTest, CoordinatedBarrierComputesOpenTriangles) {
  // Example 5.1(2): with an explicit coordination barrier (and knowledge
  // of All), the non-monotone open-triangle query becomes computable on
  // every schedule — at the price of a global synchronization point.
  const Instance graph = MakeGraph(10, 25, 8);
  const Instance expected = Evaluate(open_triangle_, graph);
  ASSERT_FALSE(expected.Empty());

  Schema scratch = schema_;
  CoordinatedBarrierProgram program(WrapCq(open_triangle_), scratch);
  std::vector<std::vector<Instance>> distributions;
  for (std::size_t n : {2u, 4u}) {
    distributions.push_back(DistributeRoundRobin(graph, n));
  }
  // Note aware = true: the barrier needs |All|.
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 6, nullptr, /*aware=*/true);
  EXPECT_TRUE(sweep.all_runs_correct);
}

TEST_F(NetTest, CoordinatedBarrierIsNotOblivious) {
  // Running the same program as an oblivious (A_i) network aborts at the
  // NetworkSize() call: coordination is visible in the model.
  const Instance graph = MakeGraph(11, 10, 6);
  Schema scratch = schema_;
  CoordinatedBarrierProgram program(WrapCq(open_triangle_), scratch);
  TransducerNetwork network(DistributeRoundRobin(graph, 2), program, nullptr,
                            /*aware=*/false);
  EXPECT_DEATH(network.Run(0), "oblivious");
}

TEST_F(NetTest, ComponentProgramRunsWinMovePerComponent) {
  // Section 5.3 (Zinn-Green-Ludaescher via Ameloot et al.): win-move under
  // the well-founded semantics is in Mdisjoint, so the per-component
  // strategy computes it coordination-free under domain-guided policies.
  Schema schema;
  DatalogProgram prog = ParseProgram(schema, "WIN(x) <- MOVE(x,y), !WIN(y)");
  NetQueryFunction win = [&schema, &prog](const Instance& edb) {
    return EvaluateWellFounded(schema, prog, edb).true_facts;
  };

  Instance games;
  const RelationId move = schema.IdOf("MOVE");
  games.Insert(Fact(move, {1, 0}));     // Component 1: 1 wins.
  games.Insert(Fact(move, {2, 1}));     //              2 loses.
  games.Insert(Fact(move, {10, 11}));   // Component 2: draw cycle.
  games.Insert(Fact(move, {11, 10}));
  games.Insert(Fact(move, {20, 21}));   // Component 3: 20 wins.
  const Instance expected = win(games);

  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(3, MakeUniverse(1), 23);
  ComponentProgram program(win, schema);
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, {DistributeByPolicy(games, policy)}, expected, 8, &policy,
      /*aware=*/false);
  EXPECT_TRUE(sweep.all_runs_correct);
}


TEST_F(NetTest, DistributedDatalogComputesReachability) {
  // Declarative networking: each node holds a shard of the edge relation;
  // the network computes full transitive closure by pipelining derived
  // facts, consistent on every schedule (TC is monotone).
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), E(z,y)");
  Instance edges;
  AddPathGraph(schema, schema.IdOf("E"), 8, edges);
  const Instance everything = EvaluateProgram(schema, prog, edges);
  Instance expected;
  everything.ForEachFactOf(schema.IdOf("TC"), [&](const Fact& f) {
    expected.Insert(f);
  });

  DistributedDatalogProgram program(schema, prog);
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(edges, 3), DistributeRoundRobin(edges, 5)};
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 6, nullptr, /*aware=*/false);
  EXPECT_TRUE(sweep.all_runs_correct);
}

TEST_F(NetTest, DistributedDatalogIsCoordinationFree) {
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), E(z,y)");
  Instance edges;
  AddCycleGraph(schema, schema.IdOf("E"), 5, edges);
  const Instance everything = EvaluateProgram(schema, prog, edges);
  Instance expected;
  everything.ForEachFactOf(schema.IdOf("TC"), [&](const Fact& f) {
    expected.Insert(f);
  });
  DistributedDatalogProgram program(schema, prog);
  EXPECT_TRUE(ComputesWithoutCommunication(
      program, DistributeReplicated(edges, 3), expected, nullptr,
      /*aware=*/false));
}

TEST_F(NetTest, DistributedDatalogRejectsUnstratifiable) {
  Schema schema;
  DatalogProgram prog = ParseProgram(
      schema, "Win(x) <- Move(x,y), !Win(y)");
  EXPECT_DEATH(DistributedDatalogProgram(schema, prog), "stratif");
}

TEST_F(NetTest, DistributedDatalogAcceptsStratifiedNegationWithWarning) {
  Schema schema;
  DatalogProgram prog = ParseProgram(
      schema, "OUT(x,y) <- E(x,y), !F(x,y)");
  // Semi-positive, hence stratifiable: accepted (construction must not
  // abort); the eventual-consistency caveat goes to stderr.
  DistributedDatalogProgram program(schema, prog);
  (void)program;
}

}  // namespace
}  // namespace lamp
