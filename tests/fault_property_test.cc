#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "fault/confluence.h"
#include "fault/explorer.h"
#include "fault/plan.h"
#include "fault/scheduler.h"
#include "net/consistency.h"
#include "net/datalog_program.h"
#include "net/network.h"
#include "net/programs.h"
#include "relational/generators.h"

/// \file
/// Property tests for the CALM dividing line under faults: monotone
/// programs must be invariant under duplication, reordering, partitions
/// and crashes (F0 = A0 = M quantifies over all such runs), while the
/// explorer must find — and minimize — divergence witnesses for the
/// non-monotone strategies.

namespace lamp {
namespace {

using fault::FaultClass;
using fault::FaultPlan;
using fault::FaultScheduler;

NetQueryFunction WrapCq(const ConjunctiveQuery& q) {
  return [&q](const Instance& instance) { return Evaluate(q, instance); };
}

TEST(FaultPropertyTest, MonotoneTcInvariantUnderRandomFaultPlans) {
  // Property: for every random FaultPlan and every scheduler seed, the
  // monotone TC pipeline computes exactly Q(I).
  Schema schema;
  DatalogProgram prog = ParseProgram(schema,
                                     "TC(x,y) <- E(x,y)\n"
                                     "TC(x,y) <- TC(x,z), E(z,y)");
  Instance edges;
  AddPathGraph(schema, schema.IdOf("E"), 7, edges);
  AddCycleGraph(schema, schema.IdOf("E"), 4, edges);
  const Instance everything = EvaluateProgram(schema, prog, edges);
  Instance expected;
  everything.ForEachFactOf(schema.IdOf("TC"), [&](const Fact& f) {
    expected.Insert(f);
  });

  DistributedDatalogProgram program(schema, prog);
  const std::vector<Instance> locals = DistributeRoundRobin(edges, 4);
  Rng plan_rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    const FaultPlan plan = fault::RandomFaultPlan(locals.size(), plan_rng);
    const std::uint64_t seed = plan_rng.Next();
    FaultScheduler scheduler(plan, seed);
    TransducerNetwork net(locals, program, nullptr, /*aware=*/false);
    const NetworkRunResult r = net.RunWith(scheduler);
    EXPECT_EQ(r.output, expected)
        << "trial " << trial << " seed " << seed << " " << plan.ToString();
  }
}

/// The Datalog node program as it was before fixpoint continuation: every
/// delivery that brings a new fact re-evaluates the whole state from
/// scratch, outputs every IDB fact it holds and broadcasts the derived
/// facts that are new to the node. The reference for the equivalence test
/// below.
class RecomputingDatalogProgram : public TransducerProgram {
 public:
  RecomputingDatalogProgram(Schema& schema, const DatalogProgram& program)
      : schema_(schema), program_(program), idb_(program.IdbRelations()) {}

  void OnStart(NodeContext& ctx) override {
    ctx.BroadcastState();
    DeriveAndShare(ctx);
  }

  void OnReceive(NodeContext& ctx, const Message& message) override {
    if (ctx.InsertMessage(message)) DeriveAndShare(ctx);
  }

 private:
  void DeriveAndShare(NodeContext& ctx) {
    const Instance everything =
        EvaluateProgram(schema_, program_, ctx.state());
    Message fresh;
    everything.ForEachFact([&](const Fact& f) {
      if (idb_.count(f.relation) > 0) ctx.Output(f);
      if (ctx.mutable_state().Insert(f)) fresh.Append(transport::RowRef::Of(f));
    });
    if (!fresh.empty()) ctx.Broadcast(std::move(fresh));
  }

  Schema& schema_;
  const DatalogProgram& program_;
  std::set<RelationId> idb_;
};

TEST(FaultPropertyTest, DatalogNodeProgramMatchesRecomputingReference) {
  // Property: continuing each node's fixpoint from the delivered facts is
  // observationally the same node program as recomputing it: same output,
  // same transitions and messages, same causal profile, on every random
  // graph, network size and fault plan. ADom and negation programs keep
  // the recomputing path; they are here so that stays true.
  const char* const programs[] = {
      // Linear TC.
      "TC(x,y) <- E(x,y)\n"
      "TC(x,y) <- TC(x,z), E(z,y)",
      // Non-linear TC under a second positive stratum.
      "TC(x,y) <- E(x,y)\n"
      "TC(x,y) <- TC(x,z), TC(z,y)\n"
      "Sym(x,y) <- TC(x,y), TC(y,x)",
      // Negation-free, with the built-in active domain.
      "TC(x,y) <- E(x,y)\n"
      "TC(x,y) <- TC(x,z), E(z,y)\n"
      "Loop(x) <- ADom(x), TC(x,x)",
      // Stratified negation.
      "TC(x,y) <- E(x,y)\n"
      "TC(x,y) <- TC(x,z), E(z,y)\n"
      "OneWay(x,y) <- TC(x,y), !TC(y,x)",
  };
  for (const char* text : programs) {
    Schema schema;
    const DatalogProgram prog = ParseProgram(schema, text);
    DistributedDatalogProgram program(schema, prog);
    RecomputingDatalogProgram reference(schema, prog);
    Rng rng(2718);
    for (std::size_t nodes : {2u, 3u, 5u}) {
      for (int trial = 0; trial < 32; ++trial) {
        Instance graph;
        AddRandomGraph(schema, schema.IdOf("E"), 14, 8, rng, graph);
        const std::vector<Instance> locals = DistributeRoundRobin(graph, nodes);
        const FaultPlan plan = fault::RandomFaultPlan(nodes, rng);
        const std::uint64_t seed = rng.Next();
        FaultScheduler s1(plan, seed);
        FaultScheduler s2(plan, seed);
        TransducerNetwork n1(locals, program, nullptr, /*aware=*/false);
        TransducerNetwork n2(locals, reference, nullptr, /*aware=*/false);
        const NetworkRunResult got = n1.RunWith(s1);
        const NetworkRunResult want = n2.RunWith(s2);
        const std::string where = std::string(text) + "\nnodes " +
                                  std::to_string(nodes) + " trial " +
                                  std::to_string(trial) + " " +
                                  plan.ToString();
        EXPECT_EQ(got.output, want.output) << where;
        EXPECT_EQ(got.transitions(), want.transitions()) << where;
        EXPECT_EQ(got.messages_sent(), want.messages_sent()) << where;
        EXPECT_EQ(got.facts_transferred(), want.facts_transferred()) << where;
        EXPECT_EQ(got.wire_bytes(), want.wire_bytes()) << where;
        EXPECT_EQ(got.coordination_depth(), want.coordination_depth())
            << where;
        EXPECT_EQ(got.causal_max_depth(), want.causal_max_depth()) << where;
      }
    }
  }
}

TEST(FaultPropertyTest, MonotoneBroadcastInvariantUnderDuplicationStorms) {
  // Set semantics make the naive broadcast idempotent: hammering every
  // early delivery with duplicates changes nothing.
  Schema schema;
  schema.AddRelation("E", 2);
  const ConjunctiveQuery triangle = ParseQuery(
      schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
  Rng rng(7);
  Instance graph;
  AddRandomGraph(schema, schema.IdOf("E"), 30, 10, rng, graph);
  AddTriangleClusters(schema, schema.IdOf("E"), 2, 100, graph);
  const Instance expected = Evaluate(triangle, graph);
  ASSERT_FALSE(expected.Empty());

  MonotoneBroadcastProgram program(WrapCq(triangle));
  const std::vector<Instance> locals = DistributeRoundRobin(graph, 3);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    FaultScheduler scheduler(fault::DuplicateStormPlan(0, 16), seed);
    TransducerNetwork net(locals, program, nullptr, /*aware=*/false);
    const NetworkRunResult r = net.RunWith(scheduler);
    EXPECT_EQ(r.output, expected) << "seed " << seed;
    EXPECT_EQ(r.metrics.CounterValue(obs::kNetFaultDuplicates), 16u);
  }
}

TEST(FaultPropertyTest, ClassifierReportsMonotoneProgramsConfluent) {
  // The classifier's headline: a monotone (F0) program is correct under
  // every fault class the runtime can inject.
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
      DistributeRoundRobin(edges, 3)};
  const fault::ConfluenceReport report = fault::ClassifyConfluence(
      program, distributions, expected, 4, nullptr, /*aware=*/false);
  EXPECT_TRUE(report.confluent);
  EXPECT_EQ(report.by_class.size(), fault::kAllFaultClasses.size());
  for (const fault::FaultSweep& sweep : report.by_class) {
    EXPECT_TRUE(sweep.all_runs_correct)
        << fault::FaultClassName(sweep.fault_class);
    EXPECT_EQ(sweep.runs, 4u);
  }
  // The faulty classes actually injected something.
  const fault::FaultSweep* dup =
      report.FindClass(FaultClass::kDuplicate);
  ASSERT_NE(dup, nullptr);
  EXPECT_GT(dup->total_duplicates, 0u);
  const fault::FaultSweep* crash =
      report.FindClass(FaultClass::kCrashVolatile);
  ASSERT_NE(crash, nullptr);
  EXPECT_GT(crash->total_crashes, 0u);
}

TEST(FaultPropertyTest, ClassifierPinpointsNonMonotoneDivergence) {
  // The naive broadcast running a non-monotone query is the other side of
  // the line: some class must break it, and the failing sweep carries the
  // (seed, plan, diff) needed to replay the divergence.
  Schema schema;
  schema.AddRelation("E", 2);
  const ConjunctiveQuery open_triangle =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(3);
  Instance graph;
  AddRandomGraph(schema, schema.IdOf("E"), 40, 12, rng, graph);
  const Instance expected = Evaluate(open_triangle, graph);

  MonotoneBroadcastProgram program(WrapCq(open_triangle));
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(graph, 4)};
  const fault::ConfluenceReport report = fault::ClassifyConfluence(
      program, distributions, expected, 4, nullptr, /*aware=*/false,
      &schema);
  EXPECT_FALSE(report.confluent);

  bool replayed = false;
  for (const fault::FaultSweep& sweep : report.by_class) {
    if (sweep.all_runs_correct) continue;
    ASSERT_TRUE(sweep.first_failure.has_value());
    const fault::FaultSweepFailure& failure = *sweep.first_failure;
    EXPECT_FALSE(failure.diff.Empty());
    if (!replayed) {
      // The recorded (plan, seed) replays to the same wrong output.
      EXPECT_TRUE(fault::PlanDiverges(
          program, distributions[failure.distribution_index], expected,
          failure.plan, failure.seed, nullptr, /*aware=*/false));
      replayed = true;
    }
  }
  EXPECT_TRUE(replayed);
}

TEST(FaultPropertyTest, ExplorerMinimizesFragileBarrierToOneDuplication) {
  // Regression: the fragile counting barrier is correct on every
  // fault-free schedule (fault_test.cc pins that), so the explorer must
  // reach a fault storm to break it — and delta-debugging must shrink
  // the witness to a single duplication event: the canonical
  // at-least-once-delivery bug, minimal by construction.
  Schema schema;
  schema.AddRelation("E", 2);
  const ConjunctiveQuery open_triangle =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(4);
  Instance graph;
  AddRandomGraph(schema, schema.IdOf("E"), 30, 10, rng, graph);
  const Instance expected = Evaluate(open_triangle, graph);
  ASSERT_FALSE(expected.Empty());

  Schema scratch = schema;
  FragileCountingBarrierProgram program(WrapCq(open_triangle), scratch);
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(graph, 3)};

  const fault::ExplorerResult result = fault::ExploreSchedules(
      program, distributions, expected, {}, nullptr, /*aware=*/true,
      &schema);
  ASSERT_TRUE(result.divergence_found);
  const fault::DivergenceWitness& witness = result.witness;
  EXPECT_EQ(witness.strategy, "duplicate-storm");
  ASSERT_EQ(witness.plan.events.size(), 1u);
  EXPECT_EQ(witness.plan.events[0].kind,
            fault::FaultEvent::Kind::kDuplicateNext);
  EXPECT_EQ(witness.plan.discipline, fault::DeliveryDiscipline::kUniform);
  EXPECT_FALSE(witness.diff.Empty());

  // 1-minimality, checked directly: the empty plan does not diverge,
  // the one-event plan does, and both replay deterministically.
  EXPECT_FALSE(fault::PlanDiverges(program, distributions[0], expected,
                                   FaultPlan{}, witness.seed, nullptr,
                                   /*aware=*/true));
  EXPECT_TRUE(fault::PlanDiverges(program, distributions[0], expected,
                                  witness.plan, witness.seed, nullptr,
                                  /*aware=*/true));

  // The trace pair for lamp_obs diff: a divergent recording plus a
  // fault-free reference that computed Q(I).
  EXPECT_TRUE(witness.has_reference);
  ASSERT_TRUE(witness.divergent_trace.IsObject());
  ASSERT_TRUE(witness.reference_trace.IsObject());
  const obs::JsonValue* d_events = witness.divergent_trace.Find("events");
  const obs::JsonValue* r_events = witness.reference_trace.Find("events");
  ASSERT_NE(d_events, nullptr);
  ASSERT_NE(r_events, nullptr);
  EXPECT_GT(d_events->size(), 0u);
  EXPECT_GT(r_events->size(), 0u);
}

TEST(FaultPropertyTest, ExplorerFindsPureScheduleWitnessForNaiveBroadcast) {
  // The naive broadcast on a non-monotone query diverges on a plain
  // schedule — no injected faults needed. The minimized plan is then
  // empty or discipline-only, and the strategy is an early battery entry.
  Schema schema;
  schema.AddRelation("E", 2);
  const ConjunctiveQuery open_triangle =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(3);
  Instance graph;
  AddRandomGraph(schema, schema.IdOf("E"), 40, 12, rng, graph);
  const Instance expected = Evaluate(open_triangle, graph);

  MonotoneBroadcastProgram program(WrapCq(open_triangle));
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(graph, 4)};
  fault::ExplorerOptions options;
  options.capture_traces = false;
  const fault::ExplorerResult result = fault::ExploreSchedules(
      program, distributions, expected, options, nullptr, /*aware=*/false,
      &schema);
  ASSERT_TRUE(result.divergence_found);
  EXPECT_TRUE(result.witness.plan.events.empty());
  EXPECT_TRUE(fault::PlanDiverges(program, distributions[0], expected,
                                  result.witness.plan, result.witness.seed,
                                  nullptr, /*aware=*/false));
}

TEST(FaultPropertyTest, CoordinatedBarrierSurvivesReorderButNotEveryClass) {
  // The *set*-based barrier tolerates duplication and reordering (marker
  // sets are idempotent), the fragile counting one does not: the pair
  // brackets exactly where at-least-once delivery starts to hurt.
  Schema schema;
  schema.AddRelation("E", 2);
  const ConjunctiveQuery open_triangle =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(4);
  Instance graph;
  AddRandomGraph(schema, schema.IdOf("E"), 30, 10, rng, graph);
  const Instance expected = Evaluate(open_triangle, graph);

  Schema scratch_set = schema;
  CoordinatedBarrierProgram set_based(WrapCq(open_triangle), scratch_set);
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(graph, 3)};
  for (FaultClass fault_class :
       {FaultClass::kDuplicate, FaultClass::kReorder}) {
    const fault::FaultSweep sweep = fault::CheckConsistencyUnderFaults(
        set_based, distributions, expected, fault_class, 4, nullptr,
        /*aware=*/true);
    EXPECT_TRUE(sweep.all_runs_correct)
        << fault::FaultClassName(fault_class);
  }

  Schema scratch_count = schema;
  FragileCountingBarrierProgram counting(WrapCq(open_triangle),
                                         scratch_count);
  const fault::FaultSweep broken = fault::CheckConsistencyUnderFaults(
      counting, distributions, expected, FaultClass::kDuplicate, 6, nullptr,
      /*aware=*/true, &schema);
  EXPECT_FALSE(broken.all_runs_correct);
  ASSERT_TRUE(broken.first_failure.has_value());
  EXPECT_FALSE(broken.first_failure->diff.summary.empty());
}

}  // namespace
}  // namespace lamp
