#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "fault/confluence.h"
#include "fault/explorer.h"
#include "fault/plan.h"
#include "net/consistency.h"
#include "net/datalog_program.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/trace.h"
#include "relational/generators.h"

namespace lamp {
namespace {

using fault::FaultClass;

/// The transitive-closure pipeline used as the monotone workhorse: 8-node
/// path graph sharded round-robin over 3 nodes. Schedule-sensitive (the
/// number of deliveries depends on pipelining order), so it pins the
/// scheduler, not just the fixpoint.
struct TcFixture {
  TcFixture() : prog(ParseProgram(schema,
                                  "TC(x,y) <- E(x,y)\n"
                                  "TC(x,y) <- TC(x,z), E(z,y)")) {
    AddPathGraph(schema, schema.IdOf("E"), 8, edges);
    const Instance everything = EvaluateProgram(schema, prog, edges);
    everything.ForEachFactOf(schema.IdOf("TC"), [&](const Fact& f) {
      expected.Insert(f);
    });
  }

  Schema schema;
  DatalogProgram prog;
  Instance edges;
  Instance expected;
};

std::uint64_t TraceHash(const obs::Tracer& tracer) {
  // FNV-1a over the (kind, a, b, value) event sequence: any change in
  // delivery order, actor choice or payload changes the hash. Restricted
  // to the event kinds the pre-refactor runner emitted, so the golden
  // keeps pinning scheduler behaviour rather than instrumentation
  // density (the causal-audit events added later are derived from the
  // same deliveries and add no scheduling information). The node
  // program's own kDatalogIteration events are skipped too: they measure
  // how much work a transition does, not which transitions happen.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.kind == obs::EventKind::kNetCausalDeliver ||
        e.kind == obs::EventKind::kNetOutput ||
        e.kind == obs::EventKind::kDatalogIteration ||
        e.kind == obs::EventKind::kTransportConnect ||
        e.kind == obs::EventKind::kTransportSend ||
        e.kind == obs::EventKind::kTransportRecv) {
      continue;
    }
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.a);
    mix(e.b);
    mix(e.value);
  }
  return h;
}

TEST(SchedulerRefactorTest, RunIsByteIdenticalToHistoricalSeeds) {
  // The Scheduler extraction must not perturb Run(seed): same Rng call
  // sequence, same deliveries, same counters, same trace — pinned here
  // against values captured from the pre-refactor runner.
  struct Golden {
    std::size_t msgs, facts, trans;
    std::uint64_t hash;
  };
  const Golden golden[5] = {
      {26, 130, 26, 1503344825799696233ull},
      {22, 90, 22, 3341549407535365971ull},
      {20, 92, 20, 5226456889167668399ull},
      {28, 142, 28, 5257563021230106394ull},
      {24, 134, 24, 10434129490577265916ull},
  };

  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program,
                          nullptr, /*aware=*/false);
    obs::Tracer tracer;
    NetworkRunResult r;
    {
      obs::ScopedTracer install(tracer);
      r = net.Run(seed);
    }
    EXPECT_EQ(r.output, tc.expected) << "seed " << seed;
    EXPECT_EQ(r.messages_sent(), golden[seed].msgs) << "seed " << seed;
    EXPECT_EQ(r.facts_transferred(), golden[seed].facts) << "seed " << seed;
    EXPECT_EQ(r.transitions(), golden[seed].trans) << "seed " << seed;
    EXPECT_EQ(TraceHash(tracer), golden[seed].hash) << "seed " << seed;
  }
}

TEST(FaultScheduleGoldenTest, ClassSweepCountersArePinned) {
  // Every fault class's sweep on the TC pipeline, pinned counter by
  // counter: any change to the Rng call sequence, the plan generators or
  // the fault semantics moves one of these.
  struct Golden {
    std::size_t runs, correct;
    std::uint64_t transitions, facts, drops, dups, crashes, retransmits;
  };
  const Golden golden[7] = {
      {8, 8, 435, 1399, 0, 0, 0, 0},    // none
      {8, 8, 386, 1326, 43, 0, 0, 0},   // drop+retransmit
      {8, 8, 442, 1341, 0, 41, 0, 0},   // duplicate
      {8, 8, 341, 1112, 0, 0, 0, 0},    // reorder
      {8, 8, 381, 1387, 0, 0, 0, 0},    // partition+heal
      {8, 8, 476, 1499, 0, 0, 10, 14},  // crash/restart (volatile)
      {8, 8, 416, 1541, 0, 0, 10, 0},   // crash/restart (durable)
  };
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  const std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(tc.edges, 3), DistributeRoundRobin(tc.edges, 4)};
  const fault::ConfluenceReport report = fault::ClassifyConfluence(
      program, distributions, tc.expected, 4, nullptr, /*aware=*/false);
  ASSERT_EQ(report.by_class.size(), 7u);
  for (std::size_t c = 0; c < 7; ++c) {
    const fault::FaultSweep& s = report.by_class[c];
    const Golden& g = golden[c];
    const std::string name(fault::FaultClassName(s.fault_class));
    EXPECT_EQ(s.runs, g.runs) << name;
    EXPECT_EQ(s.correct_runs, g.correct) << name;
    EXPECT_EQ(s.total_transitions, g.transitions) << name;
    EXPECT_EQ(s.total_facts_transferred, g.facts) << name;
    EXPECT_EQ(s.total_drops, g.drops) << name;
    EXPECT_EQ(s.total_duplicates, g.dups) << name;
    EXPECT_EQ(s.total_crashes, g.crashes) << name;
    EXPECT_EQ(s.total_retransmits, g.retransmits) << name;
  }
}

TEST(FaultScheduleGoldenTest, FaultyRunsAreByteIdentical) {
  // One run per plan kind, pinned by its full trace: partition with a
  // heal step, starved receiver, FIFO and LIFO channels, volatile crash.
  struct Case {
    FaultPlan plan;
    std::uint64_t seed;
    std::size_t trans;
    std::uint64_t hash;
  };
  FaultPlan oldest_first;
  oldest_first.discipline = DeliveryDiscipline::kOldestFirst;
  const Case cases[5] = {
      {fault::PartitionHealPlan({0, 2}, 2, 9), 1, 24, 7718110987289936524ull},
      {fault::StarvePlan(1), 2, 28, 17006104194913356344ull},
      {oldest_first, 3, 24, 8044514087332730232ull},
      {fault::NewestFirstPlan(), 4, 28, 1221611798586389588ull},
      {fault::CrashRestartPlan(1, 3, 9, /*durable=*/false), 5, 33,
       5493147382113807654ull},
  };
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  for (const Case& c : cases) {
    Scheduler scheduler(c.plan, c.seed);
    TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program,
                          nullptr, /*aware=*/false);
    obs::Tracer tracer;
    NetworkRunResult r;
    {
      obs::ScopedTracer install(tracer);
      r = net.RunWith(scheduler);
    }
    EXPECT_EQ(r.output, tc.expected) << c.plan.ToString();
    EXPECT_EQ(r.transitions(), c.trans) << c.plan.ToString();
    EXPECT_EQ(TraceHash(tracer), c.hash) << c.plan.ToString();
  }
}

TEST(FaultSchedulerTest, DeterministicInPlanAndSeed) {
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  Rng plan_rng(99);
  const FaultPlan plan = fault::RandomFaultPlan(3, plan_rng);
  for (int rep = 0; rep < 2; ++rep) {
    Scheduler s1(plan, 5);
    Scheduler s2(plan, 5);
    TransducerNetwork n1(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                         false);
    TransducerNetwork n2(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                         false);
    const NetworkRunResult r1 = n1.RunWith(s1);
    const NetworkRunResult r2 = n2.RunWith(s2);
    EXPECT_EQ(r1.output, r2.output);
    EXPECT_EQ(r1.transitions(), r2.transitions());
    EXPECT_EQ(r1.facts_transferred(), r2.facts_transferred());
  }
}

TEST(FaultSchedulerTest, DropStormRetransmitsAndConverges) {
  // Drops postpone delivery but never lose it: the monotone program still
  // computes TC, with the failed attempts visible in the counters.
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  Scheduler scheduler(fault::DropStormPlan(0, 10), 1);
  TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                        false);
  const NetworkRunResult r = net.RunWith(scheduler);
  EXPECT_EQ(r.output, tc.expected);
  EXPECT_EQ(r.metrics.CounterValue(obs::kNetFaultDrops), 10u);
}

TEST(FaultSchedulerTest, DuplicateStormConvergesForMonotone) {
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  Scheduler scheduler(fault::DuplicateStormPlan(0, 8), 2);
  TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                        false);
  const NetworkRunResult r = net.RunWith(scheduler);
  EXPECT_EQ(r.output, tc.expected);
  EXPECT_EQ(r.metrics.CounterValue(obs::kNetFaultDuplicates), 8u);
}

TEST(FaultSchedulerTest, VolatileCrashLosesStateButChannelRedelivers) {
  // A volatile crash wipes node state; the consumed-message log is
  // requeued on restart, so the monotone fixpoint is still reached.
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  Scheduler scheduler(
      fault::CrashRestartPlan(1, 3, 9, /*durable=*/false), 0);
  EXPECT_TRUE(scheduler.WantsRedeliveryLog());
  TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                        false);
  const NetworkRunResult r = net.RunWith(scheduler);
  EXPECT_EQ(r.output, tc.expected);
  EXPECT_EQ(r.metrics.CounterValue(obs::kNetFaultCrashes), 1u);
  EXPECT_EQ(r.metrics.CounterValue(obs::kNetFaultRestarts), 1u);
}

TEST(FaultSchedulerTest, DurableCrashKeepsState) {
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  Scheduler scheduler(
      fault::CrashRestartPlan(0, 2, 12, /*durable=*/true), 3);
  EXPECT_FALSE(scheduler.WantsRedeliveryLog());
  TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                        false);
  const NetworkRunResult r = net.RunWith(scheduler);
  EXPECT_EQ(r.output, tc.expected);
  EXPECT_EQ(r.metrics.CounterValue(obs::kNetFaultRetransmits), 0u);
}

TEST(FaultSchedulerTest, PartitionHeldUntilQuiescenceIsForcedToHeal) {
  // heal@quiescence never fires on its own; the scheduler must force the
  // heal once both sides are internally quiescent, and the run still
  // converges to Q(I).
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  Scheduler scheduler(fault::PartitionHealPlan(
      {0}, 0, std::numeric_limits<std::size_t>::max()), 4);
  TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                        false);
  const NetworkRunResult r = net.RunWith(scheduler);
  EXPECT_EQ(r.output, tc.expected);
  EXPECT_GE(scheduler.forced_recoveries(), 1u);
}

TEST(FaultSchedulerTest, StarveStillConverges) {
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  Scheduler scheduler(fault::StarvePlan(0), 5);
  TransducerNetwork net(DistributeRoundRobin(tc.edges, 3), program, nullptr,
                        false);
  EXPECT_EQ(net.RunWith(scheduler).output, tc.expected);
}

TEST(FaultPlanTest, ToStringRendersEventsAndQuiescence) {
  FaultPlan plan = fault::CrashRestartPlan(2, 5, 9, /*durable=*/false);
  FaultEvent dup;
  dup.kind = FaultEvent::Kind::kDuplicateNext;
  dup.step = 3;
  plan.events.push_back(dup);
  FaultEvent heal;
  heal.kind = FaultEvent::Kind::kHeal;
  heal.step = std::numeric_limits<std::size_t>::max();
  plan.events.push_back(heal);
  plan.Normalize();
  EXPECT_EQ(plan.ToString(),
            "discipline=uniform events=[dup@3 crash(n2,volatile)@5 "
            "restart(n2)@9 heal@quiescence]");
  EXPECT_TRUE(plan.HasVolatileCrash());

  const FaultPlan starve = fault::StarvePlan(1);
  EXPECT_EQ(starve.ToString(), "discipline=starve(n1) events=[]");
  EXPECT_FALSE(starve.Empty());  // A non-uniform discipline is a fault.
  EXPECT_TRUE(FaultPlan{}.Empty());
}

TEST(DiffInstancesTest, CountsAndSummarizesBothDirections) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  Instance actual, expected;
  actual.Insert(Fact(e, {1, 2}));   // Unexpected.
  actual.Insert(Fact(e, {3, 4}));   // Shared.
  expected.Insert(Fact(e, {3, 4}));
  expected.Insert(Fact(e, {5, 6}));  // Missing.

  const InstanceDiff diff = DiffInstances(actual, expected, &schema);
  EXPECT_EQ(diff.unexpected, 1u);
  EXPECT_EQ(diff.missing, 1u);
  EXPECT_FALSE(diff.Empty());
  EXPECT_EQ(diff.summary, "+E(1,2) -E(5,6)");

  const InstanceDiff none = DiffInstances(expected, expected, &schema);
  EXPECT_TRUE(none.Empty());
  EXPECT_EQ(none.summary, "");
}

TEST(DiffInstancesTest, ElidesBeyondMaxListed) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 1);
  Instance actual, expected;
  for (int i = 0; i < 6; ++i) expected.Insert(Fact(e, {i}));
  const InstanceDiff diff = DiffInstances(actual, expected, &schema, 2);
  EXPECT_EQ(diff.missing, 6u);
  EXPECT_NE(diff.summary.find("(+4 more)"), std::string::npos);
}

TEST(SweepFailureTest, FirstFailureCarriesContext) {
  // Satellite (a): a failing sweep reports which seed and distribution
  // broke first, and what the output diff looked like.
  Schema schema;
  schema.AddRelation("E", 2);
  const ConjunctiveQuery open_triangle =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(3);
  Instance graph;
  AddRandomGraph(schema, schema.IdOf("E"), 40, 12, rng, graph);
  const Instance expected = Evaluate(open_triangle, graph);

  MonotoneBroadcastProgram program([&open_triangle](const Instance& i) {
    return Evaluate(open_triangle, i);
  });
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(graph, 4)};
  const ConsistencySweep sweep =
      CheckEventualConsistency(program, distributions, expected, 5, nullptr,
                               /*aware=*/false, &schema);
  ASSERT_FALSE(sweep.all_runs_correct);
  ASSERT_TRUE(sweep.first_failure.has_value());
  EXPECT_EQ(sweep.first_failure->distribution_index, 0u);
  EXPECT_LT(sweep.first_failure->seed, 5u);
  EXPECT_FALSE(sweep.first_failure->diff.Empty());
  EXPECT_FALSE(sweep.first_failure->diff.summary.empty());
  // Schema-aware rendering: facts print by relation name.
  EXPECT_NE(sweep.first_failure->diff.summary.find("H("), std::string::npos);
}

TEST(FragileBarrierTest, CorrectOnEveryFaultFreeSchedule) {
  // The fragile barrier counts messages instead of distinct markers; on
  // an exactly-once network the two coincide, so clean runs are correct.
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
  FragileCountingBarrierProgram program(
      [&open_triangle](const Instance& i) {
        return Evaluate(open_triangle, i);
      },
      scratch);
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(graph, 3), DistributeRoundRobin(graph, 4)};
  const ConsistencySweep sweep = CheckEventualConsistency(
      program, distributions, expected, 8, nullptr, /*aware=*/true);
  EXPECT_TRUE(sweep.all_runs_correct);
  EXPECT_EQ(sweep.runs, 16u);
}

TEST(FaultSweepTest, MonotoneSurvivesEveryClassSmoke) {
  // One-seed smoke over all classes; the thorough sweep lives in
  // fault_property_test.cc.
  TcFixture tc;
  DistributedDatalogProgram program(tc.schema, tc.prog);
  std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(tc.edges, 3)};
  for (FaultClass fault_class : fault::kAllFaultClasses) {
    const fault::FaultSweep sweep = fault::CheckConsistencyUnderFaults(
        program, distributions, tc.expected, fault_class, 2, nullptr,
        /*aware=*/false);
    EXPECT_TRUE(sweep.all_runs_correct)
        << fault::FaultClassName(fault_class) << ": "
        << (sweep.first_failure.has_value()
                ? sweep.first_failure->plan.ToString()
                : "");
    EXPECT_EQ(sweep.runs, 2u);
  }
}

}  // namespace
}  // namespace lamp
