#include <gtest/gtest.h>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "mapreduce/mapreduce.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "mapreduce/recursive.h"
#include "mapreduce/relational_jobs.h"
#include "relational/generators.h"

namespace lamp {
namespace {

class MapReduceTest : public ::testing::Test {
 protected:
  MapReduceTest() {
    join_ = ParseQuery(schema_, "H(x,y,z) <- R(x,y), S(y,z)");
    triangle_ = ParseQuery(schema_, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  }

  Instance JoinInput(std::uint64_t seed, std::size_t m = 300) {
    Rng rng(seed);
    Instance db;
    AddUniformRelation(schema_, schema_.IdOf("R"), m, 60, rng, db);
    AddUniformRelation(schema_, schema_.IdOf("S"), m, 60, rng, db);
    return db;
  }

  Instance TriangleInput(std::uint64_t seed, std::size_t m = 200) {
    Rng rng(seed);
    Instance db;
    AddRandomGraph(schema_, schema_.IdOf("R"), m, 40, rng, db);
    AddRandomGraph(schema_, schema_.IdOf("S"), m, 40, rng, db);
    AddRandomGraph(schema_, schema_.IdOf("T"), m, 40, rng, db);
    return db;
  }

  Schema schema_;
  ConjunctiveQuery join_;
  ConjunctiveQuery triangle_;
};

TEST_F(MapReduceTest, IdentityJobCopiesInput) {
  MapReduceJob identity;
  identity.map = [](const Fact& f) {
    return std::vector<KeyValue>{{7, f}};
  };
  identity.reduce = [](std::uint64_t, const std::vector<Fact>& group) {
    std::vector<KeyValue> out;
    for (const Fact& f : group) out.push_back({0, f});
    return out;
  };
  const Instance input = JoinInput(1);
  MapReduceStats stats;
  const Instance output = RunJob(identity, input, &stats);
  EXPECT_EQ(output, input);
  EXPECT_EQ(stats.NumGroups(), 1u);  // Everything under key 7.
  EXPECT_EQ(stats.MaxGroupSize(), input.Size());
  EXPECT_EQ(stats.pairs_shuffled, input.Size());
}

TEST_F(MapReduceTest, RepartitionJoinJobComputesTheJoin) {
  const Instance input = JoinInput(2);
  const MapReduceJob job = RepartitionJoinJob(join_, 8, 5);
  MapReduceStats stats;
  const Instance output = RunJob(job, input, &stats);
  EXPECT_EQ(output, Evaluate(join_, input));
  EXPECT_LE(stats.NumGroups(), 8u);
  EXPECT_EQ(stats.pairs_shuffled, input.Size());  // No replication.
}

TEST_F(MapReduceTest, SharesJobComputesTheTriangle) {
  const Instance input = TriangleInput(3);
  const MapReduceJob job = SharesJob(triangle_, {2, 2, 2}, 5);
  MapReduceStats stats;
  const Instance output = RunJob(job, input, &stats);
  EXPECT_EQ(output, Evaluate(triangle_, input));
  EXPECT_LE(stats.NumGroups(), 8u);
  // Each fact is replicated exactly `share of the missing dimension`
  // times: 2 per fact for the 2x2x2 grid.
  EXPECT_EQ(stats.pairs_shuffled, 2 * input.Size());
}

TEST_F(MapReduceTest, ReducerSizeReplicationTradeoff) {
  // Das Sarma et al. [27]: larger shares -> more replication (pairs
  // shuffled) but smaller reducers.
  const Instance input = TriangleInput(4, 400);
  MapReduceStats small_grid;
  MapReduceStats large_grid;
  RunJob(SharesJob(triangle_, {2, 2, 2}, 5), input, &small_grid);
  RunJob(SharesJob(triangle_, {4, 4, 4}, 5), input, &large_grid);
  EXPECT_GT(large_grid.pairs_shuffled, small_grid.pairs_shuffled);
  EXPECT_LT(large_grid.MaxGroupSize(), small_grid.MaxGroupSize());
}

TEST_F(MapReduceTest, ProgramChainsJobs) {
  // Job 1: join R and S into K(x,y,z) encoded as H facts; job 2: filter
  // the groups by a parity condition on x. Checks output piping.
  const Instance input = JoinInput(6);
  MapReduceProgram program;
  program.jobs.push_back(RepartitionJoinJob(join_, 4, 1));
  MapReduceJob filter;
  filter.map = [this](const Fact& f) {
    std::vector<KeyValue> out;
    if (f.relation == schema_.IdOf("H") && f.args[0].v % 2 == 0) {
      out.push_back({static_cast<std::uint64_t>(f.args[0].v), f});
    }
    return out;
  };
  filter.reduce = [](std::uint64_t, const std::vector<Fact>& group) {
    std::vector<KeyValue> out;
    for (const Fact& f : group) out.push_back({0, f});
    return out;
  };
  program.jobs.push_back(filter);

  std::vector<MapReduceStats> stats;
  const Instance output = RunProgram(program, input, &stats);
  ASSERT_EQ(stats.size(), 2u);
  for (const Fact& f : output.AllFacts()) {
    EXPECT_EQ(f.args[0].v % 2, 0);
  }
  const Instance full_join = Evaluate(join_, input);
  for (const Fact& f : full_join.AllFacts()) {
    EXPECT_EQ(output.Contains(f), f.args[0].v % 2 == 0);
  }
}

TEST_F(MapReduceTest, MpcTranslationComputesSameResult) {
  // The paper's observation: a MapReduce job *is* a one-round MPC
  // algorithm. Same output; the MPC max load upper-bounds the biggest
  // reducer group (a server may host several groups).
  const Instance input = TriangleInput(7);
  const MapReduceJob job = SharesJob(triangle_, {2, 2, 2}, 9);
  MapReduceStats mr_stats;
  const Instance mr_output = RunJob(job, input, &mr_stats);
  const MpcRunResult mpc = RunJobOnMpc(job, input, 8);
  EXPECT_EQ(mpc.output, mr_output);
  EXPECT_GE(mpc.stats.MaxLoad() + input.Size() / 8 + 1,
            mr_stats.MaxGroupSize());
  EXPECT_EQ(mpc.stats.NumRounds(), 1u);
}

TEST_F(MapReduceTest, MpcTranslationOfRepartitionJoin) {
  const Instance input = JoinInput(8);
  const MapReduceJob job = RepartitionJoinJob(join_, 16, 2);
  const Instance mr_output = RunJob(job, input);
  const MpcRunResult mpc = RunJobOnMpc(job, input, 4);
  EXPECT_EQ(mpc.output, mr_output);
  EXPECT_EQ(mpc.output, Evaluate(join_, input));
}


TEST_F(MapReduceTest, LinearTcOnPath) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const RelationId tc = schema.AddRelation("TC", 2);
  Instance edges;
  AddPathGraph(schema, e, 9, edges);  // Diameter 8.
  const RecursiveTcResult result =
      TransitiveClosureLinear(schema, e, tc, edges);
  EXPECT_EQ(result.closure.Size(), 36u);  // 8+7+...+1.
  EXPECT_TRUE(result.closure.Contains(Fact(tc, {0, 8})));
  // Linear iteration needs ~diameter jobs.
  EXPECT_GE(result.jobs, 7u);
  EXPECT_LE(result.jobs, 9u);
}

TEST_F(MapReduceTest, DoublingTcOnPathUsesLogJobs) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const RelationId tc = schema.AddRelation("TC", 2);
  Instance edges;
  AddPathGraph(schema, e, 33, edges);  // Diameter 32.
  const RecursiveTcResult linear =
      TransitiveClosureLinear(schema, e, tc, edges);
  const RecursiveTcResult doubling =
      TransitiveClosureDoubling(schema, e, tc, edges);
  EXPECT_EQ(linear.closure, doubling.closure);
  EXPECT_EQ(linear.closure.Size(), 32u * 33u / 2u);
  // log2(32) = 5 doubling steps (+1 fixpoint check) vs ~32 linear jobs.
  EXPECT_LE(doubling.jobs, 7u);
  EXPECT_GE(linear.jobs, 31u);
  // The doubling rounds shuffle more data per job.
  EXPECT_GT(doubling.pairs_shuffled / doubling.jobs,
            linear.pairs_shuffled / linear.jobs);
}

TEST_F(MapReduceTest, TcOnCycleReachesEverything) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const RelationId tc = schema.AddRelation("TC", 2);
  Instance edges;
  AddCycleGraph(schema, e, 6, edges);
  const RecursiveTcResult result =
      TransitiveClosureDoubling(schema, e, tc, edges);
  EXPECT_EQ(result.closure.Size(), 36u);  // Complete reachability.
}

TEST_F(MapReduceTest, TcAgreesWithDatalogEngine) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const RelationId tc_rel = schema.AddRelation("TC", 2);
  Rng rng(9);
  Instance edges;
  AddRandomGraph(schema, e, 40, 15, rng, edges);

  const RecursiveTcResult mr =
      TransitiveClosureLinear(schema, e, tc_rel, edges);

  DatalogProgram prog = ParseProgram(
      schema, "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)");
  const Instance everything = EvaluateProgram(schema, prog, edges);
  Instance datalog_tc;
  everything.ForEachFactOf(tc_rel,
                           [&](const Fact& f) { datalog_tc.Insert(f); });
  EXPECT_EQ(mr.closure, datalog_tc);
}

}  // namespace
}  // namespace lamp
