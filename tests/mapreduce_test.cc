#include <gtest/gtest.h>

#include "common/hash.h"
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

/// The identity reducer: every row of the group, unchanged.
void CopyGroup(std::uint64_t, std::span<const transport::RowRef> group,
               Instance& out) {
  for (const transport::RowRef& row : group) {
    out.InsertRow(row.relation, row.row, row.arity);
  }
}

TEST_F(MapReduceTest, IdentityJobCopiesInput) {
  MapReduceJob identity;
  identity.map = [](transport::RowRef, std::vector<std::uint64_t>& keys) {
    keys.push_back(7);
  };
  identity.reduce = CopyGroup;
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
  filter.map = [this](transport::RowRef row,
                      std::vector<std::uint64_t>& keys) {
    if (row.relation == schema_.IdOf("H") && row.row[0].v % 2 == 0) {
      keys.push_back(static_cast<std::uint64_t>(row.row[0].v));
    }
  };
  filter.reduce = CopyGroup;
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

// --- the MapReduce contract, pinned ----------------------------------------

/// The rows of \p instance in (relation, insertion) order, hashed: equal
/// values pin both the set of rows and the order they were inserted in.
std::uint64_t RowOrderHash(const Instance& instance) {
  std::uint64_t h = 0;
  for (RelationId rel = 0; rel < instance.NumRelationIds(); ++rel) {
    const RowsView rows = instance.RowsOf(rel);
    for (std::size_t r = 0; r < rows.num_rows; ++r) {
      h = HashCombine(h, rel);
      for (std::size_t i = 0; i < rows.arity; ++i) {
        h = HashCombine(h, static_cast<std::uint64_t>(rows.Row(r)[i].v));
      }
    }
  }
  return h;
}

/// The per-server loads of every round of \p stats.
std::vector<std::vector<std::size_t>> Loads(const RunStats& stats) {
  std::vector<std::vector<std::size_t>> loads;
  for (const RoundStats& round : stats.rounds) loads.push_back(round.received);
  return loads;
}

TEST_F(MapReduceTest, TcStrategiesShuffleThePinnedCounts) {
  // D2 on path graphs of diameter 8/16/32/64: jobs (barriers), pairs
  // shuffled and the largest reducer group of both strategies.
  struct Pin {
    std::size_t diameter;
    std::size_t linear_jobs, linear_pairs, linear_max_group;
    std::size_t doubling_jobs, doubling_pairs, doubling_max_group;
  };
  const Pin pins[] = {
      {8, 8, 268, 8, 4, 170, 8},
      {16, 16, 1752, 16, 5, 682, 16},
      {32, 32, 12464, 32, 6, 2730, 32},
      {64, 64, 93536, 64, 7, 10922, 64},
  };
  for (const Pin& pin : pins) {
    Schema schema;
    const RelationId e = schema.AddRelation("E", 2);
    const RelationId tc = schema.AddRelation("TC", 2);
    Instance edges;
    AddPathGraph(schema, e, pin.diameter + 1, edges);
    const RecursiveTcResult linear =
        TransitiveClosureLinear(schema, e, tc, edges);
    const RecursiveTcResult doubling =
        TransitiveClosureDoubling(schema, e, tc, edges);
    EXPECT_EQ(linear.jobs, pin.linear_jobs) << pin.diameter;
    EXPECT_EQ(linear.pairs_shuffled, pin.linear_pairs) << pin.diameter;
    EXPECT_EQ(linear.max_group, pin.linear_max_group) << pin.diameter;
    EXPECT_EQ(doubling.jobs, pin.doubling_jobs) << pin.diameter;
    EXPECT_EQ(doubling.pairs_shuffled, pin.doubling_pairs) << pin.diameter;
    EXPECT_EQ(doubling.max_group, pin.doubling_max_group) << pin.diameter;
    EXPECT_EQ(linear.closure, doubling.closure);
  }
}

TEST_F(MapReduceTest, RunJobPinsGroupsAndOutputOrder) {
  MapReduceStats repartition;
  const Instance joined =
      RunJob(RepartitionJoinJob(join_, 8, 5), JoinInput(2), &repartition);
  EXPECT_EQ(repartition.group_sizes,
            (std::vector<std::size_t>{63, 135, 47, 65, 121, 47, 44, 78}));
  EXPECT_EQ(RowOrderHash(joined), 5756240642710103151u);

  MapReduceStats shares;
  const Instance triangles =
      RunJob(SharesJob(triangle_, {2, 2, 2}, 5), TriangleInput(3), &shares);
  EXPECT_EQ(shares.group_sizes,
            (std::vector<std::size_t>{108, 121, 164, 195, 114, 121, 176, 201}));
  EXPECT_EQ(RowOrderHash(triangles), 499254445173119646u);
}

TEST_F(MapReduceTest, RunJobOnMpcPinsLoadsAndOutputOrder) {
  const Instance join_input = JoinInput(8);
  const MpcRunResult repartition =
      RunJobOnMpc(RepartitionJoinJob(join_, 16, 2), join_input, 4);
  EXPECT_EQ(Loads(repartition.stats),
            (std::vector<std::vector<std::size_t>>{{162, 126, 129, 38}}));
  EXPECT_EQ(RowOrderHash(repartition.output), 3651693116305188166u);

  const Instance triangle_input = TriangleInput(7);
  const MpcRunResult shares =
      RunJobOnMpc(SharesJob(triangle_, {2, 2, 2}, 9), triangle_input, 8);
  EXPECT_EQ(Loads(shares.stats),
            (std::vector<std::vector<std::size_t>>{
                {98, 125, 93, 123, 134, 162, 127, 185}}));
  EXPECT_EQ(RowOrderHash(shares.output), 14202592420358149785u);

  // More reducers than servers: server s reduces every key k with
  // k mod p == s, one group per key.
  const MpcRunResult folded =
      RunJobOnMpc(SharesJob(triangle_, {2, 2, 2}, 9), triangle_input, 3);
  EXPECT_EQ(Loads(folded.stats),
            (std::vector<std::vector<std::size_t>>{{269, 334, 199}}));
  EXPECT_EQ(RowOrderHash(folded.output), 1629909121193958826u);
  EXPECT_EQ(folded.output, shares.output);
}

TEST_F(MapReduceTest, TcStepRunsOnMpc) {
  // One step of each TC strategy as a one-round MPC algorithm: the same
  // rows as RunJob, in a pinned order, under pinned loads.
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const RelationId tc = schema.AddRelation("TC", 2);
  Rng rng(12);
  Instance edges;
  AddRandomGraph(schema, e, 60, 20, rng, edges);
  Instance input = edges;
  const RowsView rows = edges.RowsOf(e);
  input.InsertRows(tc, rows.data, rows.num_rows, rows.arity);

  const MapReduceJob linear = JoinSecondWithFirst(tc, e, tc);
  const MpcRunResult linear_mpc = RunJobOnMpc(linear, input, 4);
  EXPECT_EQ(linear_mpc.output, RunJob(linear, input));
  EXPECT_EQ(Loads(linear_mpc.stats),
            (std::vector<std::vector<std::size_t>>{{22, 31, 16, 25}}));
  EXPECT_EQ(RowOrderHash(linear_mpc.output), 330831022755662107u);

  // Doubling over TC = paths of length 1 and 2: every TC row plays both
  // sides.
  input.InsertAll(linear_mpc.output);
  const MapReduceJob doubling = JoinSecondWithFirst(tc, tc, tc);
  const MpcRunResult doubling_mpc = RunJobOnMpc(doubling, input, 4);
  EXPECT_EQ(doubling_mpc.output, RunJob(doubling, input));
  EXPECT_EQ(Loads(doubling_mpc.stats),
            (std::vector<std::vector<std::size_t>>{{52, 69, 40, 62}}));
  EXPECT_EQ(RowOrderHash(doubling_mpc.output), 4082226243133211437u);
}

}  // namespace
}  // namespace lamp
