#include <memory>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/recursive.h"
#include "mpc/join_strategies.h"
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

/// A distribution policy as a map: each node it routes the row to is a
/// key.
MapReduceJob::MapFn KeysFromPolicy(
    std::shared_ptr<const DistributionPolicy> policy) {
  return [policy = std::move(policy)](transport::RowRef row,
                                      std::vector<std::uint64_t>& keys) {
    std::vector<NodeId> targets;
    policy->RouteRow(row.relation, row.row, row.arity, targets);
    keys.insert(keys.end(), targets.begin(), targets.end());
  };
}

/// A reducer that evaluates \p query over the group's rows.
MapReduceJob::ReduceFn EvaluateReducer(const ConjunctiveQuery& query) {
  return [query](std::uint64_t, std::span<const transport::RowRef> group,
                 Instance& out) {
    Instance local;
    for (const transport::RowRef& row : group) {
      local.InsertRow(row.relation, row.row, row.arity);
    }
    out.InsertAll(Evaluate(query, local));
  };
}

/// The repartition join (Example 3.1(1a)) as one job: a row's key is the
/// node RepartitionPolicy hashes it to.
MapReduceJob RepartitionJoinJob(const ConjunctiveQuery& query,
                                std::size_t num_reducers,
                                std::uint64_t seed) {
  return {KeysFromPolicy(std::make_shared<HashPolicy>(
              RepartitionPolicy(query, num_reducers, seed))),
          EvaluateReducer(query)};
}

/// Shares/HyperCube (Section 3.1) as one job: a key per grid cell
/// responsible for the row.
MapReduceJob SharesJob(const ConjunctiveQuery& query, const Shares& shares,
                       std::uint64_t seed) {
  return {KeysFromPolicy(std::make_shared<HypercubePolicy>(
              query, shares, MakeUniverse(1), seed)),
          EvaluateReducer(query)};
}

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

}  // namespace
}  // namespace lamp
