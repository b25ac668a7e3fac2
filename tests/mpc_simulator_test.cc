#include <gtest/gtest.h>

#include "cq/eval.h"
#include "cq/parser.h"
#include "mpc/heavy_hitters.h"
#include "mpc/simulator.h"
#include "relational/generators.h"

namespace lamp {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() { r_ = schema_.AddRelation("R", 2); }

  Schema schema_;
  RelationId r_ = 0;
};

TEST_F(SimulatorTest, LoadInputScattersRoundRobin) {
  Instance global;
  for (int i = 0; i < 10; ++i) global.Insert(Fact(r_, {i, i}));
  MpcSimulator sim(4);
  sim.LoadInput(global);
  std::size_t total = 0;
  for (const Instance& local : sim.locals()) {
    EXPECT_LE(local.Size(), 3u);
    total += local.Size();
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(sim.GlobalState(), global);
}

TEST_F(SimulatorTest, RoundRoutesAndCounts) {
  Instance global;
  for (int i = 0; i < 8; ++i) global.Insert(Fact(r_, {i, 0}));
  MpcSimulator sim(2);
  sim.LoadInput(global);
  // Send everything to server 0.
  sim.RunRound(
      [](NodeId, transport::RowRef, std::vector<NodeId>& targets) {
        targets.push_back(0);
      },
      MpcSimulator::KeepAll());
  EXPECT_EQ(sim.locals()[0].Size(), 8u);
  EXPECT_TRUE(sim.locals()[1].Empty());
  ASSERT_EQ(sim.stats().rounds.size(), 1u);
  // 4 facts were already on server 0 (round robin): self-routing is free.
  EXPECT_EQ(sim.stats().rounds[0].received[0], 4u);
  EXPECT_EQ(sim.stats().rounds[0].received[1], 0u);
  EXPECT_EQ(sim.stats().MaxLoad(), 4u);
}

TEST_F(SimulatorTest, DroppedFactsDisappear) {
  Instance global;
  global.Insert(Fact(r_, {1, 2}));
  MpcSimulator sim(2);
  sim.LoadInput(global);
  sim.RunRound([](NodeId, transport::RowRef, std::vector<NodeId>&) {},
               MpcSimulator::KeepAll());
  EXPECT_TRUE(sim.GlobalState().Empty());
}

TEST_F(SimulatorTest, BroadcastCountsPerServer) {
  Instance global;
  for (int i = 0; i < 6; ++i) global.Insert(Fact(r_, {i, i}));
  MpcSimulator sim(3);
  sim.LoadInput(global);
  sim.RunRound(
      [](NodeId, transport::RowRef, std::vector<NodeId>& targets) {
        targets.insert(targets.end(), {0, 1, 2});
      },
      MpcSimulator::KeepAll());
  // Every server holds everything; each received 4 foreign facts.
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(sim.locals()[n].Size(), 6u);
    EXPECT_EQ(sim.stats().rounds[0].received[n], 4u);
  }
  EXPECT_EQ(sim.stats().TotalCommunication(), 12u);
}

TEST_F(SimulatorTest, OutputAccumulatesAcrossRounds) {
  Instance global;
  global.Insert(Fact(r_, {1, 1}));
  MpcSimulator sim(1);
  sim.LoadInput(global);
  auto emit = [this](NodeId, const Instance& received) {
    Instance out;
    out.Insert(Fact(r_, {static_cast<std::int64_t>(received.Size()), 0}));
    return MpcSimulator::ComputeResult{received, out};
  };
  const auto stay = [](NodeId s, transport::RowRef,
                       std::vector<NodeId>& targets) { targets.push_back(s); };
  sim.RunRound(stay, emit);
  sim.RunRound(stay, emit);
  EXPECT_EQ(sim.output().Size(), 1u);  // Same fact emitted twice, set union.
  EXPECT_EQ(sim.stats().NumRounds(), 2u);
}

TEST(RoundStatsTest, Aggregations) {
  RoundStats r;
  r.received = {3, 1, 5, 0};
  EXPECT_EQ(r.MaxLoad(), 5u);
  EXPECT_EQ(r.TotalLoad(), 9u);
  EXPECT_NEAR(r.AvgLoad(), 2.25, 1e-12);
  RunStats stats;
  stats.rounds.push_back(r);
  RoundStats r2;
  r2.received = {7, 0, 0, 0};
  stats.rounds.push_back(r2);
  EXPECT_EQ(stats.MaxLoad(), 7u);
  EXPECT_EQ(stats.TotalCommunication(), 16u);
  EXPECT_EQ(stats.NumRounds(), 2u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(RunStatsTest, EmptyStatsAreZeroNotUndefined) {
  // Satellite guarantee (see mpc/stats.h): all accessors are total
  // functions — zero servers / zero rounds return 0, never divide by
  // zero.
  const RoundStats no_servers;
  EXPECT_EQ(no_servers.MaxLoad(), 0u);
  EXPECT_EQ(no_servers.TotalLoad(), 0u);
  EXPECT_EQ(no_servers.AvgLoad(), 0.0);

  const RunStats no_rounds;
  EXPECT_EQ(no_rounds.MaxLoad(), 0u);
  EXPECT_EQ(no_rounds.TotalCommunication(), 0u);
  EXPECT_EQ(no_rounds.NumRounds(), 0u);

  // A round whose servers all received nothing is still well-defined.
  RunStats idle;
  idle.rounds.push_back(RoundStats{{0, 0, 0}, {}});
  EXPECT_EQ(idle.MaxLoad(), 0u);
  EXPECT_EQ(idle.TotalCommunication(), 0u);
  EXPECT_EQ(idle.rounds[0].AvgLoad(), 0.0);
}

TEST(HeavyHittersTest, FrequenciesAndThresholds) {
  Schema schema;
  const RelationId r = schema.AddRelation("R", 2);
  Instance inst;
  for (int i = 0; i < 10; ++i) inst.Insert(Fact(r, {i, 42}));
  inst.Insert(Fact(r, {0, 7}));

  const auto freq = ColumnFrequencies(inst, r, 1);
  EXPECT_EQ(freq.at(Value(42)), 10u);
  EXPECT_EQ(freq.at(Value(7)), 1u);

  const auto heavy = HeavyHitters(inst, r, 1, 5);
  EXPECT_EQ(heavy.size(), 1u);
  EXPECT_TRUE(heavy.count(Value(42)));
  EXPECT_TRUE(HeavyHitters(inst, r, 1, 10).empty());  // Strictly greater.
}

TEST(HeavyHittersTest, JoinHeavyCombinesColumns) {
  Schema schema;
  const RelationId r = schema.AddRelation("R", 2);
  const RelationId s = schema.AddRelation("S", 2);
  Instance inst;
  for (int i = 0; i < 6; ++i) inst.Insert(Fact(r, {i, 1}));   // 1 heavy in R.
  for (int i = 0; i < 6; ++i) inst.Insert(Fact(s, {2, i}));   // 2 heavy in S.
  const auto heavy = JoinHeavyHitters(inst, r, 1, s, 0, 4);
  EXPECT_EQ(heavy.size(), 2u);
  EXPECT_TRUE(heavy.count(Value(1)));
  EXPECT_TRUE(heavy.count(Value(2)));
}

}  // namespace
}  // namespace lamp
