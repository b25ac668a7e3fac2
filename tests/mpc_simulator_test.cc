#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "mpc/heavy_hitters.h"
#include "mpc/simulator.h"
#include "net/network.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "transport/transport.h"

namespace lamp {
namespace {

/// Order-sensitive FNV-1a fingerprint: relation, arity and values of every
/// row in (relation, insertion) order.
std::uint64_t RowOrderFingerprint(const Instance& instance) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (RelationId rel = 0; rel < instance.NumRelationIds(); ++rel) {
    const RowsView rows = instance.RowsOf(rel);
    for (std::size_t i = 0; i < rows.num_rows; ++i) {
      mix(HashMix(rel));
      mix(rows.arity);
      for (std::size_t k = 0; k < rows.arity; ++k) {
        mix(static_cast<std::uint64_t>(rows.Row(i)[k].v));
      }
    }
  }
  return h;
}

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

// The initial placement deals global row i (counted across relations in
// ascending relation order) to server i mod p, in order. LoadInput and
// DistributeRoundRobin must both produce exactly that deal, row order
// included, also for relation sizes that are not multiples of p and for
// relation ids with a gap.
TEST(RoundRobinDealTest, LoadInputSharesEqualDistributeRoundRobin) {
  Schema schema;
  const RelationId r = schema.AddRelation("R", 2);
  schema.AddRelation("Unused", 1);  // Relation id gap: no rows.
  const RelationId s = schema.AddRelation("S", 3);
  const RelationId t = schema.AddRelation("T", 1);
  Instance global;
  for (int i = 0; i < 101; ++i) global.Insert(Fact(r, {i, i % 13}));
  for (int i = 0; i < 53; ++i) global.Insert(Fact(s, {i % 5, i, -i}));
  for (int i = 0; i < 10; ++i) global.Insert(Fact(t, {1000 + i}));

  for (const std::size_t p : {1u, 3u, 7u, 64u}) {
    std::vector<Instance> reference(p);
    std::size_t i = 0;
    for (RelationId rel = 0; rel < global.NumRelationIds(); ++rel) {
      global.ForEachRow(rel, [&](const Value* row) {
        reference[i++ % p].InsertRow(rel, row, global.ArityOf(rel));
      });
    }
    MpcSimulator sim(p);
    sim.LoadInput(global);
    const std::vector<Instance> dealt = DistributeRoundRobin(global, p);
    ASSERT_EQ(dealt.size(), p);
    for (std::size_t server = 0; server < p; ++server) {
      const std::uint64_t want = RowOrderFingerprint(reference[server]);
      EXPECT_EQ(RowOrderFingerprint(sim.locals()[server]), want)
          << "p=" << p << " server " << server;
      EXPECT_EQ(RowOrderFingerprint(dealt[server]), want)
          << "p=" << p << " server " << server;
      EXPECT_EQ(sim.locals()[server].Size(), reference[server].Size());
    }
  }
}

// The round output is the union of the servers' outputs folded in
// ascending server order. Servers here emit overlapping rows into two head
// relations, over two rounds, so the output's row order (each row's first
// occurrence) and its dedup are both pinned by an order-sensitive
// fingerprint that no lane count or backend may change.
TEST(RoundOutputTest, UnionOrderIsPinnedAcrossThreadsAndBackends) {
  Schema schema;
  const RelationId r = schema.AddRelation("R", 2);
  const RelationId b = schema.AddRelation("B", 1);
  const RelationId a = schema.AddRelation("A", 2);
  Instance db;
  for (int i = 0; i < 240; ++i) db.Insert(Fact(r, {i % 37, (i * 7) % 23}));
  static constexpr std::size_t kServers = 6;

  const auto run = [&] {
    MpcSimulator sim(kServers);
    sim.LoadInput(db);
    for (std::uint64_t round = 0; round < 2; ++round) {
      sim.RunRound(
          [round](NodeId, transport::RowRef row,
                  std::vector<NodeId>& targets) {
            const std::uint64_t h =
                HashMix(static_cast<std::uint64_t>(row.row[0].v) + round);
            targets.push_back(static_cast<NodeId>(h % kServers));
            targets.push_back(
                static_cast<NodeId>(row.row[1].v % kServers));
          },
          [r, a, b, round](NodeId server, Instance& received) {
            transport::FactRows out;
            received.ForEachRow(r, [&](const Value* row) {
              const Value pair[2] = {Value(row[0].v % 4),
                                     Value(static_cast<std::int64_t>(
                                         (server + round) % 3))};
              out.Append(transport::RowRef{a, pair, 2});
              const Value one[1] = {Value(row[1].v % 5)};
              out.Append(transport::RowRef{b, one, 1});
            });
            return MpcSimulator::ComputeResult{received, std::move(out)};
          });
    }
    EXPECT_EQ(sim.output().NumRows(b), 5u);
    EXPECT_EQ(sim.output().NumRows(a), 12u);
    return RowOrderFingerprint(sim.output());
  };

  std::vector<std::uint64_t> digests;
  for (const transport::TransportKind kind :
       {transport::TransportKind::kInProcess,
        transport::TransportKind::kTcp}) {
    for (const std::size_t threads : {1u, 8u}) {
      transport::SetActiveKind(kind);
      par::SetDefaultThreads(threads);
      digests.push_back(run());
    }
  }
  transport::SetActiveKind(transport::TransportKind::kInProcess);
  par::SetDefaultThreads(1);
  for (const std::uint64_t digest : digests) {
    EXPECT_EQ(digest, 18046607676024733645ull);
  }
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
  auto emit = [this](NodeId, Instance& received) {
    const Fact fact(r_, {static_cast<std::int64_t>(received.Size()), 0});
    MpcSimulator::ComputeResult result{std::move(received), {}};
    result.output.Append(transport::RowRef::Of(fact));
    return result;
  };
  const auto stay = [](NodeId s, transport::RowRef,
                       std::vector<NodeId>& targets) { targets.push_back(s); };
  sim.RunRound(stay, emit);
  sim.RunRound(stay, emit);
  EXPECT_EQ(sim.output().Size(), 1u);  // Same fact emitted twice, set union.
  EXPECT_EQ(sim.stats().NumRounds(), 2u);
}

// A projecting query derives each answer once per valuation. RunRound
// sizes the round output for the servers' row counts, so EvaluateQuery
// must hand it each server's distinct answers, not its valuations; the
// round output must still equal Q(I).
TEST(EvaluateQueryTest, ProjectingQueryOutputsDistinctRowsPerServer) {
  Schema schema;
  const RelationId r = schema.AddRelation("R", 2);
  const RelationId s = schema.AddRelation("S", 2);
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,y), S(y,z)");
  ASSERT_FALSE(q.IsFull());
  Instance db;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 20; ++y) db.Insert(Fact(r, {x, y}));
  }
  for (int y = 0; y < 20; ++y) {
    for (int z = 0; z < 50; ++z) db.Insert(Fact(s, {y, z}));
  }
  const Instance want = Evaluate(q, db);
  ASSERT_EQ(want.Size(), 10u);  // From 10 * 20 * 50 valuations.

  Instance received = db;
  const MpcSimulator::ComputeResult one =
      MpcSimulator::EvaluateQuery(q)(0, received);
  EXPECT_EQ(one.output.size(), 10u);

  // Every server gets all of R and its share of S; each derives the 10
  // answers from its own valuations.
  static constexpr std::size_t kServers = 4;
  MpcSimulator sim(kServers);
  sim.LoadInput(db);
  sim.RunRound(
      [r](NodeId, transport::RowRef row, std::vector<NodeId>& targets) {
        if (row.relation == r) {
          for (NodeId t = 0; t < kServers; ++t) targets.push_back(t);
        } else {
          targets.push_back(static_cast<NodeId>(row.row[1].v % kServers));
        }
      },
      MpcSimulator::EvaluateQuery(q));
  EXPECT_EQ(sim.output(), want);
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

// HeavyHitters counts a sorted copy of the column; it must pick exactly
// the values ColumnFrequencies counts above the threshold, at every
// threshold from "all values" to "none", including each count itself
// (the comparison is strictly greater).
TEST(HeavyHittersTest, MatchesTheFrequencyMap) {
  Schema schema;
  const RelationId uniform = schema.AddRelation("U", 2);
  const RelationId zipf = schema.AddRelation("Z", 2);
  const RelationId equal = schema.AddRelation("E", 2);
  Rng rng(11);
  Instance inst;
  AddUniformRelation(schema, uniform, /*m=*/500, /*domain_size=*/60, rng,
                     inst);
  AddZipfRelation(schema, zipf, /*m=*/800, /*domain_size=*/200,
                  /*zipf_s=*/1.2, /*skewed_column=*/1, rng, inst);
  for (int i = 0; i < 40; ++i) inst.Insert(Fact(equal, {i, 9}));

  for (const RelationId rel : {uniform, zipf, equal}) {
    for (std::size_t column = 0; column < 2; ++column) {
      const auto freq = ColumnFrequencies(inst, rel, column);
      std::set<std::size_t> thresholds = {0, 1, 2, 1000};
      for (const auto& [value, count] : freq) thresholds.insert(count);
      for (const std::size_t threshold : thresholds) {
        std::set<Value> want;
        for (const auto& [value, count] : freq) {
          if (count > threshold) want.insert(value);
        }
        EXPECT_EQ(HeavyHitters(inst, rel, column, threshold), want)
            << "relation " << rel << " column " << column << " threshold "
            << threshold;
      }
    }
  }
  // All-equal column: 40 copies of 9 are heavy below 40, not at 40.
  EXPECT_EQ(HeavyHitters(inst, equal, 1, 39), std::set<Value>{Value(9)});
  EXPECT_TRUE(HeavyHitters(inst, equal, 1, 40).empty());
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
