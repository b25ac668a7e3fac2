#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.h"
#include "cq/parser.h"
#include "distribution/domain_guided.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "mpc/shares_skew.h"
#include "relational/schema.h"

namespace lamp {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() {
    r_ = schema_.AddRelation("R", 2);
    s_ = schema_.AddRelation("S", 2);
  }

  Schema schema_;
  RelationId r_ = 0;
  RelationId s_ = 0;
};

TEST_F(PolicyTest, FinitePolicyAssignments) {
  FinitePolicy policy(2, MakeUniverse(3));
  policy.Assign(0, Fact(r_, {0, 1}));
  policy.Assign(1, Fact(r_, {0, 1}));
  policy.Assign(1, Fact(s_, {1, 2}));
  EXPECT_TRUE(policy.IsResponsible(0, Fact(r_, {0, 1})));
  EXPECT_TRUE(policy.IsResponsible(1, Fact(r_, {0, 1})));
  EXPECT_FALSE(policy.IsResponsible(0, Fact(s_, {1, 2})));
  EXPECT_FALSE(policy.IsResponsible(0, Fact(r_, {1, 0})));
  EXPECT_EQ(policy.ResponsibleNodes(Fact(r_, {0, 1})).size(), 2u);
  EXPECT_TRUE(policy.ResponsibleNodes(Fact(r_, {2, 2})).empty());
}

TEST_F(PolicyTest, DistributeByPolicyIsIntersection) {
  // Example 4.1 of the paper: P1 over Ie = {R(a,b), R(b,a), R(b,c),
  // S(a,a), S(c,a)} with a=0, b=1, c=2. All R-facts go to both nodes;
  // S(d1,d2) goes to node 0 if d1 == d2, else node 1.
  LambdaPolicy policy(2, MakeUniverse(3),
                      [this](NodeId node, const Fact& f) {
                        if (f.relation == r_) return true;
                        return (f.args[0] == f.args[1]) == (node == 0);
                      });
  Instance ie;
  ie.Insert(Fact(r_, {0, 1}));
  ie.Insert(Fact(r_, {1, 0}));
  ie.Insert(Fact(r_, {1, 2}));
  ie.Insert(Fact(s_, {0, 0}));
  ie.Insert(Fact(s_, {2, 0}));

  const std::vector<Instance> locals = DistributeByPolicy(ie, policy);
  ASSERT_EQ(locals.size(), 2u);
  EXPECT_EQ(locals[0].Size(), 4u);
  EXPECT_TRUE(locals[0].Contains(Fact(s_, {0, 0})));
  EXPECT_FALSE(locals[0].Contains(Fact(s_, {2, 0})));

  EXPECT_EQ(locals[1].Size(), 4u);
  EXPECT_TRUE(locals[1].Contains(Fact(s_, {2, 0})));
}

TEST_F(PolicyTest, SomeNodeHasAll) {
  FinitePolicy policy(2, MakeUniverse(2));
  policy.Assign(0, Fact(r_, {0, 0}));
  policy.Assign(1, Fact(r_, {0, 0}));
  policy.Assign(1, Fact(r_, {1, 1}));
  Instance both;
  both.Insert(Fact(r_, {0, 0}));
  both.Insert(Fact(r_, {1, 1}));
  EXPECT_TRUE(policy.SomeNodeHasAll(both));
  policy.Assign(0, Fact(s_, {0, 1}));
  Instance split;
  split.Insert(Fact(r_, {1, 1}));
  split.Insert(Fact(s_, {0, 1}));
  EXPECT_FALSE(policy.SomeNodeHasAll(split));
}

TEST_F(PolicyTest, HashPolicyRoutesByKey) {
  HashPolicy policy(4, MakeUniverse(100));
  policy.SetKey(r_, {1});  // Route R by second column.
  const Fact f1(r_, {1, 7});
  const Fact f2(r_, {2, 7});
  const Fact f3(r_, {1, 8});
  // Same key -> same node.
  EXPECT_EQ(policy.ResponsibleNodes(f1), policy.ResponsibleNodes(f2));
  // Exactly one responsible node per keyed fact.
  EXPECT_EQ(policy.ResponsibleNodes(f1).size(), 1u);
  EXPECT_EQ(policy.ResponsibleNodes(f3).size(), 1u);
  // Unkeyed relations go to no node.
  EXPECT_TRUE(policy.ResponsibleNodes(Fact(s_, {1, 2})).empty());
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(policy.IsResponsible(n, Fact(s_, {1, 2})));
  }
}

TEST_F(PolicyTest, HashPolicySpreadsKeys) {
  HashPolicy policy(4, MakeUniverse(100));
  policy.SetKey(r_, {0});
  std::set<NodeId> used;
  for (int v = 0; v < 50; ++v) {
    const std::vector<NodeId> nodes = policy.ResponsibleNodes(Fact(r_, {v, 0}));
    ASSERT_EQ(nodes.size(), 1u);
    used.insert(nodes.front());
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(PolicyTest, RangePolicyBuckets) {
  // Customer-style range partitioning (Section 4.1): thresholds 10, 20 ->
  // 3 nodes.
  RangePolicy policy(MakeUniverse(30), r_, 0, {10, 20});
  EXPECT_EQ(policy.NumNodes(), 3u);
  EXPECT_TRUE(policy.IsResponsible(0, Fact(r_, {5, 0})));
  EXPECT_FALSE(policy.IsResponsible(1, Fact(r_, {5, 0})));
  EXPECT_TRUE(policy.IsResponsible(1, Fact(r_, {10, 0})));
  EXPECT_TRUE(policy.IsResponsible(1, Fact(r_, {15, 0})));
  EXPECT_TRUE(policy.IsResponsible(2, Fact(r_, {25, 0})));
  // Non-keyed relation broadcast.
  EXPECT_TRUE(policy.IsResponsible(0, Fact(s_, {25, 0})));
  EXPECT_TRUE(policy.IsResponsible(2, Fact(s_, {25, 0})));
}

TEST_F(PolicyTest, DomainGuidedResponsibility) {
  // alpha(a) = {a mod 2}: node 0 owns even values, node 1 odd values.
  DomainGuidedPolicy policy(
      2, MakeUniverse(10), [](Value a, std::vector<NodeId>& nodes) {
        nodes.push_back(static_cast<NodeId>(a.v % 2));
      });
  EXPECT_TRUE(policy.IsResponsible(0, Fact(0, {2, 4})));
  EXPECT_FALSE(policy.IsResponsible(1, Fact(0, {2, 4})));
  // Mixed-parity fact: both nodes responsible.
  EXPECT_TRUE(policy.IsResponsible(0, Fact(0, {2, 3})));
  EXPECT_TRUE(policy.IsResponsible(1, Fact(0, {2, 3})));
}

TEST_F(PolicyTest, DomainGuidedCoversEveryValue) {
  // Key property used by Theorem 5.12's algorithm: for every value a there
  // is a node responsible for *all* facts containing a.
  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(4, MakeUniverse(20), 9);
  for (std::int64_t a = 0; a < 20; ++a) {
    std::vector<NodeId> owners;
    policy.AssignmentOf(Value(a), owners);
    ASSERT_EQ(owners.size(), 1u);
    // Any fact containing `a` must be owned by that node.
    for (std::int64_t b = 0; b < 20; ++b) {
      EXPECT_TRUE(policy.IsResponsible(owners[0], Fact(r_, {a, b})));
      EXPECT_TRUE(policy.IsResponsible(owners[0], Fact(r_, {b, a})));
    }
  }
}

TEST_F(PolicyTest, NullaryFactsBroadcastUnderDomainGuided) {
  Schema schema;
  const RelationId n = schema.AddRelation("N", 0);
  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(3, MakeUniverse(5));
  for (NodeId node = 0; node < 3; ++node) {
    EXPECT_TRUE(policy.IsResponsible(node, Fact(n, {})));
  }
}

// The eight stock policies over R/2 and S/2 (plus a relation T/2 none of
// them keys), on small random instances over the values 0..3.
class StockPolicySweep : public PolicyTest {
 protected:
  StockPolicySweep() {
    t_ = schema_.AddRelation("T", 2);
    join_ = ParseQuery(schema_, "H(x,y,z) <- R(x,y), S(y,z)");
  }

  std::vector<std::unique_ptr<DistributionPolicy>> Policies(
      std::uint64_t seed) const {
    const std::vector<Value> u = MakeUniverse(4);
    std::vector<std::unique_ptr<DistributionPolicy>> policies;
    auto finite = std::make_unique<FinitePolicy>(3, u);
    Rng rng(seed);
    for (const RelationId rel : {r_, s_, t_}) {
      for (std::int64_t a = 0; a < 4; ++a) {
        for (std::int64_t b = 0; b < 4; ++b) {
          for (NodeId n = 0; n < 3; ++n) {
            if (rng.Bernoulli(0.4)) finite->Assign(n, Fact(rel, {a, b}));
          }
        }
      }
    }
    policies.push_back(std::move(finite));
    policies.push_back(std::make_unique<LambdaPolicy>(
        3, u, [](NodeId node, const Fact& f) {
          return (f.args[0].v + f.args[1].v + node) % 3 != 0;
        }));
    auto hash = std::make_unique<HashPolicy>(4, u, seed);
    hash->SetKey(r_, {1});
    hash->SetKey(s_, {0});
    policies.push_back(std::move(hash));
    policies.push_back(std::make_unique<GridPolicy>(5, r_, s_, u, seed));
    policies.push_back(std::make_unique<RangePolicy>(
        u, r_, 0, std::vector<std::int64_t>{1, 3}));
    policies.push_back(
        std::make_unique<HypercubePolicy>(join_, Shares{2, 1, 2}, u, seed));
    policies.push_back(std::make_unique<DomainGuidedPolicy>(
        DomainGuidedPolicy::HashBased(3, u, seed)));
    policies.push_back(std::make_unique<SharesSkewPolicy>(
        join_, 6, std::set<Value>{Value(1)}, u, seed));
    return policies;
  }

  Instance RandomInstance(Rng& rng, std::size_t facts) const {
    const RelationId relations[] = {r_, s_, t_};
    Instance instance;
    for (std::size_t i = 0; i < facts; ++i) {
      const RelationId rel = relations[rng.Uniform(3)];
      instance.Insert(Fact(rel, {static_cast<std::int64_t>(rng.Uniform(4)),
                                 static_cast<std::int64_t>(rng.Uniform(4))}));
    }
    return instance;
  }

  RelationId t_ = 0;
  ConjunctiveQuery join_;
};

TEST_F(StockPolicySweep, DistributeByPolicyKeepsEachNodesRowsInOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed + 100);
    for (const auto& policy : Policies(seed)) {
      for (int trial = 0; trial < 5; ++trial) {
        const Instance instance = RandomInstance(rng, 12);
        const std::vector<Instance> locals =
            DistributeByPolicy(instance, *policy);
        ASSERT_EQ(locals.size(), policy->NumNodes());
        for (NodeId n = 0; n < policy->NumNodes(); ++n) {
          for (const RelationId rel : {r_, s_, t_}) {
            std::vector<Value> expected;
            instance.ForEachFactOf(rel, [&](const Fact& f) {
              if (policy->IsResponsible(n, f)) {
                expected.insert(expected.end(), f.args.begin(), f.args.end());
              }
            });
            const RowsView rows = locals[n].RowsOf(rel);
            const Value* end = rows.data + rows.num_rows * rows.arity;
            EXPECT_EQ(std::vector<Value>(rows.data, end), expected)
                << "seed " << seed << " node " << n << " relation " << rel;
          }
        }
      }
    }
  }
}

TEST_F(StockPolicySweep, SomeNodeHasAllIsSomeNodeResponsibleForEveryFact) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed + 200);
    for (const auto& policy : Policies(seed)) {
      for (int trial = 0; trial < 40; ++trial) {
        const Instance facts = RandomInstance(rng, rng.Uniform(4));
        bool brute = false;
        for (NodeId n = 0; n < policy->NumNodes() && !brute; ++n) {
          bool has_all = true;
          facts.ForEachFact([&](const Fact& f) {
            has_all = has_all && policy->IsResponsible(n, f);
          });
          brute = has_all;
        }
        EXPECT_EQ(policy->SomeNodeHasAll(facts), brute) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace lamp
