#include <gtest/gtest.h>

#include "distribution/domain_guided.h"
#include "distribution/policies.h"
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

TEST_F(PolicyTest, LocalInstanceIsIntersection) {
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

  const Instance local0 = policy.LocalInstance(ie, 0);
  EXPECT_EQ(local0.Size(), 4u);
  EXPECT_TRUE(local0.Contains(Fact(s_, {0, 0})));
  EXPECT_FALSE(local0.Contains(Fact(s_, {2, 0})));

  const Instance local1 = policy.LocalInstance(ie, 1);
  EXPECT_EQ(local1.Size(), 4u);
  EXPECT_TRUE(local1.Contains(Fact(s_, {2, 0})));
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
      2, MakeUniverse(10), [](Value a) -> std::vector<NodeId> {
        return {static_cast<NodeId>(a.v % 2)};
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
    const std::vector<NodeId> owners = policy.AssignmentOf(Value(a));
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

}  // namespace
}  // namespace lamp
