#include <gtest/gtest.h>

#include "cq/acyclic.h"
#include "cq/parser.h"

namespace lamp {
namespace {

TEST(Acyclic, SingleAtomIsAcyclic) {
  Schema schema;
  EXPECT_TRUE(BuildJoinTree(ParseQuery(schema, "H(x,y) <- R(x,y)")).acyclic);
}

TEST(Acyclic, PathQueriesAreAcyclic) {
  Schema schema;
  EXPECT_TRUE(BuildJoinTree(
      ParseQuery(schema, "H(x,w) <- E1(x,y), E2(y,z), E3(z,w)")).acyclic);
}

TEST(Acyclic, StarQueryIsAcyclic) {
  Schema schema;
  EXPECT_TRUE(BuildJoinTree(
      ParseQuery(schema, "H(x) <- R(x,a), S(x,b), T(x,c)")).acyclic);
}

TEST(Acyclic, TriangleIsCyclic) {
  Schema schema;
  EXPECT_FALSE(BuildJoinTree(
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)")).acyclic);
}

TEST(Acyclic, FourCycleIsCyclic) {
  Schema schema;
  EXPECT_FALSE(BuildJoinTree(ParseQuery(
      schema, "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)")).acyclic);
}

TEST(Acyclic, TriangleWithCoveringAtomIsAcyclic) {
  // Adding an atom covering all three variables makes the triangle
  // alpha-acyclic.
  Schema schema;
  EXPECT_TRUE(BuildJoinTree(ParseQuery(
      schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x), W(x,y,z)")).acyclic);
}

TEST(Acyclic, JoinTreeShape) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,w) <- E1(x,y), E2(y,z), E3(z,w)");
  const JoinTree tree = BuildJoinTree(q);
  ASSERT_TRUE(tree.acyclic);
  ASSERT_EQ(tree.parent.size(), 3u);
  ASSERT_EQ(tree.removal_order.size(), 3u);
  // Exactly one root.
  int roots = 0;
  for (std::ptrdiff_t p : tree.parent) {
    if (p == JoinTree::kRoot) ++roots;
  }
  EXPECT_EQ(roots, 1);
  // Each non-root parent shares a variable with its child (join-tree
  // connectivity for a path is simply adjacency).
  for (std::size_t i = 0; i < tree.parent.size(); ++i) {
    if (tree.parent[i] == JoinTree::kRoot) continue;
    const auto& child = q.body()[i];
    const auto& parent = q.body()[static_cast<std::size_t>(tree.parent[i])];
    bool share = false;
    for (const Term& a : child.terms) {
      for (const Term& b : parent.terms) {
        if (a.IsVar() && b.IsVar() && a.var == b.var) share = true;
      }
    }
    EXPECT_TRUE(share) << "atom " << i << " disconnected from parent";
  }
  // The root is the last entry of the removal order.
  EXPECT_EQ(tree.parent[tree.removal_order.back()], JoinTree::kRoot);
}

TEST(Acyclic, CartesianProductIsAcyclic) {
  // Disconnected hypergraphs are alpha-acyclic (ears with empty shared
  // variable sets).
  Schema schema;
  EXPECT_TRUE(
      BuildJoinTree(ParseQuery(schema, "H(x,y) <- R(x,x), S(y,y)")).acyclic);
}

}  // namespace
}  // namespace lamp
