#include <map>
#include <sstream>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relational/fact.h"
#include "relational/generators.h"
#include "relational/instance.h"
#include "relational/io.h"
#include "relational/schema.h"

namespace lamp {
namespace {

class RelationalTest : public ::testing::Test {
 protected:
  RelationalTest() {
    r_ = schema_.AddRelation("R", 2);
    s_ = schema_.AddRelation("S", 2);
    u_ = schema_.AddRelation("U", 1);
  }

  Schema schema_;
  RelationId r_ = 0;
  RelationId s_ = 0;
  RelationId u_ = 0;
};

TEST_F(RelationalTest, SchemaRoundTrip) {
  EXPECT_EQ(schema_.IdOf("R"), r_);
  EXPECT_EQ(schema_.ArityOf(r_), 2u);
  EXPECT_EQ(schema_.NameOf(u_), "U");
  EXPECT_EQ(schema_.NumRelations(), 3u);
  EXPECT_EQ(schema_.TryIdOf("nope"), Interner::kNotFound);
  // Re-registering with the same arity returns the same id.
  EXPECT_EQ(schema_.AddRelation("R", 2), r_);
}

TEST_F(RelationalTest, FactEqualityAndOrdering) {
  const Fact a(r_, {1, 2});
  const Fact b(r_, {1, 2});
  const Fact c(r_, {1, 3});
  const Fact d(s_, {1, 2});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_LT(a, c);
  EXPECT_LT(a, d);
  EXPECT_EQ(FactToString(schema_, a), "R(1,2)");
}

TEST_F(RelationalTest, InstanceSetSemantics) {
  Instance inst;
  EXPECT_TRUE(inst.Insert(Fact(r_, {1, 2})));
  EXPECT_FALSE(inst.Insert(Fact(r_, {1, 2})));
  EXPECT_TRUE(inst.Insert(Fact(s_, {1, 2})));
  EXPECT_EQ(inst.Size(), 2u);
  EXPECT_TRUE(inst.Contains(Fact(r_, {1, 2})));
  EXPECT_FALSE(inst.Contains(Fact(r_, {2, 1})));
  EXPECT_EQ(inst.NumRows(r_), 1u);
  EXPECT_EQ(inst.NumRows(u_), 0u);
}

TEST_F(RelationalTest, InstanceEqualityIgnoresInsertionOrder) {
  Instance a;
  a.Insert(Fact(r_, {1, 2}));
  a.Insert(Fact(r_, {3, 4}));
  Instance b;
  b.Insert(Fact(r_, {3, 4}));
  b.Insert(Fact(r_, {1, 2}));
  EXPECT_EQ(a, b);
  b.Insert(Fact(u_, {9}));
  EXPECT_FALSE(a == b);
}

TEST_F(RelationalTest, ActiveDomain) {
  Instance inst;
  inst.Insert(Fact(r_, {1, 2}));
  inst.Insert(Fact(u_, {7}));
  const std::vector<Value> dom = inst.ActiveDomain();
  EXPECT_EQ(dom.size(), 3u);
  EXPECT_TRUE(std::is_sorted(dom.begin(), dom.end()));
  EXPECT_TRUE(std::binary_search(dom.begin(), dom.end(), Value(1)));
  EXPECT_TRUE(std::binary_search(dom.begin(), dom.end(), Value(7)));
}

TEST_F(RelationalTest, RestrictToKeepsOnlyFullyCoveredFacts) {
  Instance inst;
  inst.Insert(Fact(r_, {1, 2}));
  inst.Insert(Fact(r_, {1, 3}));
  inst.Insert(Fact(u_, {2}));
  const Instance restricted = inst.RestrictTo({Value(1), Value(2)});
  EXPECT_EQ(restricted.Size(), 2u);
  EXPECT_TRUE(restricted.Contains(Fact(r_, {1, 2})));
  EXPECT_TRUE(restricted.Contains(Fact(u_, {2})));
}

TEST_F(RelationalTest, TouchingKeepsIntersectingFacts) {
  Instance inst;
  inst.Insert(Fact(r_, {1, 2}));
  inst.Insert(Fact(r_, {3, 4}));
  const Instance touching = inst.Touching({Value(2)});
  EXPECT_EQ(touching.Size(), 1u);
  EXPECT_TRUE(touching.Contains(Fact(r_, {1, 2})));
}

TEST_F(RelationalTest, ComponentsSplitByValueConnectivity) {
  Instance inst;
  inst.Insert(Fact(r_, {1, 2}));
  inst.Insert(Fact(r_, {2, 3}));   // Connected to the first via 2.
  inst.Insert(Fact(r_, {10, 11}));  // Separate component.
  inst.Insert(Fact(u_, {11}));      // Joins the second component.
  const std::vector<Instance> comps = inst.Components();
  ASSERT_EQ(comps.size(), 2u);
  std::multiset<std::size_t> sizes;
  for (const auto& c : comps) sizes.insert(c.Size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{2, 2}));
}

TEST_F(RelationalTest, ComponentsOfEmptyInstance) {
  Instance inst;
  EXPECT_TRUE(inst.Components().empty());
}

TEST_F(RelationalTest, UniformGeneratorProducesRequestedSize) {
  Rng rng(1);
  Instance inst;
  AddUniformRelation(schema_, r_, 500, 100, rng, inst);
  EXPECT_EQ(inst.NumRows(r_), 500u);
  inst.ForEachFactOf(r_, [&](const Fact& f) {
    EXPECT_GE(f.args[0].v, 0);
    EXPECT_LT(f.args[0].v, 100);
  });
}

TEST_F(RelationalTest, ZipfGeneratorSkewsRequestedColumn) {
  Rng rng(2);
  Instance inst;
  AddZipfRelation(schema_, r_, 2000, 5000, 1.5, 0, rng, inst);
  EXPECT_EQ(inst.NumRows(r_), 2000u);
  std::map<std::int64_t, int> freq;
  inst.ForEachFactOf(r_, [&](const Fact& f) { ++freq[f.args[0].v]; });
  // The hottest value should be a genuine heavy hitter.
  int max_freq = 0;
  for (const auto& [v, c] : freq) max_freq = std::max(max_freq, c);
  EXPECT_GT(max_freq, 200);
}

TEST_F(RelationalTest, MatchingRelationHasNoRepeatsPerColumn) {
  Rng rng(3);
  Instance inst;
  AddMatchingRelation(schema_, r_, 100, 1000, rng, inst);
  EXPECT_EQ(inst.NumRows(r_), 100u);
  std::set<std::int64_t> col0;
  std::set<std::int64_t> col1;
  inst.ForEachFactOf(r_, [&](const Fact& f) {
    EXPECT_TRUE(col0.insert(f.args[0].v).second) << "repeat in column 0";
    EXPECT_TRUE(col1.insert(f.args[1].v).second) << "repeat in column 1";
  });
}

TEST_F(RelationalTest, GraphGenerators) {
  Instance inst;
  AddPathGraph(schema_, r_, 5, inst);
  EXPECT_EQ(inst.NumRows(r_), 4u);
  Instance cycle;
  AddCycleGraph(schema_, r_, 5, cycle);
  EXPECT_EQ(cycle.NumRows(r_), 5u);
  EXPECT_TRUE(cycle.Contains(Fact(r_, {4, 0})));
  Instance tri;
  AddTriangleClusters(schema_, r_, 3, 100, tri);
  EXPECT_EQ(tri.NumRows(r_), 9u);
  EXPECT_TRUE(tri.Contains(Fact(r_, {102, 100})));
  Rng rng(4);
  Instance g;
  AddRandomGraph(schema_, r_, 50, 20, rng, g);
  EXPECT_EQ(g.NumRows(r_), 50u);
  g.ForEachFactOf(r_, [&](const Fact& f) { EXPECT_NE(f.args[0], f.args[1]); });
}


TEST_F(RelationalTest, InstanceIoRoundTrip) {
  Instance inst;
  inst.Insert(Fact(r_, {1, 2}));
  inst.Insert(Fact(r_, {-3, 4}));
  inst.Insert(Fact(u_, {7}));
  std::ostringstream os;
  WriteInstance(os, schema_, inst);
  Schema schema2;
  const Instance reloaded = ReadInstanceFromString(os.str(), schema2);
  EXPECT_EQ(reloaded.Size(), 3u);
  EXPECT_TRUE(
      reloaded.Contains(Fact(schema2.IdOf("R"), {-3, 4})));
  EXPECT_TRUE(reloaded.Contains(Fact(schema2.IdOf("U"), {7})));
}

TEST_F(RelationalTest, InstanceIoSkipsCommentsAndBlanks) {
  Schema schema;
  const Instance inst = ReadInstanceFromString(
      "# a comment\n"
      "\n"
      "E(1,2)\n"
      "  % another comment\n"
      "  E(2, 3)  \n",
      schema);
  EXPECT_EQ(inst.Size(), 2u);
  EXPECT_TRUE(inst.Contains(Fact(schema.IdOf("E"), {2, 3})));
}

TEST_F(RelationalTest, InstanceIoNullaryFacts) {
  Schema schema;
  const Instance inst = ReadInstanceFromString("Flag()\n", schema);
  EXPECT_EQ(inst.Size(), 1u);
  EXPECT_EQ(schema.ArityOf(schema.IdOf("Flag")), 0u);
}

}  // namespace
}  // namespace lamp
