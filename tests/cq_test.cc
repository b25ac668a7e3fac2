#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "cq/cq.h"
#include "cq/parser.h"
#include "cq/valuation.h"
#include "relational/schema.h"

namespace lamp {
namespace {

TEST(Parser, ParsesTriangleQuery) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  EXPECT_EQ(q.body().size(), 3u);
  EXPECT_EQ(q.NumVars(), 3u);
  EXPECT_EQ(schema.ArityOf(schema.IdOf("H")), 3u);
  EXPECT_TRUE(q.IsPlain());
  EXPECT_TRUE(q.IsFull());
  EXPECT_FALSE(q.HasSelfJoin());
  EXPECT_EQ(q.ToString(schema), "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
}

TEST(Parser, ParsesSelfJoinAndProjection) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x1,x3) :- R(x1,x2), R(x2,x3), S(x3,x1)");
  EXPECT_TRUE(q.HasSelfJoin());
  EXPECT_FALSE(q.IsFull());  // x2 is projected away.
  EXPECT_EQ(q.NumVars(), 3u);
}

TEST(Parser, ParsesInequalities) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(
      schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, z != x");
  EXPECT_EQ(q.inequalities().size(), 3u);
  EXPECT_FALSE(q.IsPlain());
}

TEST(Parser, ParsesNegatedAtoms) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  EXPECT_EQ(q.negated().size(), 1u);
  EXPECT_EQ(q.body().size(), 2u);
}

TEST(Parser, ParsesConstants) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x, 7)");
  ASSERT_EQ(q.body().size(), 1u);
  EXPECT_TRUE(q.body()[0].terms[1].IsConst());
  EXPECT_EQ(q.body()[0].terms[1].constant, Value(7));
  EXPECT_EQ(q.Constants().size(), 1u);
}

TEST(Parser, ParsesBooleanQuery) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H() <- R(x,x), T(x)");
  EXPECT_TRUE(q.IsBoolean());
  EXPECT_FALSE(q.IsFull());
}

TEST(Parser, SharedSchemaAcrossQueries) {
  Schema schema;
  ParseQuery(schema, "H(x,y) <- R(x,y)");
  const ConjunctiveQuery q2 = ParseQuery(schema, "G(x) <- R(x,x)");
  EXPECT_EQ(schema.NumRelations(), 3u);  // H, R, G.
  EXPECT_EQ(q2.body()[0].relation, schema.IdOf("R"));
}

TEST(Cq, VarSets) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,y), S(y,z)");
  EXPECT_EQ(q.BodyVars().size(), 3u);
  EXPECT_EQ(q.HeadVars().size(), 1u);
}

TEST(Valuation, ApplyAndRequiredFacts) {
  Schema schema;
  ConjunctiveQuery q = ParseQuery(schema, "H(x,z) <- R(x,y), R(y,z)");
  Valuation v(q.NumVars());
  v.Bind(q.VarIdOf("x"), Value(1));
  v.Bind(q.VarIdOf("y"), Value(2));
  v.Bind(q.VarIdOf("z"), Value(1));
  EXPECT_TRUE(v.IsTotal());
  const Instance required = v.RequiredFacts(q);
  EXPECT_EQ(required.Size(), 2u);
  EXPECT_TRUE(required.Contains(Fact(schema.IdOf("R"), {1, 2})));
  EXPECT_TRUE(required.Contains(Fact(schema.IdOf("R"), {2, 1})));
  EXPECT_EQ(v.ApplyToAtom(q.head()), Fact(schema.IdOf("H"), {1, 1}));
}

TEST(Valuation, SatisfiesChecksBodyInequalityAndNegation) {
  Schema schema;
  ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y) <- E(x,y), !E(y,x), x != y");
  const RelationId e = schema.IdOf("E");
  Instance inst;
  inst.Insert(Fact(e, {1, 2}));
  inst.Insert(Fact(e, {3, 3}));
  inst.Insert(Fact(e, {4, 5}));
  inst.Insert(Fact(e, {5, 4}));

  Valuation good(q.NumVars());
  good.Bind(q.VarIdOf("x"), Value(1));
  good.Bind(q.VarIdOf("y"), Value(2));
  EXPECT_TRUE(good.Satisfies(q, inst));

  Valuation self_loop(q.NumVars());
  self_loop.Bind(q.VarIdOf("x"), Value(3));
  self_loop.Bind(q.VarIdOf("y"), Value(3));
  EXPECT_FALSE(self_loop.Satisfies(q, inst));  // Violates x != y.

  Valuation symmetric(q.NumVars());
  symmetric.Bind(q.VarIdOf("x"), Value(4));
  symmetric.Bind(q.VarIdOf("y"), Value(5));
  EXPECT_FALSE(symmetric.Satisfies(q, inst));  // Negated atom present.

  Valuation missing(q.NumVars());
  missing.Bind(q.VarIdOf("x"), Value(2));
  missing.Bind(q.VarIdOf("y"), Value(1));
  EXPECT_FALSE(missing.Satisfies(q, inst));  // E(2,1) absent.
}

// --- seeded mutation test of the untrusted-input parser ------------------

// TryParseQuery's contract on arbitrary text: no abort, and either an
// error message or a query whose rendering is a fixed point of
// parse-then-render. Returns whether \p text parsed.
bool ExpectParsedOrReported(const std::string& text) {
  Schema schema;
  const CqParseResult parsed = TryParseQuery(schema, text);
  EXPECT_EQ(parsed.ok(), parsed.error.empty()) << text;
  if (!parsed.ok()) return false;
  const std::string rendered = parsed.query->ToString(schema);
  Schema again;
  const CqParseResult reparsed = TryParseQuery(again, rendered);
  EXPECT_TRUE(reparsed.ok()) << text << " rendered as " << rendered;
  if (reparsed.ok()) {
    EXPECT_EQ(reparsed.query->ToString(again), rendered) << text;
  }
  return true;
}

TEST(ParserFuzzTest, TryParseQuerySurvivesMutations) {
  // Every grammar item: both arrows, negation, inequalities, constants of
  // either sign and at the 64-bit edge, repeated variables, a nullary head.
  const std::string seeds[] = {
      "H(x,y,z) <- R(x,y), S(y,z), T(z,x)",
      "Q(x) :- E(x,y), !F(y, 3), x != -12",
      "B() <- R(x, 9223372036854775807), S(x), 1 != x",
      "H(x1,x3) :- R(x1,x2), R(x2,x3), !R(x3,x1), x1 != x3",
  };
  // Bytes that change a query's structure.
  const std::string structural = "(),!=<-: x1_9";
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto visit = [&](const std::string& text) {
    ++(ExpectParsedOrReported(text) ? accepted : rejected);
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto any_byte = [&] {
      return rng.Uniform(2) == 0
                 ? structural[rng.Uniform(structural.size())]
                 : static_cast<char>(rng.Uniform(256));
    };
    for (const std::string& query : seeds) {
      EXPECT_TRUE(ExpectParsedOrReported(query)) << query;
      for (std::size_t at = 0; at < query.size(); ++at) {
        visit(query.substr(0, at));                    // Truncation.
        visit(query.substr(0, at) + query.substr(at + 1));  // Deletion.
        std::string text = query;
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    any_byte());
        visit(text);  // Insertion.
        for (int k = 0; k < 4; ++k) {
          text = query;
          text[at] = any_byte();
          visit(text);  // Byte flip.
        }
      }
      // Several edits at once.
      for (int round = 0; round < 200; ++round) {
        std::string text = query;
        for (std::size_t edits = 1 + rng.Uniform(4); edits > 0; --edits) {
          const std::size_t at = rng.Uniform(text.size() + 1);
          switch (rng.Uniform(3)) {
            case 0:
              text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                          any_byte());
              break;
            case 1:
              if (at < text.size()) text.erase(at, 1);
              break;
            default:
              if (at < text.size()) text[at] = any_byte();
              break;
          }
        }
        visit(text);
      }
    }
  }
  // Both outcomes must have been exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace lamp
