// Scenario: triangle counting on skewed social-graph data (the workload
// class that motivates Sections 3.1-3.2 of the paper).
//
// Compares four evaluation strategies on the same data:
//   * one-round HyperCube (uniform shares),
//   * one-round HyperCube (LP-optimal shares),
//   * two-round cascade of binary joins (Example 3.1(2)),
//   * two-round skew-resilient algorithm (heavy hitters get sub-grids).
//
// Run on a skew-free and on a Zipf-skewed graph to see the crossover the
// paper describes: one-round HyperCube is great without skew, degrades
// with a heavy join value, and the two-round algorithm recovers.

#include <cstdio>

#include "cq/eval.h"
#include "cq/parser.h"
#include "mpc/cascade.h"
#include "mpc/hypercube_run.h"
#include "mpc/skew.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

Instance SkewFreeInput(Schema& schema, std::size_t m) {
  Rng rng(7);
  Instance db;
  AddRandomGraph(schema, schema.IdOf("R"), m, 8 * m, rng, db);
  AddRandomGraph(schema, schema.IdOf("S"), m, 8 * m, rng, db);
  AddRandomGraph(schema, schema.IdOf("T"), m, 8 * m, rng, db);
  // Plant a few guaranteed triangles so the output is nonempty.
  for (std::int64_t t = 0; t < 20; ++t) {
    const std::int64_t a = 9 * static_cast<std::int64_t>(m) + 3 * t;
    db.Insert(Fact(schema.IdOf("R"), {a, a + 1}));
    db.Insert(Fact(schema.IdOf("S"), {a + 1, a + 2}));
    db.Insert(Fact(schema.IdOf("T"), {a + 2, a}));
  }
  return db;
}

Instance SkewedInput(Schema& schema, std::size_t m) {
  Rng rng(8);
  Instance db;
  // Join value 0 is super-heavy in R's y column and S's y column.
  for (std::size_t i = 0; i < m / 2; ++i) {
    db.Insert(Fact(schema.IdOf("R"), {static_cast<std::int64_t>(i), 0}));
    db.Insert(Fact(schema.IdOf("S"), {0, static_cast<std::int64_t>(i)}));
  }
  AddUniformRelation(schema, schema.IdOf("R"), m / 2, 8 * m, rng, db);
  AddUniformRelation(schema, schema.IdOf("S"), m / 2, 8 * m, rng, db);
  AddUniformRelation(schema, schema.IdOf("T"), m, 8 * m, rng, db);
  return db;
}

void Report(const char* name, const MpcRunResult& run,
            const Instance& expected) {
  std::printf("  %-28s rounds=%zu max-load=%-7zu total-comm=%-8zu %s\n", name,
              run.stats.NumRounds(), run.stats.MaxLoad(),
              run.stats.TotalCommunication(),
              run.output == expected ? "correct" : "WRONG");
}

void RunAll(Schema& schema, const ConjunctiveQuery& triangle,
            const Instance& db, std::size_t p) {
  const Instance expected = Evaluate(triangle, db);
  std::printf("  m per relation ~%zu, p=%zu, %zu triangles\n",
              db.NumRows(schema.IdOf("R")), p, expected.Size());
  Report("hypercube (uniform)", RunHyperCubeUniform(triangle, db, p),
         expected);
  Report("hypercube (LP shares)", RunHyperCubeLpShares(triangle, db, p),
         expected);
  Schema cascade_schema = schema;
  Report("cascade (2 binary joins)",
         CascadeJoin(cascade_schema, triangle, db, p), expected);
  Report("skew-resilient (2 rounds)", SkewResilientTriangle(triangle, db, p),
         expected);
}

}  // namespace

int main() {
  using namespace lamp;
  Schema schema;
  const ConjunctiveQuery triangle =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");

  const std::size_t m = 8000;
  const std::size_t p = 64;

  std::printf("== skew-free input ==\n");
  RunAll(schema, triangle, SkewFreeInput(schema, m), p);

  std::printf("== skewed input (one heavy join value) ==\n");
  RunAll(schema, triangle, SkewedInput(schema, m), p);

  std::printf(
      "\nReading: without skew the one-round HyperCube max load tracks\n"
      "3m/p^(2/3); with a heavy join value it degrades while the two-round\n"
      "skew-resilient algorithm stays near the skew-free level\n"
      "(Section 3.2 of the paper).\n");
  return 0;
}
