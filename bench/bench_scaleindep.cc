// Experiment S1 (Section 6, Fan-Geerts-Libkin): scale independence — the
// data a bounded plan touches is fixed by the query and access schema,
// not by |I|.
//
// The table grows the database by 100x while the bounded plan's fetched
// tuples stay constant; full evaluation touches the whole relation.

#include <cstdio>

#include "cq/eval.h"
#include "cq/parser.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/instance.h"
#include "scaleindep/access.h"

namespace {

using namespace lamp;

struct World {
  Schema schema;
  RelationId friend_rel, city_rel;
  ConjunctiveQuery query;
  AccessSchema access;

  World() {
    friend_rel = schema.AddRelation("Friend", 2);
    city_rel = schema.AddRelation("City", 2);
    query = ParseQuery(
        schema, "H(f,g,c) <- Friend(5, f), Friend(f, g), City(g, c)");
    access.Add({friend_rel, {0}, 4});
    access.Add({city_rel, {0}, 1});
  }

  Instance Population(std::size_t n) const {
    Instance db;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::int64_t>(i);
      for (std::int64_t d = 1; d <= 4; ++d) {
        db.Insert(Fact(friend_rel,
                       {id, static_cast<std::int64_t>((i + d) % n)}));
      }
      db.Insert(Fact(city_rel, {id, 900 + id % 5}));
    }
    return db;
  }
};

void PrintTable() {
  World w;
  const BoundedPlan plan = PlanBoundedEvaluation(w.query, w.access);
  std::printf(
      "# S1: scale independence (bounded evaluation under access "
      "constraints)\n"
      "# plan bounded=%s worst-case fetches=%.0f\n"
      "# columns: |I|  bounded-fetches  |output|  full-eval-facts-visible\n",
      plan.bounded ? "yes" : "no", plan.worst_case_fetches);
  obs::BenchReporter reporter("scaleindep");
  for (std::size_t n : {100u, 1000u, 10000u, 100000u}) {
    obs::WallTimer timer;
    const Instance db = w.Population(n);
    const BoundedEvalResult r = BoundedEvaluate(w.query, plan, db);
    std::printf("%8zu %14zu %9zu %24zu\n", db.Size(), r.tuples_fetched,
                r.output.Size(), db.Size());
    reporter.NewRecord()
        .Param("population", n)
        .Param("instance_size", db.Size())
        .Param("plan_bounded", plan.bounded)
        .Param("worst_case_fetches", plan.worst_case_fetches)
        .Metric("scaleindep.tuples_fetched", r.tuples_fetched)
        .Metric("output_size", r.output.Size())
        .WallMs(timer.ElapsedMs());
  }
  std::printf(
      "# shape check: the bounded-fetches column is flat while |I| grows "
      "1000x — the query is scale-independent under this access schema.\n"
      "\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
