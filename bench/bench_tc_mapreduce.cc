// Experiment D2 (Section 3.2, Afrati-Ullman): transitive closure on
// clusters — rounds (jobs) versus communication.
//
// Linear iteration needs ~diameter jobs with small shuffles; recursive
// doubling needs ~log(diameter) jobs with larger shuffles. The table
// regenerates that trade-off on path graphs of growing diameter.

#include <cstdio>

#include "mapreduce/recursive.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

void PrintTable() {
  std::printf(
      "# D2: transitive closure in MapReduce (Afrati-Ullman)\n"
      "# columns: diameter  linear-jobs  doubling-jobs  linear-pairs  "
      "doubling-pairs\n");
  obs::BenchReporter reporter("tc_mapreduce");
  for (std::size_t n : {9u, 17u, 33u, 65u}) {
    obs::WallTimer timer;
    Schema schema;
    const RelationId e = schema.AddRelation("E", 2);
    const RelationId tc = schema.AddRelation("TC", 2);
    Instance edges;
    AddPathGraph(schema, e, n, edges);
    const RecursiveTcResult linear =
        TransitiveClosureLinear(schema, e, tc, edges);
    const RecursiveTcResult doubling =
        TransitiveClosureDoubling(schema, e, tc, edges);
    std::printf("%9zu %12zu %14zu %13zu %15zu\n", n - 1, linear.jobs,
                doubling.jobs, linear.pairs_shuffled,
                doubling.pairs_shuffled);
    reporter.NewRecord()
        .Param("diameter", n - 1)
        .Metric("linear.jobs", linear.jobs)
        .Metric("doubling.jobs", doubling.jobs)
        .Metric("linear.pairs_shuffled", linear.pairs_shuffled)
        .Metric("doubling.pairs_shuffled", doubling.pairs_shuffled)
        .WallMs(timer.ElapsedMs());
  }
  std::printf(
      "# shape check: linear jobs grow linearly with the diameter, "
      "doubling jobs logarithmically; doubling shuffles more per job.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
