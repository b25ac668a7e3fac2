// Experiment C4 (Section 5, the CALM theorem under real faults): the
// theorem quantifies over all asynchronous runs — arbitrary delay,
// duplication, and loss with retransmission — so a monotone program must
// hold its convergence rate at 1.0 under every injectable fault class,
// paying only a message overhead, while the non-monotone strategies lose
// correctness exactly where their delivery assumptions break.
//
// The table runs the fault-injection sweep (src/fault) per fault class
// for three programs spanning the dividing line: the monotone TC
// pipeline, the set-based coordination barrier, and the deliberately
// fragile counting barrier (correct only under exactly-once delivery).
// Columns report the convergence rate and the messages-to-quiescence
// overhead relative to the fault-free sweep of the same program.

#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "fault/confluence.h"
#include "fault/scheduler.h"
#include "net/datalog_program.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

struct World {
  // Monotone side: distributed TC over a sharded graph.
  Schema tc_schema;
  DatalogProgram tc_prog;
  Instance tc_edges;
  Instance tc_expected;

  // Non-monotone side: the open-triangle query.
  Schema tri_schema;
  ConjunctiveQuery open_triangle;
  Instance graph;
  Instance tri_expected;

  World()
      : tc_prog(ParseProgram(tc_schema,
                             "TC(x,y) <- E(x,y)\n"
                             "TC(x,y) <- TC(x,z), E(z,y)")) {
    AddPathGraph(tc_schema, tc_schema.IdOf("E"), 9, tc_edges);
    AddCycleGraph(tc_schema, tc_schema.IdOf("E"), 5, tc_edges);
    const Instance everything =
        EvaluateProgram(tc_schema, tc_prog, tc_edges);
    everything.ForEachFactOf(tc_schema.IdOf("TC"), [&](const Fact& f) {
      tc_expected.Insert(f);
    });

    tri_schema.AddRelation("E", 2);
    open_triangle =
        ParseQuery(tri_schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
    Rng rng(4);
    AddRandomGraph(tri_schema, tri_schema.IdOf("E"), 40, 12, rng, graph);
    tri_expected = Evaluate(open_triangle, graph);
  }
};

struct SweepCase {
  std::string program;
  TransducerProgram* transducer;
  const std::vector<std::vector<Instance>>* distributions;
  const Instance* expected;
  bool aware;
};

void PrintTable() {
  World w;
  auto wrap = [&w]() -> NetQueryFunction {
    return [&w](const Instance& i) { return Evaluate(w.open_triangle, i); };
  };

  DistributedDatalogProgram tc(w.tc_schema, w.tc_prog);
  Schema barrier_schema = w.tri_schema;
  CoordinatedBarrierProgram barrier(wrap(), barrier_schema);
  Schema fragile_schema = w.tri_schema;
  FragileCountingBarrierProgram fragile(wrap(), fragile_schema);

  const std::vector<std::vector<Instance>> tc_distributions = {
      DistributeRoundRobin(w.tc_edges, 3)};
  const std::vector<std::vector<Instance>> tri_distributions = {
      DistributeRoundRobin(w.graph, 3)};

  const SweepCase cases[] = {
      {"tc-monotone", &tc, &tc_distributions, &w.tc_expected, false},
      {"coordinated-barrier", &barrier, &tri_distributions, &w.tri_expected,
       true},
      {"fragile-barrier", &fragile, &tri_distributions, &w.tri_expected,
       true},
  };

  obs::BenchReporter reporter("fault_tolerance");
  std::printf(
      "# C4: convergence under fault injection (src/fault)\n"
      "# columns: program  fault-class  runs  converged  rate  "
      "msg-overhead\n");
  constexpr std::size_t kSeeds = 8;
  for (const SweepCase& c : cases) {
    double baseline_facts = 0.0;
    for (fault::FaultClass fault_class : fault::kAllFaultClasses) {
      obs::WallTimer timer;
      const fault::FaultSweep sweep = fault::CheckConsistencyUnderFaults(
          *c.transducer, *c.distributions, *c.expected, fault_class, kSeeds,
          nullptr, c.aware);
      const double rate = sweep.runs == 0
                              ? 0.0
                              : static_cast<double>(sweep.correct_runs) /
                                    static_cast<double>(sweep.runs);
      if (fault_class == fault::FaultClass::kNone) {
        baseline_facts = sweep.MeanFactsTransferred();
      }
      const double overhead =
          baseline_facts == 0.0
              ? 1.0
              : sweep.MeanFactsTransferred() / baseline_facts;
      std::printf("%-20s %-24s %4zu %8zu %6.2f %10.2fx\n", c.program.c_str(),
                  std::string(fault::FaultClassName(fault_class)).c_str(),
                  sweep.runs, sweep.correct_runs, rate, overhead);
      reporter.NewRecord()
          .Param("program", c.program)
          .Param("fault_class",
                 std::string(fault::FaultClassName(fault_class)))
          .Param("runs", sweep.runs)
          .Metric("converged_runs", sweep.correct_runs)
          .Metric("convergence_rate", rate)
          .Metric("mean_transitions", sweep.MeanTransitions())
          .Metric("mean_facts_transferred", sweep.MeanFactsTransferred())
          .Metric("message_overhead", overhead)
          .Metric("drops", sweep.total_drops)
          .Metric("duplicates", sweep.total_duplicates)
          .Metric("crashes", sweep.total_crashes)
          .Metric("retransmits", sweep.total_retransmits)
          .WallMs(timer.ElapsedMs());
    }
  }
  std::printf(
      "# shape check: tc-monotone and the set-based barrier hold rate 1.00 "
      "for every class (CALM: monotone => confluent; idempotent markers "
      "tolerate at-least-once); the fragile counting barrier drops below "
      "1.00 exactly for the at-least-once classes — duplication and "
      "volatile-crash redelivery both inflate its message count.\n\n");
}

void BM_FaultSweepTcDuplicate(benchmark::State& state) {
  World w;
  DistributedDatalogProgram tc(w.tc_schema, w.tc_prog);
  const std::vector<std::vector<Instance>> distributions = {
      DistributeRoundRobin(w.tc_edges,
                           static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::CheckConsistencyUnderFaults(
        tc, distributions, w.tc_expected, fault::FaultClass::kDuplicate, 4,
        nullptr, false));
  }
}
BENCHMARK(BM_FaultSweepTcDuplicate)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureRepeatsFromCommandLine(&argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
