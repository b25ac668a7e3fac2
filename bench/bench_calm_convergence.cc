// Experiment C1 (Theorem 5.3, the CALM theorem): monotone queries converge
// to the correct answer on every schedule without coordination; the
// non-monotone open-triangle query does not under the naive strategy.
//
// The table sweeps scheduler seeds and distributions, counting correct
// runs and the coordination-freeness probe outcome for both queries —
// the measured version of F0 = A0 = M.

#include <cstdio>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "net/consistency.h"
#include "net/programs.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

struct World {
  Schema schema;
  RelationId e;
  ConjunctiveQuery triangle;
  ConjunctiveQuery open_triangle;
  Instance graph;

  World() {
    e = schema.AddRelation("E", 2);
    triangle = ParseQuery(
        schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
    open_triangle =
        ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
    Rng rng(21);
    AddRandomGraph(schema, e, 80, 18, rng, graph);
    AddTriangleClusters(schema, e, 3, 200, graph);
  }
};

void PrintTable() {
  World w;
  auto wrap = [](const ConjunctiveQuery& q) -> NetQueryFunction {
    return [&q](const Instance& i) { return Evaluate(q, i); };
  };

  obs::BenchReporter reporter("calm_convergence");
  std::printf(
      "# C1: CALM theorem — consistency of the naive broadcast strategy\n"
      "# columns: query  nodes  runs  correct-runs  coordination-free\n");
  for (std::size_t n : {2, 4, 8}) {
    for (const bool monotone_query : {true, false}) {
      obs::WallTimer timer;
      const ConjunctiveQuery& q =
          monotone_query ? w.triangle : w.open_triangle;
      const Instance expected = Evaluate(q, w.graph);
      MonotoneBroadcastProgram program(wrap(q));
      std::vector<std::vector<Instance>> distributions = {
          DistributeRoundRobin(w.graph, n),
          DistributeReplicated(w.graph, n)};
      std::size_t correct = 0;
      std::size_t runs = 0;
      obs::MetricsRegistry registry;
      for (const auto& locals : distributions) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
          TransducerNetwork net(locals, program, nullptr, false);
          ++runs;
          const NetworkRunResult result = net.Run(seed);
          if (result.output == expected) ++correct;
          registry.GetCounter(obs::kNetMessagesSent)
              .Add(result.messages_sent());
          registry.GetCounter(obs::kNetFactsTransferred)
              .Add(result.facts_transferred());
          registry.GetCounter(obs::kNetTransitions).Add(result.transitions());
          registry.GetHistogram("net.run.transitions")
              .Observe(static_cast<double>(result.transitions()));
        }
      }
      // Coordination-freeness presupposes the program computes the query
      // (all runs correct); otherwise the probe is vacuous.
      const bool cf = correct == runs &&
                      ComputesWithoutCommunication(
                          program, DistributeReplicated(w.graph, n),
                          expected, nullptr, false);
      std::printf("%-14s %5zu %5zu %13zu %18s\n",
                  monotone_query ? "triangle(M)" : "open-tri(!M)", n, runs,
                  correct,
                  correct == runs ? (cf ? "yes" : "no")
                                  : "n/a (not consistent)");
      reporter.NewRecord()
          .Param("query", monotone_query ? "triangle" : "open-triangle")
          .Param("monotone", monotone_query)
          .Param("nodes", n)
          .Param("runs", runs)
          .Metrics(registry)
          .Metric("correct_runs", correct)
          .Metric("coordination_free", correct == runs && cf)
          .WallMs(timer.ElapsedMs());
    }
  }
  std::printf(
      "# shape check: the monotone query is correct in every run and "
      "coordination-free; the non-monotone one fails on round-robin "
      "distributions, so the CALM theorem places it outside F0.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
