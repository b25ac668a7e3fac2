// Static analyzer throughput: wall time of the dependency-graph /
// stratification, fragment-classification and lint passes as the program
// grows. Programs are synthetic layered chains with periodic (acyclic)
// negation, so the stratifier has real relaxation work and the fragment
// classifiers see a mix of verdicts. The containment-based subsumption
// pass is measured separately — it is quadratic in the rule count with
// an NP-hard kernel per pair, which is exactly why LintOptions lets
// callers switch it off.

#include <cstdio>
#include <string>

#include "datalog/depgraph.h"
#include "datalog/program.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "sa/fragment.h"
#include "sa/lint.h"

namespace {

using namespace lamp;

/// A deterministic program with \p rules rules: a derivation chain with
/// a join every 5th rule and a negated back-reference (to an older
/// relation, so stratification always succeeds) every 7th.
std::string MakeChainProgram(std::size_t rules) {
  std::string text = "P0(x,y) <- E(x,y)\n";
  for (std::size_t i = 1; i < rules; ++i) {
    text += "P";
    text += std::to_string(i);
    if (i % 7 == 3) {
      text += "(x,y) <- P";
      text += std::to_string(i - 1);
      text += "(x,y), !P";
      text += std::to_string(i / 2);
      text += "(x,y)\n";
    } else if (i % 5 == 2) {
      text += "(x,y) <- P";
      text += std::to_string(i - 1);
      text += "(x,z), E(z,y)\n";
    } else {
      text += "(x,y) <- P";
      text += std::to_string(i - 1);
      text += "(x,y)\n";
    }
  }
  return text;
}

void PrintTable() {
  std::printf(
      "# static analysis wall time vs program size\n"
      "# columns: rules  strata  graph_ms  fragments_ms  lint_ms  "
      "subsumption_ms\n");
  obs::BenchReporter reporter("static_analysis");
  for (std::size_t rules : {8u, 32u, 128u, 512u}) {
    const std::string text = MakeChainProgram(rules);
    Schema schema;
    DatalogProgram program = ParseProgram(schema, text);

    obs::WallTimer total;
    obs::WallTimer timer;
    const DependencyGraph graph(program);
    const auto strata = graph.Stratify();
    const double graph_ms = timer.ElapsedMs();

    timer.Restart();
    const sa::FragmentReport fragments =
        sa::ClassifyFragments(schema, program, graph);
    const double fragments_ms = timer.ElapsedMs();

    sa::LintOptions no_subsumption;
    no_subsumption.subsumption = false;
    timer.Restart();
    const auto lint =
        sa::LintProgram(schema, program, graph, no_subsumption);
    const double lint_ms = timer.ElapsedMs();

    // The quadratic pass, on the sizes where it is affordable.
    double subsumption_ms = 0.0;
    if (rules <= 128) {
      timer.Restart();
      (void)sa::LintProgram(schema, program, graph);
      subsumption_ms = timer.ElapsedMs();
    }

    const std::size_t num_strata =
        strata.has_value() ? strata->num_strata : 0;
    std::printf("%6zu %7zu %9.3f %13.3f %8.3f %15.3f\n", rules, num_strata,
                graph_ms, fragments_ms, lint_ms, subsumption_ms);
    reporter.NewRecord()
        .Param("rules", rules)
        .Param("generator", "chain")
        .Metric("sa.num_strata", num_strata)
        .Metric("sa.components", graph.Components().size())
        .Metric("sa.certified",
                fragments.strongest.has_value() ? 1 : 0)
        .Metric("sa.lint_diagnostics", lint.size())
        .Metric("sa.graph_ms", graph_ms)
        .Metric("sa.fragments_ms", fragments_ms)
        .Metric("sa.lint_ms", lint_ms)
        .Metric("sa.subsumption_ms", subsumption_ms)
        .WallMs(total.ElapsedMs());
  }
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
