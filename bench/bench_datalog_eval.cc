// Experiment D1 (Section 5.3): Datalog evaluation over the paper's
// programs — transitive closure / its complement, the semi-connectedness
// analyzer, and win-move under the well-founded semantics — plus the
// semi-naive vs naive ablation (a design choice DESIGN.md calls out): each
// record carries both engines' wall times (semi_naive_ms, naive_ms), with
// linear TC over paths of 16..128 edges for the growth curve.

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "datalog/depgraph.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "sa/fragment.h"

namespace {

using namespace lamp;

constexpr const char* kTcLinear =
    "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)";
constexpr const char* kTcNonLinear =
    "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)";
constexpr const char* kNotTc =
    "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)\n"
    "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)";
constexpr const char* kWinMove = "WIN(x) <- MOVE(x,y), !WIN(y)";

void PrintTable() {
  std::printf(
      "# D1: Datalog engine on the paper's programs\n"
      "# columns: facts derived, then semi-naive / naive iterations, rows "
      "scanned, rule evaluations and wall ms\n"
      "# %-11s %-9s %8s %10s %16s %10s %18s\n",
      "program", "input", "derived", "iters", "rows-scanned", "rule-evals",
      "wall-ms");
  struct Case {
    const char* name;
    const char* program;
    std::size_t path_len;
  };
  const Case cases[] = {
      {"TC-linear", kTcLinear, 16},
      {"TC-linear", kTcLinear, 32},
      {"TC-linear", kTcLinear, 64},
      {"TC-linear", kTcLinear, 128},
      {"TC-nonlinear", kTcNonLinear, 64},
      {"not-TC", kNotTc, 24},
  };
  obs::BenchReporter reporter("datalog_eval");
  for (const Case& c : cases) {
    obs::WallTimer timer;
    Schema schema;
    DatalogProgram program = ParseProgram(schema, c.program);
    Instance edb;
    AddPathGraph(schema, schema.IdOf("E"), c.path_len, edb);
    DatalogStats semi;
    DatalogStats naive;
    obs::MetricsRegistry registry;
    obs::WallTimer semi_timer;
    EvaluateProgram(schema, program, edb, &semi, &registry);
    const double semi_ms = semi_timer.ElapsedMs();
    obs::WallTimer naive_timer;
    EvaluateProgramNaive(schema, program, edb, &naive);
    const double naive_ms = naive_timer.ElapsedMs();
    const auto pair = [](std::size_t semi_value, std::size_t naive_value) {
      return std::to_string(semi_value) + " / " + std::to_string(naive_value);
    };
    std::printf("%-13s path-%-4zu %8zu %10s %16s %10s %8.2f / %.2f\n",
                c.name, c.path_len, semi.facts_derived,
                pair(semi.iterations, naive.iterations).c_str(),
                pair(semi.rows_scanned, naive.rows_scanned).c_str(),
                pair(semi.delta_index_hits, naive.delta_index_hits).c_str(),
                semi_ms, naive_ms);
    reporter.NewRecord()
        .Param("program", c.name)
        .Param("input", "path")
        .Param("path_len", c.path_len)
        .Metrics(registry)
        .Metric("naive.iterations", naive.iterations)
        .Metric("naive.rows_scanned", naive.rows_scanned)
        .Metric("naive.facts_derived", naive.facts_derived)
        .Metric("semi_naive_ms", semi_ms)
        .Metric("naive_ms", naive_ms)
        .WallMs(timer.ElapsedMs());
  }

  // Structural analysis summary (the Figure 2 syntax side).
  {
    Schema schema;
    const DatalogProgram not_tc = ParseProgram(schema, kNotTc);
    const sa::FragmentReport not_tc_report =
        sa::ClassifyFragments(schema, not_tc, DependencyGraph(not_tc));
    Schema schema2;
    const DatalogProgram win_move = ParseProgram(schema2, kWinMove);
    const auto yes_no = [](bool b) { return b ? "yes" : "no"; };
    std::printf(
        "# analysis: not-TC stratifies=%s semi-positive=%s "
        "semi-connected=%s; win-move stratifies=%s\n",
        yes_no(not_tc_report.strata.has_value()),
        yes_no(not_tc_report.Verdict(sa::Fragment::kSemiPositive).certified),
        yes_no(
            not_tc_report.Verdict(sa::Fragment::kSemiConnected).certified),
        yes_no(DependencyGraph(win_move).IsStratifiable()));
  }

  // Win-move on a random game graph under the well-founded semantics.
  {
    Schema schema;
    DatalogProgram program = ParseProgram(schema, kWinMove);
    Rng rng(9);
    Instance edb;
    AddRandomGraph(schema, schema.IdOf("MOVE"), 60, 30, rng, edb);
    const WellFoundedModel model = EvaluateWellFounded(schema, program, edb);
    std::printf(
        "# win-move on random 30-position game: %zu won, %zu drawn, "
        "%zu gamma applications\n\n",
        model.true_facts.Size(), model.undefined_facts.Size(),
        model.gamma_applications);
  }
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
