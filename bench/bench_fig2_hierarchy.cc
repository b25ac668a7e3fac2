// Experiment C2 (Figure 2 + Theorems 5.3/5.8/5.12): the monotonicity
// hierarchy M < Mdistinct < Mdisjoint and the matching coordination-free
// strategies.
//
// Part 1 regenerates the strict inclusions with the classifier on the
// paper's witness queries:
//          triangle  open-triangle  not-TC  no-triangle
//   M         yes        no            no       no
//   Mdistinct yes        yes           no       no
//   Mdisjoint yes        yes           yes      no
//
// Part 2 runs each query's strategy tier (broadcast / policy-aware and
// Theorem 5.8's distinct-complete / per-component) and reports
// consistency — the operational side of F0=A0=M, F1=A1=Mdistinct,
// F2=A2=Mdisjoint. Each row is a theorem that its strategy computes its
// query, so the bench exits 1 when any row reads NO.

#include <cstdio>

#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/monotone.h"
#include "datalog/program.h"
#include "distribution/domain_guided.h"
#include "distribution/policies.h"
#include "net/consistency.h"
#include "net/programs.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

/// The four witness queries as black boxes over schema {E/2}.
struct Witnesses {
  Schema schema;
  RelationId e;
  ConjunctiveQuery triangle;
  ConjunctiveQuery open_triangle;
  ConjunctiveQuery strict_triangle;
  Schema dl_schema;
  DatalogProgram not_tc_prog;
  RelationId dl_out;

  QueryFunction q_triangle;
  QueryFunction q_open;
  QueryFunction q_not_tc;
  QueryFunction q_no_triangle;

  Witnesses() {
    e = schema.AddRelation("E", 2);
    triangle = ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x)");
    open_triangle =
        ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
    strict_triangle = ParseQuery(
        schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
    not_tc_prog =
        ParseProgram(dl_schema,
                     "TC(x,y) <- E(x,y)\n"
                     "TC(x,y) <- TC(x,z), TC(z,y)\n"
                     "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)");
    dl_out = dl_schema.IdOf("OUT");

    q_triangle = [this](const Instance& i) { return Evaluate(triangle, i); };
    q_open = [this](const Instance& i) { return Evaluate(open_triangle, i); };
    q_not_tc = [this](const Instance& i) {
      return EvaluateProgram(dl_schema, not_tc_prog, i)
          .SelectRelations([this](RelationId r) { return r == dl_out; });
    };
    q_no_triangle = [this](const Instance& i) {
      if (!Evaluate(strict_triangle, i).Empty()) return Instance();
      return i.SelectRelations([this](RelationId r) { return r == e; });
    };
  }
};

const char* InClass(const Schema& schema, RelationId e,
                    const QueryFunction& q, MonotonicityKind kind,
                    std::size_t domain, std::size_t extra,
                    std::size_t max_facts) {
  return FindMonotonicityViolation(schema, {e}, q, kind, domain, extra,
                                   max_facts)
                 .has_value()
             ? " no"
             : "yes";
}

void PrintHierarchyTable() {
  Witnesses w;
  std::printf(
      "# C2 part 1: monotonicity classifier on the witness queries "
      "(Figure 2's strict inclusions)\n"
      "# columns: query  M  Mdistinct  Mdisjoint\n");

  struct Row {
    const char* name;
    const QueryFunction* q;
    const Schema* schema;
    RelationId e;
    std::size_t dom, extra, max;
  };
  const Row rows[] = {
      {"triangle", &w.q_triangle, &w.schema, w.e, 2, 1, 3},
      {"open-triangle", &w.q_open, &w.schema, w.e, 2, 2, 3},
      {"not-TC", &w.q_not_tc, &w.dl_schema, w.dl_schema.IdOf("E"), 2, 1, 2},
      {"no-triangle", &w.q_no_triangle, &w.schema, w.e, 1, 3, 3},
  };
  obs::BenchReporter reporter("fig2_hierarchy");
  for (const Row& row : rows) {
    obs::WallTimer timer;
    const char* plain =
        InClass(*row.schema, row.e, *row.q, MonotonicityKind::kPlain,
                row.dom, row.extra, row.max);
    const char* distinct =
        InClass(*row.schema, row.e, *row.q, MonotonicityKind::kDomainDistinct,
                row.dom, row.extra, row.max);
    const char* disjoint =
        InClass(*row.schema, row.e, *row.q, MonotonicityKind::kDomainDisjoint,
                row.dom, row.extra, row.max);
    std::printf("%-14s %3s %9s %10s\n", row.name, plain, distinct, disjoint);
    reporter.NewRecord()
        .Param("part", "hierarchy")
        .Param("query", row.name)
        .Metric("in_M", std::string_view(plain) == "yes")
        .Metric("in_M_distinct", std::string_view(distinct) == "yes")
        .Metric("in_M_disjoint", std::string_view(disjoint) == "yes")
        .WallMs(timer.ElapsedMs());
  }
  std::printf(
      "# expected: yes/yes/yes; no/yes/yes; no/no/yes; no/no/no — the "
      "three strict inclusions M < Mdistinct < Mdisjoint.\n\n");
}

/// Prints part 2; true when every strategy row is consistent.
bool PrintStrategyTable() {
  Witnesses w;
  Rng rng(31);
  Instance graph;
  AddRandomGraph(w.schema, w.e, 40, 10, rng, graph);
  AddTriangleClusters(w.schema, w.e, 2, 100, graph);

  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(4, MakeUniverse(1), 13);
  const std::vector<std::vector<Instance>> dist = {
      DistributeByPolicy(graph, policy)};

  std::printf(
      "# C2 part 2: strategy tiers (operational F0/F1/F2)\n"
      "# columns: query  strategy  runs  all-consistent\n");
  obs::BenchReporter reporter("fig2_hierarchy");
  bool all_consistent = true;
  auto report = [&reporter, &all_consistent](
                    const char* query, const char* strategy,
                    const ConsistencySweep& sweep, double wall_ms) {
    all_consistent = all_consistent && sweep.all_runs_correct;
    reporter.NewRecord()
        .Param("part", "strategy")
        .Param("query", query)
        .Param("strategy", strategy)
        .Param("runs", sweep.runs)
        .Metric("all_runs_correct", sweep.all_runs_correct)
        .Metric("net.facts_transferred", sweep.total_facts_transferred)
        .WallMs(wall_ms);
  };

  {
    obs::WallTimer timer;
    NetQueryFunction q = [&w](const Instance& i) {
      return Evaluate(w.triangle, i);
    };
    MonotoneBroadcastProgram program(q);
    const auto sweep = CheckEventualConsistency(
        program, dist, Evaluate(w.triangle, graph), 8, nullptr, false);
    std::printf("%-14s %-17s %4zu %8s\n", "triangle", "broadcast",
                sweep.runs, sweep.all_runs_correct ? "yes" : "NO");
    report("triangle", "broadcast", sweep, timer.ElapsedMs());
  }
  {
    obs::WallTimer timer;
    PolicyAwareNegationProgram program(w.open_triangle);
    const auto sweep = CheckEventualConsistency(
        program, dist, Evaluate(w.open_triangle, graph), 8, &policy, false);
    std::printf("%-14s %-17s %4zu %8s\n", "open-triangle", "policy-aware",
                sweep.runs, sweep.all_runs_correct ? "yes" : "NO");
    report("open-triangle", "policy-aware", sweep, timer.ElapsedMs());
  }
  {
    obs::WallTimer timer;
    NetQueryFunction q = [&w](const Instance& i) {
      return Evaluate(w.open_triangle, i);
    };
    DistinctCompleteProgram program(q, w.schema, {w.e});
    const auto sweep = CheckEventualConsistency(
        program, dist, Evaluate(w.open_triangle, graph), 8, &policy, false);
    std::printf("%-14s %-17s %4zu %8s\n", "open-triangle",
                "distinct-complete", sweep.runs,
                sweep.all_runs_correct ? "yes" : "NO");
    report("open-triangle", "distinct-complete", sweep, timer.ElapsedMs());
  }
  {
    obs::WallTimer timer;
    // not-TC on a multi-component instance, per-component strategy.
    Instance edb;
    const RelationId e = w.dl_schema.IdOf("E");
    edb.Insert(Fact(e, {0, 1}));
    edb.Insert(Fact(e, {1, 2}));
    edb.Insert(Fact(e, {10, 11}));
    const DomainGuidedPolicy dl_policy =
        DomainGuidedPolicy::HashBased(3, MakeUniverse(1), 17);
    NetQueryFunction q = w.q_not_tc;
    ComponentProgram program(q, w.dl_schema);
    const auto sweep = CheckEventualConsistency(
        program, {DistributeByPolicy(edb, dl_policy)}, w.q_not_tc(edb), 8,
        &dl_policy, false);
    std::printf("%-14s %-17s %4zu %8s\n", "not-TC", "per-component",
                sweep.runs, sweep.all_runs_correct ? "yes" : "NO");
    report("not-TC", "per-component", sweep, timer.ElapsedMs());
  }
  std::printf("\n");
  return all_consistent;
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  bool all_consistent = true;
  lamp::obs::RunRepeated([&all_consistent] {
    PrintHierarchyTable();
    all_consistent = PrintStrategyTable() && all_consistent;
  });
  if (!all_consistent) {
    std::fprintf(stderr, "bench_fig2_hierarchy: a strategy row reads NO\n");
    return 1;
  }
  return 0;
}
