// Experiment E4 (Afrati-Ullman Shares): optimizing the share vector for
// *total* communication cost when relation sizes differ.
//
// The paper: Shares "focuses on computing optimal values for the shares
// minimizing the total load". The table compares uniform shares against
// the exhaustively optimized integer shares on joins with asymmetric
// relation sizes — the classic result that a plain hash join (all share
// on the join variable) wins when sizes are very different, while
// balanced grids win on symmetric cyclic queries.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "cq/parser.h"
#include "mpc/hypercube_run.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

void PrintTable() {
  obs::BenchReporter reporter("shares_optimization");
  std::printf(
      "# E4: Shares total-communication optimization (Afrati-Ullman)\n"
      "# columns: workload  p  comm(uniform)  comm(optimized)  saving\n");

  struct Case {
    const char* name;
    const char* query;
    std::vector<std::size_t> sizes;  // Per body atom.
  };
  const Case cases[] = {
      {"sym-join", "H(x,y,z) <- R(x,y), S(y,z)", {20000, 20000}},
      {"asym-join", "H(x,y,z) <- R(x,y), S(y,z)", {40000, 400}},
      {"triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)",
       {15000, 15000, 15000}},
      {"asym-tri", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)", {30000, 30000, 300}},
  };

  for (const Case& c : cases) {
    Schema schema;
    const ConjunctiveQuery q = ParseQuery(schema, c.query);
    Rng rng(3);
    Instance db;
    for (std::size_t a = 0; a < q.body().size(); ++a) {
      AddUniformRelation(schema, q.body()[a].relation, c.sizes[a], 200000,
                         rng, db);
    }
    std::vector<double> sizes(c.sizes.begin(), c.sizes.end());
    const obs::audit::Catalog catalog = obs::audit::BuildCatalog(schema, db);
    const auto audit = [&](const char* variant, const Shares& shares,
                           const RunStats& stats) {
      std::size_t actual_p = 1;
      for (std::size_t s : shares) actual_p *= s;
      // Both share vectors get the *same* kind of bound — the exact
      // expected load under their own shares — so the audit checks each
      // configuration against what it promises, not against each other.
      const obs::audit::AuditRecord record = obs::audit::MakeAuditRecord(
          "shares_optimization", std::string(c.name) + "/" + variant,
          obs::audit::Strategy::kHyperCube, actual_p,
          obs::audit::HyperCubeBound(q, schema, catalog, shares), stats);
      return record.ToJson();
    };
    for (std::size_t p : {27, 64}) {
      obs::WallTimer timer;
      const Shares uniform = UniformShares(q, p);
      const Shares optimized = OptimizeIntegerSharesTotalComm(q, p, sizes);
      const auto run_uniform = RunHyperCube(q, db, uniform, 5);
      const auto run_optimized = RunHyperCube(q, db, optimized, 5);
      obs::JsonValue audit_uniform =
          audit("uniform", uniform, run_uniform.stats);
      obs::JsonValue audit_optimized =
          audit("optimized", optimized, run_optimized.stats);
      const double saving =
          1.0 - static_cast<double>(run_optimized.stats.TotalCommunication()) /
                    static_cast<double>(
                        std::max<std::size_t>(
                            1, run_uniform.stats.TotalCommunication()));
      std::printf("%-10s %4zu %14zu %16zu %8.1f%%\n", c.name, p,
                  run_uniform.stats.TotalCommunication(),
                  run_optimized.stats.TotalCommunication(), 100.0 * saving);
      reporter.NewRecord()
          .Param("workload", c.name)
          .Param("p", p)
          .Metric("uniform.mpc.total_communication",
                  run_uniform.stats.TotalCommunication())
          .Metric("optimized.mpc.total_communication",
                  run_optimized.stats.TotalCommunication())
          .Metric("saving", saving)
          .WallMs(timer.ElapsedMs())
          .Attach("audit", std::move(audit_uniform))
          .Attach("audit", std::move(audit_optimized));
    }
  }
  std::printf(
      "# shape check: for 2-atom joins the optimizer recovers the plain "
      "hash join (all share on y, zero replication); the symmetric "
      "triangle keeps the balanced grid (no saving); asymmetric inputs "
      "gain by not replicating along the small relation's dimensions.\n"
      "\n");
}

void BM_OptimizeIntegerShares(benchmark::State& state) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  const std::size_t budget = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OptimizeIntegerSharesTotalComm(q, budget, {1e4, 1e4, 1e4}));
  }
}
BENCHMARK(BM_OptimizeIntegerShares)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureRepeatsFromCommandLine(&argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
