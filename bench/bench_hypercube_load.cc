// Experiment E3 (Section 3.1, Beame-Koutris-Suciu): HyperCube maximum load
// is Theta(m / p^{1/tau*}) on skew-free data, where tau* is the optimal
// fractional edge packing of the query hypergraph.
//
// For each query in a structurally diverse family, the table reports the
// measured max load for growing p next to the prediction computed from
// our own LP solver — the "who wins, by what factor" check is the ratio
// column staying O(1) as p grows.

#include <cmath>
#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "cq/parser.h"
#include "lp/edge_packing.h"
#include "mpc/hypercube_run.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "obs/trace.h"
#include "relational/generators.h"
#include "sa/plan/agreement.h"
#include "sa/plan/plan.h"
#include "transport/transport.h"

namespace {

using namespace lamp;

struct QuerySpec {
  const char* name;
  const char* text;
};

constexpr QuerySpec kQueries[] = {
    {"join", "H(x,y,z) <- R0(x,y), R1(y,z)"},
    {"triangle", "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)"},
    {"path3", "H(x,y,z,w) <- R0(x,y), R1(y,z), R2(z,w)"},
    {"star3", "H(x,a,b,c) <- R0(x,a), R1(x,b), R2(x,c)"},
    {"cycle4", "H(x,y,z,w) <- R0(x,y), R1(y,z), R2(z,w), R3(w,x)"},
};

Instance MatchingInput(Schema& schema, const ConjunctiveQuery& q,
                       std::size_t m) {
  Rng rng(11);
  Instance db;
  std::int64_t base = 0;
  for (const Atom& atom : q.body()) {
    // Matching relations: the BKS skew-free model (every value at most
    // once per column). Columns use disjoint ranges per relation, shifted
    // so join columns overlap probabilistically... For load measurements
    // the join result is irrelevant; only the routing balance matters.
    AddMatchingRelation(schema, atom.relation, m, base, rng, db);
    base += static_cast<std::int64_t>(2 * m);
  }
  return db;
}

void PrintTable() {
  const std::size_t m = 20000;
  obs::BenchReporter reporter("hypercube_load");
  const std::string transport_name(
      transport::TransportKindName(transport::ActiveKind()));
  std::printf(
      "# E3: HyperCube load vs p on skew-free (matching) data, m=%zu, "
      "transport=%s\n"
      "# columns: query  tau*  p  shares  max-load  k*m/p^(1/tau*)  "
      "ratio\n",
      m, transport_name.c_str());
  for (const QuerySpec& spec : kQueries) {
    Schema schema;
    const ConjunctiveQuery q = ParseQuery(schema, spec.text);
    const double tau = FractionalEdgePackingValue(q);
    Instance db = MatchingInput(schema, q, m);
    const obs::audit::Catalog catalog = obs::audit::BuildCatalog(schema, db);
    const double k = static_cast<double>(q.body().size());
    for (std::size_t p : {16, 64, 256}) {
      obs::WallTimer timer;
      const Shares shares = LpRoundedShares(q, p);
      const MpcRunResult run = RunHyperCube(q, db, shares);
      std::size_t actual_p = 1;
      for (std::size_t s : shares) actual_p *= s;
      const double predicted =
          k * static_cast<double>(m) /
          std::pow(static_cast<double>(actual_p), 1.0 / tau);
      std::printf("%-9s %5.2f %6zu %8zu %10zu %14.0f %8.2f\n", spec.name,
                  tau, p, actual_p, run.stats.MaxLoad(), predicted,
                  static_cast<double>(run.stats.MaxLoad()) / predicted);
      // The static planner scores the race's own grid (share_candidates)
      // so its hypercube prediction and the measurement are at the same
      // shares; the agreement record keeps the cost model honest even on
      // this single-strategy race (the binary strategies are infeasible
      // for every query here except "join", where repartition ties the
      // (1,1,p) grid by construction).
      sa::plan::PlanOptions plan_options;
      plan_options.p = actual_p;
      plan_options.share_candidates = {shares};
      const sa::plan::PlanCertificate cert =
          sa::plan::PlanQuery(q, schema, catalog, plan_options);
      const sa::plan::StrategyPrediction* pick = cert.Winner();
      const std::string pick_name(obs::audit::StrategyName(
          pick != nullptr ? pick->strategy : obs::audit::Strategy::kNone));
      obs::MetricsRegistry registry;
      run.stats.ToMetrics(registry);
      auto& record = reporter.NewRecord()
                         .Param("query", spec.name)
                         .Param("tau_star", tau)
                         .Param("p", p)
                         .Param("actual_p", actual_p)
                         .Param("m", m)
                         .Param("transport", transport_name)
                         .Metrics(registry)
                         .Metric("predicted_max_load", predicted)
                         .WallNs(timer.ElapsedNs());
      // Audit against the exact expected load of the shares actually
      // used (not the asymptotic tau* prediction in the table): matching
      // data is skew-free, so the measured max must concentrate there.
      obs::audit::AuditRecord audit = obs::audit::MakeAuditRecord(
          "hypercube_load", spec.name, obs::audit::Strategy::kHyperCube,
          actual_p, obs::audit::HyperCubeBound(q, schema, catalog, shares),
          run.stats);
      audit.params.Set("m", m);
      audit.params.Set("tau_star", tau);
      audit.params.Set("transport", transport_name);
      const sa::plan::StrategyPrediction* hc =
          cert.Find(obs::audit::Strategy::kHyperCube);
      if (hc != nullptr && hc->feasible) {
        audit.predicted_max_load = hc->predicted_max_load;
        audit.predicted_wire_bytes = hc->predicted_wire_bytes;
      }
      audit.planned_strategy = pick_name;
      const sa::plan::AgreementRecord agreement = sa::plan::MakeAgreementRecord(
          "hypercube_load",
          std::string(spec.name) + "/p=" + std::to_string(actual_p), cert,
          {{obs::audit::Strategy::kHyperCube,
            static_cast<double>(run.stats.MaxLoad())}});
      record.Attach("audit", audit.ToJson()).Attach("plan", agreement.ToJson());
    }
  }
  std::printf(
      "# shape check: the ratio column is O(1) (routing/rounding constants),"
      " flat in p for each query.\n\n");
}

void BM_HyperCubeTriangle(benchmark::State& state) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)");
  Instance db = MatchingInput(schema, q, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunHyperCubeUniform(q, db, 64));
  }
}
BENCHMARK(BM_HyperCubeTriangle)->Arg(5000)->Arg(20000);

// Null-sink overhead check: the same instrumented RunRound path, with and
// without a tracer installed. The no-sink run must be within noise of the
// pre-instrumentation baseline (one pointer load + branch per phase).
void BM_HyperCubeTriangleTraced(benchmark::State& state) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)");
  Instance db = MatchingInput(schema, q, static_cast<std::size_t>(state.range(0)));
  obs::Tracer tracer;
  obs::ScopedTracer install(tracer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunHyperCubeUniform(q, db, 64));
  }
}
BENCHMARK(BM_HyperCubeTriangleTraced)->Arg(5000)->Arg(20000);

void BM_ShareOptimizationLp(benchmark::State& state) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(
      schema, "H(x,y,z,w) <- R0(x,y), R1(y,z), R2(z,w), R3(w,x)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimalShareExponents(q));
  }
}
BENCHMARK(BM_ShareOptimizationLp);

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::transport::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureRepeatsFromCommandLine(&argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
