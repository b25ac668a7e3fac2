// Experiment E2 (Example 3.1(2) + Section 3.2): rounds-vs-skew trade-off
// for the triangle query.
//
// The paper's claims:
//   * skew-free, one round (HyperCube): max load ~ m/p^{2/3};
//   * skewed, one round: provably at least ~ m/p^{1/2} (we show the
//     degradation of HyperCube directly);
//   * skewed, two rounds: back to ~ m/p^{2/3} (the BKS result "the load
//     for skewed data can be brought down ... by using multiple rounds").

#include <cmath>
#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "cq/parser.h"
#include "mpc/hypercube_run.h"
#include "mpc/skew.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "transport/transport.h"

namespace {

using namespace lamp;

struct Workload {
  Schema schema;
  ConjunctiveQuery triangle;
  Instance skew_free;
  Instance skewed;
  std::size_t m;

  explicit Workload(std::size_t m_in) : m(m_in) {
    triangle = ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
    Rng rng(5);
    AddRandomGraph(schema, schema.IdOf("R"), m, 8 * m, rng, skew_free);
    AddRandomGraph(schema, schema.IdOf("S"), m, 8 * m, rng, skew_free);
    AddRandomGraph(schema, schema.IdOf("T"), m, 8 * m, rng, skew_free);

    for (std::size_t i = 0; i < m / 2; ++i) {
      skewed.Insert(
          Fact(schema.IdOf("R"), {static_cast<std::int64_t>(i), 0}));
    }
    for (std::size_t i = 0; i < 200; ++i) {
      skewed.Insert(
          Fact(schema.IdOf("S"), {0, static_cast<std::int64_t>(i)}));
    }
    AddUniformRelation(schema, schema.IdOf("R"), m / 2, 8 * m, rng, skewed);
    AddUniformRelation(schema, schema.IdOf("S"), m - 200, 8 * m, rng, skewed);
    AddUniformRelation(schema, schema.IdOf("T"), m, 8 * m, rng, skewed);
  }
};

void PrintTable() {
  const std::size_t m = 20000;
  Workload w(m);
  const std::string transport_name(
      transport::TransportKindName(transport::ActiveKind()));
  std::printf(
      "# E2: triangle rounds-vs-skew (Example 3.1(2), Section 3.2), "
      "m=%zu, transport=%s\n"
      "# columns: p  1rnd(skew-free)  m/p^(2/3)  1rnd(skewed)  "
      "2rnd(skewed)\n",
      m, transport_name.c_str());
  obs::BenchReporter reporter("triangle_rounds");
  const obs::audit::Catalog free_catalog =
      obs::audit::BuildCatalog(w.schema, w.skew_free);
  const obs::audit::Catalog skew_catalog =
      obs::audit::BuildCatalog(w.schema, w.skewed);
  for (std::size_t p : {8, 27, 64, 216}) {
    obs::WallTimer timer;
    const auto one_free = RunHyperCubeUniform(w.triangle, w.skew_free, p, 9);
    const auto one_skew = RunHyperCubeUniform(w.triangle, w.skewed, p, 9);
    const auto two_skew = SkewResilientTriangle(w.triangle, w.skewed, p, 9);
    const Shares uniform = UniformShares(w.triangle, p);
    std::size_t actual_p = 1;
    for (std::size_t s : uniform) actual_p *= s;
    using obs::audit::Strategy;
    obs::audit::AuditRecord a_free = obs::audit::MakeAuditRecord(
        "triangle_rounds", "one_round/skew_free", Strategy::kHyperCube,
        actual_p,
        obs::audit::HyperCubeBound(w.triangle, w.schema, free_catalog,
                                   uniform),
        one_free.stats);
    a_free.params.Set("m", w.m);
    a_free.params.Set("transport", transport_name);
    // One round on skewed data: Section 3.2's point is that the heavy
    // y-value floods one slice of the cube, so the measured max drifts
    // away from the expected load as p grows (headroom shrinking towards
    // 1 in the report). Marked expected_violation so scaling p further
    // documents the degradation instead of failing the gate.
    obs::audit::AuditRecord a_skew = obs::audit::MakeAuditRecord(
        "triangle_rounds", "one_round/skewed", Strategy::kHyperCube,
        actual_p,
        obs::audit::HyperCubeBound(w.triangle, w.schema, skew_catalog,
                                   uniform),
        one_skew.stats);
    a_skew.params.Set("m", w.m);
    a_skew.params.Set("transport", transport_name);
    a_skew.expected_violation = true;
    // Two rounds recover the skew-free exponent on the same skewed input.
    obs::audit::AuditRecord a_two = obs::audit::MakeAuditRecord(
        "triangle_rounds", "two_round/skewed", Strategy::kSkewResilient, p,
        obs::audit::SkewResilientBound(w.triangle, w.schema, skew_catalog,
                                       p),
        two_skew.stats);
    a_two.params.Set("m", w.m);
    a_two.params.Set("transport", transport_name);
    std::printf("%6zu %14zu %10.0f %12zu %12zu\n", p,
                one_free.stats.MaxLoad(),
                3.0 * static_cast<double>(m) /
                    std::pow(static_cast<double>(p), 2.0 / 3.0),
                one_skew.stats.MaxLoad(), two_skew.stats.MaxLoad());
    reporter.NewRecord()
        .Param("p", p)
        .Param("m", m)
        .Param("transport", transport_name)
        .Metric("one_round.skew_free.mpc.max_load", one_free.stats.MaxLoad())
        .Metric("one_round.skewed.mpc.max_load", one_skew.stats.MaxLoad())
        .Metric("two_round.skewed.mpc.max_load", two_skew.stats.MaxLoad())
        .Metric("two_round.skewed.mpc.rounds", two_skew.stats.NumRounds())
        .WallMs(timer.ElapsedMs())
        .Attach("audit", a_free.ToJson())
        .Attach("audit", a_skew.ToJson())
        .Attach("audit", a_two.ToJson());
  }
  std::printf(
      "# shape check: column 2 tracks column 3; column 4 >> column 5; "
      "column 5 approaches the skew-free level as p grows.\n\n");
}

void BM_OneRoundHyperCubeSkewed(benchmark::State& state) {
  Workload w(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunHyperCubeUniform(w.triangle, w.skewed, 64));
  }
}
BENCHMARK(BM_OneRoundHyperCubeSkewed)->Arg(2000)->Arg(8000);

void BM_TwoRoundSkewResilient(benchmark::State& state) {
  Workload w(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SkewResilientTriangle(w.triangle, w.skewed, 64));
  }
}
BENCHMARK(BM_TwoRoundSkewResilient)->Arg(2000)->Arg(8000);

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
