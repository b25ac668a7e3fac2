// Ablation (DESIGN.md): evaluation-strategy trade-offs the paper's
// Section 3.2 discusses — rounds vs communication vs robustness to bad
// intermediate results.
//
//   * one-round HyperCube: minimal rounds, replication cost, great for
//     cyclic queries with large output;
//   * plain cascade: no replication but intermediate results can explode;
//   * Yannakakis (acyclic) / GYM (cyclic): more rounds, semijoin phase
//     keeps intermediates bounded by the reduced data.
//
// The workload is the "dangling data" shape where the cascade explodes: a
// chain whose middle join is a cartesian blow-up that the final atom then
// annihilates.

#include <cstdio>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "mpc/cascade.h"
#include "mpc/gym.h"
#include "mpc/hypercube_run.h"
#include "mpc/yannakakis.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace {

using namespace lamp;

/// Chain R1(x,y), R2(y,z), R3(z,w) where R1 |x| R2 has `blowup`^2 tuples
/// but nothing joins R3: output empty.
Instance DanglingChain(Schema& schema, std::size_t blowup) {
  Instance db;
  for (std::size_t i = 0; i < blowup; ++i) {
    db.Insert(
        Fact(schema.IdOf("R1"), {static_cast<std::int64_t>(i), 0}));
    db.Insert(
        Fact(schema.IdOf("R2"), {0, 100000 + static_cast<std::int64_t>(i)}));
  }
  for (std::size_t i = 0; i < blowup; ++i) {
    db.Insert(Fact(schema.IdOf("R3"),
                   {500000 + static_cast<std::int64_t>(i),
                    600000 + static_cast<std::int64_t>(i)}));
  }
  return db;
}

void PrintTable() {
  std::printf(
      "# GYM ablation: strategies on the dangling-blowup chain "
      "R1(x,y), R2(y,z), R3(z,w) (output empty by construction)\n"
      "# columns: blowup  strategy  rounds  max-load  total-comm\n");
  obs::BenchReporter reporter("gym_ablation");
  for (std::size_t blowup : {50u, 100u, 200u}) {
    Schema schema;
    const ConjunctiveQuery chain =
        ParseQuery(schema, "H(x,y,z,w) <- R1(x,y), R2(y,z), R3(z,w)");
    const Instance db = DanglingChain(schema, blowup);

    obs::WallTimer timer;
    Schema s1 = schema;
    const MpcRunResult hypercube = RunHyperCubeLpShares(chain, db, 16, 3);
    const double hypercube_ms = timer.ElapsedMs();
    timer.Restart();
    const MpcRunResult cascade = CascadeJoin(s1, chain, db, 16, 3);
    const double cascade_ms = timer.ElapsedMs();
    timer.Restart();
    Schema s2 = schema;
    const MpcRunResult yannakakis = YannakakisMpc(s2, chain, db, 16, 3);
    const double yannakakis_ms = timer.ElapsedMs();
    timer.Restart();
    Schema s3 = schema;
    const MpcRunResult gym = GymEvaluate(s3, chain, db, 16, 3);
    const double gym_ms = timer.ElapsedMs();

    const struct {
      const char* name;
      const MpcRunResult* run;
      double wall_ms;
    } rows[] = {{"hypercube", &hypercube, hypercube_ms},
                {"cascade", &cascade, cascade_ms},
                {"yannakakis", &yannakakis, yannakakis_ms},
                {"gym", &gym, gym_ms}};
    const obs::audit::Catalog catalog = obs::audit::BuildCatalog(schema, db);
    const Shares lp_shares = LpRoundedShares(chain, 16);
    for (const auto& row : rows) {
      std::printf("%8zu %-11s %6zu %9zu %11zu\n", blowup, row.name,
                  row.run->stats.NumRounds(), row.run->stats.MaxLoad(),
                  row.run->stats.TotalCommunication());
      obs::MetricsRegistry registry;
      row.run->stats.ToMetrics(registry);
      // Only the HyperCube row has a closed-form bound. The dangling
      // chain concentrates all of R1 on one y-slice (every R1.y is 0),
      // but at p=16 that costs only a constant factor over the expected
      // load, which the slack absorbs. Cascade/Yannakakis/GYM have no
      // one-round formula: record their loads with Strategy::kNone (no
      // verdict).
      const bool is_hypercube = row.run == &hypercube;
      std::size_t actual_p = 16;
      if (is_hypercube) {
        actual_p = 1;
        for (std::size_t s : lp_shares) actual_p *= s;
      }
      obs::audit::AuditRecord audit = obs::audit::MakeAuditRecord(
          "gym_ablation", row.name,
          is_hypercube ? obs::audit::Strategy::kHyperCube
                       : obs::audit::Strategy::kNone,
          actual_p,
          is_hypercube ? obs::audit::HyperCubeBound(chain, schema, catalog,
                                                    lp_shares)
                       : obs::audit::NoBound(),
          row.run->stats);
      audit.params.Set("blowup", blowup);
      reporter.NewRecord()
          .Param("blowup", blowup)
          .Param("strategy", row.name)
          .Param("p", std::size_t{16})
          .Metrics(registry)
          .WallMs(row.wall_ms)
          .Attach("audit", audit.ToJson());
    }
  }
  std::printf(
      "# shape check: the cascade's communication grows quadratically in "
      "the blowup; Yannakakis/GYM stay linear (the semijoin phase removes "
      "the dangling tuples before any join).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
