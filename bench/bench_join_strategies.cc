// Experiment E1 (Example 3.1): one-round binary-join strategies.
//
// The paper's claims:
//   (1a) repartition join: max load O(m/p) without skew, but a heavy join
//        value sends a large part of the database to one server;
//   (1b) fragment-replicate join: max load O(m/sqrt(p)) *independent of
//        skew*.
//
// All four implemented strategies race on both the skew-free (matching
// database) and skewed (half of R shares one join value) inputs; the
// table prints the measured max loads next to the static planner's pick
// (sa/plan). Every race also attaches a lamp.plan_agreement.v1 record to
// its bench record, so `lamp_plan check` gates the cost model against
// what actually won; a record's wall time covers all of its p's races.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cq/parser.h"
#include "distribution/hypercube.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "mpc/shares_skew.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "sa/plan/agreement.h"
#include "sa/plan/plan.h"
#include "transport/transport.h"

namespace {

using namespace lamp;

struct Workload {
  Schema schema;
  ConjunctiveQuery query;
  Instance skew_free;
  Instance skewed;
  std::size_t m;

  explicit Workload(std::size_t m_in) : m(m_in) {
    query = ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
    JoinWorkload inputs =
        MakeJoinWorkload(schema, schema.IdOf("R"), schema.IdOf("S"), m);
    skew_free = std::move(inputs.skew_free);
    skewed = std::move(inputs.skewed);
  }
};

void PrintTable() {
  const std::size_t m = 20000;
  Workload w(m);
  const std::string transport_name(
      transport::TransportKindName(transport::ActiveKind()));
  std::printf(
      "# E1: one-round join strategies (Example 3.1), m=%zu per relation, "
      "transport=%s\n"
      "# columns: p  scenario  repart  fragrep  hypercube  shares-skew  "
      "planner-pick  measured-pick  agree\n",
      m, transport_name.c_str());
  obs::BenchReporter reporter("join_strategies");
  const obs::audit::Catalog free_catalog =
      obs::audit::BuildCatalog(w.schema, w.skew_free);
  const obs::audit::Catalog skew_catalog =
      obs::audit::BuildCatalog(w.schema, w.skewed);
  using obs::audit::Strategy;

  struct Scenario {
    const char* name;
    const Instance* db;
    const obs::audit::Catalog* catalog;
  };
  const Scenario scenarios[] = {
      {"skew_free", &w.skew_free, &free_catalog},
      {"skewed", &w.skewed, &skew_catalog},
  };

  for (std::size_t p : {4, 16, 64, 256}) {
    obs::WallTimer timer;
    auto& bench_record = reporter.NewRecord();
    bench_record.Param("p", p).Param("m", m).Param("transport",
                                                   transport_name);
    for (const Scenario& scenario : scenarios) {
      const bool skewed = scenario.db == &w.skewed;
      // The planner scores the same grid the race runs, so prediction
      // and measurement disagree only when the cost model is wrong, not
      // because they chose different shares.
      const Shares shares = LpRoundedShares(w.query, p);
      sa::plan::PlanOptions plan_options;
      plan_options.p = p;
      plan_options.share_candidates = {shares};
      const sa::plan::PlanCertificate cert =
          sa::plan::PlanQuery(w.query, w.schema, *scenario.catalog,
                              plan_options);
      const sa::plan::StrategyPrediction* pick = cert.Winner();

      const auto repart = RepartitionJoin(w.query, *scenario.db, p, 7);
      const auto fragrep = FragmentReplicateJoin(w.query, *scenario.db, p, 7);
      const auto hypercube = RunHyperCube(w.query, *scenario.db, shares);
      const auto shares_skew = SharesSkewJoin(w.query, *scenario.db, p, 7);

      // A heavy join value pins half of R on one server (repartition) or
      // one hypercube cell: the skew-free m/p and HyperCube bounds *must*
      // break on the skewed input for large p — that is claim (1a), kept
      // as pinned expected violations rather than gate failures.
      const auto audit = [&](const char* strategy_label, Strategy strategy,
                             const RunStats& stats, bool expected_violation) {
        obs::audit::AuditRecord audit_record = obs::audit::MakeAuditRecord(
            "join_strategies",
            std::string(strategy_label) + "/" + scenario.name, strategy, p,
            strategy == Strategy::kHyperCube
                ? obs::audit::HyperCubeBound(w.query, w.schema,
                                             *scenario.catalog, shares)
                : obs::audit::BoundFor(strategy, w.query, w.schema,
                                       *scenario.catalog, p),
            stats);
        audit_record.params.Set("m", w.m);
        audit_record.params.Set("transport", transport_name);
        audit_record.expected_violation = expected_violation;
        // The planner's verdict rides along so `lamp_obs report` can
        // render predicted-vs-measured slack per strategy.
        const sa::plan::StrategyPrediction* predicted = cert.Find(strategy);
        if (predicted != nullptr && predicted->feasible) {
          audit_record.predicted_max_load = predicted->predicted_max_load;
          audit_record.predicted_wire_bytes =
              predicted->predicted_wire_bytes;
        }
        if (pick != nullptr) {
          audit_record.planned_strategy =
              std::string(obs::audit::StrategyName(pick->strategy));
        }
        bench_record.Attach("audit", audit_record.ToJson());
      };
      audit("repartition", Strategy::kRepartition, repart.stats,
            /*expected_violation=*/skewed);
      audit("fragment_replicate", Strategy::kFragmentReplicate,
            fragrep.stats, /*expected_violation=*/false);
      audit("hypercube", Strategy::kHyperCube, hypercube.stats,
            /*expected_violation=*/skewed);
      audit("shares_skew", Strategy::kSharesSkew, shares_skew.stats,
            /*expected_violation=*/false);

      sa::plan::AgreementRecord agreement = sa::plan::MakeAgreementRecord(
          "join_strategies",
          std::string(scenario.name) + "/p=" + std::to_string(p), cert,
          {{Strategy::kRepartition,
            static_cast<double>(repart.stats.MaxLoad())},
           {Strategy::kFragmentReplicate,
            static_cast<double>(fragrep.stats.MaxLoad())},
           {Strategy::kHyperCube,
            static_cast<double>(hypercube.stats.MaxLoad())},
           {Strategy::kSharesSkew,
            static_cast<double>(shares_skew.stats.MaxLoad())}});
      const std::string pick_name(obs::audit::StrategyName(
          pick != nullptr ? pick->strategy : Strategy::kNone));
      const std::string measured_name(
          obs::audit::StrategyName(agreement.measured));
      std::printf("%6zu %-10s %8zu %8zu %10zu %12zu  %-18s %-18s %s\n", p,
                  scenario.name, repart.stats.MaxLoad(),
                  fragrep.stats.MaxLoad(), hypercube.stats.MaxLoad(),
                  shares_skew.stats.MaxLoad(), pick_name.c_str(),
                  measured_name.c_str(), agreement.Agree() ? "yes" : "NO");
      const std::string prefix = std::string(scenario.name) + ".";
      bench_record
          .Metric(prefix + "repartition.mpc.max_load",
                  repart.stats.MaxLoad())
          .Metric(prefix + "fragment_replicate.mpc.max_load",
                  fragrep.stats.MaxLoad())
          .Metric(prefix + "hypercube.mpc.max_load",
                  hypercube.stats.MaxLoad())
          .Metric(prefix + "shares_skew.mpc.max_load",
                  shares_skew.stats.MaxLoad())
          .Attach("plan", agreement.ToJson());
    }
    bench_record.WallMs(timer.ElapsedMs());
  }
  std::printf(
      "# shape check: skew-free repart tracks m/p while skewed repart "
      "stays ~m/2 (heavy value pinned to one server); fragrep tracks "
      "m/sqrt(p) on both inputs; SharesSkew handles the heavy value in "
      "one round without paying fragment-replicate's blanket replication "
      "for light values. The planner must pick each race's winner (or a "
      "predicted tie): lamp_plan check gates the agreement records.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::transport::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
