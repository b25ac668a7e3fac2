// obs_audit: renders and demonstrates the theory-aware audit layer
// (obs/audit): load-bound audit records, the statistics catalog and
// causal coordination profiles.
//
//   obs_audit report <records>...       headroom table + worst-round
//                                       per-server load heatmaps from the
//                                       lamp.audit.v1 entries of bench
//                                       records (JSON lines or a
//                                       bench_runner report)
//   obs_audit catalog <catalog.json>    per-relation skew report from a
//                                       lamp.catalog.v1 document
//   obs_audit causal <trace.json>       coordination depth + causal
//                                       critical path from a lamp.trace.v1
//                                       recording of a transducer run
//   obs_audit demo-audit                audit a HyperCube triangle and a
//                                       repartition join, render report
//   obs_audit demo-catalog              print the lamp.catalog.v1 of a
//                                       skewed demo instance
//   obs_audit demo-causal               contrast a monotone broadcast
//                                       (coordination-free) with a
//                                       counting barrier (coordinated)
//   obs_audit demo-violation            run a deliberately skewed
//                                       repartition join and hard-fail on
//                                       its bound violation (exit 4) —
//                                       the pinned WILL_FAIL demo
//   obs_audit ... --json                emit machine-readable JSON where
//                                       the subcommand supports it
//
// Exit codes: 0 ok, 2 usage/parse error (for report: an unreadable line,
// an undecodable audit entry, or no audit entries at all), 4 hard bound
// violation (demo-violation, and report --check).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/audit/causal.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "relational/generators.h"

namespace lamp {
namespace {

using obs::audit::AuditRecord;
using obs::audit::Catalog;
using obs::audit::CausalReport;
using obs::audit::Strategy;

// Eight block glyphs, matching trace_dump's heatmap convention ('.' = 0).
const char* LoadGlyph(std::uint64_t load, std::uint64_t max) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (load == 0) return ".";
  if (max == 0) return kBlocks[0];
  std::size_t idx = static_cast<std::size_t>((8 * load - 1) / max);
  return kBlocks[std::min<std::size_t>(idx, 7)];
}

// --- report -------------------------------------------------------------

void RenderReport(const std::vector<AuditRecord>& records) {
  std::printf("== lamp.audit.v1 headroom report ==\n");
  std::printf("  %-18s %-26s %-18s %5s %12s %10s %9s  %s\n", "bench", "label",
              "strategy", "p", "bound", "meas.max", "headroom", "status");
  std::size_t ok = 0, expected = 0, hard = 0, unbounded = 0;
  for (const AuditRecord& r : records) {
    std::string bound = "-";
    std::string headroom = "-";
    if (r.bound.has_bound) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", r.bound.tuples);
      bound = buf;
      std::snprintf(buf, sizeof(buf), "%.2f", r.Headroom());
      headroom = buf;
    }
    const char* status = "ok";
    if (!r.bound.has_bound) {
      status = "no bound";
      ++unbounded;
    } else if (r.HardViolation()) {
      status = "VIOLATION";
      ++hard;
    } else if (!r.Pass()) {
      status = "expected violation";
      ++expected;
    } else {
      ++ok;
    }
    std::printf("  %-18s %-26s %-18s %5zu %12s %10zu %9s  %s\n",
                r.bench.c_str(), r.label.c_str(),
                std::string(obs::audit::StrategyName(r.strategy)).c_str(),
                r.p, bound.c_str(), r.measured_max_load, headroom.c_str(),
                status);
  }
  std::printf("\n  %zu record(s): %zu within bound, %zu expected"
              " violation(s), %zu hard violation(s), %zu without bound\n",
              records.size(), ok, expected, hard, unbounded);

  // Planner slack: records stamped by a lamp.plan.v1 certificate carry
  // the *predicted* max load and wire bytes next to the measured ones.
  // ratio = measured/predicted — ~1 means the cost model is honest,
  // >>1 means it missed something (skew it didn't see), <<1 means it is
  // too pessimistic to rank strategies. "planned" is the strategy the
  // certificate ranked first for the whole scenario, which may differ
  // from the strategy this record measured (every lane of a race is
  // stamped with the same verdict).
  bool any_planned = false;
  for (const AuditRecord& r : records) any_planned |= r.HasPrediction();
  if (any_planned) {
    std::printf("\n== planner slack (predicted vs measured) ==\n");
    std::printf("  %-18s %-26s %-18s %5s %12s %10s %7s %12s %12s\n", "bench",
                "label", "planned", "p", "pred.load", "meas.max", "ratio",
                "pred.bytes", "wire bytes");
    for (const AuditRecord& r : records) {
      if (!r.HasPrediction()) continue;
      std::printf("  %-18s %-26s %-18s %5zu %12.1f %10zu %7.2f %12.0f"
                  " %12zu\n",
                  r.bench.c_str(), r.label.c_str(),
                  r.planned_strategy.c_str(), r.p, r.predicted_max_load,
                  r.measured_max_load, r.PredictionRatio(),
                  r.predicted_wire_bytes, r.wire_bytes);
    }
  }

  std::printf("\n== worst-round per-server load heatmaps ==\n");
  for (const AuditRecord& r : records) {
    if (r.per_server.empty()) continue;
    std::uint64_t max = 0;
    for (const std::size_t load : r.per_server) {
      max = std::max<std::uint64_t>(max, load);
    }
    std::string heat;
    for (const std::size_t load : r.per_server) heat += LoadGlyph(load, max);
    std::printf("  %s/%s p=%zu round %zu max=%zu\n    |%s|\n",
                r.bench.c_str(), r.label.c_str(), r.p, r.worst_round,
                r.measured_max_load, heat.c_str());
  }

  // Wire traffic next to logical load: load bounds count *tuples*, the
  // transport counts *bytes*, and the per-round bytes/tuple ratio ties the
  // two — a round whose ratio jumps is paying framing or replication
  // overhead the tuple counts don't show. Rounds that moved no tuples
  // (wire bytes all framing, e.g. empty batch frames every peer still
  // sends) render "-" instead of a ratio. Records produced by a traced
  // multi-process run (tools/mpc_procs with LAMP_TRACE_SHARD) also carry
  // per-round wire-latency percentiles from the merged shards; in-process
  // runs leave those columns "-".
  bool any_wire = false;
  bool any_latency = false;
  for (const AuditRecord& r : records) {
    any_wire |= r.wire_bytes > 0;
    any_latency |= !r.round_wire_p50_ns.empty();
  }
  if (!any_wire) return;
  std::printf("\n== wire traffic (lamp.wire.v1 bytes vs logical load) ==\n");
  std::printf("  %-18s %-26s %5s %12s %10s %9s", "bench", "label", "round",
              "wire bytes", "tuples", "B/tuple");
  if (any_latency) std::printf(" %12s %12s", "lat p50(ns)", "lat p99(ns)");
  std::printf("\n");
  for (const AuditRecord& r : records) {
    if (r.wire_bytes == 0) continue;
    const std::size_t rounds =
        std::min(r.round_wire_bytes.size(), r.round_total_load.size());
    for (std::size_t i = 0; i < rounds; ++i) {
      const std::size_t bytes = r.round_wire_bytes[i];
      const std::size_t tuples = r.round_total_load[i];
      char round_label[32];
      std::snprintf(round_label, sizeof(round_label), "%zu", i);
      char ratio[32];
      if (tuples > 0) {
        std::snprintf(ratio, sizeof(ratio), "%9.1f",
                      static_cast<double>(bytes) /
                          static_cast<double>(tuples));
      } else {
        std::snprintf(ratio, sizeof(ratio), "%9s", "-");
      }
      std::printf("  %-18s %-26s %5s %12zu %10zu %s", r.bench.c_str(),
                  r.label.c_str(), round_label, bytes, tuples, ratio);
      if (any_latency) {
        char p50[32];
        char p99[32];
        if (i < r.round_wire_p50_ns.size()) {
          std::snprintf(p50, sizeof(p50), "%12zu", r.round_wire_p50_ns[i]);
        } else {
          std::snprintf(p50, sizeof(p50), "%12s", "-");
        }
        if (i < r.round_wire_p99_ns.size()) {
          std::snprintf(p99, sizeof(p99), "%12zu", r.round_wire_p99_ns[i]);
        } else {
          std::snprintf(p99, sizeof(p99), "%12s", "-");
        }
        std::printf(" %s %s", p50, p99);
      }
      std::printf("\n");
    }
    if (rounds > 1) {
      const double total_tuples = [&] {
        std::size_t t = 0;
        for (std::size_t i = 0; i < rounds; ++i) t += r.round_total_load[i];
        return static_cast<double>(t);
      }();
      char ratio[32];
      if (total_tuples > 0) {
        std::snprintf(ratio, sizeof(ratio), "%9.1f",
                      static_cast<double>(r.wire_bytes) / total_tuples);
      } else {
        std::snprintf(ratio, sizeof(ratio), "%9s", "-");
      }
      std::printf("  %-18s %-26s %5s %12zu %10.0f %s", r.bench.c_str(),
                  r.label.c_str(), "all", r.wire_bytes, total_tuples, ratio);
      if (any_latency) std::printf(" %12s %12s", "-", "-");
      std::printf("\n");
    }
  }
}

int ReportMain(const std::vector<std::string>& files, bool check) {
  if (files.empty()) {
    std::fprintf(stderr, "obs_audit: report needs at least one bench"
                         " records file\n");
    return 2;
  }
  std::string error;
  const std::optional<std::vector<obs::JsonValue>> entries =
      obs::LoadAttachedEntries(files, "audit", &error);
  if (!entries.has_value()) {
    std::fprintf(stderr, "obs_audit: %s\n", error.c_str());
    return 2;
  }
  std::vector<AuditRecord> records;
  records.reserve(entries->size());
  for (const obs::JsonValue& entry : *entries) {
    std::optional<AuditRecord> record = AuditRecord::FromJson(entry);
    if (!record.has_value()) {
      std::fprintf(stderr, "obs_audit: audit entry %zu is not a"
                           " lamp.audit.v1 record\n",
                   records.size() + 1);
      return 2;
    }
    records.push_back(std::move(*record));
  }
  // A gate over nothing would pass whenever the benches lose their audit
  // instrumentation.
  if (records.empty()) {
    std::fprintf(stderr, "obs_audit: no audit entries in the input\n");
    return 2;
  }
  RenderReport(records);
  if (check) {
    for (const AuditRecord& r : records) {
      if (r.HardViolation()) return obs::audit::kAuditHardFailExit;
    }
  }
  return 0;
}

// --- catalog ------------------------------------------------------------

void RenderCatalog(const Catalog& catalog) {
  std::printf("== lamp.catalog.v1 skew report ==\n");
  std::printf("  %-12s %5s %12s %8s  per-column profile\n", "relation",
              "arity", "cardinality", "skew(s)");
  for (const auto& rel : catalog.relations) {
    std::printf("  %-12s %5zu %12llu %8.2f", rel.name.c_str(), rel.arity,
                static_cast<unsigned long long>(rel.cardinality),
                rel.SkewEstimate());
    for (std::size_t c = 0; c < rel.columns.size(); ++c) {
      const auto& col = rel.columns[c];
      std::printf("  col%zu: %zu distinct, s=%.2f", c, col.distinct,
                  col.zipf_s);
    }
    std::printf("\n");
    // Heavy hitters are only interesting when a single value carries a
    // nontrivial fraction of the relation.
    for (std::size_t c = 0; c < rel.columns.size(); ++c) {
      const auto& col = rel.columns[c];
      if (rel.cardinality == 0) continue;
      const double top_share =
          static_cast<double>(col.MaxFrequencyLower()) /
          static_cast<double>(rel.cardinality);
      if (top_share < 0.05) continue;
      std::printf("    heavy hitters in col%zu:", c);
      for (const auto& e : col.heavy) {
        if (e.count - e.error == 0) break;
        std::printf(" %lld:%llu", static_cast<long long>(e.value),
                    static_cast<unsigned long long>(e.count));
      }
      std::printf("\n");
    }
  }
  std::printf("  total facts: %llu\n",
              static_cast<unsigned long long>(catalog.TotalFacts()));
}

int CatalogMain(const std::string& path) {
  const std::optional<std::string> text = obs::ReadTextFile(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "obs_audit: cannot open %s\n", path.c_str());
    return 2;
  }
  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(*text);
  std::optional<Catalog> catalog;
  if (doc.has_value()) catalog = Catalog::FromJson(*doc);
  if (!catalog.has_value()) {
    std::fprintf(stderr, "obs_audit: %s is not a lamp.catalog.v1"
                         " document\n",
                 path.c_str());
    return 2;
  }
  RenderCatalog(*catalog);
  return 0;
}

// --- causal -------------------------------------------------------------

int CausalMain(const std::string& path, bool json) {
  const std::optional<std::string> text = obs::ReadTextFile(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "obs_audit: cannot open %s\n", path.c_str());
    return 2;
  }
  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(*text);
  std::optional<CausalReport> report;
  if (doc.has_value()) report = obs::audit::CausalReportFromTraceJson(*doc);
  if (!report.has_value()) {
    std::fprintf(stderr, "obs_audit: %s is not a lamp.trace.v1 document\n",
                 path.c_str());
    return 2;
  }
  if (json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report->Render().c_str());
  }
  return 0;
}

// --- demos --------------------------------------------------------------

/// The demo workload: a skew-free triangle input plus a skewed binary
/// join input (half of R concentrated on one join value).
struct DemoDb {
  Schema schema;
  Instance triangle_db;
  Instance join_skewed;
  ConjunctiveQuery triangle;
  ConjunctiveQuery join;
};

DemoDb MakeDemoDb() {
  DemoDb db;
  db.triangle =
      ParseQuery(db.schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  db.join = ParseQuery(db.schema, "J(x,y,z) <- A(x,y), B(y,z)");
  Rng rng(11);
  const std::size_t m = 4000;
  AddMatchingRelation(db.schema, db.schema.IdOf("R"), m, 0, rng, db.triangle_db);
  AddMatchingRelation(db.schema, db.schema.IdOf("S"), m, 0, rng, db.triangle_db);
  AddMatchingRelation(db.schema, db.schema.IdOf("T"), m, 0, rng, db.triangle_db);
  // A: half the tuples share join value 0 (the Example 3.1 heavy hitter);
  // B stays skew-free.
  const RelationId a = db.schema.IdOf("A");
  for (std::size_t i = 0; i < m / 2; ++i) {
    db.join_skewed.Insert(Fact(a, {static_cast<std::int64_t>(i), 0}));
    db.join_skewed.Insert(Fact(
        a, {static_cast<std::int64_t>(m + i), static_cast<std::int64_t>(i + 1)}));
  }
  Rng rng2(12);
  AddMatchingRelation(db.schema, db.schema.IdOf("B"), m, 0, rng2, db.join_skewed);
  return db;
}

int DemoAuditMain() {
  obs::WallTimer timer;
  DemoDb db = MakeDemoDb();
  const std::size_t p = 64;
  std::vector<AuditRecord> records;

  // Skew-free HyperCube triangle: measured max stays within the expected
  // load (up to hashing slack).
  {
    const Catalog catalog =
        obs::audit::BuildCatalog(db.schema, db.triangle_db);
    const Shares shares = LpRoundedShares(db.triangle, p);
    const MpcRunResult run = RunHyperCube(db.triangle, db.triangle_db, shares);
    records.push_back(obs::audit::MakeAuditRecord(
        "obs_audit_demo", "triangle/skew_free", Strategy::kHyperCube, p,
        obs::audit::HyperCubeBound(db.triangle, db.schema, catalog, shares),
        run.stats));
  }
  // Skewed repartition join: the heavy hitter sends half of A to one
  // server, blowing the m/p bound — recorded as an *expected* violation.
  {
    const Catalog catalog = obs::audit::BuildCatalog(db.schema, db.join_skewed);
    const MpcRunResult run = RepartitionJoin(db.join, db.join_skewed, p);
    AuditRecord record = obs::audit::MakeAuditRecord(
        "obs_audit_demo", "join/skewed", Strategy::kRepartition, p,
        obs::audit::RepartitionBound(db.join, db.schema, catalog, p),
        run.stats);
    record.expected_violation = true;
    records.push_back(std::move(record));
  }
  // The skew-independent fragment-replicate join on the same skewed
  // input honours its m/sqrt(p) bound.
  {
    const Catalog catalog = obs::audit::BuildCatalog(db.schema, db.join_skewed);
    const MpcRunResult run = FragmentReplicateJoin(db.join, db.join_skewed, p);
    records.push_back(obs::audit::MakeAuditRecord(
        "obs_audit_demo", "join/skewed", Strategy::kFragmentReplicate, p,
        obs::audit::SqrtPBound(db.join, db.schema, catalog, p), run.stats));
  }
  RenderReport(records);
  // Emit a bench record with the audits attached, as the benches do, so
  //   LAMP_BENCH_JSON=f obs_audit demo-audit && obs_audit report f
  // round-trips the wire format.
  obs::BenchReporter reporter("obs_audit_demo");
  auto& record = reporter.NewRecord().Param("p", p).WallNs(timer.ElapsedNs());
  for (const AuditRecord& audit : records) {
    record.Attach("audit", audit.ToJson());
  }
  return 0;
}

int DemoCatalogMain() {
  DemoDb db = MakeDemoDb();
  const Catalog catalog = obs::audit::BuildCatalog(db.schema, db.join_skewed);
  std::printf("%s\n", catalog.ToJson().Dump(2).c_str());
  return 0;
}

int DemoViolationMain() {
  // The deliberately skewed single-round hash join, hard-failed: the
  // pinned demonstration that the audit gate actually bites. Exit 4.
  DemoDb db = MakeDemoDb();
  const std::size_t p = 64;
  const Catalog catalog = obs::audit::BuildCatalog(db.schema, db.join_skewed);
  const MpcRunResult run = RepartitionJoin(db.join, db.join_skewed, p);
  const AuditRecord record = obs::audit::MakeAuditRecord(
      "obs_audit_demo", "join/skewed/hard", Strategy::kRepartition, p,
      obs::audit::RepartitionBound(db.join, db.schema, catalog, p),
      run.stats);
  RenderReport({record});
  if (record.HardViolation()) {
    std::fprintf(stderr,
                 "obs_audit: skewed repartition join violated m/p as the"
                 " theory predicts (measured %zu vs bound %.1f x %.1f);"
                 " failing hard\n",
                 record.measured_max_load, record.bound.tuples, record.slack);
    return obs::audit::kAuditHardFailExit;
  }
  std::fprintf(stderr, "obs_audit: expected a bound violation but the run"
                       " passed — the demo workload lost its heavy"
                       " hitter\n");
  return 2;
}

int DemoCausalMain(bool json) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const ConjunctiveQuery tc2 =
      ParseQuery(schema, "H(x,z) <- E(x,y), E(y,z)");
  Instance graph;
  AddPathGraph(schema, e, 6, graph);
  const auto query = [&tc2](const Instance& instance) {
    return Evaluate(tc2, instance);
  };

  auto profile = [](TransducerProgram& program,
                    std::vector<Instance> locals) {
    obs::Tracer tracer;
    {
      obs::ScopedTracer install(tracer);
      TransducerNetwork net(std::move(locals), program, nullptr,
                            /*aware=*/true);
      (void)net.Run(/*seed=*/1);
    }
    return obs::audit::BuildCausalReport(tracer.Events());
  };

  MonotoneBroadcastProgram monotone(query);
  const CausalReport free_profile =
      profile(monotone, DistributeReplicated(graph, 3));

  Schema barrier_schema = schema;
  CoordinatedBarrierProgram barrier(query, barrier_schema);
  const CausalReport coord_profile =
      profile(barrier, DistributeReplicated(graph, 3));

  if (json) {
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("monotone_broadcast", free_profile.ToJson());
    doc.Set("coordinated_barrier", coord_profile.ToJson());
    std::printf("%s\n", doc.Dump(2).c_str());
  } else {
    std::printf("monotone broadcast on a replicated (ideal) distribution"
                " — CALM says coordination-free:\n%s\n",
                free_profile.Render().c_str());
    std::printf("coordinated barrier on the same distribution — must wait"
                " for every peer:\n%s",
                coord_profile.Render().c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  bool json = false;
  bool check = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: obs_audit <command> [args]\n"
          "  report <records>...      headroom table + load heatmaps from\n"
          "                           bench records' audit entries\n"
          "                           (--check: exit 4 on hard violations)\n"
          "  catalog <catalog.json>   per-relation skew report\n"
          "  causal <trace.json>      coordination depth + critical path\n"
          "  demo-audit               audit two demo joins, render report\n"
          "  demo-catalog             print a demo lamp.catalog.v1\n"
          "  demo-causal              monotone vs barrier causal profiles\n"
          "  demo-violation           skewed repartition join, hard-fail\n"
          "                           (exits 4 by design)\n");
      return 0;
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    std::fprintf(stderr, "obs_audit: need a command (see --help)\n");
    return 2;
  }
  const std::string command = args.front();
  args.erase(args.begin());
  if (command == "report") return ReportMain(args, check);
  if (command == "catalog") {
    if (args.size() != 1) {
      std::fprintf(stderr, "obs_audit: catalog needs one file\n");
      return 2;
    }
    return CatalogMain(args[0]);
  }
  if (command == "causal") {
    if (args.size() != 1) {
      std::fprintf(stderr, "obs_audit: causal needs one file\n");
      return 2;
    }
    return CausalMain(args[0], json);
  }
  if (command == "demo-audit") return DemoAuditMain();
  if (command == "demo-catalog") return DemoCatalogMain();
  if (command == "demo-causal") return DemoCausalMain(json);
  if (command == "demo-violation") return DemoViolationMain();
  std::fprintf(stderr, "obs_audit: unknown command '%s' (see --help)\n",
               command.c_str());
  return 2;
}

}  // namespace
}  // namespace lamp

int main(int argc, char** argv) { return lamp::Main(argc, argv); }
