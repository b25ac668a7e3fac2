// Unit and property tests for the theory-aware audit layer
// (obs/audit/*): the Space-Saving sketch guarantees against exact counts
// over seeded Zipf streams, the statistics catalog, the per-strategy load
// bounds, the lamp.audit.v1 record logic (including its round trip as an
// entry attached to a bench record), and the causal-profile extraction
// from synthetic trace events.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/parser.h"
#include "distribution/hypercube.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/audit/causal.h"
#include "obs/audit/sketch.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "relational/generators.h"
#include "transport/wire.h"

namespace lamp::obs::audit {
namespace {

// --- Space-Saving sketch ------------------------------------------------

// The classic Metwally-Agrawal-El Abbadi guarantees, checked against
// exact counts over seeded Zipf streams of several skews and capacities:
//   (1) count(v) - error(v) <= true_freq(v) <= count(v) for tracked v;
//   (2) error(v) <= N/k;
//   (3) every value with true frequency > N/k is tracked.
TEST(SpaceSavingSketchTest, GuaranteesHoldOnZipfStreams) {
  for (const double s : {0.0, 0.8, 1.2, 2.0}) {
    for (const std::size_t capacity : {4u, 16u, 64u}) {
      Rng rng(42 + static_cast<std::uint64_t>(s * 10) + capacity);
      const ZipfSampler zipf(/*n=*/500, s);
      SpaceSavingSketch sketch(capacity);
      std::map<std::int64_t, std::uint64_t> exact;
      const std::size_t n = 20000;
      for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<std::int64_t>(zipf.Sample(rng));
        sketch.Observe(v);
        ++exact[v];
      }
      ASSERT_EQ(sketch.StreamLength(), n);
      const double threshold =
          static_cast<double>(n) / static_cast<double>(capacity);

      const std::vector<SketchEntry> entries = sketch.Entries();
      ASSERT_LE(entries.size(), capacity);
      std::map<std::int64_t, SketchEntry> tracked;
      for (const SketchEntry& e : entries) tracked[e.value] = e;

      for (const SketchEntry& e : entries) {
        const std::uint64_t truth =
            exact.count(e.value) ? exact.at(e.value) : 0;
        EXPECT_LE(truth, e.count)
            << "s=" << s << " k=" << capacity << " v=" << e.value;
        EXPECT_GE(e.count, e.error);
        EXPECT_LE(e.count - e.error, truth)
            << "s=" << s << " k=" << capacity << " v=" << e.value;
        EXPECT_LE(static_cast<double>(e.error), threshold);
      }
      for (const auto& [value, freq] : exact) {
        if (static_cast<double>(freq) > threshold) {
          EXPECT_TRUE(tracked.count(value))
              << "heavy value " << value << " (freq " << freq
              << " > N/k " << threshold << ") not tracked at s=" << s
              << " k=" << capacity;
        }
      }
    }
  }
}

TEST(SpaceSavingSketchTest, ExactWhenStreamFitsInCapacity) {
  SpaceSavingSketch sketch(16);
  for (int round = 0; round < 7; ++round) {
    for (std::int64_t v = 0; v <= round; ++v) sketch.Observe(v);
  }
  // Value v was observed (7 - v) times; 7 distinct values < capacity, so
  // the sketch is exact with zero error.
  const std::vector<SketchEntry> entries = sketch.Entries();
  ASSERT_EQ(entries.size(), 7u);
  EXPECT_EQ(entries.front().value, 0);
  EXPECT_EQ(entries.front().count, 7u);
  for (const SketchEntry& e : entries) {
    EXPECT_EQ(e.error, 0u);
    EXPECT_EQ(e.count, static_cast<std::uint64_t>(7 - e.value));
  }
  EXPECT_EQ(sketch.MaxFrequencyLowerBound(), 7u);
  EXPECT_EQ(sketch.TopK(2).size(), 2u);
}

TEST(SpaceSavingSketchTest, EntriesOrderIsDeterministic) {
  // Equal counts tie-break towards the smaller value, making sketches of
  // identical streams byte-identical across platforms.
  SpaceSavingSketch sketch(8);
  for (std::int64_t v : {5, 3, 9, 3, 5, 9}) sketch.Observe(v);
  const std::vector<SketchEntry> entries = sketch.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].value, 3);
  EXPECT_EQ(entries[1].value, 5);
  EXPECT_EQ(entries[2].value, 9);
}

TEST(ZipfEstimateTest, SeparatesSkewedFromUniform) {
  Rng rng(7);
  const ZipfSampler skewed(200, 1.5);
  const ZipfSampler flat(200, 0.0);
  SpaceSavingSketch sk_skew(64), sk_flat(64);
  for (std::size_t i = 0; i < 20000; ++i) {
    sk_skew.Observe(static_cast<std::int64_t>(skewed.Sample(rng)));
    sk_flat.Observe(static_cast<std::int64_t>(flat.Sample(rng)));
  }
  const double s_skew = EstimateZipfExponent(sk_skew.Entries());
  const double s_flat = EstimateZipfExponent(sk_flat.Entries());
  EXPECT_GT(s_skew, 0.8);
  EXPECT_LT(s_flat, 0.4);
  EXPECT_GT(s_skew, s_flat + 0.5);
}

TEST(ZipfEstimateTest, DegenerateProfilesEstimateZero) {
  EXPECT_EQ(EstimateZipfExponent({}), 0.0);
  EXPECT_EQ(EstimateZipfExponent({{1, 10, 0}, {2, 10, 0}}), 0.0);
}

// --- catalog ------------------------------------------------------------

TEST(CatalogTest, CollectsPerRelationAndPerColumnStats) {
  Schema schema;
  const RelationId r = schema.AddRelation("R", 2);
  schema.AddRelation("Empty", 3);
  Instance db;
  // Column 0: heavy value 0 (6 of 10 tuples); column 1: all distinct.
  for (std::int64_t i = 0; i < 6; ++i) db.Insert(Fact(r, {0, i}));
  for (std::int64_t i = 6; i < 10; ++i) db.Insert(Fact(r, {i, i}));

  const Catalog catalog = BuildCatalog(schema, db);
  ASSERT_EQ(catalog.relations.size(), 2u);
  EXPECT_EQ(catalog.TotalFacts(), 10u);
  EXPECT_EQ(catalog.CardinalityOf("R"), 10u);
  EXPECT_EQ(catalog.CardinalityOf("Empty"), 0u);
  EXPECT_EQ(catalog.CardinalityOf("NoSuchRelation"), 0u);

  const RelationStats* stats = catalog.Find("R");
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->columns.size(), 2u);
  EXPECT_EQ(stats->columns[0].distinct, 5u);
  EXPECT_EQ(stats->columns[1].distinct, 10u);
  // 10 tuples fit in the default sketch capacity: counts are exact.
  EXPECT_EQ(stats->columns[0].MaxFrequencyLower(), 6u);
  EXPECT_EQ(stats->columns[0].MaxFrequencyUpper(), 6u);
  EXPECT_TRUE(stats->HasHeavyHitter(0.5));
  EXPECT_FALSE(stats->HasHeavyHitter(0.7));

  const RelationStats* empty = catalog.Find("Empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->cardinality, 0u);
  ASSERT_EQ(empty->columns.size(), 3u);
  EXPECT_EQ(empty->columns[0].MaxFrequencyLower(), 0u);
  EXPECT_FALSE(empty->HasHeavyHitter(0.01));
}

TEST(CatalogTest, SketchDegenerateColumns) {
  // The three degenerate column shapes the planner's estimator leans on:
  // an empty relation, an all-distinct column (pure sketch noise — every
  // counter holds count ~ error ~ N/capacity) and a single-value column
  // (one exact counter). Wire-size stats must track the same shapes.
  Schema schema;
  schema.AddRelation("Empty", 2);
  const RelationId d = schema.AddRelation("AllDistinct", 1);
  const RelationId s = schema.AddRelation("SingleValue", 1);
  Instance db;
  constexpr std::int64_t kN = 500;  // Overflows the 64-counter sketch.
  for (std::int64_t i = 0; i < kN; ++i) db.Insert(Fact(d, {i + 1}));
  for (std::int64_t i = 0; i < kN; ++i) {
    db.Insert(Fact(s, {42}));  // Set semantics: dedups to one fact.
  }
  const Catalog catalog = BuildCatalog(schema, db);

  const RelationStats* empty = catalog.Find("Empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->cardinality, 0u);
  for (const ColumnStats& col : empty->columns) {
    EXPECT_EQ(col.distinct, 0u);
    EXPECT_TRUE(col.heavy.empty());
    EXPECT_EQ(col.avg_bytes, 0.0);
  }

  const RelationStats* distinct = catalog.Find("AllDistinct");
  ASSERT_NE(distinct, nullptr);
  EXPECT_EQ(distinct->cardinality, static_cast<std::uint64_t>(kN));
  ASSERT_EQ(distinct->columns.size(), 1u);
  EXPECT_EQ(distinct->columns[0].distinct, static_cast<std::size_t>(kN));
  // Every true frequency is 1: the sketch's guaranteed lower bound can
  // never certify more, and no heavy-hitter call may fire.
  EXPECT_LE(distinct->columns[0].MaxFrequencyLower(), 1u);
  EXPECT_FALSE(distinct->HasHeavyHitter(0.05));
  EXPECT_GT(distinct->columns[0].avg_bytes, 0.0);

  const RelationStats* single = catalog.Find("SingleValue");
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(single->cardinality, 1u) << "set semantics dedup";
  ASSERT_EQ(single->columns.size(), 1u);
  EXPECT_EQ(single->columns[0].distinct, 1u);
  // One exact counter: upper and lower bounds coincide.
  EXPECT_EQ(single->columns[0].MaxFrequencyLower(), 1u);
  EXPECT_EQ(single->columns[0].MaxFrequencyUpper(), 1u);
  // avg_bytes is the exact zigzag-varint size of the single value 42.
  EXPECT_DOUBLE_EQ(single->columns[0].avg_bytes,
                   static_cast<double>(transport::ZigzagSize(42)));
}

TEST(CatalogTest, JsonRoundTrip) {
  Schema schema;
  const RelationId r = schema.AddRelation("R", 1);
  Instance db;
  for (std::int64_t i = 0; i < 20; ++i) db.Insert(Fact(r, {i % 4}));

  const Catalog catalog = BuildCatalog(schema, db);
  const JsonValue doc = catalog.ToJson();
  const std::optional<JsonValue> reparsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.has_value());
  const std::optional<Catalog> back = Catalog::FromJson(*reparsed);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->relations.size(), catalog.relations.size());
  const RelationStats& a = catalog.relations[0];
  const RelationStats& b = back->relations[0];
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.arity, b.arity);
  EXPECT_EQ(a.cardinality, b.cardinality);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  EXPECT_EQ(a.columns[0].distinct, b.columns[0].distinct);
  EXPECT_DOUBLE_EQ(a.columns[0].zipf_s, b.columns[0].zipf_s);
  ASSERT_EQ(a.columns[0].heavy.size(), b.columns[0].heavy.size());
  EXPECT_EQ(a.columns[0].heavy[0].value, b.columns[0].heavy[0].value);
  EXPECT_EQ(a.columns[0].heavy[0].count, b.columns[0].heavy[0].count);

  EXPECT_FALSE(Catalog::FromJson(JsonValue::Object()).has_value());
}

// --- bounds -------------------------------------------------------------

TEST(BoundsTest, RepartitionAndSqrtPBounds) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  Instance db;
  Rng rng(3);
  AddMatchingRelation(schema, schema.IdOf("R"), 600, 0, rng, db);
  AddMatchingRelation(schema, schema.IdOf("S"), 400, 0, rng, db);
  const Catalog catalog = BuildCatalog(schema, db);

  const LoadBound repart = RepartitionBound(q, schema, catalog, 10);
  ASSERT_TRUE(repart.has_bound);
  EXPECT_DOUBLE_EQ(repart.tuples, 100.0);  // (600 + 400) / 10

  const LoadBound sqrtp = SqrtPBound(q, schema, catalog, 10);
  ASSERT_TRUE(sqrtp.has_bound);
  EXPECT_DOUBLE_EQ(sqrtp.tuples, 1000.0 / 3.0);  // floor(sqrt(10)) = 3

  EXPECT_FALSE(NoBound().has_bound);
}

TEST(BoundsTest, HyperCubeBoundIsTheExactExpectedLoad) {
  Schema schema;
  const ConjunctiveQuery triangle =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  Instance db;
  Rng rng(4);
  for (const char* name : {"R", "S", "T"}) {
    AddMatchingRelation(schema, schema.IdOf(name), 1000, 0, rng, db);
  }
  const Catalog catalog = BuildCatalog(schema, db);
  const Shares shares = {4, 4, 4};  // p = 64.
  const LoadBound bound = HyperCubeBound(triangle, schema, catalog, shares);
  ASSERT_TRUE(bound.has_bound);
  // Each atom spans two dimensions of share 4: E[load] = 3 * 1000 / 16.
  EXPECT_DOUBLE_EQ(bound.tuples, 187.5);

  // The dispatcher agrees with the direct call.
  const LoadBound dispatched = BoundFor(Strategy::kHyperCube, triangle,
                                        schema, catalog, 64, &shares);
  EXPECT_DOUBLE_EQ(dispatched.tuples, bound.tuples);
}

TEST(BoundsTest, StrategyNamesRoundTrip) {
  for (const Strategy s :
       {Strategy::kHyperCube, Strategy::kRepartition,
        Strategy::kFragmentReplicate, Strategy::kSharesSkew,
        Strategy::kSkewResilient, Strategy::kNone}) {
    EXPECT_EQ(StrategyFromName(StrategyName(s)), s);
  }
  EXPECT_EQ(StrategyFromName("no-such-strategy"), Strategy::kNone);
}

// --- audit records ------------------------------------------------------

RunStats TwoRoundStats() {
  RunStats stats;
  stats.rounds.push_back(RoundStats{{10, 20, 30}, {}});
  stats.rounds.push_back(RoundStats{{50, 5, 5}, {}});
  return stats;
}

TEST(AuditRecordTest, MakeFillsMeasuredSideAndWorstRound) {
  LoadBound bound{true, 40.0, "m/p"};
  const AuditRecord record =
      MakeAuditRecord("bench", "label", Strategy::kRepartition, 3, bound,
                      TwoRoundStats(), /*slack=*/2.0);
  EXPECT_EQ(record.measured_max_load, 50u);
  EXPECT_EQ(record.rounds, 2u);
  EXPECT_EQ(record.total_communication, 120u);
  EXPECT_EQ(record.worst_round, 1u);
  EXPECT_EQ(record.per_server, (std::vector<std::size_t>{50, 5, 5}));
  // 50 <= 40 * 2.0: within slack.
  EXPECT_TRUE(record.Pass());
  EXPECT_DOUBLE_EQ(record.Headroom(), 80.0 / 50.0);
  EXPECT_FALSE(record.HardViolation());
}

TEST(AuditRecordTest, ViolationAndExpectedViolationSemantics) {
  LoadBound bound{true, 10.0, "m/p"};
  AuditRecord record = MakeAuditRecord("bench", "label",
                                       Strategy::kRepartition, 3, bound,
                                       TwoRoundStats(), /*slack=*/3.0);
  EXPECT_FALSE(record.Pass());  // 50 > 30.
  EXPECT_TRUE(record.HardViolation());
  record.expected_violation = true;
  EXPECT_FALSE(record.HardViolation());

  // No bound: always passes, headroom 0 by convention.
  const AuditRecord unbounded = MakeAuditRecord(
      "bench", "label", Strategy::kNone, 3, NoBound(), TwoRoundStats());
  EXPECT_TRUE(unbounded.Pass());
  EXPECT_DOUBLE_EQ(unbounded.Headroom(), 0.0);
}

TEST(AuditRecordTest, JsonRoundTrip) {
  LoadBound bound{true, 40.0, "m/p = 40"};
  AuditRecord record =
      MakeAuditRecord("bench_x", "cfg/skewed", Strategy::kFragmentReplicate,
                      9, bound, TwoRoundStats(), /*slack=*/2.5);
  record.params.Set("m", 120);
  record.expected_violation = true;

  const std::optional<JsonValue> doc =
      JsonValue::Parse(record.ToJson().Dump());
  ASSERT_TRUE(doc.has_value());
  const std::optional<AuditRecord> back = AuditRecord::FromJson(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bench, "bench_x");
  EXPECT_EQ(back->label, "cfg/skewed");
  EXPECT_EQ(back->strategy, Strategy::kFragmentReplicate);
  EXPECT_EQ(back->p, 9u);
  ASSERT_TRUE(back->bound.has_bound);
  EXPECT_DOUBLE_EQ(back->bound.tuples, 40.0);
  EXPECT_EQ(back->bound.formula, "m/p = 40");
  EXPECT_DOUBLE_EQ(back->slack, 2.5);
  EXPECT_EQ(back->measured_max_load, 50u);
  EXPECT_EQ(back->worst_round, 1u);
  EXPECT_EQ(back->per_server, record.per_server);
  EXPECT_TRUE(back->expected_violation);
  EXPECT_EQ(back->Pass(), record.Pass());

  EXPECT_FALSE(AuditRecord::FromJson(JsonValue::Object()).has_value());
}

TEST(AttachedAuditTest, RoundTripsThroughABenchRecordFile) {
  LoadBound tight{true, 10.0, "m/p"};
  AuditRecord hard = MakeAuditRecord("b", "hard", Strategy::kRepartition, 3,
                                     tight, TwoRoundStats());
  AuditRecord soft = MakeAuditRecord("b", "soft", Strategy::kRepartition, 3,
                                     tight, TwoRoundStats());
  soft.expected_violation = true;
  const AuditRecord unbounded = MakeAuditRecord(
      "b", "ok", Strategy::kNone, 3, NoBound(), TwoRoundStats());
  const std::vector<AuditRecord> audits = {hard, soft, unbounded};

  // Two bench records: the first carries the three audits, the second
  // none (it contributes nothing to the audit stream).
  const std::string path =
      ::testing::TempDir() + "/lamp_attached_audit.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv(kBenchJsonEnvVar, path.c_str(), /*overwrite=*/1), 0);
  {
    BenchReporter reporter("b");
    auto& record = reporter.NewRecord().Param("p", 3).WallNs(1000);
    for (const AuditRecord& audit : audits) {
      record.Attach("audit", audit.ToJson());
    }
    reporter.NewRecord().Param("p", 4).WallNs(1000);
  }
  ASSERT_EQ(unsetenv(kBenchJsonEnvVar), 0);

  std::string error;
  const std::optional<std::vector<JsonValue>> entries =
      LoadAttachedEntries({path}, "audit", &error);
  std::remove(path.c_str());
  ASSERT_TRUE(entries.has_value()) << error;
  ASSERT_EQ(entries->size(), audits.size());
  for (std::size_t i = 0; i < audits.size(); ++i) {
    const std::optional<AuditRecord> back =
        AuditRecord::FromJson((*entries)[i]);
    ASSERT_TRUE(back.has_value()) << i;
    EXPECT_EQ(back->ToJson().Dump(), audits[i].ToJson().Dump());
    EXPECT_EQ(back->HardViolation(), audits[i].HardViolation());
  }
  EXPECT_TRUE(audits[0].HardViolation());
  EXPECT_FALSE(audits[1].Pass());
  EXPECT_FALSE(audits[1].HardViolation());
  EXPECT_TRUE(audits[2].Pass());
}

// --- causal profiles from synthetic traces ------------------------------

std::uint64_t PackCausal(std::uint64_t depth, std::uint32_t parent_plus_1) {
  return (depth << 32) | parent_plus_1;
}

TraceEvent Ev(EventKind kind, std::uint32_t a, std::uint32_t b,
              std::uint64_t value) {
  TraceEvent e;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.value = value;
  return e;
}

TEST(CausalReportTest, ExtractsDepthOutputsAndCriticalPath) {
  // A 3-deep chain: transition 0 delivers a heartbeat message (depth 1,
  // no parent) to node 1; transition 1 delivers node 1's reaction (depth
  // 2, parent transition 0) to node 2; transition 2 delivers depth 3.
  // Node 2 outputs while processing transition 2; node 0 had already
  // produced a heartbeat output (depth 0).
  std::vector<TraceEvent> events;
  events.push_back(Ev(EventKind::kNetOutput, 0, 0, 0));
  events.push_back(Ev(EventKind::kNetCausalDeliver, 1, 0, PackCausal(1, 0)));
  events.push_back(Ev(EventKind::kNetCausalDeliver, 2, 1, PackCausal(2, 0 + 1)));
  events.push_back(Ev(EventKind::kNetCausalDeliver, 0, 2, PackCausal(3, 1 + 1)));
  events.push_back(Ev(EventKind::kNetOutput, 0, 2 + 1, 3));

  const CausalReport report = BuildCausalReport(events);
  EXPECT_EQ(report.deliveries, 3u);
  EXPECT_EQ(report.max_depth, 3u);
  EXPECT_TRUE(report.has_output);
  EXPECT_EQ(report.outputs, 2u);
  // First output in event order came from a heartbeat: depth 0.
  EXPECT_EQ(report.coordination_depth, 0u);
  EXPECT_TRUE(report.CoordinationFree());

  ASSERT_EQ(report.critical_path.size(), 3u);
  EXPECT_EQ(report.critical_path[0].depth, 1u);
  EXPECT_EQ(report.critical_path[0].node, 1u);
  EXPECT_EQ(report.critical_path[1].depth, 2u);
  EXPECT_EQ(report.critical_path[2].depth, 3u);
  EXPECT_EQ(report.critical_path[2].node, 0u);
}

TEST(CausalReportTest, FirstOutputAfterDeliveryIsCoordinated) {
  std::vector<TraceEvent> events;
  events.push_back(Ev(EventKind::kNetCausalDeliver, 1, 0, PackCausal(1, 0)));
  events.push_back(Ev(EventKind::kNetOutput, 1, 0 + 1, 1));
  const CausalReport report = BuildCausalReport(events);
  EXPECT_EQ(report.coordination_depth, 1u);
  EXPECT_FALSE(report.CoordinationFree());
}

TEST(CausalReportTest, EmptyTraceIsTriviallyCoordinationFree) {
  const CausalReport report = BuildCausalReport(std::vector<TraceEvent>{});
  EXPECT_EQ(report.deliveries, 0u);
  EXPECT_FALSE(report.has_output);
  EXPECT_TRUE(report.CoordinationFree());
  EXPECT_TRUE(report.critical_path.empty());
}

TEST(CausalReportTest, JsonRoundTrip) {
  std::vector<TraceEvent> events;
  events.push_back(Ev(EventKind::kNetCausalDeliver, 1, 0, PackCausal(1, 0)));
  events.push_back(Ev(EventKind::kNetCausalDeliver, 2, 1, PackCausal(2, 1)));
  events.push_back(Ev(EventKind::kNetOutput, 2, 1 + 1, 2));
  const CausalReport report = BuildCausalReport(events);

  const std::optional<JsonValue> doc =
      JsonValue::Parse(report.ToJson().Dump());
  ASSERT_TRUE(doc.has_value());
  const std::optional<CausalReport> back = CausalReport::FromJson(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->deliveries, report.deliveries);
  EXPECT_EQ(back->max_depth, report.max_depth);
  EXPECT_EQ(back->has_output, report.has_output);
  EXPECT_EQ(back->coordination_depth, report.coordination_depth);
  EXPECT_EQ(back->outputs, report.outputs);
  ASSERT_EQ(back->critical_path.size(), report.critical_path.size());
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    EXPECT_EQ(back->critical_path[i].transition,
              report.critical_path[i].transition);
    EXPECT_EQ(back->critical_path[i].node, report.critical_path[i].node);
    EXPECT_EQ(back->critical_path[i].depth, report.critical_path[i].depth);
  }

  EXPECT_FALSE(CausalReport::FromJson(JsonValue::Object()).has_value());
}

}  // namespace
}  // namespace lamp::obs::audit
