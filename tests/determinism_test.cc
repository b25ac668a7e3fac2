// Determinism suite for the parallel execution engine (ISSUE: parallel
// runs must be *bit-identical* to serial). Two MPC workloads — a
// one-round HyperCube triangle join and a multi-round KeepAll reshuffle —
// run at threads in {1, 2, 8} over seeds 0..4; outputs, per-round
// RunStats and golden trace hashes must match the serial run byte for
// byte. The golden constants pin the threads=1 behaviour across commits
// (the fault_test.cc pattern), and the cross-thread-count comparison pins
// the lamp::par merge-order argument (DESIGN.md §lamp::par).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/parser.h"
#include "mpc/hypercube_run.h"
#include "mpc/simulator.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "relational/generators.h"

namespace lamp {
namespace {

// FNV-1a accumulator: order-sensitive, so any reordering of facts or
// stats entries changes the hash.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  }
};

// Hash over the (relation, insertion)-ordered fact sequence — exactly the
// order ForEachFact exposes and serial execution produces. Any change in
// dedup decisions or insert order at higher thread counts changes this.
std::uint64_t InstanceFingerprint(const Instance& instance) {
  Fnv f;
  instance.ForEachFact([&](const Fact& fact) {
    f.Mix(HashMix(fact.relation));
    f.Mix(fact.args.size());
    for (Value v : fact.args) f.Mix(static_cast<std::uint64_t>(v.v));
  });
  return f.h;
}

std::uint64_t StatsFingerprint(const RunStats& stats) {
  Fnv f;
  f.Mix(stats.rounds.size());
  for (const RoundStats& r : stats.rounds) {
    f.Mix(r.received.size());
    for (std::size_t load : r.received) f.Mix(load);
  }
  return f.h;
}

// fault_test.cc's TraceHash, minus kSpan events: span durations are wall
// clock and legitimately vary run to run, while every structural event
// (round begin/end, per-server loads) must not. Transport send/recv
// events are excluded for the same reason: they are emitted from pool
// workers draining independent channels, so their cross-thread interleave
// (and hence the chronological merge) is timing, not structure — the
// structural consequences (loads, wire bytes, outputs) are all hashed.
std::uint64_t TraceHashNoSpans(const obs::Tracer& tracer) {
  Fnv f;
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.kind == obs::EventKind::kSpan ||
        e.kind == obs::EventKind::kTransportConnect ||
        e.kind == obs::EventKind::kTransportSend ||
        e.kind == obs::EventKind::kTransportRecv) {
      continue;
    }
    f.Mix(static_cast<std::uint64_t>(e.kind));
    f.Mix(e.a);
    f.Mix(e.b);
    f.Mix(e.value);
  }
  return f.h;
}

struct RunDigest {
  std::uint64_t output = 0;
  std::uint64_t locals = 0;
  std::uint64_t stats = 0;
  std::uint64_t trace = 0;

  friend bool operator==(const RunDigest& a, const RunDigest& b) {
    return a.output == b.output && a.locals == b.locals &&
           a.stats == b.stats && a.trace == b.trace;
  }
};

std::ostream& operator<<(std::ostream& os, const RunDigest& d) {
  return os << "{output=" << d.output << " locals=" << d.locals
            << " stats=" << d.stats << " trace=" << d.trace << "}";
}

// ------------------------------------------------ HyperCube triangle --

Instance TriangleInput(const Schema& schema, const ConjunctiveQuery& q,
                       std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  Instance db;
  for (const Atom& atom : q.body()) {
    AddUniformRelation(schema, atom.relation, /*m=*/600, /*domain_size=*/40,
                       rng, db);
  }
  return db;
}

RunDigest HyperCubeDigest(std::uint64_t seed) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)");
  const Instance db = TriangleInput(schema, q, seed);
  obs::Tracer tracer;
  obs::ScopedTracer install(tracer);
  const MpcRunResult run = RunHyperCubeUniform(q, db, /*num_servers=*/64);
  RunDigest d;
  d.output = InstanceFingerprint(run.output);
  d.stats = StatsFingerprint(run.stats);
  d.trace = TraceHashNoSpans(tracer);
  return d;
}

// ------------------------------------------- multi-round reshuffle --

// Three KeepAll rounds on p=8 servers; the router fans every fact out to
// two hash-chosen servers, so dedup on receive and per-round loads
// exercise the merge path (not just disjoint repartitioning).
RunDigest ReshuffleDigest(std::uint64_t seed) {
  const std::size_t p = 8;
  Schema schema;
  const RelationId r = schema.AddRelation("R", 2);
  const RelationId s = schema.AddRelation("S", 2);
  Rng rng(seed + 101);
  Instance db;
  AddUniformRelation(schema, r, /*m=*/1500, /*domain_size=*/200, rng, db);
  AddUniformRelation(schema, s, /*m=*/900, /*domain_size=*/120, rng, db);

  MpcSimulator sim(p);
  sim.LoadInput(db);
  obs::Tracer tracer;
  obs::ScopedTracer install(tracer);
  for (std::uint64_t round = 0; round < 3; ++round) {
    sim.RunRound(
        [round, p](NodeId, transport::RowRef fact,
                   std::vector<NodeId>& targets) {
          const std::uint64_t h =
              HashMix(static_cast<std::uint64_t>(fact.row[0].v) * 31 +
                      round);
          targets.push_back(static_cast<NodeId>(h % p));
          targets.push_back(static_cast<NodeId>((h >> 20) % p));
        },
        MpcSimulator::KeepAll());
  }
  RunDigest d;
  Fnv locals;
  for (const Instance& local : sim.locals()) {
    locals.Mix(InstanceFingerprint(local));
  }
  d.locals = locals.h;
  d.output = InstanceFingerprint(sim.output());
  d.stats = StatsFingerprint(sim.stats());
  d.trace = TraceHashNoSpans(tracer);
  return d;
}

// ------------------------------------------------------------ tests --

constexpr std::uint64_t kSeeds[] = {0, 1, 2, 3, 4};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

class ThreadRestorer {
 public:
  ~ThreadRestorer() { par::SetDefaultThreads(1); }
};

TEST(DeterminismTest, HyperCubeRunsAreBitIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (std::uint64_t seed : kSeeds) {
    par::SetDefaultThreads(1);
    const RunDigest serial = HyperCubeDigest(seed);
    for (std::size_t threads : kThreadCounts) {
      par::SetDefaultThreads(threads);
      EXPECT_EQ(HyperCubeDigest(seed), serial)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(DeterminismTest, ReshuffleRunsAreBitIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (std::uint64_t seed : kSeeds) {
    par::SetDefaultThreads(1);
    const RunDigest serial = ReshuffleDigest(seed);
    for (std::size_t threads : kThreadCounts) {
      par::SetDefaultThreads(threads);
      EXPECT_EQ(ReshuffleDigest(seed), serial)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// Golden pinning (fault_test.cc pattern): the serial digests themselves
// are frozen, so a semantics change anywhere in routing, dedup or stats
// shows up even if it is consistent across thread counts.
struct Golden {
  std::uint64_t output, stats, trace;
};

TEST(DeterminismTest, SerialHyperCubeDigestsMatchGolden) {
  ThreadRestorer restore;
  constexpr Golden golden[] = {
      {14338835893641956687ull, 14281822698986460ull,
       4935154643048114563ull},
      {11230423438902327825ull, 7909780018122835451ull,
       3535439940312791071ull},
      {13377368258368684909ull, 17691231741279409875ull,
       16958798099839459587ull},
      {16543810253471282915ull, 4681841633658187328ull,
       362452524656887117ull},
      {5581158950698117550ull, 12392788418635686142ull,
       13661698555742107713ull},
  };
  par::SetDefaultThreads(1);
  for (std::uint64_t seed : kSeeds) {
    const RunDigest d = HyperCubeDigest(seed);
    EXPECT_EQ(d.output, golden[seed].output) << "seed " << seed;
    EXPECT_EQ(d.stats, golden[seed].stats) << "seed " << seed;
    EXPECT_EQ(d.trace, golden[seed].trace) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lamp
