// The transport determinism contract (DESIGN.md §src/transport): the
// backend moves bytes, the scheduler/merge order decides delivery, so
// outputs, per-server loads and wire bytes must be byte-identical across
// inproc / tcp / uds — at every thread count and every server count. The
// wire-byte equality is the sharpest check: the in-process backend
// *computes* frame sizes in closed form while the socket backends
// *measure* them after real send/recv, so any drift between the encoder
// and the accounting shows up here immediately. The same holds when the
// cluster is split into one simulator per rank over a socket mesh: the
// per-rank results must fold back to the single-simulator digests. All
// of it rests on per-channel FIFO, which a batch send (one write per
// destination on the loopback backends) must keep exactly like single
// sends, also when a round queues far more than the sockets hold and when
// a receiver is already waiting as the frame is sent.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "distribution/domain_guided.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "mpc/simulator.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "transport/transport.h"

namespace lamp {
namespace {

constexpr transport::TransportKind kBackends[] = {
    transport::TransportKind::kInProcess,
    transport::TransportKind::kTcp,
    transport::TransportKind::kUds,
};

constexpr transport::TransportKind kSocketBackends[] = {
    transport::TransportKind::kTcp,
    transport::TransportKind::kUds,
};

// FNV-1a accumulator (determinism_test.cc's): order-sensitive.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  }
};

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
    f.Mix(r.wire_bytes.size());
    for (std::size_t bytes : r.wire_bytes) f.Mix(bytes);
  }
  return f.h;
}

struct RunDigest {
  std::uint64_t output = 0;
  std::uint64_t stats = 0;
  std::size_t wire_bytes = 0;

  friend bool operator==(const RunDigest& a, const RunDigest& b) {
    return a.output == b.output && a.stats == b.stats &&
           a.wire_bytes == b.wire_bytes;
  }
};

std::ostream& operator<<(std::ostream& os, const RunDigest& d) {
  return os << "{output=" << d.output << " stats=" << d.stats
            << " wire=" << d.wire_bytes << "}";
}

class BackendRestorer {
 public:
  ~BackendRestorer() {
    transport::SetActiveKind(transport::TransportKind::kInProcess);
    par::SetDefaultThreads(1);
  }
};

// ------------------------------------------------------- MPC digests --

RunDigest TriangleDigest() {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)");
  Rng rng(29);
  Instance db;
  for (const Atom& atom : q.body()) {
    AddUniformRelation(schema, atom.relation, /*m=*/600, /*domain_size=*/40,
                       rng, db);
  }
  const MpcRunResult run = RunHyperCubeUniform(q, db, /*num_servers=*/27);
  return {InstanceFingerprint(run.output), StatsFingerprint(run.stats),
          run.stats.TotalWireBytes()};
}

// What a cluster run leaves behind. A mesh run folds its ranks: each
// rank contributes its own server's loads, wire bytes and state, and its
// output, in ascending rank order (the in-process fold order).
struct ClusterRun {
  Instance output;
  RunStats stats;
  std::vector<Instance> locals;
};
using ClusterBody = std::function<void(MpcSimulator&)>;
using Cluster = std::function<ClusterRun(std::size_t, const ClusterBody&)>;

// One simulator on the active backend.
ClusterRun RunSimulated(std::size_t p, const ClusterBody& body) {
  MpcSimulator sim(p);
  body(sim);
  return {sim.output(), sim.stats(), sim.locals()};
}

// p threads, each running `body` on its own simulator over one rank of a
// `kind` MeshTransport.
Cluster MeshThreads(transport::TransportKind kind) {
  return [kind](std::size_t p, const ClusterBody& body) {
    transport::MeshSockets sockets(kind, p);
    std::vector<ClusterRun> ranks(p);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < p; ++r) {
      threads.emplace_back([&ranks, &body, &sockets, r] {
        transport::MeshTransport mesh(sockets, r, {});
        MpcSimulator sim(mesh);
        body(sim);
        ranks[r] = {sim.output(), sim.stats(), sim.locals()};
      });
    }
    for (std::thread& t : threads) t.join();
    ClusterRun folded{Instance(), ranks[0].stats, {}};
    for (std::size_t r = 0; r < p; ++r) {
      folded.output.InsertAll(ranks[r].output);
      folded.locals.push_back(ranks[r].locals[r]);
      for (std::size_t k = 0; k < folded.stats.rounds.size(); ++k) {
        const RoundStats& mine = ranks[r].stats.rounds[k];
        folded.stats.rounds[k].received[r] = mine.received[r];
        folded.stats.rounds[k].wire_bytes[r] = mine.wire_bytes[r];
      }
    }
    return folded;
  };
}

RunDigest RepartitionDigest(std::size_t p,
                            const Cluster& cluster = RunSimulated) {
  const ClusterRun run = cluster(p, [p](MpcSimulator& sim) {
    Schema schema;
    const ConjunctiveQuery q =
        ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
    Rng rng(31);
    Instance db;
    AddMatchingRelation(schema, schema.IdOf("R"), /*m=*/800, 0, rng, db);
    AddMatchingRelation(schema, schema.IdOf("S"), /*m=*/800, 800, rng, db);
    sim.LoadInput(db);
    sim.RunRound(RepartitionRouter(q, p, /*seed=*/7),
                 [&q](NodeId, const Instance& received) {
                   return MpcSimulator::ComputeResult{Instance(),
                                                      Evaluate(q, received)};
                 });
  });
  return {InstanceFingerprint(run.output), StatsFingerprint(run.stats),
          run.stats.TotalWireBytes()};
}

// Multi-round duplication-heavy reshuffle: each fact fans out to two
// hash-chosen servers, so receive-side dedup and self-routing (facts that
// stay local, which must never be framed) are both on the wire path.
RunDigest ReshuffleDigest(std::size_t p,
                          const Cluster& cluster = RunSimulated) {
  const ClusterRun run = cluster(p, [p](MpcSimulator& sim) {
    Schema schema;
    const RelationId r = schema.AddRelation("R", 2);
    Rng rng(37);
    Instance db;
    AddUniformRelation(schema, r, /*m=*/1000, /*domain_size=*/150, rng, db);
    sim.LoadInput(db);
    for (std::uint64_t round = 0; round < 3; ++round) {
      sim.RunRound(
          [round, p](NodeId, const Fact& fact) {
            const std::uint64_t h =
                HashMix(static_cast<std::uint64_t>(fact.args[0].v) * 31 +
                        round);
            return std::vector<NodeId>{static_cast<NodeId>(h % p),
                                       static_cast<NodeId>((h >> 20) % p)};
          },
          MpcSimulator::KeepAll());
    }
  });
  Fnv locals;
  for (const Instance& local : run.locals) {
    locals.Mix(InstanceFingerprint(local));
  }
  return {locals.h, StatsFingerprint(run.stats), run.stats.TotalWireBytes()};
}

// -------------------------------------------------- network digests --

// Output, message/fact/transition counters and wire bytes of one run.
RunDigest NetworkRunDigest(const NetworkRunResult& result) {
  RunDigest d;
  d.output = InstanceFingerprint(result.output);
  Fnv stats;
  stats.Mix(result.messages_sent());
  stats.Mix(result.facts_transferred());
  stats.Mix(result.transitions());
  d.stats = stats.h;
  d.wire_bytes = result.wire_bytes();
  return d;
}

// A random graph plus two triangle clusters; \p e is its edge relation.
Instance DigestGraph(Schema& schema, RelationId e, std::uint64_t seed) {
  Rng rng(seed);
  Instance graph;
  AddRandomGraph(schema, e, /*edges=*/40, /*nodes=*/12, rng, graph);
  AddTriangleClusters(schema, e, 2, 100, graph);
  return graph;
}

// Every message carries facts of the one binary relation E.
RunDigest NetworkDigest(std::uint64_t seed) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const ConjunctiveQuery triangle = ParseQuery(
      schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
  const Instance graph = DigestGraph(schema, e, seed);

  MonotoneBroadcastProgram program(
      [&triangle](const Instance& instance) {
        return Evaluate(triangle, instance);
      });
  TransducerNetwork net(DistributeRoundRobin(graph, 5), program);
  return NetworkRunDigest(net.Run(seed));
}

// Every message mixes arities: the binary E facts touching one owned
// value plus that value's unary __complete marker (ComponentProgram under
// a domain-guided policy).
RunDigest ComponentNetworkDigest(std::uint64_t seed) {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const ConjunctiveQuery triangle = ParseQuery(
      schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
  const Instance graph = DigestGraph(schema, e, seed);

  ComponentProgram program(
      [&triangle](const Instance& instance) {
        return Evaluate(triangle, instance);
      },
      schema);
  const DomainGuidedPolicy policy =
      DomainGuidedPolicy::HashBased(4, graph.ActiveDomain(), seed);
  TransducerNetwork net(DistributeByPolicy(graph, policy), program, &policy,
                        /*aware=*/false);
  return NetworkRunDigest(net.Run(seed));
}

// ------------------------------------------------------ batch sends --

constexpr std::uint64_t kSendSteps = 6;

// A kFactBatch frame of 0-2 rows whose round field carries the frame's
// position `seq` on its channel.
transport::WireFrame SeqFrame(std::uint32_t from, std::uint32_t to,
                              std::uint64_t seq) {
  static const Value kRow[] = {Value(-7), Value(1), Value(1ll << 40)};
  std::vector<transport::RowRef> rows(seq % 3, transport::RowRef{4, kRow, 3});
  return {transport::kWireVersion, transport::FrameType::kFactBatch, from, to,
          transport::EncodeFactBatchPayload(seq, rows)};
}

// Every local source sends two frames to every other endpoint per step,
// with the (from, to) channels interleaved; even steps hand the step's
// frames to one SendBatch call, odd steps Send them one by one. Then every
// local endpoint drains every channel and checks it arrives in send order.
void SendInterleavedAndCheckFifo(transport::Transport& t) {
  const auto n = static_cast<std::uint32_t>(t.num_endpoints());
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n) * n, 0);
  for (std::uint64_t step = 0; step < kSendSteps; ++step) {
    std::vector<transport::WireFrame> frames;
    for (int copy = 0; copy < 2; ++copy) {
      for (std::uint32_t to = 0; to < n; ++to) {
        for (std::uint32_t from = 0; from < n; ++from) {
          if (from == to || !t.IsLocal(from)) continue;
          frames.push_back(SeqFrame(from, to, next[from * n + to]++));
        }
      }
    }
    if (step % 2 == 0) {
      t.SendBatch(std::move(frames));
    } else {
      for (transport::WireFrame& frame : frames) t.Send(std::move(frame));
    }
  }
  for (std::uint32_t to = 0; to < n; ++to) {
    if (!t.IsLocal(to)) continue;
    for (std::uint32_t from = 0; from < n; ++from) {
      if (from == to) continue;
      for (std::uint64_t seq = 0; seq < 2 * kSendSteps; ++seq) {
        const transport::WireFrame frame = t.Recv(to, from);
        ASSERT_EQ(frame.type, transport::FrameType::kFactBatch);
        ASSERT_EQ(frame.from, from);
        ASSERT_EQ(frame.to, to);
        EXPECT_EQ(frame.payload, SeqFrame(from, to, seq).payload)
            << "channel " << from << "->" << to << " position " << seq;
      }
    }
  }
}

// One kTransportSend event per frame: 2 * kSendSteps per (from, to)
// channel, in send order, each carrying its frame's wire size.
void ExpectOneSendEventPerFrame(const obs::Tracer& tracer, std::size_t n,
                                const char* backend) {
  std::vector<std::uint64_t> sends(n * n, 0);
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.kind != obs::EventKind::kTransportSend) continue;
    ASSERT_TRUE(e.a < n && e.b < n && e.a != e.b) << backend;
    const std::uint64_t seq = sends[e.a * n + e.b]++;
    EXPECT_EQ(e.value, transport::FrameWireSize(SeqFrame(e.a, e.b, seq)))
        << backend << " channel " << e.a << "->" << e.b << " position "
        << seq;
  }
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      EXPECT_EQ(sends[from * n + to], 2 * kSendSteps)
          << backend << " channel " << from << "->" << to;
    }
  }
}

// A frame of 1 MiB whose payload starts with its channel position `seq`
// and is filled with a pattern of (from, to, seq).
transport::WireFrame BigFrame(std::uint32_t from, std::uint32_t to,
                              std::uint64_t seq) {
  std::vector<std::uint8_t> payload(1 << 20);
  payload[0] = static_cast<std::uint8_t>(seq);
  for (std::size_t i = 1; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(from * 31 + to * 7 + seq + i);
  }
  return {transport::kWireVersion, transport::FrameType::kFactBatch, from, to,
          std::move(payload)};
}

// One round of 17 MiB per channel handed over in a single SendBatch before
// any Recv: far more than the sockets hold, so the bytes must wait in
// userspace until each receiver drains them, in channel order.
void SendHugeRoundAndCheckFifo(transport::Transport& t) {
  constexpr std::uint64_t kFramesPerChannel = 17;
  const auto n = static_cast<std::uint32_t>(t.num_endpoints());
  std::vector<transport::WireFrame> frames;
  for (std::uint64_t seq = 0; seq < kFramesPerChannel; ++seq) {
    for (std::uint32_t from = 0; from < n; ++from) {
      for (std::uint32_t to = 0; to < n; ++to) {
        if (from != to) frames.push_back(BigFrame(from, to, seq));
      }
    }
  }
  t.SendBatch(std::move(frames));
  for (std::uint32_t to = 0; to < n; ++to) {
    for (std::uint32_t from = 0; from < n; ++from) {
      if (from == to) continue;
      for (std::uint64_t seq = 0; seq < kFramesPerChannel; ++seq) {
        const transport::WireFrame frame = t.Recv(to, from);
        ASSERT_EQ(frame.payload, BigFrame(from, to, seq).payload)
            << "channel " << from << "->" << to << " position " << seq;
      }
    }
  }
}

// A receiver already blocked on an empty channel must not keep senders
// out of its endpoint: the frame sent after it started waiting arrives.
void RecvWakesOnLaterSend(transport::Transport& t) {
  transport::WireFrame received;
  std::thread receiver([&t, &received] { received = t.Recv(1, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.Send(SeqFrame(0, 1, 0));
  receiver.join();
  EXPECT_EQ(received.payload, SeqFrame(0, 1, 0).payload);
}

// ------------------------------------------------------------ tests --

TEST(TransportDeterminismTest, SendBatchKeepsChannelsFifoOnEveryBackend) {
  constexpr std::size_t kEndpoints = 3;
  for (transport::TransportKind kind : kSocketBackends) {
    const char* backend = transport::TransportKindName(kind).data();
    {
      obs::Tracer tracer;
      obs::ScopedTracer install(tracer);
      const std::unique_ptr<transport::Transport> t =
          transport::MakeLoopbackTransport(kind, kEndpoints);
      SendInterleavedAndCheckFifo(*t);
      ExpectOneSendEventPerFrame(tracer, kEndpoints, backend);
    }
    SCOPED_TRACE(backend);
    SendHugeRoundAndCheckFifo(*transport::MakeLoopbackTransport(kind, 2));
    RecvWakesOnLaterSend(*transport::MakeLoopbackTransport(kind, 2));
  }
  // A p=2 mesh, ranks as threads: SendBatch is the default loop there.
  for (transport::TransportKind kind : kSocketBackends) {
    obs::Tracer tracer;
    obs::ScopedTracer install(tracer);
    transport::MeshSockets sockets(kind, 2);
    std::vector<std::thread> ranks;
    for (std::size_t r = 0; r < 2; ++r) {
      ranks.emplace_back([&sockets, r] {
        transport::MeshTransport mesh(sockets, r, {});
        SendInterleavedAndCheckFifo(mesh);
      });
    }
    for (std::thread& rank : ranks) rank.join();
    ExpectOneSendEventPerFrame(tracer, 2, "mesh");
  }
}

TEST(TransportDeterminismTest, MpcDigestsIdenticalAcrossBackends) {
  BackendRestorer restore;
  transport::SetActiveKind(transport::TransportKind::kInProcess);
  const RunDigest triangle = TriangleDigest();
  const RunDigest reshuffle = ReshuffleDigest(8);
  ASSERT_GT(triangle.wire_bytes, 0u);
  for (transport::TransportKind kind : kBackends) {
    transport::SetActiveKind(kind);
    EXPECT_EQ(TriangleDigest(), triangle)
        << "backend " << transport::TransportKindName(kind);
    EXPECT_EQ(ReshuffleDigest(8), reshuffle)
        << "backend " << transport::TransportKindName(kind);
  }
}

TEST(TransportDeterminismTest, MpcDigestsIdenticalAcrossBackendsAndThreads) {
  BackendRestorer restore;
  transport::SetActiveKind(transport::TransportKind::kInProcess);
  par::SetDefaultThreads(1);
  const RunDigest serial = TriangleDigest();
  for (transport::TransportKind kind : kBackends) {
    transport::SetActiveKind(kind);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      par::SetDefaultThreads(threads);
      EXPECT_EQ(TriangleDigest(), serial)
          << "backend " << transport::TransportKindName(kind) << " threads "
          << threads;
    }
  }
}

TEST(TransportDeterminismTest, MpcDigestsIdenticalAcrossServerCounts) {
  BackendRestorer restore;
  for (std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    transport::SetActiveKind(transport::TransportKind::kInProcess);
    const RunDigest repartition = RepartitionDigest(p);
    const RunDigest reshuffle = ReshuffleDigest(p);
    for (transport::TransportKind kind : kBackends) {
      transport::SetActiveKind(kind);
      EXPECT_EQ(RepartitionDigest(p), repartition)
          << "backend " << transport::TransportKindName(kind) << " p=" << p;
      EXPECT_EQ(ReshuffleDigest(p), reshuffle)
          << "backend " << transport::TransportKindName(kind) << " p=" << p;
    }
  }
}

// The first multi-round run across mesh endpoints: one simulator per rank,
// ranks as threads, frames over real sockets, empty batches to every
// remote peer — folding back to exactly the in-process digests.
TEST(TransportDeterminismTest, ThreadedMeshFoldsToInProcessDigests) {
  BackendRestorer restore;
  transport::SetActiveKind(transport::TransportKind::kInProcess);
  // The rank threads share the process-wide pool; keep it inline so no
  // rank can end up running another rank's chunk while that rank waits on
  // its frames.
  par::SetDefaultThreads(1);
  for (std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const RunDigest repartition = RepartitionDigest(p);
    const RunDigest reshuffle = ReshuffleDigest(p);
    for (transport::TransportKind kind : kSocketBackends) {
      EXPECT_EQ(RepartitionDigest(p, MeshThreads(kind)), repartition)
          << "mesh " << transport::TransportKindName(kind) << " p=" << p;
      EXPECT_EQ(ReshuffleDigest(p, MeshThreads(kind)), reshuffle)
          << "mesh " << transport::TransportKindName(kind) << " p=" << p;
    }
  }
}

TEST(TransportDeterminismTest, NetworkDigestsIdenticalAcrossBackends) {
  BackendRestorer restore;
  for (const auto& [name, digest] :
       {std::pair{"monotone broadcast", &NetworkDigest},
        std::pair{"component", &ComponentNetworkDigest}}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      transport::SetActiveKind(transport::TransportKind::kInProcess);
      const RunDigest reference = digest(seed);
      ASSERT_GT(reference.wire_bytes, 0u) << name << " seed " << seed;
      ASSERT_NE(reference.output, InstanceFingerprint(Instance()))
          << name << " seed " << seed;
      for (transport::TransportKind kind : kBackends) {
        transport::SetActiveKind(kind);
        EXPECT_EQ(digest(seed), reference)
            << name << " backend " << transport::TransportKindName(kind)
            << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace lamp
