// lamp_benchmark: end-to-end query workloads with a traced per-layer
// breakdown.
//
//   lamp_benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// One driver thread issues a query through the library's top-level entry
// point, waits for it, checks its output against the centralized answer
// (parallel-correctness: a distributed run must compute Q(I)) and issues
// the next: a closed loop with one client. The run sets the workload up
// afresh and then issues one block of kBlockQueries queries, over and over
// until S seconds have passed; the end-to-end metrics are medians over the
// blocks and the set-ups, each rescaled to a reference host speed by a
// fixed calibration kernel timed before and after it (see measure.h).
//
// Each workload's input has a fixed shape, drawn once from kShapeSeed.
// --seed changes the input only in ways no count can see (see
// ReorderWithinServers), so max_load, wire_bytes and the per-layer counts
// are the same for every seed, and a change to any of them is a change to
// the code.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every query of
// the loop twice, untraced and then with the library's obs::Tracer
// installed, and prints the per-layer metrics: the tracer's existing spans
// and events, a wrapper around the transducer program, and public layer
// calls timed on the workload's inputs. The last line of stdout is one
// JSON object; the exit code is 1 when any query's output was wrong, 2 on
// bad usage.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "measure.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "mpc/skew.h"
#include "net/datalog_program.h"
#include "net/network.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "transport/transport.h"
#include "transport/wire.h"

namespace lamp::bench {
namespace {

using Clock = std::chrono::steady_clock;

// One lane, so every lamp::par phase runs inline on the driver thread.
// At two lanes each phase waits for the pool's worker to wake on another
// vCPU. On a shared virtual machine that wait spread join_hash's
// query_p50_s over ten runs by 21% between the quartiles, against 7% at
// one lane.
constexpr std::size_t kThreads = 1;
constexpr std::size_t kWarmupQueries = 3;
constexpr std::uint64_t kShapeSeed = 7;
// Timed layer calls in the trace run report the median of this many.
constexpr std::size_t kLayerRepeats = 5;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double MedianCallSeconds(Fn&& fn) {
  obs::Histogram times;
  for (std::size_t r = 0; r < kLayerRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.Observe(SecondsSince(t0));
  }
  return times.P50();
}

/// The calibration kernel: hashing, sorting and allocator churn, the kinds
/// of work a query does, in code of its own that no change to the library
/// can speed up or slow down. On a shared virtual machine the speed of
/// such code drifts with the load of the host, by up to 30% from one second
/// to the next and by up to 40% from one process to the next; the median of
/// five calls measures that drift next to every block.
void CalibrationKernel() {
  std::uint64_t x = 12345;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 40;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 10000; ++i) table[next()] += i;
  std::uint64_t sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto it = table.find(next());
    if (it != table.end()) sum += it->second;
  }
  std::vector<std::uint64_t> sorted(10000);
  for (std::uint64_t& v : sorted) v = next();
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::vector<std::uint64_t>> live;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t r = next();
    live.emplace_back(r % 16 + 1, r);
    if (live.size() > 500) live.erase(live.begin() + (r % 500));
  }
  // Keeps the compiler from dropping the work.
  asm volatile("" : : "r"(sum + sorted[7] + live.size()) : "memory");
}

using Values = std::map<std::string, double>;

/// What one query reports besides its output.
struct QueryCounts {
  std::size_t max_load = 0;    // Tuples received by the busiest server.
  std::size_t wire_bytes = 0;  // lamp.wire.v1 bytes of all frames.
  std::size_t total_load = 0;  // Tuples communicated.
  std::size_t rounds = 0;      // MPC rounds; 0 for the network.
  double load_imbalance = 0;   // Max over rounds of max / mean load.
  std::size_t transitions = 0;  // Network deliveries; 0 for MPC.
  double node_compute_s = 0;    // Time inside the node program.
  double redundancy = 0;  // Network: facts sent / ((n-1) |EDB u IDB|).
};

struct QueryResult {
  Instance output;
  QueryCounts counts;
};

/// One workload: its inputs, its query and the layer calls it exercises.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from \p seed, parses the query and solves any
  /// shares LP: the part of set-up that precedes the warm-up queries.
  virtual void Setup(std::uint64_t seed) = 0;

  /// Runs one query on input variant \p variant (< NumVariants()).
  virtual QueryResult Query(std::size_t variant) = 0;

  /// The centralized answer, computed once outside timing.
  virtual Instance Reference() = 0;

  virtual std::size_t InputTuples() const = 0;

  /// Query i runs variant i % NumVariants(); count metrics are medians
  /// over the variants, one sample each, so they do not depend on how
  /// many queries a run issued.
  virtual std::size_t NumVariants() const { return 1; }

  /// Times public layer calls on the workload's inputs (trace run).
  virtual void MeasureLayers(Values& out) = 0;
};

/// transport.encode_s / decode_s: the lamp.wire.v1 fact-batch codec over
/// \p input split round-robin into \p batches batches.
void MeasureCodec(const Instance& input, std::size_t batches, Values& out) {
  std::vector<std::vector<transport::RowRef>> split(batches);
  std::size_t k = 0;
  for (RelationId rel = 0; rel < input.NumRelationIds(); ++rel) {
    const RowsView rows = input.RowsOf(rel);
    for (std::size_t i = 0; i < rows.num_rows; ++i, ++k) {
      split[k % batches].push_back(transport::RowRef{
          rel, rows.Row(i), static_cast<std::uint32_t>(rows.arity)});
    }
  }
  std::vector<std::vector<std::uint8_t>> payloads(batches);
  out["transport.encode_s"] = MedianCallSeconds([&] {
    for (std::size_t b = 0; b < batches; ++b) {
      payloads[b] = transport::EncodeFactBatchPayload(0, split[b]);
    }
  });
  out["transport.decode_s"] = MedianCallSeconds([&] {
    std::size_t decoded = 0;
    for (const std::vector<std::uint8_t>& payload : payloads) {
      const auto batch = transport::DecodeFactBatchPayload(payload);
      LAMP_CHECK(batch.has_value());
      decoded += batch->facts.size();
    }
    LAMP_CHECK(decoded == input.Size());
  });
}

/// relational.insert_rows_per_s: InsertRows of \p input into a fresh
/// instance.
void MeasureInsert(const Instance& input, Values& out) {
  const double seconds = MedianCallSeconds([&] {
    Instance fresh;
    for (RelationId rel = 0; rel < input.NumRelationIds(); ++rel) {
      const RowsView rows = input.RowsOf(rel);
      if (rows.empty()) continue;
      fresh.InsertRows(rel, rows.data, rows.num_rows, rows.arity);
    }
    LAMP_CHECK(fresh.Size() == input.Size());
  });
  out["relational.insert_rows_per_s"] =
      static_cast<double>(input.Size()) / seconds;
}

/// A copy of \p shape with its facts shuffled by \p rng among the
/// positions that MpcSimulator::LoadInput and DistributeRoundRobin deal to
/// the same server: both deal an instance's facts round-robin over
/// \p servers in iteration order (relation, then insertion order). Every
/// server therefore starts with the facts it gets from \p shape and
/// handles them alike, so every load and wire byte is that of \p shape;
/// what the seed changes is the order in which the servers store, index
/// and join them.
Instance ReorderWithinServers(const Instance& shape, std::size_t servers,
                              Rng& rng) {
  const std::vector<Fact> facts = shape.AllFacts();
  std::map<std::pair<RelationId, std::size_t>, std::vector<std::size_t>>
      classes;
  for (std::size_t i = 0; i < facts.size(); ++i) {
    classes[{facts[i].relation, i % servers}].push_back(i);
  }
  std::vector<std::size_t> order(facts.size());
  for (const auto& [key, positions] : classes) {
    std::vector<std::size_t> shuffled = positions;
    rng.Shuffle(shuffled);
    for (std::size_t k = 0; k < positions.size(); ++k) {
      order[positions[k]] = shuffled[k];
    }
  }
  Instance out;
  for (std::size_t i : order) out.Insert(facts[i]);
  return out;
}

/// The three MPC workloads: one query is one call of an algorithm of
/// src/mpc on the whole input over p simulated servers.
class MpcWorkload : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    transport::SetActiveKind(kind_);
    query_ = ParseQuery(schema_, query_text_);
    Rng shape_rng(kShapeSeed);
    Instance shape;
    Generate(shape_rng, shape);
    Rng rng(seed);
    input_ = ReorderWithinServers(shape, servers_, rng);
  }

  QueryResult Query(std::size_t) override {
    MpcRunResult run = Run();
    QueryCounts c;
    c.max_load = run.stats.MaxLoad();
    c.wire_bytes = run.stats.TotalWireBytes();
    c.total_load = run.stats.TotalCommunication();
    c.rounds = run.stats.NumRounds();
    for (const RoundStats& round : run.stats.rounds) {
      if (round.AvgLoad() > 0) {
        c.load_imbalance = std::max(
            c.load_imbalance,
            static_cast<double>(round.MaxLoad()) / round.AvgLoad());
      }
    }
    return {std::move(run.output), c};
  }

  Instance Reference() override { return Evaluate(query_, input_); }

  std::size_t InputTuples() const override { return input_.Size(); }

  void MeasureLayers(Values& out) override {
    Shares shares;
    out["lp.shares_s"] =
        MedianCallSeconds([&] { shares = LpRoundedShares(query_, servers_); });

    const HypercubePolicy policy(query_, shares, MakeUniverse(1));
    std::size_t targets = 0;
    out["distribution.route_s"] = MedianCallSeconds([&] {
      targets = 0;
      input_.ForEachFact([&](const Fact& f) {
        targets += policy.ResponsibleNodes(f).size();
      });
    });
    out["distribution.fanout"] =
        static_cast<double>(targets) / static_cast<double>(input_.Size());

    CqEvalStats stats;
    std::size_t outputs = 0;
    out["cq.eval_s"] = MedianCallSeconds([&] {
      stats = CqEvalStats();
      outputs = Evaluate(query_, input_, &stats).Size();
    });
    out["cq.rows_scanned_per_output"] =
        static_cast<double>(stats.rows_scanned) /
        static_cast<double>(std::max<std::size_t>(outputs, 1));

    MeasureInsert(input_, out);
    MeasureCodec(input_, servers_, out);
  }

 protected:
  MpcWorkload(const char* query_text, std::size_t servers,
              transport::TransportKind kind)
      : query_text_(query_text), servers_(servers), kind_(kind) {}

  /// Adds the input's shape, drawn from \p rng, to \p out.
  virtual void Generate(Rng& rng, Instance& out) = 0;
  virtual MpcRunResult Run() = 0;

  const char* query_text_;
  const std::size_t servers_;
  const transport::TransportKind kind_;
  Schema schema_;
  ConjunctiveQuery query_;
  Instance input_;
};

/// The balanced one-round case: a repartition (hash) join of two matching
/// relations, so every y joins exactly once and no server is skewed.
class JoinHash : public MpcWorkload {
 public:
  JoinHash()
      : MpcWorkload("H(x,y,z) <- R(x,y), S(y,z)", 64,
                    transport::TransportKind::kInProcess) {}

 private:
  static constexpr std::size_t kTuples = 4000;

  void Generate(Rng& rng, Instance& out) override {
    // R's y column and S's y column both use [m, 2m).
    const auto m = static_cast<std::int64_t>(kTuples);
    AddMatchingRelation(schema_, schema_.IdOf("R"), kTuples, 0, rng, out);
    AddMatchingRelation(schema_, schema_.IdOf("S"), kTuples, m, rng, out);
  }

  MpcRunResult Run() override {
    return RepartitionJoin(query_, input_, servers_);
  }
};

/// HyperCube on the 4-cycle with LP shares (4,4,4,4): every fact goes to
/// 16 of 256 servers, so routing and merging dominate.
class Cycle4HyperCube : public MpcWorkload {
 public:
  Cycle4HyperCube()
      : MpcWorkload("H(x,y,z,w) <- R0(x,y), R1(y,z), R2(z,w), R3(w,x)", 256,
                    transport::TransportKind::kInProcess) {}

  void Setup(std::uint64_t seed) override {
    MpcWorkload::Setup(seed);
    shares_ = LpRoundedShares(query_, servers_);
  }

 private:
  static constexpr std::size_t kEdges = 300;
  static constexpr std::size_t kVertices = 85;

  void Generate(Rng& rng, Instance& out) override {
    for (const char* rel : {"R0", "R1", "R2", "R3"}) {
      AddRandomGraph(schema_, schema_.IdOf(rel), kEdges, kVertices, rng, out);
    }
  }

  MpcRunResult Run() override { return RunHyperCube(query_, input_, shares_); }

  Shares shares_;
};

/// The two-round skew-resilient triangle over the TCP loopback backend:
/// half of R has y = 0, planted triangles through the heavy value and
/// through fresh light values make both rounds produce output.
class TriangleSkewTcp : public MpcWorkload {
 public:
  TriangleSkewTcp()
      : MpcWorkload("H(x,y,z) <- R(x,y), S(y,z), T(z,x)", 16,
                    transport::TransportKind::kTcp) {}

 private:
  static constexpr std::size_t kTuples = 2000;
  static constexpr std::size_t kHeavyS = 60;
  static constexpr std::size_t kPlanted = 30;

  void Generate(Rng& rng, Instance& out) override {
    const RelationId r = schema_.IdOf("R");
    const RelationId s = schema_.IdOf("S");
    const RelationId t = schema_.IdOf("T");
    const auto m = static_cast<std::int64_t>(kTuples);
    for (std::int64_t x = 0; x < m / 2; ++x) out.Insert(Fact(r, {x, 0}));
    for (std::int64_t z = 0; z < static_cast<std::int64_t>(kHeavyS); ++z) {
      out.Insert(Fact(s, {0, z}));
    }
    AddUniformRelation(schema_, r, kTuples / 2, 8 * kTuples, rng, out);
    AddUniformRelation(schema_, s, kTuples - kHeavyS, 8 * kTuples, rng,
                       out);
    AddUniformRelation(schema_, t, kTuples, 8 * kTuples, rng, out);
    for (std::int64_t k = 0; k < static_cast<std::int64_t>(kPlanted); ++k) {
      // Heavy: R(k,0), S(0,k), T(k,k).
      out.Insert(Fact(t, {k, k}));
      // Light: a fresh y = b outside the uniform domain.
      const std::int64_t a = 8 * m + 3 * k;
      out.Insert(Fact(r, {a, a + 1}));
      out.Insert(Fact(s, {a + 1, a + 2}));
      out.Insert(Fact(t, {a + 2, a}));
    }
  }

  MpcRunResult Run() override {
    return SkewResilientTriangle(query_, input_, servers_);
  }
};

/// Forwards to a node program, counting the facts each node receives and
/// the time spent inside its transitions.
class MeteredProgram : public TransducerProgram {
 public:
  MeteredProgram(TransducerProgram& inner, std::size_t nodes)
      : inner_(inner), received_(nodes, 0) {}

  void OnStart(NodeContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    inner_.OnStart(ctx);
    busy_s_ += SecondsSince(t0);
  }

  void OnReceive(NodeContext& ctx, const Message& message) override {
    received_[ctx.self()] += message.size();
    const Clock::time_point t0 = Clock::now();
    inner_.OnReceive(ctx, message);
    busy_s_ += SecondsSince(t0);
  }

  std::size_t MaxReceived() const {
    return *std::max_element(received_.begin(), received_.end());
  }
  double busy_s() const { return busy_s_; }

 private:
  TransducerProgram& inner_;
  std::vector<std::size_t> received_;
  double busy_s_ = 0;
};

/// Transitive closure as the Datalog node program of a 4-node transducer
/// network. Query i runs scheduler seed i % kSchedules, so every run
/// replays the same schedules.
class TcNetwork : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    transport::SetActiveKind(transport::TransportKind::kInProcess);
    program_ = ParseProgram(schema_,
                            "TC(x,y) <- E(x,y)\n"
                            "TC(x,y) <- TC(x,z), E(z,y)");
    node_program_ = std::make_unique<DistributedDatalogProgram>(schema_,
                                                                program_);
    // A Hamiltonian cycle, so that |TC| = kVertices^2, plus random chords.
    const RelationId e = schema_.IdOf("E");
    constexpr auto n = static_cast<std::int64_t>(kVertices);
    Instance shape;
    for (std::int64_t v = 0; v < n; ++v) {
      shape.Insert(Fact(e, {v, (v + 1) % n}));
    }
    Rng shape_rng(kShapeSeed);
    AddRandomGraph(schema_, e, kEdges - kVertices, kVertices, shape_rng, shape);
    Rng rng(seed);
    edges_ = ReorderWithinServers(shape, kNodes, rng);
    locals_ = DistributeRoundRobin(edges_, kNodes);
  }

  QueryResult Query(std::size_t variant) override {
    MeteredProgram metered(*node_program_, kNodes);
    TransducerNetwork net(locals_, metered, nullptr, /*aware=*/false);
    NetworkRunResult run = net.Run(variant);
    QueryCounts c;
    c.max_load = metered.MaxReceived();
    c.wire_bytes = run.wire_bytes();
    c.total_load = run.facts_transferred();
    c.transitions = run.transitions();
    c.node_compute_s = metered.busy_s();
    // Sending every EDB and IDB fact once to each other node is the least
    // a broadcast pipeline can do; the output is the IDB.
    c.redundancy = static_cast<double>(c.total_load) /
                   static_cast<double>((kNodes - 1) *
                                       (edges_.Size() + run.output.Size()));
    return {std::move(run.output), c};
  }

  Instance Reference() override {
    const Instance everything = EvaluateProgram(schema_, program_, edges_);
    Instance closure;
    everything.ForEachFactOf(schema_.IdOf("TC"),
                             [&closure](const Fact& f) { closure.Insert(f); });
    return closure;
  }

  std::size_t InputTuples() const override { return edges_.Size(); }
  std::size_t NumVariants() const override { return kSchedules; }

  void MeasureLayers(Values& out) override {
    DatalogStats stats;
    out["datalog.eval_s"] = MedianCallSeconds([&] {
      stats = DatalogStats();
      EvaluateProgram(schema_, program_, edges_, &stats);
    });
    out["datalog.rows_scanned"] = static_cast<double>(stats.rows_scanned);
    MeasureInsert(edges_, out);
    MeasureCodec(edges_, kNodes, out);
  }

 private:
  static constexpr std::size_t kEdges = 84;
  static constexpr std::size_t kVertices = 30;
  static constexpr std::size_t kNodes = 4;
  static constexpr std::size_t kSchedules = 50;
  // Every block runs every schedule equally often.
  static_assert(kBlockQueries % kSchedules == 0);

  Schema schema_;
  DatalogProgram program_;
  std::unique_ptr<DistributedDatalogProgram> node_program_;
  Instance edges_;
  std::vector<Instance> locals_;
};

constexpr const char* kWorkloads[] = {"join_hash", "cycle4_hypercube",
                                      "triangle_skew_tcp", "tc_network"};

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "join_hash") return std::make_unique<JoinHash>();
  if (name == "cycle4_hypercube") return std::make_unique<Cycle4HyperCube>();
  if (name == "triangle_skew_tcp") return std::make_unique<TriangleSkewTcp>();
  if (name == "tc_network") return std::make_unique<TcNetwork>();
  return nullptr;
}

/// One query of a loop; the trace fields stay zero on untraced queries.
struct Sample {
  std::size_t variant = 0;
  double query_s = 0;
  QueryCounts counts;
  double comm_s = 0;      // mpc.route spans: route, exchange and merge.
  double compute_s = 0;   // mpc.compute spans.
  double exchange_s = 0;  // First send to last recv, summed over rounds.
  std::size_t frames = 0;
  std::size_t iterations = 0;
  std::size_t eval_calls = 0;
};

void ReadTrace(const obs::Tracer& tracer, Sample& s) {
  // Nanosecond stamps of the current round's first send and last recv;
  // 0 = none yet.
  std::uint64_t first_send = 0;
  std::uint64_t last_recv = 0;
  for (const obs::TraceEvent& e : tracer.Events()) {
    switch (e.kind) {
      case obs::EventKind::kSpan: {
        const std::string_view label = e.label == nullptr ? "" : e.label;
        const double seconds = static_cast<double>(e.value) * 1e-9;
        if (label == "mpc.route") s.comm_s += seconds;
        if (label == "mpc.compute") s.compute_s += seconds;
        break;
      }
      case obs::EventKind::kMpcRoundBegin:
        first_send = 0;
        last_recv = 0;
        break;
      case obs::EventKind::kTransportSend:
        ++s.frames;
        if (first_send == 0) first_send = e.t_ns;
        break;
      case obs::EventKind::kTransportRecv:
        last_recv = e.t_ns;
        break;
      case obs::EventKind::kMpcRoundEnd:
        if (first_send != 0 && last_recv > first_send) {
          s.exchange_s += static_cast<double>(last_recv - first_send) * 1e-9;
        }
        break;
      case obs::EventKind::kDatalogIteration:
        ++s.iterations;
        // Every evaluation starts with iteration 0 of stratum 0.
        if (e.a == 0 && e.b == 0) ++s.eval_calls;
        break;
      default:
        break;
    }
  }
}

struct LoopResult {
  QueryLog log;
  std::vector<Sample> samples;
  std::uint64_t dropped = 0;
};

/// Issues one query, times it, checks its output outside the timed region
/// and, when \p tracer is set, reads and clears the trace.
Sample RunQuery(Workload& w, const Instance& reference, std::size_t variant,
                obs::Tracer* tracer, LoopResult& out) {
  Sample s;
  s.variant = variant;
  QueryResult result;
  {
    std::optional<obs::ScopedTracer> install;
    if (tracer != nullptr) install.emplace(*tracer);
    const Clock::time_point t0 = Clock::now();
    result = w.Query(variant);
    s.query_s = SecondsSince(t0);
  }
  out.log.Record(s.query_s, result.output == reference);
  s.counts = result.counts;
  if (tracer != nullptr) {
    ReadTrace(*tracer, s);
    out.dropped += tracer->dropped();
    tracer->Clear();
  }
  return s;
}

/// Sets workload \p name up from \p seed: inputs, parse, shares LP and
/// the warm-up queries, timed into \p setup_s.
std::unique_ptr<Workload> SetUp(std::string_view name, std::uint64_t seed,
                                std::vector<double>& setup_s) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Workload> w = MakeWorkload(name);
  w->Setup(seed);
  for (std::size_t q = 0; q < kWarmupQueries; ++q) {
    w->Query(q % w->NumVariants());
  }
  setup_s.push_back(SecondsSince(t0));
  return w;
}

struct Run {
  std::unique_ptr<Workload> workload;  // The last one set up.
  std::vector<double> setup_s;  // One per block, just before it.
  // The calibration kernel's time before each set-up and after the last
  // block.
  std::vector<double> probe_s;
  LoopResult untraced;
  LoopResult traced;
};

/// The closed loop: the calibration kernel, a fresh set-up and then a
/// block of kBlockQueries queries, until \p seconds have passed, and the
/// kernel once more. Set-ups spread over the run like this meet the same
/// host as the queries do. The kernel runs while no workload is alive,
/// apart from the last time, so its memory is memory the workload freed.
/// The reference answer is computed once, after the first set-up, outside
/// all timing. With \p tracer set, every untraced query is followed by the
/// same query traced, so drift during the run cannot pose as tracing
/// overhead.
Run RunLoop(std::string_view name, std::uint64_t seed, double seconds,
            obs::Tracer* tracer) {
  Run run;
  std::optional<Instance> reference;
  const Clock::time_point start = Clock::now();
  for (std::size_t block = 0; block == 0 || SecondsSince(start) < seconds;
       ++block) {
    run.workload.reset();
    run.probe_s.push_back(MedianCallSeconds(CalibrationKernel));
    run.workload = SetUp(name, seed, run.setup_s);
    Workload& w = *run.workload;
    if (!reference) reference = w.Reference();
    for (std::size_t q = 0; q < kBlockQueries; ++q) {
      const std::size_t variant = q % w.NumVariants();
      const Sample s = RunQuery(w, *reference, variant, nullptr, run.untraced);
      // Untraced samples only give the counts, which the first block
      // already has for every variant; keeping them all would make
      // peak_rss_mb grow with the number of queries.
      if (block == 0) run.untraced.samples.push_back(s);
      if (tracer != nullptr) {
        run.traced.samples.push_back(
            RunQuery(w, *reference, variant, tracer, run.traced));
      }
    }
  }
  run.probe_s.push_back(MedianCallSeconds(CalibrationKernel));
  return run;
}

/// The high-water mark of this process's resident memory. getrusage's
/// ru_maxrss would also count the parent's memory at fork, such as a
/// Python launcher's, whenever that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0;
}

template <typename Fn>
double MedianOver(const std::vector<Sample>& samples, Fn field) {
  obs::Histogram h;
  for (const Sample& s : samples) h.Observe(field(s));
  return h.P50();
}

/// Median over the workload's variants, taking each variant's first
/// sample, so the value does not depend on how many queries ran.
template <typename Fn>
double VariantMedian(const std::vector<Sample>& samples, Fn field) {
  obs::Histogram h;
  std::vector<bool> seen;
  for (const Sample& s : samples) {
    if (s.variant >= seen.size()) seen.resize(s.variant + 1, false);
    if (seen[s.variant]) continue;
    seen[s.variant] = true;
    h.Observe(static_cast<double>(field(s)));
  }
  return h.P50();
}

/// Fills \p out with the end-to-end times of \p run, each block and set-up
/// rescaled by \p scales.
void Times(const Run& run, const std::vector<double>& scales, Values& out) {
  const std::vector<double>& times = run.untraced.log.seconds();
  out["query_p50_s"] = BlockPercentile(times, scales, 50);
  out["query_p90_s"] = BlockPercentile(times, scales, 90);
  out["throughput_tuples_per_s"] =
      BlockThroughput(times, scales, run.workload->InputTuples());
  std::vector<double> setups;
  for (std::size_t b = 0; b < scales.size(); ++b) {
    setups.push_back(run.setup_s[b] * scales[b]);
  }
  out["setup_s"] = Median(setups);
}

void EndToEndMetrics(const Run& run, Values& out) {
  const std::vector<Sample>& samples = run.untraced.samples;
  Times(run, BlockScales(run.probe_s), out);
  out["peak_rss_mb"] = PeakRssMb();
  out["max_load"] = VariantMedian(
      samples, [](const Sample& s) { return s.counts.max_load; });
  out["wire_bytes"] = VariantMedian(
      samples, [](const Sample& s) { return s.counts.wire_bytes; });
}

void PerLayerMetrics(const Run& run, Values& out) {
  const std::vector<Sample>& s = run.traced.samples;
  const bool mpc = s.front().counts.rounds > 0;
  if (mpc) {
    out["mpc.comm_s"] = MedianOver(s, [](const Sample& x) { return x.comm_s; });
    out["mpc.compute_s"] =
        MedianOver(s, [](const Sample& x) { return x.compute_s; });
    out["mpc.other_s"] = MedianOver(s, [](const Sample& x) {
      return x.query_s - x.comm_s - x.compute_s;
    });
    out["mpc.total_load"] =
        VariantMedian(s, [](const Sample& x) { return x.counts.total_load; });
    out["mpc.rounds"] =
        VariantMedian(s, [](const Sample& x) { return x.counts.rounds; });
    out["mpc.load_imbalance"] = VariantMedian(
        s, [](const Sample& x) { return x.counts.load_imbalance; });
  } else {
    out["net.node_compute_s"] =
        MedianOver(s, [](const Sample& x) { return x.counts.node_compute_s; });
    out["net.runtime_s"] = MedianOver(s, [](const Sample& x) {
      return x.query_s - x.counts.node_compute_s;
    });
    out["net.transitions"] =
        VariantMedian(s, [](const Sample& x) { return x.counts.transitions; });
    out["net.facts_transferred"] =
        VariantMedian(s, [](const Sample& x) { return x.counts.total_load; });
    out["net.redundancy"] =
        VariantMedian(s, [](const Sample& x) { return x.counts.redundancy; });
  }
  out["transport.frames"] =
      VariantMedian(s, [](const Sample& x) { return x.frames; });
  out["transport.exchange_s"] =
      MedianOver(s, [](const Sample& x) { return x.exchange_s; });
  out["transport.bytes_per_tuple"] = VariantMedian(s, [](const Sample& x) {
    return static_cast<double>(x.counts.wire_bytes) /
           static_cast<double>(std::max<std::size_t>(x.counts.total_load, 1));
  });
  out["datalog.eval_calls"] =
      VariantMedian(s, [](const Sample& x) { return x.eval_calls; });
  out["datalog.iterations"] =
      VariantMedian(s, [](const Sample& x) { return x.iterations; });
  const std::vector<double> scales = BlockScales(run.probe_s);
  out["trace.overhead"] =
      BlockPercentile(run.traced.log.seconds(), scales, 50) /
          BlockPercentile(run.untraced.log.seconds(), scales, 50) -
      1.0;
  out["trace.dropped"] = static_cast<double>(run.traced.dropped);
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json. A per-layer metric of a
// layer the workload does not reach reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"query_p50_s", "s"},           {"query_p90_s", "s"},
    {"throughput_tuples_per_s", "tuples/s"},
    {"setup_s", "s"},               {"peak_rss_mb", "MB"},
    {"max_load", "tuples"},         {"wire_bytes", "bytes"},
};
constexpr MetricDef kPerLayer[] = {
    {"mpc.comm_s", "s"},
    {"mpc.compute_s", "s"},
    {"mpc.other_s", "s"},
    {"mpc.total_load", "tuples"},
    {"mpc.rounds", "count"},
    {"mpc.load_imbalance", "ratio"},
    {"distribution.route_s", "s"},
    {"distribution.fanout", "servers/tuple"},
    {"cq.eval_s", "s"},
    {"cq.rows_scanned_per_output", "rows/tuple"},
    {"relational.insert_rows_per_s", "rows/s"},
    {"lp.shares_s", "s"},
    {"transport.frames", "count"},
    {"transport.exchange_s", "s"},
    {"transport.encode_s", "s"},
    {"transport.decode_s", "s"},
    {"transport.bytes_per_tuple", "bytes/tuple"},
    {"net.node_compute_s", "s"},
    {"net.runtime_s", "s"},
    {"net.transitions", "count"},
    {"net.facts_transferred", "tuples"},
    {"net.redundancy", "ratio"},
    {"datalog.eval_calls", "count"},
    {"datalog.iterations", "count"},
    {"datalog.eval_s", "s"},
    {"datalog.rows_scanned", "rows"},
    {"trace.overhead", "ratio"},
    {"trace.dropped", "count"},
};

template <std::size_t N>
void Report(const MetricDef (&defs)[N], const Values& values,
            std::size_t attempted, std::size_t failed) {
  obs::JsonValue metrics = obs::JsonValue::Object();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%-30s %16.9g %s\n", d.name, value, d.unit);
    obs::JsonValue m = obs::JsonValue::Object();
    m.Set("value", value);
    m.Set("unit", d.unit);
    metrics.Set(d.name, std::move(m));
  }
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("%-30s %16.9g %s\n", "error_rate", error_rate, "ratio");
  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("correct", failed == 0);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: lamp_benchmark --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const char* name : kWorkloads) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  if (argc % 2 != 1) return Usage();
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], &end, 10);
      if (value.empty() || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], &end);
      if (value.empty() || *end != '\0') return Usage();
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (MakeWorkload(workload) == nullptr || !(seconds > 0)) return Usage();

  // Freed memory stays in the process, so a query in the steady state
  // takes no page faults, whose cost on a virtual machine moves with the
  // host's load.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  par::SetDefaultThreads(kThreads);

  Values values;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  if (!trace) {
    const Run run = RunLoop(workload, seed, seconds, nullptr);
    EndToEndMetrics(run, values);
    attempted = run.untraced.log.attempted();
    failed = run.untraced.log.failed();
    std::printf("# %s: %zu queries in %zu blocks, each after a set-up\n",
                workload.c_str(), attempted, run.setup_s.size());
    // The same times uncalibrated, for reading next to the metrics.
    Values wall;
    Times(run, std::vector<double>(run.setup_s.size(), 1.0), wall);
    std::printf("# calibration kernel %.9g s (median), reference %.9g s\n",
                Median(run.probe_s), kReferenceProbeSeconds);
    for (const auto& [name, value] : wall) {
      std::printf("# uncalibrated %-23s %16.9g\n", name.c_str(), value);
    }
    Report(kEndToEnd, values, attempted, failed);
  } else {
    obs::Tracer tracer;
    const Run run = RunLoop(workload, seed, seconds, &tracer);
    PerLayerMetrics(run, values);
    run.workload->MeasureLayers(values);
    attempted = run.untraced.log.attempted() + run.traced.log.attempted();
    failed = run.untraced.log.failed() + run.traced.log.failed();
    std::printf("# %s --trace: %zu queries, each untraced and traced\n",
                workload.c_str(), run.untraced.log.attempted());
    Report(kPerLayer, values, attempted, failed);
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lamp::bench

int main(int argc, char** argv) { return lamp::bench::Main(argc, argv); }
