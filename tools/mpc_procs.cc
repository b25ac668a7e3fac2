// mpc_procs: the MPC model on real processes — one OS process per server,
// a lamp.wire.v1 socket mesh between them, and the in-process MpcSimulator
// as the ground truth the distributed run must reproduce byte-for-byte.
//
// This tool is a launch shell. The parent binds the mesh's sockets
// (transport::MeshSockets), forks one worker per rank, and each worker
// claims its seat, connects a transport::MeshTransport (rank handshake,
// ring seed exchange, trace-context negotiation) and runs the unchanged
// MpcSimulator round over it: LoadInput -> RunRound -> report. The parent
// then compares every rank's load, wire bytes and received state, and the
// union of the outputs, against the in-process reference run. Each run
// writes one "mpc_procs" bench record (obs/bench_report.h) carrying a
// lamp.audit.v1 entry: measured loads and wire bytes next to the
// strategy's closed-form bound, exactly like the benches, gated by
// `obs_audit report --check`.
//
// Exit codes: 0 ok, 1 mismatch vs the in-process reference, 2 usage.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "mpc/simulator.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/audit/causal.h"
#include "obs/bench_report.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "transport/transport.h"
#include "transport/wire.h"

namespace {

using namespace lamp;

// --- scenarios ----------------------------------------------------------

/// bench_hypercube_load's E3 input: matching relations, the BKS skew-free
/// extreme (kept in sync so the bounds audited here are the bench's).
Instance MatchingInput(Schema& schema, const ConjunctiveQuery& q,
                       std::size_t m) {
  Rng rng(11);
  Instance db;
  std::int64_t base = 0;
  for (const Atom& atom : q.body()) {
    AddMatchingRelation(schema, atom.relation, m, base, rng, db);
    base += static_cast<std::int64_t>(2 * m);
  }
  return db;
}

/// bench_join_strategies' E1 workloads: a skew-free matching join and a
/// skewed variant where half of R shares one join value.
struct JoinWorkload {
  Instance skew_free;
  Instance skewed;

  JoinWorkload(const Schema& schema, RelationId r, RelationId s,
               std::size_t m) {
    Rng rng(1);
    AddMatchingRelation(schema, r, m, 0, rng, skew_free);
    AddMatchingRelation(schema, s, m, static_cast<std::int64_t>(m), rng,
                        skew_free);
    for (std::size_t i = 0; i < m / 2; ++i) {
      skewed.Insert(Fact(r, {static_cast<std::int64_t>(i), 0}));
    }
    for (std::size_t i = 0; i < 10; ++i) {
      skewed.Insert(Fact(s, {0, static_cast<std::int64_t>(i)}));
    }
    AddUniformRelation(schema, r, m / 2, 16 * m, rng, skewed);
    AddUniformRelation(schema, s, m - 10, 16 * m, rng, skewed);
  }
};

/// One distributed workload: every process (parent and children) builds
/// its own copy deterministically from (name, procs, m, base seed).
struct Scenario {
  std::string name;
  Schema schema;
  ConjunctiveQuery query;
  Instance input;
  std::size_t servers = 0;        // One process per server.
  std::uint64_t routing_seed = 0; // RingSeed(base, servers).
  MpcSimulator::Router route;
  obs::audit::Strategy strategy = obs::audit::Strategy::kNone;
  bool expected_violation = false;
  Shares shares;                              // Hypercube scenarios only.
  std::unique_ptr<HypercubePolicy> policy;    // Keeps their router alive.
};

const char* const kScenarioNames[] = {
    "hypercube_join",  "hypercube_triangle",  "repartition",
    "repartition_skewed", "fragment_replicate",
};

Scenario BuildScenario(const std::string& name, std::size_t procs,
                       std::size_t m, std::uint64_t base_seed) {
  LAMP_CHECK(procs >= 1);
  Scenario s;
  s.name = name;
  if (name == "hypercube_join" || name == "hypercube_triangle") {
    const char* text = name == "hypercube_join"
                           ? "H(x,y,z) <- R0(x,y), R1(y,z)"
                           : "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)";
    s.query = ParseQuery(s.schema, text);
    s.input = MatchingInput(s.schema, s.query, m);
    s.shares = LpRoundedShares(s.query, procs);
    s.servers = 1;
    for (std::size_t a : s.shares) s.servers *= a;
    s.routing_seed = transport::RingSeed(base_seed, s.servers);
    s.policy = std::make_unique<HypercubePolicy>(s.query, s.shares,
                                                 MakeUniverse(1),
                                                 s.routing_seed);
    s.route = [policy = s.policy.get()](NodeId, const Fact& f) {
      return policy->ResponsibleNodes(f);
    };
    s.strategy = obs::audit::Strategy::kHyperCube;
    return s;
  }

  s.query = ParseQuery(s.schema, "H(x,y,z) <- R(x,y), S(y,z)");
  const RelationId r = s.schema.IdOf("R");
  const RelationId sid = s.schema.IdOf("S");
  JoinWorkload w(s.schema, r, sid, m);
  s.servers = procs;
  s.routing_seed = transport::RingSeed(base_seed, s.servers);
  if (name == "repartition" || name == "repartition_skewed") {
    s.input = name == "repartition" ? std::move(w.skew_free)
                                    : std::move(w.skewed);
    s.route = RepartitionRouter(s.query, s.servers, s.routing_seed);
    s.strategy = obs::audit::Strategy::kRepartition;
    // The heavy join value pins half of R on one server: the m/p bound is
    // *supposed* to break (claim (1a)); keep it exempt from hard fail.
    s.expected_violation = name == "repartition_skewed";
  } else if (name == "fragment_replicate") {
    s.input = std::move(w.skewed);
    s.route = FragmentReplicateRouter(s.query, s.servers, s.routing_seed);
    s.strategy = obs::audit::Strategy::kFragmentReplicate;
  } else {
    std::fprintf(stderr, "mpc_procs: unknown scenario '%s'\n", name.c_str());
    std::exit(2);
  }
  return s;
}

/// Order-independent fingerprint of an instance (sum of mixed fact
/// hashes): stable across merge orders, printable next to the reference.
std::uint64_t InstanceDigest(const Instance& inst) {
  std::uint64_t digest = 0;
  inst.ForEachFact([&digest](const Fact& f) {
    digest += HashMix(FactHash()(f));
  });
  return digest;
}

// --- distributed tracing ------------------------------------------------

/// Tracing configuration shared by the parent and every worker. The
/// parent derives it once per run; workers recompute nothing — the trace
/// id is a pure function of (seed, mesh size, label), so all processes
/// agree on it without a negotiation round.
struct TraceConfig {
  std::string prefix;  // $LAMP_TRACE_SHARD; empty = tracing off.
  std::string label;   // "<scenario>_<transport>".
  std::uint64_t trace_id = 0;

  bool enabled() const { return !prefix.empty(); }
  std::string PathFor(std::size_t p, std::size_t rank) const {
    return obs::dist::ShardPath(prefix, label, p, rank);
  }
};

TraceConfig MakeTraceConfig(const std::string& prefix,
                            const std::string& name,
                            transport::TransportKind kind, std::size_t p,
                            std::uint64_t base_seed) {
  TraceConfig cfg;
  cfg.prefix = prefix;
  cfg.label = name + "_" + std::string(transport::TransportKindName(kind));
  std::uint64_t id = HashCombine(HashMix(base_seed), HashMix(p));
  for (const char c : cfg.label) {
    id = HashCombine(id, HashMix(static_cast<std::uint64_t>(
                             static_cast<unsigned char>(c))));
  }
  cfg.trace_id = id;
  return cfg;
}

// --- the worker process -------------------------------------------------

/// Every scenario's computation phase: evaluate the query and keep the
/// received data as the next state, so each rank's received state — not
/// only its output, which is empty for the matching inputs — can be
/// checked against the reference.
MpcSimulator::Computer EvaluateAndKeep(const ConjunctiveQuery& query) {
  return [&query](NodeId, const Instance& received) {
    return MpcSimulator::ComputeResult{received, Evaluate(query, received)};
  };
}

/// Report-pipe kFactBatch frames use the round field to say what they
/// carry.
constexpr std::uint64_t kReportOutput = 0;
constexpr std::uint64_t kReportState = 1;

/// Body of worker \p rank: connect the mesh, run the round, report load,
/// wire bytes, output and received state to the parent over \p report_fd,
/// then flush the trace shard.
void RunWorker(const Scenario& scenario, transport::MeshSockets& sockets,
               std::size_t rank, int report_fd, std::uint64_t base_seed,
               const TraceConfig& trace) {
  const std::size_t p = scenario.servers;

  // Tracing is per-process: an isolated ring-buffer tracer whose shard is
  // flushed to $LAMP_TRACE_SHARD-derived paths at the end of the run.
  // When the env var is unset no tracer is installed and every Emit stays
  // on the null-sink fast path.
  std::unique_ptr<obs::Tracer> tracer;
  std::optional<obs::ScopedTracer> install;
  if (trace.enabled()) {
    tracer = std::make_unique<obs::Tracer>();
    install.emplace(*tracer);
  }
  transport::MeshTransport mesh(
      sockets, rank,
      {base_seed, trace.enabled() ? transport::kHelloFeatureTraceCtx : 0,
       trace.trace_id});
  sockets.Close();  // The other ranks' descriptors.
  MpcSimulator sim(mesh);
  sim.LoadInput(scenario.input);
  sim.RunRound(scenario.route, EvaluateAndKeep(scenario.query));

  const auto report = [report_fd, rank, p](transport::FrameType type,
                                           std::vector<std::uint8_t> payload) {
    transport::WriteFrame(report_fd, {transport::kWireVersion, type,
                                      static_cast<std::uint32_t>(rank),
                                      static_cast<std::uint32_t>(p),
                                      std::move(payload)});
  };
  const auto report_facts = [&report](std::uint64_t tag,
                                      const Instance& facts) {
    std::vector<transport::RowRef> rows;
    for (RelationId rel = 0; rel < facts.NumRelationIds(); ++rel) {
      const RowsView view = facts.RowsOf(rel);
      for (std::size_t i = 0; i < view.num_rows; ++i) {
        rows.push_back(transport::RowRef{
            rel, view.Row(i), static_cast<std::uint32_t>(view.arity)});
      }
    }
    report(transport::FrameType::kFactBatch,
           transport::EncodeFactBatchPayload(tag, rows));
  };
  const RoundStats& round = sim.stats().rounds.at(0);
  report(transport::FrameType::kStats,
         transport::EncodeStatsPayload(0, round.received[rank],
                                       round.wire_bytes[rank]));
  report_facts(kReportOutput, sim.output());
  report_facts(kReportState, sim.locals()[rank]);
  report(transport::FrameType::kShutdown, {});

  // Flush this process's trace shard last, so it covers the full run. The
  // parent only reads shards after waitpid(), which sequences after this.
  if (trace.enabled()) {
    obs::dist::ShardHeader header;
    header.rank = rank;
    header.procs = p;
    header.trace_id = trace.trace_id;
    header.label = trace.label;
    header.ring_t0_ns = mesh.ring_probe().t0_ns;
    header.ring_t1_ns = mesh.ring_probe().t1_ns;
    header.ring_fold_ns = mesh.ring_probe().fold_ns;
    const std::string path = trace.PathFor(p, rank);
    if (!obs::dist::WriteShardFile(path, header, *tracer)) {
      std::fprintf(stderr, "mpc_procs: warning: cannot write trace shard %s\n",
                   path.c_str());
    }
  }
}

// --- the multi-process run ----------------------------------------------

struct DistResult {
  Instance output;
  std::vector<std::size_t> loads;       // Per rank.
  std::vector<std::size_t> wire_bytes;  // Per rank, received framing bytes.
  std::vector<std::uint64_t> states;    // Per rank, received-state digest.
};

DistResult RunDistributed(const std::string& name, transport::TransportKind
                          kind, std::size_t procs, std::size_t m,
                          std::uint64_t base_seed, const TraceConfig& trace) {
  // The parent resolves the process count the same way the workers will.
  const std::size_t p = BuildScenario(name, procs, m, base_seed).servers;

  // Pre-fork resources: the mesh's sockets plus one report pipe per rank.
  transport::MeshSockets sockets(kind, p);
  std::vector<std::array<int, 2>> pipes(p);
  for (std::size_t r = 0; r < p; ++r) {
    LAMP_CHECK(::pipe(pipes[r].data()) == 0);
  }

  std::vector<pid_t> pids(p, -1);
  for (std::size_t rank = 0; rank < p; ++rank) {
    const pid_t pid = ::fork();
    LAMP_CHECK_MSG(pid >= 0, "mpc_procs: fork failed");
    if (pid > 0) {
      pids[rank] = pid;
      continue;
    }
    // Worker: keep only our pipe's write end, then run.
    for (std::size_t r = 0; r < p; ++r) {
      ::close(pipes[r][0]);
      if (r != rank) ::close(pipes[r][1]);
    }
    RunWorker(BuildScenario(name, procs, m, base_seed), sockets, rank,
              pipes[rank][1], base_seed, trace);
    ::close(pipes[rank][1]);
    std::_Exit(0);
  }

  // Parent: close the worker-side fds, collect reports, reap.
  sockets.Close();
  for (std::size_t r = 0; r < p; ++r) ::close(pipes[r][1]);

  DistResult result;
  result.loads.assign(p, 0);
  result.wire_bytes.assign(p, 0);
  result.states.assign(p, 0);
  for (std::size_t r = 0; r < p; ++r) {
    transport::FrameReader chan(pipes[r][0]);
    Instance state;
    for (;;) {
      const transport::WireFrame frame = chan.Read();
      if (frame.type == transport::FrameType::kShutdown) break;
      LAMP_CHECK(frame.from == r);
      if (frame.type == transport::FrameType::kStats) {
        const auto stats = transport::DecodeStatsPayload(frame.payload);
        LAMP_CHECK(stats.has_value());
        result.loads[r] = stats->received;
        result.wire_bytes[r] = stats->wire_bytes;
      } else {
        LAMP_CHECK(frame.type == transport::FrameType::kFactBatch);
        const auto batch = transport::DecodeFactBatchPayload(frame.payload);
        LAMP_CHECK(batch.has_value());
        Instance& into = batch->round == kReportState ? state : result.output;
        for (const transport::RowRef row : batch->facts) {
          into.InsertRow(row.relation, row.row, row.arity);
        }
      }
    }
    result.states[r] = InstanceDigest(state);
    ::close(pipes[r][0]);
  }
  for (std::size_t r = 0; r < p; ++r) {
    int status = 0;
    LAMP_CHECK(::waitpid(pids[r], &status, 0) == pids[r]);
    LAMP_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                   "mpc_procs: worker exited abnormally");
  }
  return result;
}

// --- driver -------------------------------------------------------------

struct Options {
  std::string scenario = "all";
  transport::TransportKind kind = transport::TransportKind::kTcp;
  bool kind_set = false;  // --selfcheck sweeps both families unless set.
  std::size_t procs = 4;
  std::size_t m = 4000;
  std::uint64_t seed = 7;
  bool selfcheck = false;
  std::string trace_prefix;  // $LAMP_TRACE_SHARD; empty = tracing off.
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: mpc_procs [--scenario NAME|all] [--transport tcp|uds]\n"
      "                 [--procs N] [--m N] [--seed N] [--selfcheck]\n"
      "scenarios:");
  for (const char* name : kScenarioNames) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// A whole decimal flag value; anything else is a usage error.
std::uint64_t ParseCount(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) Usage();
  return value;
}

/// Runs one scenario distributed, checks it against the in-process
/// reference and adds its bench record, audit attached, to \p reporter.
/// Returns true when everything matched.
bool RunOne(const std::string& name, const Options& opts,
            obs::BenchReporter& reporter) {
  obs::WallTimer timer;
  const Scenario scenario =
      BuildScenario(name, opts.procs, opts.m, opts.seed);
  const std::size_t p = scenario.servers;

  // In-process ground truth (inline, single-threaded, inproc backend —
  // the --transport flag selects the *inter-process* mesh only).
  MpcSimulator sim(p);
  sim.LoadInput(scenario.input);
  sim.RunRound(scenario.route, EvaluateAndKeep(scenario.query));

  const TraceConfig trace =
      MakeTraceConfig(opts.trace_prefix, name, opts.kind, p, opts.seed);
  const DistResult dist =
      RunDistributed(name, opts.kind, opts.procs, opts.m, opts.seed, trace);

  // Every rank must reproduce its reference server exactly: load, wire
  // bytes and received state, plus the union of the outputs.
  bool ok = dist.output == sim.output();
  const RoundStats& ref_round = sim.stats().rounds.at(0);
  std::size_t max_load = 0;
  std::size_t wire_total = 0;
  std::uint64_t state_digest = 0;
  for (std::size_t r = 0; r < p; ++r) {
    ok = ok && dist.loads[r] == ref_round.received[r] &&
         dist.wire_bytes[r] == ref_round.wire_bytes[r] &&
         dist.states[r] == InstanceDigest(sim.locals()[r]);
    max_load = std::max(max_load, dist.loads[r]);
    wire_total += dist.wire_bytes[r];
    state_digest += dist.states[r];
  }
  std::printf(
      "%-20s %-4s procs=%-3zu out=%zu digest=%016llx ref=%016llx"
      " state=%016llx max-load=%zu wire=%zuB %s\n",
      name.c_str(),
      std::string(transport::TransportKindName(opts.kind)).c_str(), p,
      dist.output.Size(),
      static_cast<unsigned long long>(InstanceDigest(dist.output)),
      static_cast<unsigned long long>(InstanceDigest(sim.output())),
      static_cast<unsigned long long>(state_digest), max_load, wire_total,
      ok ? "OK" : "MISMATCH");

  // Audit the *measured* run against the strategy's closed-form bound,
  // exactly like the benches audit the simulator.
  RunStats measured;
  RoundStats round;
  round.received = dist.loads;
  round.wire_bytes = dist.wire_bytes;
  measured.rounds.push_back(std::move(round));
  const obs::audit::Catalog catalog =
      obs::audit::BuildCatalog(scenario.schema, scenario.input);
  obs::audit::LoadBound bound =
      scenario.strategy == obs::audit::Strategy::kHyperCube
          ? obs::audit::HyperCubeBound(scenario.query, scenario.schema,
                                       catalog, scenario.shares)
          : obs::audit::BoundFor(scenario.strategy, scenario.query,
                                 scenario.schema, catalog, p);
  obs::audit::AuditRecord record = obs::audit::MakeAuditRecord(
      "mpc_procs",
      name + "/" + std::string(transport::TransportKindName(opts.kind)),
      scenario.strategy, p, std::move(bound), measured);
  record.params.Set("m", opts.m);
  record.params.Set("procs", p);
  record.params.Set("transport",
                    std::string(transport::TransportKindName(opts.kind)));
  record.expected_violation = scenario.expected_violation;

  // With tracing on, merge the shards the workers just wrote and check
  // the merge invariants inline: complete pairing (every cross-process
  // batch matched) and causal order (aligned send strictly before recv).
  // The measured latency percentiles land in the audit record next to
  // the wire bytes.
  if (trace.enabled()) {
    std::vector<obs::dist::TraceShard> shards;
    for (std::size_t r = 0; r < p; ++r) {
      std::string err;
      auto shard = obs::dist::LoadShardFile(trace.PathFor(p, r), &err);
      LAMP_CHECK_MSG(shard.has_value(), "mpc_procs: trace shard missing");
      shards.push_back(std::move(*shard));
    }
    std::string err;
    const auto merged = obs::dist::MergeShards(std::move(shards), &err);
    if (!merged.has_value()) {
      std::fprintf(stderr, "mpc_procs: shard merge failed: %s\n",
                   err.c_str());
      LAMP_CHECK_MSG(false, "mpc_procs: shard merge failed");
    }
    LAMP_CHECK_MSG(merged->pairs.size() == p * (p - 1) &&
                       merged->unmatched_sends == 0 &&
                       merged->unmatched_recvs == 0,
                   "mpc_procs: merged trace did not pair every batch");
    for (const obs::dist::MatchedPair& pair : merged->pairs) {
      LAMP_CHECK_MSG(pair.send_ns < pair.recv_ns,
                     "mpc_procs: aligned send does not precede recv");
    }
    record.round_wire_p50_ns.assign(record.round_wire_bytes.size(), 0);
    record.round_wire_p99_ns.assign(record.round_wire_bytes.size(), 0);
    for (const obs::dist::RoundLatency& rl :
         obs::dist::RoundLatencies(*merged)) {
      if (rl.round < record.round_wire_p50_ns.size()) {
        record.round_wire_p50_ns[rl.round] = rl.stats.p50_ns;
        record.round_wire_p99_ns[rl.round] = rl.stats.p99_ns;
      }
    }
    const obs::dist::LatencyStats e2e = obs::dist::EndToEndLatency(*merged);
    const obs::audit::CausalReport causal =
        obs::audit::BuildCausalReport(*merged);
    std::printf(
        "  trace: shards=%zu pairs=%zu wire-p50=%lluns p99=%lluns"
        " max-depth=%llu dropped=%llu\n",
        static_cast<std::size_t>(p), merged->pairs.size(),
        static_cast<unsigned long long>(e2e.p50_ns),
        static_cast<unsigned long long>(e2e.p99_ns),
        static_cast<unsigned long long>(causal.max_depth),
        static_cast<unsigned long long>(merged->total_dropped));
  }
  reporter.NewRecord()
      .Param("scenario", name)
      .Param("transport",
             std::string(transport::TransportKindName(opts.kind)))
      .Param("procs", p)
      .Param("m", opts.m)
      .Metric("mpc.max_load", max_load)
      .Metric("wire_bytes", wire_total)
      .WallNs(timer.ElapsedNs())
      .Attach("audit", record.ToJson());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep the process single-threaded: workers are forked, and fork() and
  // pool threads do not mix. The reference run is bit-identical at every
  // thread count anyway.
  lamp::par::SetDefaultThreads(1);
  lamp::transport::SetActiveKind(lamp::transport::TransportKind::kInProcess);

  Options opts;
  if (const char* env = std::getenv("LAMP_TRACE_SHARD");
      env != nullptr && env[0] != '\0') {
    opts.trace_prefix = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (arg == flag && i + 1 < argc) return argv[++i];
      Usage();
      return {};
    };
    if (arg == "--selfcheck") {
      opts.selfcheck = true;
    } else if (arg.rfind("--scenario", 0) == 0) {
      opts.scenario = value("--scenario");
    } else if (arg.rfind("--transport", 0) == 0) {
      lamp::transport::TransportKind kind;
      if (!lamp::transport::ParseTransportKind(value("--transport"), &kind) ||
          kind == lamp::transport::TransportKind::kInProcess) {
        std::fprintf(stderr, "mpc_procs: --transport must be tcp or uds\n");
        return 2;
      }
      opts.kind = kind;
      opts.kind_set = true;
    } else if (arg.rfind("--procs", 0) == 0) {
      opts.procs = ParseCount(value("--procs"));
      if (opts.procs == 0) Usage();
    } else if (arg.rfind("--m", 0) == 0) {
      opts.m = ParseCount(value("--m"));
    } else if (arg.rfind("--seed", 0) == 0) {
      opts.seed = ParseCount(value("--seed"));
    } else {
      Usage();
    }
  }

  std::vector<std::string> names;
  if (opts.scenario == "all") {
    names.assign(std::begin(kScenarioNames), std::end(kScenarioNames));
  } else {
    names.push_back(opts.scenario);
  }

  lamp::obs::BenchReporter reporter("mpc_procs");
  bool all_ok = true;
  if (opts.selfcheck) {
    // The CI smoke matrix: both socket families (or just the requested
    // one), growing process counts, every scenario — each compared
    // against the in-process reference.
    std::vector<lamp::transport::TransportKind> kinds = {
        lamp::transport::TransportKind::kTcp,
        lamp::transport::TransportKind::kUds};
    if (opts.kind_set) kinds = {opts.kind};
    for (auto kind : kinds) {
      for (std::size_t procs : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        Options sweep = opts;
        sweep.kind = kind;
        sweep.procs = procs;
        for (const std::string& name : names) {
          all_ok = RunOne(name, sweep, reporter) && all_ok;
        }
      }
    }
  } else {
    for (const std::string& name : names) {
      all_ok = RunOne(name, opts, reporter) && all_ok;
    }
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "mpc_procs: distributed run diverged from the in-process"
                 " reference\n");
    return 1;
  }
  return 0;
}
