// lamp_obs: the observability CLI. It renders lamp.trace.v1 recordings,
// merged multi-process trace shards and the theory-aware audit layer
// (obs/audit): load-bound audit records, the statistics catalog and
// causal coordination profiles. kUsage below lists the subcommands.
//
// The trace view renders one heatmap row per MPC round (per-server load
// as block glyphs, normalised to the round maximum) so routing skew is
// visible at a glance; the net section lists transitions in delivery
// order, which is the causal order of the run.
//
// Exit codes: 0 ok, 1 diff found a divergence, 2 usage error or malformed
// input (for report: an unreadable line, an undecodable audit entry, or
// no audit entries at all), 3 dropped events under --strict, 4 hard bound
// violation (demo-violation, and report --check).

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
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
#include "obs/chrome_trace.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "relational/generators.h"
#include "transport/transport.h"

namespace lamp {
namespace {

using obs::EventRecord;
using obs::audit::AuditRecord;
using obs::audit::Catalog;
using obs::audit::CausalReport;
using obs::audit::Strategy;

/// Every flag any subcommand reads; a subcommand ignores the others.
struct Flags {
  bool json = false;
  bool chrome = false;
  bool stats = false;
  bool strict = false;
  bool check = false;
};

constexpr const char* kUsage = R"(usage: lamp_obs <command> [flags] [args]

  trace [--json | --chrome | --stats] [--strict]
        (<trace.json> | --demo-mpc | --demo-net)
      Render a lamp.trace.v1 recording as a timeline: MPC load heatmaps,
      the transducer delivery order, transport totals, Datalog iterations
      and span aggregates. --demo-mpc / --demo-net trace a HyperCube
      triangle / broadcast transducer run first; --transport tcp runs
      the demo over sockets (adding the Transport section). --json emits
      the raw trace; --chrome the Chrome Trace Event Format (open it at
      ui.perfetto.dev or chrome://tracing); --stats only the per-kind
      event counts and kept/emitted/dropped totals, enough to size the
      Tracer ring. --strict exits 3 when the trace dropped events.
  diff <a.json> <b.json>
      Align two recordings' transducer-network events by (kind, actor,
      payload), ignoring wall-clock time, and report the first divergent
      delivery (exit 1) -- pair it with the witness and reference traces
      fault_hunt writes.
  merge [--json | --chrome] [--strict] <shard.jsonl>...
      Join the lamp.traceshard.v1 files of one mpc_procs run
      (LAMP_TRACE_SHARD=<prefix> mpc_procs ...) into one mesh-wide trace:
      clocks aligned via the ring seed exchange, send/recv pairs matched,
      per-round latency percentiles and a cross-process causal profile.
      --chrome draws each rank as a process lane with flow arrows; --json
      emits lamp.merged_trace.v1; --strict exits 3 if a shard dropped
      events.
  report [--check] <records>...
      Headroom table and worst-round load heatmaps from the lamp.audit.v1
      entries of bench records (JSON lines or a bench_runner report);
      --check exits 4 on a hard bound violation.
  catalog <catalog.json>      per-relation skew report (lamp.catalog.v1)
  causal <trace.json>
      coordination depth and causal critical path of a transducer run
  demo-audit                  audit two demo joins, render the report
  demo-catalog                print a demo lamp.catalog.v1
  demo-causal                 monotone vs barrier causal profiles
  demo-violation              skewed repartition join, hard-fail (exit 4)
)";

/// Reports "lamp_obs: <message>" on stderr and returns 2, the exit code
/// of every usage error and malformed input.
__attribute__((format(printf, 1, 2))) int Fail(const char* format, ...) {
  std::fputs("lamp_obs: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  return 2;
}

/// The JSON document at \p path; exits 2 when the file cannot be read or
/// does not parse.
obs::JsonValue LoadJsonOrExit(const std::string& path) {
  const std::optional<std::string> text = obs::ReadTextFile(path);
  if (!text.has_value()) std::exit(Fail("cannot open %s", path.c_str()));
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(*text);
  if (!doc.has_value()) {
    std::exit(Fail("%s is not valid JSON", path.c_str()));
  }
  return std::move(*doc);
}

/// A trace header counter ("dropped", "total_emitted", ...); 0 when absent.
std::uint64_t HeaderCount(const obs::JsonValue& trace, std::string_view key) {
  const obs::JsonValue* v = trace.Find(key);
  return v == nullptr ? 0 : static_cast<std::uint64_t>(v->AsInt());
}

// Eight block glyphs; load 0 renders as '.' so empty servers stay visible.
const char* LoadGlyph(std::uint64_t load, std::uint64_t max) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (load == 0) return ".";
  if (max == 0) return kBlocks[0];
  std::size_t idx = static_cast<std::size_t>((8 * load - 1) / max);
  return kBlocks[std::min<std::size_t>(idx, 7)];
}

// Slots a heatmap renders at most. The slot count comes from the trace
// file (a round's p, the largest endpoint id), so a hostile value near
// 2^64 must not turn into a loop that never ends.
constexpr std::uint64_t kMaxHeatmapGlyphs = 1024;

/// One glyph per slot 0..n-1 of a sparse load map, up to
/// kMaxHeatmapGlyphs; the slots past that are counted, not drawn.
std::string Heatmap(const std::map<std::uint32_t, std::uint64_t>& loads,
                    std::uint64_t n, std::uint64_t max) {
  std::string heat;
  const std::uint64_t shown = std::min(n, kMaxHeatmapGlyphs);
  for (std::uint64_t s = 0; s < shown; ++s) {
    const auto it = loads.find(static_cast<std::uint32_t>(s));
    heat += LoadGlyph(it == loads.end() ? 0 : it->second, max);
  }
  if (n > shown) heat += " ... " + std::to_string(n - shown) + " elided";
  return heat;
}

/// Whether some event's kind starts with \p prefix.
bool AnyKind(const std::vector<EventRecord>& events,
             std::string_view prefix) {
  return std::any_of(events.begin(), events.end(),
                     [prefix](const EventRecord& e) {
                       return e.kind.starts_with(prefix);
                     });
}

// --- trace --------------------------------------------------------------

void RenderMpc(const std::vector<EventRecord>& events) {
  // round -> (p, total, per-server loads).
  struct Round {
    std::uint64_t p = 0;
    std::uint64_t total = 0;
    std::map<std::uint32_t, std::uint64_t> loads;
  };
  std::map<std::uint32_t, Round> rounds;
  for (const EventRecord& e : events) {
    if (e.kind == "mpc.round_begin") {
      rounds[e.a].p = e.value;
    } else if (e.kind == "mpc.server_load") {
      rounds[e.a].loads[e.b] = e.value;
    } else if (e.kind == "mpc.round_end") {
      rounds[e.a].total = e.value;
    }
  }
  if (rounds.empty()) return;

  std::printf("== MPC rounds (%zu) ==\n", rounds.size());
  std::printf("   load heatmap: one glyph per server, normalised per round"
              " ('.' = zero)\n");
  for (const auto& [idx, round] : rounds) {
    std::uint64_t max_load = 0;
    for (const auto& [server, load] : round.loads) {
      max_load = std::max(max_load, load);
    }
    std::printf("  round %2u  p=%-5llu total=%-9llu max=%-8llu |%s|\n", idx,
                static_cast<unsigned long long>(round.p),
                static_cast<unsigned long long>(round.total),
                static_cast<unsigned long long>(max_load),
                Heatmap(round.loads, round.p, max_load).c_str());
  }
  std::printf("\n");
}

void RenderNet(const std::vector<EventRecord>& events) {
  if (!AnyKind(events, "net.")) return;

  std::printf("== Transducer network timeline ==\n");
  for (const EventRecord& e : events) {
    const double t_us = static_cast<double>(e.t_ns) / 1000.0;
    if (e.kind == "net.start") {
      std::printf("  %10.1fus  start      node %u (heartbeat)\n", t_us, e.a);
    } else if (e.kind == "net.broadcast") {
      std::printf("  %10.1fus  broadcast  node %u sends %llu fact(s) to all"
                  " others\n",
                  t_us, e.a, static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.deliver") {
      std::printf("  %10.1fus  deliver    #%-4u -> node %u (%llu fact(s))\n",
                  t_us, e.b, e.a, static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.drop") {
      std::printf("  %10.1fus  drop       attempt #%-4u -> node %u fails"
                  " (will retransmit)\n",
                  t_us, e.b, e.a);
    } else if (e.kind == "net.duplicate") {
      std::printf("  %10.1fus  duplicate  #%-4u -> node %u (copy stays in"
                  " flight)\n",
                  t_us, e.b, e.a);
    } else if (e.kind == "net.crash") {
      std::printf("  %10.1fus  crash      node %u goes down (%s state)\n",
                  t_us, e.a, e.value != 0 ? "durable" : "volatile");
    } else if (e.kind == "net.restart") {
      std::printf("  %10.1fus  restart    node %u back up (%llu message(s)"
                  " requeued)\n",
                  t_us, e.a, static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.partition") {
      std::printf("  %10.1fus  partition  %llu node(s) isolated\n", t_us,
                  static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.heal") {
      std::printf("  %10.1fus  heal       partition removed\n", t_us);
    } else if (e.kind == "net.quiescent") {
      std::printf("  %10.1fus  quiescent  after %llu transition(s)\n", t_us,
                  static_cast<unsigned long long>(e.value));
    }
  }
  std::printf("\n");
}

// Transport sections: one summary line per connect (clique setup), then
// per-endpoint egress totals as a heatmap — skewed routing shows up as a
// lopsided byte distribution even before the tuple-level MPC heatmaps.
void RenderTransport(const std::vector<EventRecord>& events) {
  if (!AnyKind(events, "transport.")) return;

  std::printf("== Transport (lamp.wire.v1) ==\n");
  static const char* kKindNames[] = {"inproc", "tcp"};
  for (const EventRecord& e : events) {
    if (e.kind != "transport.connect") continue;
    const char* backend = e.b < 2 ? kKindNames[e.b] : "unknown";
    std::printf("  connect: %u endpoint(s) over %s (%llu fd(s))\n", e.a,
                backend, static_cast<unsigned long long>(e.value));
  }
  std::map<std::uint32_t, std::uint64_t> sent_bytes;
  std::uint64_t frames_sent = 0, bytes_sent = 0;
  std::uint64_t frames_recv = 0, bytes_recv = 0;
  for (const EventRecord& e : events) {
    if (e.kind == "transport.send") {
      ++frames_sent;
      bytes_sent += e.value;
      sent_bytes[e.a] += e.value;
    } else if (e.kind == "transport.recv") {
      ++frames_recv;
      bytes_recv += e.value;
    }
  }
  std::printf("  sent: %llu frame(s), %llu byte(s); received: %llu"
              " frame(s), %llu byte(s)\n",
              static_cast<unsigned long long>(frames_sent),
              static_cast<unsigned long long>(bytes_sent),
              static_cast<unsigned long long>(frames_recv),
              static_cast<unsigned long long>(bytes_recv));
  if (!sent_bytes.empty()) {
    std::uint64_t max = 0;
    std::uint32_t last = 0;
    for (const auto& [endpoint, bytes] : sent_bytes) {
      max = std::max(max, bytes);
      last = std::max(last, endpoint);
    }
    std::printf("  egress bytes per endpoint (max=%llu) |%s|\n",
                static_cast<unsigned long long>(max),
                Heatmap(sent_bytes, std::uint64_t{last} + 1, max).c_str());
  }
  std::printf("\n");
}

void RenderDatalog(const std::vector<EventRecord>& events) {
  if (!AnyKind(events, "datalog.iteration")) return;
  std::printf("== Datalog iterations ==\n");
  for (const EventRecord& e : events) {
    if (e.kind != "datalog.iteration") continue;
    std::printf("  stratum %u  iter %2u  delta=%llu\n", e.a, e.b,
                static_cast<unsigned long long>(e.value));
  }
  std::printf("\n");
}

void RenderSpans(const std::vector<EventRecord>& events) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Agg> spans;
  for (const EventRecord& e : events) {
    if (e.kind != "span" || e.label.empty()) continue;
    Agg& agg = spans[e.label];
    ++agg.count;
    agg.total_ns += e.value;
  }
  if (spans.empty()) return;
  std::printf("== Span aggregates ==\n");
  for (const auto& [label, agg] : spans) {
    std::printf("  %-16s count=%-5llu total=%.3fms mean=%.1fus\n",
                label.c_str(), static_cast<unsigned long long>(agg.count),
                static_cast<double>(agg.total_ns) / 1e6,
                static_cast<double>(agg.total_ns) / 1e3 /
                    static_cast<double>(agg.count));
  }
  std::printf("\n");
}

/// The --stats view: how full the ring got and what filled it. Everything
/// a user needs to size Tracer capacity without opening a Chrome trace:
/// kept/emitted/dropped totals plus per-kind counts of the kept events.
void RenderStats(const obs::JsonValue& trace) {
  const std::uint64_t total = HeaderCount(trace, "total_emitted");
  const std::uint64_t dropped = HeaderCount(trace, "dropped");
  const std::uint64_t capacity = HeaderCount(trace, "capacity");
  const std::uint64_t shards = HeaderCount(trace, "shards");
  const std::vector<EventRecord> events = obs::EventsFromJson(trace);

  std::printf("emitted:  %llu\n", static_cast<unsigned long long>(total));
  std::printf("kept:     %zu\n", events.size());
  std::printf("dropped:  %llu (ring overflow)\n",
              static_cast<unsigned long long>(dropped));
  std::printf("capacity: %llu per shard, %llu shard(s)\n",
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(shards));
  if (dropped > 0 && capacity > 0) {
    // Suggest the next power of two that would have held everything. The
    // header is outside input: a count near 2^64 must not wrap the
    // rounding or the doubling, so both stop short of overflow.
    const std::uint64_t per_shard =
        shards > 0 ? total / shards + (total % shards != 0 ? 1 : 0) : total;
    std::uint64_t need = 1;
    while (need < per_shard && need < (std::uint64_t{1} << 63)) need <<= 1;
    std::printf("          (a capacity of %llu per shard would have kept"
                " every event)\n",
                static_cast<unsigned long long>(need));
  }
  if (events.empty()) return;
  std::printf("\nper-kind counts:\n");
  std::map<std::string, std::uint64_t> by_kind;
  for (const EventRecord& e : events) ++by_kind[e.kind];
  std::vector<std::pair<std::string, std::uint64_t>> sorted(by_kind.begin(),
                                                            by_kind.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& x, const auto& y) {
              if (x.second != y.second) return x.second > y.second;
              return x.first < y.first;
            });
  for (const auto& [kind, count] : sorted) {
    std::printf("  %-20s %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }
}

void Render(const obs::JsonValue& trace) {
  const obs::JsonValue* schema = trace.Find("schema");
  if (schema == nullptr || schema->AsString() != "lamp.trace.v1") {
    std::fprintf(stderr, "warning: missing/unknown trace schema marker\n");
  }
  const std::uint64_t total = HeaderCount(trace, "total_emitted");
  const std::uint64_t dropped = HeaderCount(trace, "dropped");
  std::printf("trace: %llu event(s) emitted, %llu dropped (ring overflow)\n\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(dropped));
  const std::vector<EventRecord> events = obs::EventsFromJson(trace);
  RenderMpc(events);
  RenderNet(events);
  RenderTransport(events);
  RenderDatalog(events);
  RenderSpans(events);
}

obs::JsonValue DemoMpcTrace() {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  Rng rng(7);
  Instance db;
  AddRandomGraph(schema, schema.IdOf("R"), 4000, 600, rng, db);
  AddRandomGraph(schema, schema.IdOf("S"), 4000, 600, rng, db);
  AddRandomGraph(schema, schema.IdOf("T"), 4000, 600, rng, db);
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(tracer);
    (void)RunHyperCubeUniform(q, db, 64);
  }
  return obs::TraceToJson(tracer);
}

obs::JsonValue DemoNetTrace() {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const ConjunctiveQuery triangle = ParseQuery(
      schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
  Rng rng(7);
  Instance graph;
  AddRandomGraph(schema, e, 40, 12, rng, graph);
  AddTriangleClusters(schema, e, 2, 100, graph);
  MonotoneBroadcastProgram program(
      [&triangle](const Instance& instance) {
        return Evaluate(triangle, instance);
      });
  TransducerNetwork net(DistributeRoundRobin(graph, 4), program, nullptr,
                        /*aware=*/false);
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(tracer);
    (void)net.Run(/*seed=*/3);
  }
  return obs::TraceToJson(tracer);
}

// --- diff ---------------------------------------------------------------

/// One line of the diff view: the event as the timeline renders it,
/// minus the wall-clock column (schedules are compared causally, so
/// t_ns differences are noise).
std::string EventKey(const EventRecord& e) {
  std::string key = e.kind;
  key += " a=";
  key += std::to_string(e.a);
  key += " b=";
  key += std::to_string(e.b);
  key += " value=";
  key += std::to_string(e.value);
  return key;
}

std::vector<EventRecord> NetEvents(const obs::JsonValue& trace) {
  std::vector<EventRecord> net;
  for (EventRecord& e : obs::EventsFromJson(trace)) {
    if (e.kind.starts_with("net.")) net.push_back(std::move(e));
  }
  return net;
}

/// Aligns the two runs' net-event sequences by (kind, a, b, value) and
/// reports the first step where they differ — for a witness/reference
/// pair from the fault explorer, that is the first delivery (or injected
/// fault) distinguishing the divergent schedule from the correct one.
int DiffTraces(const obs::JsonValue& left, const obs::JsonValue& right,
               const std::string& left_name,
               const std::string& right_name) {
  const std::vector<EventRecord> a = NetEvents(left);
  const std::vector<EventRecord> b = NetEvents(right);
  std::printf("diff: %s (%zu net event(s)) vs %s (%zu net event(s))\n\n",
              left_name.c_str(), a.size(), right_name.c_str(), b.size());

  std::size_t common = 0;
  while (common < a.size() && common < b.size() &&
         EventKey(a[common]) == EventKey(b[common])) {
    ++common;
  }
  if (common == a.size() && common == b.size()) {
    std::printf("traces are identical (%zu shared net event(s))\n", common);
    return 0;
  }

  const std::size_t kContext = 4;
  const std::size_t from = common > kContext ? common - kContext : 0;
  std::printf("first divergence at net event #%zu (%zu shared before"
              " it)\n\n",
              common, common);
  for (std::size_t i = from; i < common; ++i) {
    std::printf("    #%-4zu  %s\n", i, EventKey(a[i]).c_str());
  }
  const std::size_t kAfter = 3;
  for (std::size_t i = common; i < std::min(a.size(), common + kAfter);
       ++i) {
    std::printf("  < #%-4zu  %s\n", i, EventKey(a[i]).c_str());
  }
  if (common >= a.size()) {
    std::printf("  < (end of %s)\n", left_name.c_str());
  }
  for (std::size_t i = common; i < std::min(b.size(), common + kAfter);
       ++i) {
    std::printf("  > #%-4zu  %s\n", i, EventKey(b[i]).c_str());
  }
  if (common >= b.size()) {
    std::printf("  > (end of %s)\n", right_name.c_str());
  }
  std::printf("\n  (<) %s   (>) %s\n", left_name.c_str(),
              right_name.c_str());
  return 1;
}

// --- merge --------------------------------------------------------------

/// The default merge rendering: per-shard health (including each
/// process's dropped-event count — a truncated shard silently skews every
/// latency number, so it is surfaced per rank, not just as a total),
/// estimated clock offsets, per-round wire-latency percentiles, and the
/// cross-process causal profile.
void RenderMerged(const obs::dist::MergedTrace& merged) {
  std::printf("merged trace: %llu process(es), label '%s', trace id"
              " %016llx\n",
              static_cast<unsigned long long>(merged.procs),
              merged.label.c_str(),
              static_cast<unsigned long long>(merged.trace_id));
  std::printf("  matched pairs: %zu  unmatched: %llu send(s) / %llu"
              " recv(s)\n\n",
              merged.pairs.size(),
              static_cast<unsigned long long>(merged.unmatched_sends),
              static_cast<unsigned long long>(merged.unmatched_recvs));

  std::printf("== shards ==\n");
  for (const obs::dist::TraceShard& shard : merged.shards) {
    std::printf("  rank %-3llu events=%-6zu dropped=%-6llu offset=%+lldns\n",
                static_cast<unsigned long long>(shard.header.rank),
                shard.events.size(),
                static_cast<unsigned long long>(shard.header.dropped),
                static_cast<long long>(
                    merged.offset_ns[shard.header.rank]));
  }
  if (merged.total_dropped > 0) {
    std::printf("  WARNING: %llu event(s) dropped to ring overflow — the"
                " merged timeline is TRUNCATED\n",
                static_cast<unsigned long long>(merged.total_dropped));
  }
  std::printf("\n");

  const std::vector<obs::dist::RoundLatency> rounds =
      obs::dist::RoundLatencies(merged);
  if (!rounds.empty()) {
    std::printf("== wire latency (aligned send -> recv) ==\n");
    std::printf("  %-8s %-8s %-12s %-12s %-12s %-12s\n", "round", "pairs",
                "p50", "p95", "p99", "max");
    for (const obs::dist::RoundLatency& rl : rounds) {
      std::printf("  %-8llu %-8zu %-12llu %-12llu %-12llu %-12llu\n",
                  static_cast<unsigned long long>(rl.round), rl.stats.count,
                  static_cast<unsigned long long>(rl.stats.p50_ns),
                  static_cast<unsigned long long>(rl.stats.p95_ns),
                  static_cast<unsigned long long>(rl.stats.p99_ns),
                  static_cast<unsigned long long>(rl.stats.max_ns));
    }
    const obs::dist::LatencyStats e2e = obs::dist::EndToEndLatency(merged);
    std::printf("  %-8s %-8zu %-12llu %-12llu %-12llu %-12llu  (ns)\n",
                "all", e2e.count,
                static_cast<unsigned long long>(e2e.p50_ns),
                static_cast<unsigned long long>(e2e.p95_ns),
                static_cast<unsigned long long>(e2e.p99_ns),
                static_cast<unsigned long long>(e2e.max_ns));
    std::printf("\n");
  }

  if (!merged.pairs.empty()) {
    std::printf("== cross-process causality ==\n");
    std::printf("%s\n",
                obs::audit::BuildCausalReport(merged).Render().c_str());
  }
}

/// merge: load every shard, merge, render/emit.
int MergeMain(const std::vector<std::string>& files, const Flags& flags) {
  if (files.empty()) return Fail("merge needs shard files");
  std::vector<obs::dist::TraceShard> shards;
  for (const std::string& path : files) {
    std::string err;
    auto shard = obs::dist::LoadShardFile(path, &err);
    if (!shard.has_value()) return Fail("%s: %s", path.c_str(), err.c_str());
    if (shard->header.dropped > 0) {
      std::fprintf(stderr,
                   "lamp_obs: WARNING: shard %s (rank %llu) dropped %llu"
                   " event(s) to ring overflow\n",
                   path.c_str(),
                   static_cast<unsigned long long>(shard->header.rank),
                   static_cast<unsigned long long>(shard->header.dropped));
    }
    shards.push_back(std::move(*shard));
  }
  std::string err;
  const auto merged = obs::dist::MergeShards(std::move(shards), &err);
  if (!merged.has_value()) return Fail("merge failed: %s", err.c_str());
  if (flags.json) {
    std::printf("%s\n", obs::dist::MergedTraceJson(*merged).Dump(2).c_str());
  } else if (flags.chrome) {
    std::printf("%s\n",
                obs::dist::MergedChromeTrace(*merged).Dump(1).c_str());
  } else {
    RenderMerged(*merged);
  }
  if (flags.strict && merged->total_dropped > 0) return 3;
  return 0;
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
    return Fail("report needs at least one bench records file");
  }
  std::string error;
  const std::optional<std::vector<obs::JsonValue>> entries =
      obs::LoadAttachedEntries(files, "audit", &error);
  if (!entries.has_value()) return Fail("%s", error.c_str());
  std::vector<AuditRecord> records;
  records.reserve(entries->size());
  for (const obs::JsonValue& entry : *entries) {
    std::optional<AuditRecord> record = AuditRecord::FromJson(entry);
    if (!record.has_value()) {
      return Fail("audit entry %zu is not a lamp.audit.v1 record",
                  records.size() + 1);
    }
    records.push_back(std::move(*record));
  }
  // A gate over nothing would pass whenever the benches lose their audit
  // instrumentation.
  if (records.empty()) return Fail("no audit entries in the input");
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
        "lamp_obs_demo", "triangle/skew_free", Strategy::kHyperCube, p,
        obs::audit::HyperCubeBound(db.triangle, db.schema, catalog, shares),
        run.stats));
  }
  // Skewed repartition join: the heavy hitter sends half of A to one
  // server, blowing the m/p bound — recorded as an *expected* violation.
  {
    const Catalog catalog = obs::audit::BuildCatalog(db.schema, db.join_skewed);
    const MpcRunResult run = RepartitionJoin(db.join, db.join_skewed, p);
    AuditRecord record = obs::audit::MakeAuditRecord(
        "lamp_obs_demo", "join/skewed", Strategy::kRepartition, p,
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
        "lamp_obs_demo", "join/skewed", Strategy::kFragmentReplicate, p,
        obs::audit::SqrtPBound(db.join, db.schema, catalog, p), run.stats));
  }
  RenderReport(records);
  // Emit a bench record with the audits attached, as the benches do, so
  //   LAMP_BENCH_JSON=f lamp_obs demo-audit && lamp_obs report f
  // round-trips the wire format.
  obs::BenchReporter reporter("lamp_obs_demo");
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
      "lamp_obs_demo", "join/skewed/hard", Strategy::kRepartition, p,
      obs::audit::RepartitionBound(db.join, db.schema, catalog, p),
      run.stats);
  RenderReport({record});
  if (record.HardViolation()) {
    std::fprintf(stderr,
                 "lamp_obs: skewed repartition join violated m/p as the"
                 " theory predicts (measured %zu vs bound %.1f x %.1f);"
                 " failing hard\n",
                 record.measured_max_load, record.bound.tuples, record.slack);
    return obs::audit::kAuditHardFailExit;
  }
  return Fail("expected a bound violation but the run passed — the demo"
              " workload lost its heavy hitter");
}

int DemoCausalMain() {
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

  std::printf("monotone broadcast on a replicated (ideal) distribution"
              " — CALM says coordination-free:\n%s\n",
              free_profile.Render().c_str());
  std::printf("coordinated barrier on the same distribution — must wait"
              " for every peer:\n%s",
              coord_profile.Render().c_str());
  return 0;
}

// --- entry points -------------------------------------------------------

/// trace: render, dump or convert one recording (a file or a demo run).
int TraceMain(const std::vector<std::string>& args, const Flags& flags) {
  if (args.size() != 1) {
    return Fail("trace needs one trace file, --demo-mpc or --demo-net"
                " (see --help)");
  }
  const std::string& source = args[0];
  const obs::JsonValue trace =
      source == "--demo-mpc"   ? DemoMpcTrace()
      : source == "--demo-net" ? DemoNetTrace()
                               : LoadJsonOrExit(source);
  // A truncated trace must never render as if it were complete.
  const std::uint64_t dropped = HeaderCount(trace, "dropped");
  if (dropped > 0) {
    std::fprintf(stderr,
                 "lamp_obs: WARNING: trace dropped %llu event(s) to ring"
                 " overflow — the rendered timeline is TRUNCATED (record"
                 " with a larger Tracer capacity to keep everything)\n",
                 static_cast<unsigned long long>(dropped));
  }
  if (flags.json) {
    std::printf("%s\n", trace.Dump(2).c_str());
  } else if (flags.chrome) {
    std::printf("%s\n", obs::ChromeTraceFromTraceJson(trace).Dump(1).c_str());
  } else if (flags.stats) {
    RenderStats(trace);
  } else {
    Render(trace);
  }
  return dropped > 0 && flags.strict ? 3 : 0;
}

int CatalogMain(const std::string& path) {
  const std::optional<Catalog> catalog =
      Catalog::FromJson(LoadJsonOrExit(path));
  if (!catalog.has_value()) {
    return Fail("%s is not a lamp.catalog.v1 document", path.c_str());
  }
  RenderCatalog(*catalog);
  return 0;
}

int CausalMain(const std::string& path) {
  const std::optional<CausalReport> report =
      obs::audit::CausalReportFromTraceJson(LoadJsonOrExit(path));
  if (!report.has_value()) {
    return Fail("%s is not a lamp.trace.v1 document", path.c_str());
  }
  std::printf("%s", report->Render().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  transport::ConfigureFromCommandLine(&argc, argv);
  Flags flags;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--chrome") {
      flags.chrome = true;
    } else if (arg == "--stats") {
      flags.stats = true;
    } else if (arg == "--strict") {
      flags.strict = true;
    } else if (arg == "--check") {
      flags.check = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) return Fail("need a command (see --help)");
  const std::string command = args.front();
  args.erase(args.begin());
  if (command == "trace") return TraceMain(args, flags);
  if (command == "merge") return MergeMain(args, flags);
  if (command == "report") return ReportMain(args, flags.check);
  if (command == "diff") {
    if (args.size() != 2) return Fail("diff needs exactly two trace files");
    return DiffTraces(LoadJsonOrExit(args[0]), LoadJsonOrExit(args[1]),
                      args[0], args[1]);
  }
  if (command == "catalog" || command == "causal") {
    if (args.size() != 1) return Fail("%s needs one file", command.c_str());
    return command == "catalog" ? CatalogMain(args[0])
                                : CausalMain(args[0]);
  }
  if (command == "demo-audit") return DemoAuditMain();
  if (command == "demo-catalog") return DemoCatalogMain();
  if (command == "demo-causal") return DemoCausalMain();
  if (command == "demo-violation") return DemoViolationMain();
  return Fail("unknown command '%s' (see --help)", command.c_str());
}

}  // namespace
}  // namespace lamp

int main(int argc, char** argv) { return lamp::Main(argc, argv); }
