// trace_dump: renders a lamp.trace.v1 recording as a human-readable
// timeline.
//
//   trace_dump <trace.json>    render a saved trace (see obs/trace.h)
//   trace_dump --demo-mpc      trace a HyperCube triangle run, render it
//   trace_dump --demo-net      trace a broadcast transducer run, render it
//   trace_dump --transport tcp --demo-mpc
//                              demo over a socket backend; the trace then
//                              carries transport.connect/send/recv events
//                              (rendered as the Transport section, and as
//                              the transport.wire_bytes counter track in
//                              --chrome output)
//   trace_dump ... --json      emit the raw trace JSON instead
//   trace_dump ... --chrome    emit Chrome Trace Event Format JSON (open
//                              in Perfetto / chrome://tracing)
//   trace_dump ... --strict    exit non-zero when the trace reports
//                              dropped events (ring overflow)
//   trace_dump ... --stats     print per-kind event counts and drop
//                              totals only (ring-buffer sizing view)
//
// The MPC section renders one heatmap row per round (per-server load as
// block glyphs, normalised to the round maximum) so routing skew is
// visible at a glance; the net section lists transitions in delivery
// order, which is the causal order of the run.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cq/eval.h"
#include "cq/parser.h"
#include "common/rng.h"
#include "mpc/hypercube_run.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/audit/causal.h"
#include "obs/chrome_trace.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "relational/generators.h"
#include "transport/transport.h"

namespace lamp {
namespace {

// One parsed event; kind is the wire name so the renderer works off a
// trace JSON regardless of whether it came from a file or a live Tracer.
struct Event {
  std::uint64_t t_ns = 0;
  std::uint64_t value = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::string kind;
  std::string label;
};

std::vector<Event> EventsFromJson(const obs::JsonValue& trace) {
  std::vector<Event> out;
  const obs::JsonValue* events = trace.Find("events");
  if (events == nullptr || !events->IsArray()) return out;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::JsonValue& e = events->at(i);
    Event ev;
    if (const auto* v = e.Find("t_ns")) ev.t_ns = static_cast<std::uint64_t>(v->AsInt());
    if (const auto* v = e.Find("value")) ev.value = static_cast<std::uint64_t>(v->AsInt());
    if (const auto* v = e.Find("a")) ev.a = static_cast<std::uint32_t>(v->AsInt());
    if (const auto* v = e.Find("b")) ev.b = static_cast<std::uint32_t>(v->AsInt());
    if (const auto* v = e.Find("kind")) ev.kind = v->AsString();
    if (const auto* v = e.Find("label")) ev.label = v->AsString();
    out.push_back(std::move(ev));
  }
  return out;
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

void RenderMpc(const std::vector<Event>& events) {
  // round -> (p, total, per-server loads).
  struct Round {
    std::uint64_t p = 0;
    std::uint64_t total = 0;
    std::map<std::uint32_t, std::uint64_t> loads;
  };
  std::map<std::uint32_t, Round> rounds;
  for (const Event& e : events) {
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
    std::string heat;
    for (std::uint64_t s = 0; s < round.p; ++s) {
      const auto it = round.loads.find(static_cast<std::uint32_t>(s));
      heat += LoadGlyph(it == round.loads.end() ? 0 : it->second, max_load);
    }
    std::printf("  round %2u  p=%-5llu total=%-9llu max=%-8llu |%s|\n", idx,
                static_cast<unsigned long long>(round.p),
                static_cast<unsigned long long>(round.total),
                static_cast<unsigned long long>(max_load), heat.c_str());
  }
  std::printf("\n");
}

void RenderNet(const std::vector<Event>& events) {
  bool any = false;
  for (const Event& e : events) {
    if (e.kind.rfind("net.", 0) == 0) {
      any = true;
      break;
    }
  }
  if (!any) return;

  std::printf("== Transducer network timeline ==\n");
  for (const Event& e : events) {
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

// --- Two-trace diff -----------------------------------------------------

/// One line of the diff view: the event as the timeline renders it,
/// minus the wall-clock column (schedules are compared causally, so
/// t_ns differences are noise).
std::string EventKey(const Event& e) {
  std::string key = e.kind;
  key += " a=";
  key += std::to_string(e.a);
  key += " b=";
  key += std::to_string(e.b);
  key += " value=";
  key += std::to_string(e.value);
  return key;
}

std::vector<Event> NetEvents(const obs::JsonValue& trace) {
  std::vector<Event> net;
  for (Event& e : EventsFromJson(trace)) {
    if (e.kind.rfind("net.", 0) == 0) net.push_back(std::move(e));
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
  const std::vector<Event> a = NetEvents(left);
  const std::vector<Event> b = NetEvents(right);
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

// Transport sections: one summary line per connect (clique setup), then
// per-endpoint egress totals as a heatmap — skewed routing shows up as a
// lopsided byte distribution even before the tuple-level MPC heatmaps.
void RenderTransport(const std::vector<Event>& events) {
  bool any = false;
  for (const Event& e : events) {
    if (e.kind.rfind("transport.", 0) == 0) {
      any = true;
      break;
    }
  }
  if (!any) return;

  std::printf("== Transport (lamp.wire.v1) ==\n");
  static const char* kKindNames[] = {"inproc", "tcp", "uds"};
  for (const Event& e : events) {
    if (e.kind != "transport.connect") continue;
    const char* backend = e.b < 3 ? kKindNames[e.b] : "unknown";
    std::printf("  connect: %u endpoint(s) over %s (%llu fd(s))\n", e.a,
                backend, static_cast<unsigned long long>(e.value));
  }
  std::map<std::uint32_t, std::uint64_t> sent_bytes;
  std::uint64_t frames_sent = 0, bytes_sent = 0;
  std::uint64_t frames_recv = 0, bytes_recv = 0;
  for (const Event& e : events) {
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
    std::string heat;
    for (std::uint32_t ep = 0; ep <= last; ++ep) {
      const auto it = sent_bytes.find(ep);
      heat += LoadGlyph(it == sent_bytes.end() ? 0 : it->second, max);
    }
    std::printf("  egress bytes per endpoint (max=%llu) |%s|\n",
                static_cast<unsigned long long>(max), heat.c_str());
  }
  std::printf("\n");
}

void RenderDatalog(const std::vector<Event>& events) {
  bool any = false;
  for (const Event& e : events) {
    if (e.kind == "datalog.iteration") {
      any = true;
      break;
    }
  }
  if (!any) return;
  std::printf("== Datalog iterations ==\n");
  for (const Event& e : events) {
    if (e.kind != "datalog.iteration") continue;
    std::printf("  stratum %u  iter %2u  delta=%llu\n", e.a, e.b,
                static_cast<unsigned long long>(e.value));
  }
  std::printf("\n");
}

void RenderSpans(const std::vector<Event>& events) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Agg> spans;
  for (const Event& e : events) {
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
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  std::uint64_t capacity = 0;
  std::uint64_t shards = 0;
  if (const auto* v = trace.Find("total_emitted")) {
    total = static_cast<std::uint64_t>(v->AsInt());
  }
  if (const auto* v = trace.Find("dropped")) {
    dropped = static_cast<std::uint64_t>(v->AsInt());
  }
  if (const auto* v = trace.Find("capacity")) {
    capacity = static_cast<std::uint64_t>(v->AsInt());
  }
  if (const auto* v = trace.Find("shards")) {
    shards = static_cast<std::uint64_t>(v->AsInt());
  }
  const std::vector<Event> events = EventsFromJson(trace);

  std::printf("emitted:  %llu\n", static_cast<unsigned long long>(total));
  std::printf("kept:     %zu\n", events.size());
  std::printf("dropped:  %llu (ring overflow)\n",
              static_cast<unsigned long long>(dropped));
  std::printf("capacity: %llu per shard, %llu shard(s)\n",
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(shards));
  if (dropped > 0 && capacity > 0) {
    // Suggest the next power of two that would have held everything.
    std::uint64_t need = 1;
    const std::uint64_t per_shard =
        shards > 0 ? (total + shards - 1) / shards : total;
    while (need < per_shard) need <<= 1;
    std::printf("          (a capacity of %llu per shard would have kept"
                " every event)\n",
                static_cast<unsigned long long>(need));
  }
  if (events.empty()) return;
  std::printf("\nper-kind counts:\n");
  std::map<std::string, std::uint64_t> by_kind;
  for (const Event& e : events) ++by_kind[e.kind];
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
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  if (const auto* v = trace.Find("total_emitted")) {
    total = static_cast<std::uint64_t>(v->AsInt());
  }
  if (const auto* v = trace.Find("dropped")) {
    dropped = static_cast<std::uint64_t>(v->AsInt());
  }
  std::printf("trace: %llu event(s) emitted, %llu dropped (ring overflow)\n\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(dropped));
  const std::vector<Event> events = EventsFromJson(trace);
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

std::optional<obs::JsonValue> LoadTrace(const std::string& path) {
  const std::optional<std::string> text = obs::ReadTextFile(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "trace_dump: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::optional<obs::JsonValue> parsed = obs::JsonValue::Parse(*text);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "trace_dump: %s is not valid JSON\n", path.c_str());
  }
  return parsed;
}

// The header's dropped count; a truncated trace must never render as if
// it were complete.
std::uint64_t DroppedCount(const obs::JsonValue& trace) {
  const obs::JsonValue* v = trace.Find("dropped");
  return v == nullptr ? 0 : static_cast<std::uint64_t>(v->AsInt());
}

// --- merged multi-process traces ----------------------------------------

/// The default --merge rendering: per-shard health (including each
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

/// --merge entry point: load every shard, merge, render/emit.
int MergeMain(const std::vector<std::string>& files, bool raw_json,
              bool chrome, bool strict) {
  if (files.empty()) {
    std::fprintf(stderr, "trace_dump: --merge needs shard files\n");
    return 2;
  }
  std::vector<obs::dist::TraceShard> shards;
  for (const std::string& path : files) {
    std::string err;
    auto shard = obs::dist::LoadShardFile(path, &err);
    if (!shard.has_value()) {
      std::fprintf(stderr, "trace_dump: %s: %s\n", path.c_str(),
                   err.c_str());
      return 2;
    }
    if (shard->header.dropped > 0) {
      std::fprintf(stderr,
                   "trace_dump: WARNING: shard %s (rank %llu) dropped %llu"
                   " event(s) to ring overflow\n",
                   path.c_str(),
                   static_cast<unsigned long long>(shard->header.rank),
                   static_cast<unsigned long long>(shard->header.dropped));
    }
    shards.push_back(std::move(*shard));
  }
  std::string err;
  const auto merged = obs::dist::MergeShards(std::move(shards), &err);
  if (!merged.has_value()) {
    std::fprintf(stderr, "trace_dump: merge failed: %s\n", err.c_str());
    return 2;
  }
  if (raw_json) {
    std::printf("%s\n", obs::dist::MergedTraceJson(*merged).Dump(2).c_str());
  } else if (chrome) {
    std::printf("%s\n",
                obs::dist::MergedChromeTrace(*merged).Dump(1).c_str());
  } else {
    RenderMerged(*merged);
  }
  if (strict && merged->total_dropped > 0) return 3;
  return 0;
}

int Main(int argc, char** argv) {
  transport::ConfigureFromCommandLine(&argc, argv);
  bool raw_json = false;
  bool chrome = false;
  bool strict = false;
  bool diff = false;
  bool stats = false;
  bool merge = false;
  std::string mode;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      raw_json = true;
    } else if (arg == "--chrome") {
      chrome = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--merge") {
      merge = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: trace_dump [--json | --chrome | --stats] [--strict]"
          " (<trace.json> | --demo-mpc | --demo-net)\n"
          "       trace_dump --diff <a.json> <b.json>\n"
          "       trace_dump --merge [--json | --chrome] [--strict]"
          " <shard.jsonl...>\n"
          "\n"
          "--merge joins the lamp.traceshard.v1 files of one mpc_procs\n"
          "run (LAMP_TRACE_SHARD=<prefix> mpc_procs ...) into a single\n"
          "mesh-wide trace: clocks aligned via the ring seed-exchange\n"
          "timing, send/recv pairs matched by (sender rank, span) and\n"
          "rendered as per-round latency percentiles plus a cross-process\n"
          "causal profile. With --chrome, each server rank becomes one\n"
          "process lane and matched pairs become flow arrows; --json\n"
          "emits the lamp.merged_trace.v1 document; --strict exits 3 if\n"
          "any shard dropped events.\n"
          "\n"
          "--chrome converts the trace to the Chrome Trace Event Format;\n"
          "save it to a file and open it at ui.perfetto.dev or in\n"
          "chrome://tracing (shards map to threads, spans to slices,\n"
          "loads to counter tracks).\n"
          "--strict exits with status 3 when the trace header reports\n"
          "dropped events, so pipelines notice truncated recordings.\n"
          "--stats prints only per-kind event counts plus the\n"
          "kept/emitted/dropped totals — enough to size the Tracer ring\n"
          "buffer without rendering the timeline.\n"
          "--diff aligns two recordings' transducer-network events by\n"
          "(kind, actor, payload), ignoring wall-clock time, and reports\n"
          "the first divergent delivery — pair it with the witness and\n"
          "reference traces written by fault_hunt.\n");
      return 0;
    } else {
      files.push_back(arg);
      mode = arg;
    }
  }
  if (merge) {
    return MergeMain(files, raw_json, chrome, strict);
  }
  if (diff) {
    if (files.size() != 2) {
      std::fprintf(stderr, "trace_dump: --diff needs exactly two trace"
                           " files\n");
      return 2;
    }
    const std::optional<obs::JsonValue> left = LoadTrace(files[0]);
    const std::optional<obs::JsonValue> right = LoadTrace(files[1]);
    if (!left.has_value() || !right.has_value()) return 2;
    return DiffTraces(*left, *right, files[0], files[1]);
  }
  if (mode.empty()) {
    std::fprintf(stderr,
                 "trace_dump: need a trace file, --demo-mpc or --demo-net"
                 " (see --help)\n");
    return 2;
  }

  obs::JsonValue trace;
  if (mode == "--demo-mpc") {
    trace = DemoMpcTrace();
  } else if (mode == "--demo-net") {
    trace = DemoNetTrace();
  } else {
    std::optional<obs::JsonValue> parsed = LoadTrace(mode);
    if (!parsed.has_value()) return 2;
    trace = std::move(*parsed);
  }

  const std::uint64_t dropped = DroppedCount(trace);
  if (dropped > 0) {
    std::fprintf(stderr,
                 "trace_dump: WARNING: trace dropped %llu event(s) to ring"
                 " overflow — the rendered timeline is TRUNCATED (record"
                 " with a larger Tracer capacity to keep everything)\n",
                 static_cast<unsigned long long>(dropped));
  }
  if (raw_json) {
    std::printf("%s\n", trace.Dump(2).c_str());
  } else if (chrome) {
    std::printf("%s\n", obs::ChromeTraceFromTraceJson(trace).Dump(1).c_str());
  } else if (stats) {
    RenderStats(trace);
  } else {
    Render(trace);
  }
  if (dropped > 0 && strict) return 3;
  return 0;
}

}  // namespace
}  // namespace lamp

int main(int argc, char** argv) { return lamp::Main(argc, argv); }
