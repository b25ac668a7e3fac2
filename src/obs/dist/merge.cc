#include "obs/dist/merge.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/metrics.h"

namespace lamp::obs::dist {

namespace {

struct SendInfo {
  std::uint32_t to = 0;
  std::uint64_t round = 0;
  std::uint64_t t_ns = 0;
};

struct RecvInfo {
  std::uint32_t to = 0;
  std::uint64_t round = 0;
  std::uint64_t t_ns = 0;
};

/// (sender rank, span id): the globally unique message key.
using PairKey = std::pair<std::uint64_t, std::uint64_t>;

LatencyStats StatsOf(const std::vector<std::uint64_t>& latencies) {
  LatencyStats stats;
  stats.count = latencies.size();
  if (latencies.empty()) return stats;
  Histogram h;
  for (const std::uint64_t v : latencies) h.Observe(static_cast<double>(v));
  stats.p50_ns = static_cast<std::uint64_t>(h.P50());
  stats.p95_ns = static_cast<std::uint64_t>(h.P95());
  stats.p99_ns = static_cast<std::uint64_t>(h.P99());
  stats.max_ns = static_cast<std::uint64_t>(h.Max());
  return stats;
}

JsonValue StatsJson(const LatencyStats& stats) {
  JsonValue doc = JsonValue::Object();
  doc.Set("count", stats.count);
  doc.Set("p50_ns", static_cast<std::size_t>(stats.p50_ns));
  doc.Set("p95_ns", static_cast<std::size_t>(stats.p95_ns));
  doc.Set("p99_ns", static_cast<std::size_t>(stats.p99_ns));
  doc.Set("max_ns", static_cast<std::size_t>(stats.max_ns));
  return doc;
}

}  // namespace

std::optional<MergedTrace> MergeShards(std::vector<TraceShard> shards,
                                       std::string* error,
                                       const MergeOptions& options) {
  const auto fail = [error](std::string message) -> std::optional<MergedTrace> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  if (shards.empty()) return fail("no shards to merge");
  std::sort(shards.begin(), shards.end(),
            [](const TraceShard& a, const TraceShard& b) {
              return a.header.rank < b.header.rank;
            });
  MergedTrace merged;
  merged.procs = shards.front().header.procs;
  merged.trace_id = shards.front().header.trace_id;
  merged.label = shards.front().header.label;
  if (shards.size() != merged.procs) {
    return fail("expected " + std::to_string(merged.procs) + " shards, got " +
                std::to_string(shards.size()));
  }
  for (std::size_t r = 0; r < shards.size(); ++r) {
    const ShardHeader& h = shards[r].header;
    if (h.rank != r) {
      return fail("shard ranks are not exactly 0.." +
                  std::to_string(merged.procs - 1) + " (missing or duplicate " +
                  "rank " + std::to_string(r) + ")");
    }
    if (h.procs != merged.procs || h.trace_id != merged.trace_id) {
      return fail("shard for rank " + std::to_string(r) +
                  " belongs to a different run (procs/trace_id mismatch)");
    }
    merged.total_dropped += h.dropped;
  }
  merged.shards = std::move(shards);
  const std::size_t p = merged.procs;

  // --- step 1: offset estimates from the seed-exchange ring lap ---------
  std::vector<std::int64_t> off(p, 0);
  const ShardHeader& h0 = merged.shards[0].header;
  if (p > 1 && h0.ring_t1_ns > h0.ring_t0_ns) {
    const std::int64_t t0 = static_cast<std::int64_t>(h0.ring_t0_ns);
    const std::int64_t lap =
        static_cast<std::int64_t>(h0.ring_t1_ns - h0.ring_t0_ns);
    for (std::size_t r = 1; r < p; ++r) {
      // The fold token reached rank r about r/p of the way through the
      // lap (uniform-hop model); that instant read ring_fold_ns on rank
      // r's clock.
      const std::int64_t est_ref =
          t0 + lap * static_cast<std::int64_t>(r) / static_cast<std::int64_t>(p);
      off[r] =
          est_ref - static_cast<std::int64_t>(merged.shards[r].header.ring_fold_ns);
    }
  }

  // --- join dist.send with dist.recv on (sender rank, span) -------------
  std::map<PairKey, SendInfo> sends;
  std::map<PairKey, RecvInfo> recvs;
  for (const TraceShard& shard : merged.shards) {
    const std::uint64_t rank = shard.header.rank;
    for (const EventRecord& e : shard.events) {
      if (e.kind == "dist.send") {
        const PairKey key{rank, e.value};
        if (!sends.emplace(key, SendInfo{e.a, e.b, e.t_ns}).second) {
          ++merged.unmatched_sends;  // Duplicate span id: keep the first.
        }
      } else if (e.kind == "dist.recv") {
        const PairKey key{e.a, e.value};
        if (!recvs
                 .emplace(key,
                          RecvInfo{static_cast<std::uint32_t>(rank), e.b,
                                   e.t_ns})
                 .second) {
          ++merged.unmatched_recvs;
        }
      }
    }
  }
  struct RawPair {
    std::uint32_t from, to;
    std::uint64_t span, round, send_ns, recv_ns;
  };
  std::vector<RawPair> raw;
  raw.reserve(sends.size());
  for (const auto& [key, send] : sends) {
    const auto it = recvs.find(key);
    if (it == recvs.end()) {
      ++merged.unmatched_sends;
      continue;
    }
    if (key.first >= p || it->second.to >= p) {
      return fail("pair references rank outside mesh");
    }
    raw.push_back(RawPair{static_cast<std::uint32_t>(key.first),
                          it->second.to, key.second, send.round, send.t_ns,
                          it->second.t_ns});
  }
  for (const auto& [key, recv] : recvs) {
    if (sends.find(key) == sends.end()) ++merged.unmatched_recvs;
  }

  // --- step 2: causality repair (difference constraints) ----------------
  // off[to] - off[from] >= send - recv + min_latency for every pair;
  // longest-path relaxation, anchored by normalising afterwards.
  const std::int64_t min_lat = options.min_latency_ns;
  bool changed = true;
  std::size_t iterations = 0;
  const std::size_t max_iterations = p * raw.size() + 2;
  while (changed) {
    if (++iterations > max_iterations) {
      return fail(
          "clock-offset constraints do not converge: shards are not "
          "causally consistent (mixed runs or corrupt timestamps)");
    }
    changed = false;
    for (const RawPair& pr : raw) {
      const std::int64_t need = off[pr.from] +
                                static_cast<std::int64_t>(pr.send_ns) -
                                static_cast<std::int64_t>(pr.recv_ns) + min_lat;
      if (off[pr.to] < need) {
        off[pr.to] = need;
        changed = true;
      }
    }
  }
  const std::int64_t base = *std::min_element(off.begin(), off.end());
  for (std::int64_t& o : off) o -= base;
  merged.offset_ns = std::move(off);

  // --- aligned pairs, deterministic order -------------------------------
  merged.pairs.reserve(raw.size());
  for (const RawPair& pr : raw) {
    MatchedPair pair;
    pair.from = pr.from;
    pair.to = pr.to;
    pair.span = pr.span;
    pair.round = pr.round;
    pair.send_ns = merged.AlignedNs(pr.from, pr.send_ns);
    pair.recv_ns = merged.AlignedNs(pr.to, pr.recv_ns);
    merged.pairs.push_back(pair);
  }
  std::sort(merged.pairs.begin(), merged.pairs.end(),
            [](const MatchedPair& a, const MatchedPair& b) {
              if (a.send_ns != b.send_ns) return a.send_ns < b.send_ns;
              if (a.from != b.from) return a.from < b.from;
              return a.span < b.span;
            });

  // --- Lamport depths over the aligned order ----------------------------
  // Same convention as the transducer runtime (obs/audit/causal.h): a
  // root message is depth 1; otherwise depth = 1 + the deepest message
  // its sender had consumed before sending.
  struct Endpoint {
    std::uint64_t t_ns;
    bool is_recv;
    std::uint32_t pair;  // Index into merged.pairs.
  };
  std::vector<Endpoint> order;
  order.reserve(merged.pairs.size() * 2);
  for (std::uint32_t i = 0; i < merged.pairs.size(); ++i) {
    order.push_back(Endpoint{merged.pairs[i].send_ns, false, i});
    order.push_back(Endpoint{merged.pairs[i].recv_ns, true, i});
  }
  std::sort(order.begin(), order.end(),
            [](const Endpoint& a, const Endpoint& b) {
              if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
              if (a.is_recv != b.is_recv) return !a.is_recv;  // Sends first.
              return a.pair < b.pair;
            });
  std::vector<std::uint64_t> consumed_depth(p, 0);  // Deepest consumed.
  std::vector<std::uint32_t> deepest_pair(p, 0);    // Its pair index + 1.
  for (const Endpoint& ep : order) {
    MatchedPair& pair = merged.pairs[ep.pair];
    if (!ep.is_recv) {
      pair.depth = consumed_depth[pair.from] + 1;
      pair.parent = deepest_pair[pair.from];
    } else {
      if (pair.depth > consumed_depth[pair.to]) {
        consumed_depth[pair.to] = pair.depth;
        deepest_pair[pair.to] = ep.pair + 1;
      }
      merged.max_depth = std::max(merged.max_depth, pair.depth);
    }
  }
  return merged;
}

LatencyStats EndToEndLatency(const MergedTrace& merged) {
  std::vector<std::uint64_t> latencies;
  latencies.reserve(merged.pairs.size());
  for (const MatchedPair& pair : merged.pairs) {
    latencies.push_back(pair.latency_ns());
  }
  return StatsOf(latencies);
}

std::vector<RoundLatency> RoundLatencies(const MergedTrace& merged) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> by_round;
  for (const MatchedPair& pair : merged.pairs) {
    by_round[pair.round].push_back(pair.latency_ns());
  }
  std::vector<RoundLatency> out;
  out.reserve(by_round.size());
  for (const auto& [round, latencies] : by_round) {
    out.push_back(RoundLatency{round, StatsOf(latencies)});
  }
  return out;
}

JsonValue LatencySummaryJson(const MergedTrace& merged) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.wirelat.v1");
  doc.Set("trace_id", static_cast<std::size_t>(merged.trace_id));
  doc.Set("procs", static_cast<std::size_t>(merged.procs));
  doc.Set("label", merged.label);
  doc.Set("pairs", merged.pairs.size());
  doc.Set("unmatched_sends", static_cast<std::size_t>(merged.unmatched_sends));
  doc.Set("unmatched_recvs", static_cast<std::size_t>(merged.unmatched_recvs));
  doc.Set("dropped", static_cast<std::size_t>(merged.total_dropped));
  doc.Set("max_depth", static_cast<std::size_t>(merged.max_depth));
  doc.Set("end_to_end", StatsJson(EndToEndLatency(merged)));
  JsonValue rounds = JsonValue::Array();
  for (const RoundLatency& rl : RoundLatencies(merged)) {
    JsonValue entry = StatsJson(rl.stats);
    entry.Set("round", static_cast<std::size_t>(rl.round));
    rounds.PushBack(std::move(entry));
  }
  doc.Set("rounds", std::move(rounds));
  return doc;
}

JsonValue MergedTraceJson(const MergedTrace& merged) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.merged_trace.v1");
  doc.Set("trace_id", static_cast<std::size_t>(merged.trace_id));
  doc.Set("procs", static_cast<std::size_t>(merged.procs));
  doc.Set("label", merged.label);
  JsonValue offsets = JsonValue::Array();
  for (const std::int64_t o : merged.offset_ns) {
    offsets.PushBack(static_cast<std::int64_t>(o));
  }
  doc.Set("offset_ns", std::move(offsets));
  JsonValue shards = JsonValue::Array();
  for (const TraceShard& shard : merged.shards) {
    JsonValue s = JsonValue::Object();
    s.Set("rank", static_cast<std::size_t>(shard.header.rank));
    s.Set("events", shard.events.size());
    s.Set("dropped", static_cast<std::size_t>(shard.header.dropped));
    s.Set("total_emitted",
          static_cast<std::size_t>(shard.header.total_emitted));
    shards.PushBack(std::move(s));
  }
  doc.Set("shards", std::move(shards));
  JsonValue pairs = JsonValue::Array();
  for (const MatchedPair& pair : merged.pairs) {
    JsonValue jp = JsonValue::Object();
    jp.Set("from", static_cast<std::size_t>(pair.from));
    jp.Set("to", static_cast<std::size_t>(pair.to));
    jp.Set("span", static_cast<std::size_t>(pair.span));
    jp.Set("round", static_cast<std::size_t>(pair.round));
    jp.Set("send_ns", static_cast<std::size_t>(pair.send_ns));
    jp.Set("recv_ns", static_cast<std::size_t>(pair.recv_ns));
    jp.Set("depth", static_cast<std::size_t>(pair.depth));
    jp.Set("parent", static_cast<std::size_t>(pair.parent));
    pairs.PushBack(std::move(jp));
  }
  doc.Set("pairs", std::move(pairs));
  // Every shard event, clock-aligned and merged; ties keep rank order
  // then per-shard emission order (deterministic for golden pinning).
  struct Merged {
    std::uint64_t t_ns;
    std::uint32_t rank;
    const EventRecord* event;
  };
  std::vector<Merged> events;
  for (const TraceShard& shard : merged.shards) {
    for (const EventRecord& e : shard.events) {
      events.push_back(Merged{
          merged.AlignedNs(shard.header.rank, e.t_ns),
          static_cast<std::uint32_t>(shard.header.rank), &e});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Merged& a, const Merged& b) {
                     return a.t_ns < b.t_ns;
                   });
  JsonValue out_events = JsonValue::Array();
  for (const Merged& m : events) {
    JsonValue je = JsonValue::Object();
    je.Set("t_ns", static_cast<std::size_t>(m.t_ns));
    je.Set("rank", static_cast<std::size_t>(m.rank));
    je.Set("kind", m.event->kind);
    je.Set("a", static_cast<std::size_t>(m.event->a));
    je.Set("b", static_cast<std::size_t>(m.event->b));
    je.Set("value", static_cast<std::size_t>(m.event->value));
    if (!m.event->label.empty()) je.Set("label", m.event->label);
    out_events.PushBack(std::move(je));
  }
  doc.Set("events", std::move(out_events));
  doc.Set("latency", LatencySummaryJson(merged));
  return doc;
}

JsonValue MergedChromeTrace(const MergedTrace& merged) {
  JsonValue events = JsonValue::Array();
  const auto us = [](std::uint64_t ns) {
    return JsonValue(static_cast<double>(ns) / 1000.0);
  };
  for (const TraceShard& shard : merged.shards) {
    const std::size_t pid = shard.header.rank + 1;
    JsonValue meta = JsonValue::Object();
    meta.Set("name", "process_name");
    meta.Set("ph", "M");
    meta.Set("pid", pid);
    meta.Set("tid", std::size_t{0});
    JsonValue margs = JsonValue::Object();
    margs.Set("name", "server " + std::to_string(shard.header.rank));
    meta.Set("args", std::move(margs));
    events.PushBack(std::move(meta));
  }
  // Per-rank local events: spans as slices, the rest as thread instants.
  for (const TraceShard& shard : merged.shards) {
    const std::size_t pid = shard.header.rank + 1;
    const std::uint64_t rank = shard.header.rank;
    for (const EventRecord& e : shard.events) {
      JsonValue je = JsonValue::Object();
      je.Set("name", e.label.empty() ? e.kind : e.label);
      je.Set("cat", e.kind);
      if (e.kind == "span") {
        je.Set("ph", "X");
        // A span event is stamped at its *end*; value is the duration.
        const std::uint64_t end_ns = merged.AlignedNs(rank, e.t_ns);
        const std::uint64_t start_ns =
            end_ns > e.value ? end_ns - e.value : 0;
        je.Set("ts", us(start_ns));
        je.Set("dur", us(e.value));
      } else {
        je.Set("ph", "i");
        je.Set("s", "t");
        je.Set("ts", us(merged.AlignedNs(rank, e.t_ns)));
      }
      je.Set("pid", pid);
      je.Set("tid", std::size_t{0});
      JsonValue args = JsonValue::Object();
      args.Set("a", static_cast<std::size_t>(e.a));
      args.Set("b", static_cast<std::size_t>(e.b));
      args.Set("value", static_cast<std::size_t>(e.value));
      je.Set("args", std::move(args));
      events.PushBack(std::move(je));
    }
  }
  // Matched pairs: a 1 µs slice at each endpoint with a flow arrow
  // (send lane -> recv lane) bound to them.
  for (std::size_t i = 0; i < merged.pairs.size(); ++i) {
    const MatchedPair& pair = merged.pairs[i];
    const std::string name = "wire " + std::to_string(pair.from) + "->" +
                             std::to_string(pair.to) + " r" +
                             std::to_string(pair.round);
    JsonValue args = JsonValue::Object();
    args.Set("span", static_cast<std::size_t>(pair.span));
    args.Set("round", static_cast<std::size_t>(pair.round));
    args.Set("latency_ns", static_cast<std::size_t>(pair.latency_ns()));
    args.Set("depth", static_cast<std::size_t>(pair.depth));
    const auto slice = [&](std::size_t pid, std::uint64_t ts_ns,
                           const char* suffix) {
      JsonValue je = JsonValue::Object();
      je.Set("name", name + suffix);
      je.Set("cat", "wire");
      je.Set("ph", "X");
      je.Set("ts", us(ts_ns));
      je.Set("dur", 1.0);
      je.Set("pid", pid);
      je.Set("tid", std::size_t{0});
      je.Set("args", args);
      events.PushBack(std::move(je));
    };
    slice(pair.from + 1, pair.send_ns, " send");
    slice(pair.to + 1, pair.recv_ns, " recv");
    const auto flow = [&](const char* ph, std::size_t pid,
                          std::uint64_t ts_ns) {
      JsonValue je = JsonValue::Object();
      je.Set("name", "wire");
      je.Set("cat", "wire");
      je.Set("ph", ph);
      je.Set("id", i + 1);
      je.Set("ts", us(ts_ns));
      je.Set("pid", pid);
      je.Set("tid", std::size_t{0});
      if (ph[0] == 'f') je.Set("bp", "e");
      events.PushBack(std::move(je));
    };
    flow("s", pair.from + 1, pair.send_ns);
    flow("f", pair.to + 1, pair.recv_ns);
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ns");
  JsonValue meta = JsonValue::Object();
  meta.Set("schema", "lamp.merged_trace.v1");
  meta.Set("trace_id", static_cast<std::size_t>(merged.trace_id));
  meta.Set("procs", static_cast<std::size_t>(merged.procs));
  meta.Set("label", merged.label);
  meta.Set("dropped", static_cast<std::size_t>(merged.total_dropped));
  doc.Set("metadata", std::move(meta));
  return doc;
}

}  // namespace lamp::obs::dist
