#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

namespace lamp::obs {

namespace {

constexpr int kPid = 1;

double ToUs(std::uint64_t t_ns) { return static_cast<double>(t_ns) / 1e3; }

JsonValue MetadataEvent(const char* name, int tid, std::string_view value) {
  JsonValue e = JsonValue::Object();
  e.Set("name", name);
  e.Set("ph", "M");
  e.Set("pid", kPid);
  e.Set("tid", tid);
  JsonValue args = JsonValue::Object();
  args.Set("name", value);
  e.Set("args", std::move(args));
  return e;
}

JsonValue CounterEvent(std::string_view name, double ts_us, int tid,
                       std::string_view series, std::uint64_t value) {
  JsonValue e = JsonValue::Object();
  e.Set("name", name);
  e.Set("ph", "C");
  e.Set("ts", ts_us);
  e.Set("pid", kPid);
  e.Set("tid", tid);
  JsonValue args = JsonValue::Object();
  args.Set(series, static_cast<std::size_t>(value));
  e.Set("args", std::move(args));
  return e;
}

}  // namespace

JsonValue ChromeTraceFromTraceJson(const JsonValue& trace) {
  JsonValue events = JsonValue::Array();
  events.PushBack(MetadataEvent("process_name", 0, "lamp"));

  const JsonValue* in_events = trace.Find("events");

  // Thread-name metadata for every shard that appears; emitted up front so
  // viewers label tracks before the first real event.
  std::set<int> shards;
  if (in_events != nullptr && in_events->IsArray()) {
    for (std::size_t i = 0; i < in_events->size(); ++i) {
      const JsonValue* shard = in_events->at(i).Find("shard");
      shards.insert(shard != nullptr && shard->IsNumber()
                        ? static_cast<int>(shard->AsInt())
                        : 0);
    }
  }
  if (shards.empty()) shards.insert(0);
  for (int s : shards) {
    events.PushBack(MetadataEvent("thread_name", s,
                                  "tracer shard " + std::to_string(s)));
  }

  // Cumulative wire-byte totals feeding the dedicated transport counter
  // track: the viewer shows a monotone staircase whose slope is the
  // instantaneous wire throughput of the run.
  std::uint64_t wire_sent = 0;
  std::uint64_t wire_received = 0;

  if (in_events != nullptr && in_events->IsArray()) {
    for (std::size_t i = 0; i < in_events->size(); ++i) {
      const JsonValue& in = in_events->at(i);
      const EventRecord ev = EventFromJson(in);
      int tid = 0;
      if (const auto* v = in.Find("shard")) tid = static_cast<int>(v->AsInt());

      if (ev.kind == "span") {
        // The span event lands at its end; value carries the duration.
        JsonValue e = JsonValue::Object();
        e.Set("name", ev.label.empty() ? "span" : ev.label);
        e.Set("ph", "X");
        e.Set("ts", ToUs(ev.t_ns >= ev.value ? ev.t_ns - ev.value : 0));
        e.Set("dur", ToUs(ev.value));
        e.Set("pid", kPid);
        e.Set("tid", tid);
        JsonValue args = JsonValue::Object();
        args.Set("a", static_cast<std::size_t>(ev.a));
        e.Set("args", std::move(args));
        events.PushBack(std::move(e));
        continue;
      }

      const double ts = ToUs(ev.t_ns);
      JsonValue e = JsonValue::Object();
      e.Set("name", ev.kind.empty() ? "event" : ev.kind);
      e.Set("ph", "i");
      e.Set("ts", ts);
      e.Set("pid", kPid);
      e.Set("tid", tid);
      e.Set("s", "t");
      JsonValue args = JsonValue::Object();
      args.Set("a", static_cast<std::size_t>(ev.a));
      args.Set("b", static_cast<std::size_t>(ev.b));
      args.Set("value", static_cast<std::size_t>(ev.value));
      if (!ev.label.empty()) args.Set("label", ev.label);
      e.Set("args", std::move(args));
      events.PushBack(std::move(e));

      // Load-like kinds additionally feed a counter track.
      if (ev.kind == "mpc.round_end") {
        events.PushBack(
            CounterEvent("mpc.round_load", ts, tid, "tuples", ev.value));
      } else if (ev.kind == "mpc.server_load") {
        events.PushBack(
            CounterEvent("mpc.server_load", ts, tid, "tuples", ev.value));
      } else if (ev.kind == "net.broadcast" || ev.kind == "net.deliver") {
        events.PushBack(
            CounterEvent("net.message_facts", ts, tid, "facts", ev.value));
      } else if (ev.kind == "datalog.iteration") {
        events.PushBack(
            CounterEvent("datalog.delta", ts, tid, "facts", ev.value));
      } else if (ev.kind == "transport.send" || ev.kind == "transport.recv") {
        if (ev.kind == "transport.send") {
          wire_sent += ev.value;
        } else {
          wire_received += ev.value;
        }
        JsonValue counter = JsonValue::Object();
        counter.Set("name", "transport.wire_bytes");
        counter.Set("ph", "C");
        counter.Set("ts", ts);
        counter.Set("pid", kPid);
        counter.Set("tid", tid);
        JsonValue series = JsonValue::Object();
        series.Set("sent", static_cast<std::size_t>(wire_sent));
        series.Set("received", static_cast<std::size_t>(wire_received));
        counter.Set("args", std::move(series));
        events.PushBack(std::move(counter));
      }
    }
  }

  JsonValue out = JsonValue::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", "ms");
  JsonValue other = JsonValue::Object();
  other.Set("source", "lamp.trace.v1");
  if (const auto* v = trace.Find("dropped")) other.Set("dropped", *v);
  out.Set("otherData", std::move(other));
  return out;
}

}  // namespace lamp::obs
