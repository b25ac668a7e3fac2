#ifndef LAMP_OBS_CHROME_TRACE_H_
#define LAMP_OBS_CHROME_TRACE_H_

#include "obs/json.h"
#include "obs/trace.h"

/// \file
/// Exports a lamp.trace.v1 recording to the Chrome Trace Event Format —
/// the JSON object format understood by Perfetto (ui.perfetto.dev) and
/// chrome://tracing — so any MPC or transducer run can be inspected in a
/// standard trace viewer instead of only through tools/lamp_obs.
///
/// Mapping (all events live in pid 1, "lamp"):
///   tracer shard i     -> tid i, named "tracer shard i" via thread_name
///                         metadata (per-thread ring shards become viewer
///                         tracks)
///   span               -> one complete "X" event; lamp spans are emitted
///                         at their *end* with the duration in value, so
///                         ts = t_ns - value and dur = value
///   mpc.round_end      -> counter "mpc.round_load" (total tuples routed)
///   mpc.server_load    -> counter "mpc.server_load" (per-delivery tuples)
///   net.broadcast,
///   net.deliver        -> counter "net.message_facts" (facts per message)
///   datalog.iteration  -> counter "datalog.delta" (delta cardinality)
///   transport.send,
///   transport.recv     -> counter "transport.wire_bytes" with two series
///                         (cumulative "sent"/"received" lamp.wire.v1
///                         bytes; the staircase slope is instantaneous
///                         wire throughput)
///   every non-span kind -> thread-scoped instant "i" event named by its
///                         wire kind, payload in args {a, b, value}
///
/// Timestamps convert from integer nanoseconds to the format's fractional
/// microseconds. Events missing a "shard" field (traces recorded before
/// shard indices were serialised) map to tid 0.

namespace lamp::obs {

/// Converts a parsed lamp.trace.v1 document (a live tracer converts via
/// TraceToJson). Unknown event kinds still produce instant events; a
/// document without an "events" array yields just the process/thread
/// metadata.
JsonValue ChromeTraceFromTraceJson(const JsonValue& trace);

}  // namespace lamp::obs

#endif  // LAMP_OBS_CHROME_TRACE_H_
