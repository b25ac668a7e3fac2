#ifndef LAMP_OBS_DIST_SHARD_H_
#define LAMP_OBS_DIST_SHARD_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

/// \file
/// Per-process trace shards ("lamp.traceshard.v1"): the on-disk half of
/// distributed tracing.
///
/// Every `mpc_procs` worker runs with an isolated in-process Tracer; at
/// exit it flushes the ring buffer to a JSON-lines file so a merger
/// (obs/dist/merge.h, `lamp_obs merge`) can reassemble one mesh-wide
/// trace after the processes are gone. The format is JSON-lines rather
/// than one document so a crashed worker still leaves a parseable prefix:
///
///   line 1:   {"schema":"lamp.traceshard.v1","rank":R,"procs":P,
///              "trace_id":T,"label":"...","ring_t0_ns":..,"ring_t1_ns":..,
///              "ring_fold_ns":..,"dropped":D,"total_emitted":E}
///   line 2..: {"t_ns":..,"kind":"dist.send","a":..,"b":..,"value":..}
///
/// Event lines are "lamp.trace.v1" events without "shard", written and read
/// by the trace.v1 codec (EventToJson / EventFromJson in obs/trace.h).
///
/// Clock metadata: process-local tracer clocks start at an arbitrary
/// epoch, so shard timestamps are mutually incomparable until aligned.
/// The ring seed exchange (tools/mpc_procs) doubles as the timing probe —
/// it is the one moment every process provably touches the same token in
/// a known order:
///  * rank 0 records `ring_t0_ns` when it starts the fold lap and
///    `ring_t1_ns` when the folded token returns (a full ring lap);
///  * every rank records `ring_fold_ns`, its local clock when the fold
///    token passed through it.
/// The merger interpolates rank r's position in rank 0's lap
/// (t0 + r/p of the lap) to estimate per-process clock offsets; see
/// obs/dist/merge.h for the alignment contract.

namespace lamp::obs::dist {

/// Shard metadata (the first JSON line).
struct ShardHeader {
  std::uint64_t rank = 0;      // This process's server rank.
  std::uint64_t procs = 1;     // Mesh size p.
  std::uint64_t trace_id = 0;  // Shared by all shards of one run.
  std::string label;           // Scenario/run label (free-form).
  std::uint64_t ring_t0_ns = 0;    // Rank 0 only: fold-lap start.
  std::uint64_t ring_t1_ns = 0;    // Rank 0 only: fold-lap end.
  std::uint64_t ring_fold_ns = 0;  // Local time the fold token arrived.
  std::uint64_t dropped = 0;       // Ring-buffer drops in this process.
  std::uint64_t total_emitted = 0;

  JsonValue ToJson() const;
  static std::optional<ShardHeader> FromJson(const JsonValue& doc);
};

/// A loaded shard: header plus events in emission order.
struct TraceShard {
  ShardHeader header;
  std::vector<EventRecord> events;
};

/// Canonical shard path `<prefix>.<label>.p<procs>.r<rank>.jsonl`. The
/// label and mesh size are baked into the name so one LAMP_TRACE_SHARD
/// prefix survives a --selfcheck sweep (scenarios × p) without shards
/// overwriting each other.
std::string ShardPath(std::string_view prefix, std::string_view label,
                      std::uint64_t procs, std::uint64_t rank);

/// Writes \p tracer's merged ring content as a shard. `header.dropped` and
/// `header.total_emitted` are overwritten from the tracer; every other
/// header field is the caller's.
void WriteShard(std::ostream& os, const ShardHeader& header,
                const Tracer& tracer);

/// WriteShard to a file; false (with no partial file guarantees) when the
/// path cannot be opened.
bool WriteShardFile(const std::string& path, const ShardHeader& header,
                    const Tracer& tracer);

/// Parses one shard. Returns nullopt and sets \p error (when non-null) on
/// a missing/malformed header line; malformed *event* lines after a good
/// header are skipped so a truncated tail (crashed worker) still loads.
std::optional<TraceShard> ParseShard(std::istream& is, std::string* error);
std::optional<TraceShard> LoadShardFile(const std::string& path,
                                        std::string* error);

}  // namespace lamp::obs::dist

#endif  // LAMP_OBS_DIST_SHARD_H_
