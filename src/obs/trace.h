#ifndef LAMP_OBS_TRACE_H_
#define LAMP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"

/// \file
/// Low-overhead event tracing for the MPC simulator, the transducer
/// network runtime and the Datalog engine.
///
/// Design constraints, in order:
///   1. *Zero cost when off.* Instrumented hot paths pay exactly one
///      relaxed pointer load + predictable branch when no tracer is
///      installed (the "null sink"); no clock is read, nothing allocates.
///   2. *Bounded memory when on.* Events land in a fixed-capacity ring
///      buffer; once full, the oldest events are overwritten and counted
///      as dropped. A trace can therefore be left on for an arbitrarily
///      long run.
///   3. *Machine readable.* TraceToJson serialises a trace to the
///      obs JSON schema; tools/lamp_obs renders it as a timeline.
///
/// Event payloads are four scalars (a, b, value, label) whose meaning is
/// fixed per EventKind — see the kind list. Labels must point to storage
/// that outlives the tracer (string literals in practice).
///
/// Installation is process-global and deliberately not thread-safe: a
/// global avoids threading a sink pointer through every simulator and
/// network constructor, and install/uninstall happens between runs.
/// *Emitting*, however, is safe from lamp::par pool workers: each thread
/// writes to its own ring-buffer shard (registered on first emit; lock-free
/// afterwards), and Events() merges the shards chronologically. Read/Clear
/// must not race emits — callers read after the pool has joined, which is
/// what ParallelFor guarantees on return.

namespace lamp::obs {

/// What happened. The comment gives the payload convention.
enum class EventKind : std::uint8_t {
  kSpan = 0,           // label=phase name, a=round, value=duration ns
  kMpcRoundBegin,      // a=round index, value=num servers
  kMpcServerLoad,      // a=round index, b=server, value=tuples received
  kMpcRoundEnd,        // a=round index, value=total load of the round
  kNetStart,           // a=node (heartbeat transition)
  kNetBroadcast,       // a=sender node, value=facts in the message
  kNetDeliver,         // a=receiver node, b=transition index, value=facts
  kNetQuiescent,       // value=total transitions performed
  kDatalogIteration,   // a=stratum, b=iteration within stratum,
                       //   value=delta cardinality
  kNetDrop,            // a=receiver node, value=facts (attempt failed;
                       //   the sender retransmits)
  kNetDuplicate,       // a=receiver node, value=facts (extra copy stays
                       //   in flight; a kNetDeliver event follows)
  kNetCrash,           // a=node, b=1 when the outage is durable
  kNetRestart,         // a=node, b=1 when the outage was durable
  kNetPartition,       // a=isolated-group size, value=step
  kNetHeal,            // value=step
  kNetCausalDeliver,   // a=receiver node, b=transition index of this
                       //   delivery, value=(depth << 32) | (parent
                       //   transition index + 1; 0 = heartbeat origin).
                       //   depth is the message's Lamport causal depth;
                       //   obs/audit/causal.h reconstructs critical paths
                       //   from these events.
  kNetOutput,          // a=node, b=transition index + 1 (0 = produced
                       //   during a heartbeat), value=causal depth at
                       //   which the first new output fact appeared
  kTransportConnect,   // a=endpoints, b=backend (TransportKind), value=
                       //   file descriptors opened (0 for in-process)
  kTransportSend,      // a=sender endpoint, b=receiver endpoint,
                       //   value=frame wire bytes
  kTransportRecv,      // a=receiver endpoint, b=sender endpoint,
                       //   value=frame wire bytes
  kDistSend,           // a=receiver rank, b=logical round, value=sender
                       //   span id. The distributed-trace send stamp: the
                       //   emitting process's rank is implicit in the
                       //   shard identity, so (shard rank, value) is the
                       //   globally unique join key mergers pair with the
                       //   matching kDistRecv (see obs/dist/merge.h).
  kDistRecv,           // a=sender rank, b=logical round, value=sender
                       //   span id carried by the kTraceCtx frame that
                       //   preceded the data frame.
};

/// Stable wire name of a kind ("mpc.server_load", "net.deliver", ...).
std::string_view EventKindName(EventKind kind);

/// One trace record. 32 bytes of scalars + a static label pointer.
struct TraceEvent {
  std::uint64_t t_ns = 0;  // Nanoseconds since the tracer's epoch.
  std::uint64_t value = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  EventKind kind = EventKind::kSpan;
  const char* label = nullptr;  // May be nullptr; static storage only.
};

/// Fixed-capacity ring buffer of TraceEvents, sharded per emitting thread.
/// Each shard holds up to capacity() events; single-threaded runs use
/// exactly one shard and behave like the classic single ring.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Emit(EventKind kind, std::uint32_t a, std::uint32_t b,
            std::uint64_t value, const char* label = nullptr);

  /// Events merged over all shards, chronological (stable by shard for
  /// equal timestamps). With one emitting thread this is exactly the
  /// oldest-to-newest ring content.
  std::vector<TraceEvent> Events() const;

  /// Like Events(), but each event carries the index of the shard (the
  /// emitting thread's registration order) it came from. Shard indices are
  /// what the Chrome Trace exporter maps to tids.
  struct ShardedEvent {
    TraceEvent event;
    std::uint32_t shard = 0;
  };
  std::vector<ShardedEvent> ShardedEvents() const;

  /// Number of per-thread shards registered so far.
  std::size_t num_shards() const;

  /// Per-shard ring capacity.
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t total_emitted() const;
  std::uint64_t dropped() const;

  void Clear();

  /// Nanoseconds since construction/Clear (monotonic).
  std::uint64_t NowNs() const;

 private:
  struct Shard;

  /// The calling thread's shard, registered on first use. Lock-free after
  /// registration via a thread-local cache keyed by the tracer epoch key.
  Shard& ShardForThisThread();

  std::size_t capacity_;
  std::uint64_t key_;  // Process-unique; renewed by Clear (cache invalidation).
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex shards_mu_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<Shard>>> shards_;
};

namespace internal {
/// The installed sink. A plain global: the traced runtimes are
/// single-threaded (see file comment).
inline Tracer* g_tracer = nullptr;
}  // namespace internal

/// Currently installed tracer, or nullptr (the null sink).
inline Tracer* InstalledTracer() { return internal::g_tracer; }

/// Installs \p tracer as the process-global sink; nullptr uninstalls.
/// Returns the previously installed tracer.
Tracer* InstallTracer(Tracer* tracer);

/// RAII installation for tests and tools.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer& tracer) : prev_(InstallTracer(&tracer)) {}
  ~ScopedTracer() { InstallTracer(prev_); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* prev_;
};

/// The hot-path emit: one load + branch when no tracer is installed.
inline void Emit(EventKind kind, std::uint32_t a = 0, std::uint32_t b = 0,
                 std::uint64_t value = 0, const char* label = nullptr) {
  Tracer* t = internal::g_tracer;
  if (t == nullptr) return;
  t->Emit(kind, a, b, value, label);
}

/// Span-style scoped timer: emits one kSpan event with the measured
/// duration on destruction. Reads no clock when tracing is off.
class TraceSpan {
 public:
  explicit TraceSpan(const char* label, std::uint32_t a = 0)
      : tracer_(internal::g_tracer), label_(label), a_(a) {
    if (tracer_ != nullptr) start_ns_ = tracer_->NowNs();
  }
  ~TraceSpan() {
    if (tracer_ == nullptr) return;
    // A span may outlive the ScopedTracer that installed its sink, in
    // which case the captured pointer can dangle. Emit only while the
    // installation is unchanged; otherwise the span is dropped.
    if (internal::g_tracer != tracer_) return;
    tracer_->Emit(EventKind::kSpan, a_, 0, tracer_->NowNs() - start_ns_,
                  label_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* label_;
  std::uint32_t a_;
  std::uint64_t start_ns_ = 0;
};

/// Serialises a trace:
///   {"schema": "lamp.trace.v1", "capacity": N, "total_emitted": N,
///    "dropped": N, "shards": N, "events": [{"t_ns":..,"kind":"..",
///    "a":..,"b":..,"value":..,"shard":..,"label":..}, ...]}
/// "shard" is the emitting thread's shard index (0 in single-threaded
/// runs); readers treat a missing "shard" as 0.
JsonValue TraceToJson(const Tracer& tracer);

/// A lamp.trace.v1 event read back from JSON: the TraceEvent payload with
/// the kind as its stable wire name and the label owned (a recording
/// outlives the process whose static strings TraceEvent::label pointed
/// into). Trace documents and trace shards (obs/dist/shard.h) share it.
struct EventRecord {
  std::uint64_t t_ns = 0;
  std::string kind;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t value = 0;
  std::string label;
};

/// The one lamp.trace.v1 event encoder: {"t_ns","kind","a","b","value"},
/// then "shard" when given, then "label" when set, in that key order.
JsonValue EventToJson(const TraceEvent& event,
                      std::optional<std::uint32_t> shard = std::nullopt);

/// The one decoder: a missing or mistyped field reads as 0 or "", so
/// every JSON value decodes.
EventRecord EventFromJson(const JsonValue& event);

/// Decodes the "events" array of a lamp.trace.v1 document; empty when
/// the document has none.
std::vector<EventRecord> EventsFromJson(const JsonValue& trace);

}  // namespace lamp::obs

#endif  // LAMP_OBS_TRACE_H_
