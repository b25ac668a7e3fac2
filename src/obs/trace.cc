#include "obs/trace.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"

namespace lamp::obs {

namespace {

/// Tracer epoch keys are process-unique and never reused, so a stale
/// thread-local shard cache entry can only miss, never alias a new tracer
/// (or a cleared one) by accident.
std::atomic<std::uint64_t> g_next_tracer_key{1};

struct ShardCache {
  std::uint64_t key = 0;
  void* shard = nullptr;
};
thread_local ShardCache t_shard_cache;

}  // namespace

/// One thread's ring. Only the owning thread writes it; readers run after
/// the emitting parallel region has joined.
struct Tracer::Shard {
  std::vector<TraceEvent> ring;
  std::size_t next = 0;     // Ring write cursor.
  std::uint64_t total = 0;  // Events ever emitted by this thread.
};

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSpan:
      return "span";
    case EventKind::kMpcRoundBegin:
      return "mpc.round_begin";
    case EventKind::kMpcServerLoad:
      return "mpc.server_load";
    case EventKind::kMpcRoundEnd:
      return "mpc.round_end";
    case EventKind::kNetStart:
      return "net.start";
    case EventKind::kNetBroadcast:
      return "net.broadcast";
    case EventKind::kNetDeliver:
      return "net.deliver";
    case EventKind::kNetQuiescent:
      return "net.quiescent";
    case EventKind::kDatalogIteration:
      return "datalog.iteration";
    case EventKind::kNetDrop:
      return "net.drop";
    case EventKind::kNetDuplicate:
      return "net.duplicate";
    case EventKind::kNetCrash:
      return "net.crash";
    case EventKind::kNetRestart:
      return "net.restart";
    case EventKind::kNetPartition:
      return "net.partition";
    case EventKind::kNetHeal:
      return "net.heal";
    case EventKind::kNetCausalDeliver:
      return "net.causal_deliver";
    case EventKind::kNetOutput:
      return "net.output";
    case EventKind::kTransportConnect:
      return "transport.connect";
    case EventKind::kTransportSend:
      return "transport.send";
    case EventKind::kTransportRecv:
      return "transport.recv";
    case EventKind::kDistSend:
      return "dist.send";
    case EventKind::kDistRecv:
      return "dist.recv";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity),
      key_(g_next_tracer_key.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {
  LAMP_CHECK(capacity_ > 0);
}

Tracer::~Tracer() = default;

std::uint64_t Tracer::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::Shard& Tracer::ShardForThisThread() {
  if (t_shard_cache.key == key_) {
    return *static_cast<Shard*>(t_shard_cache.shard);
  }
  std::lock_guard<std::mutex> lock(shards_mu_);
  const std::thread::id tid = std::this_thread::get_id();
  Shard* shard = nullptr;
  for (auto& [id, s] : shards_) {
    if (id == tid) {
      shard = s.get();
      break;
    }
  }
  if (shard == nullptr) {
    shards_.emplace_back(tid, std::make_unique<Shard>());
    shard = shards_.back().second.get();
    shard->ring.reserve(capacity_);
  }
  t_shard_cache = ShardCache{key_, shard};
  return *shard;
}

void Tracer::Emit(EventKind kind, std::uint32_t a, std::uint32_t b,
                  std::uint64_t value, const char* label) {
  Shard& s = ShardForThisThread();
  TraceEvent e;
  e.t_ns = NowNs();
  e.value = value;
  e.a = a;
  e.b = b;
  e.kind = kind;
  e.label = label;
  if (s.ring.size() < capacity_) {
    s.ring.push_back(e);
  } else {
    s.ring[s.next] = e;
  }
  s.next = (s.next + 1) % capacity_;
  ++s.total;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::size_t n = 0;
  for (const auto& [id, s] : shards_) n += s->ring.size();
  return n;
}

std::uint64_t Tracer::total_emitted() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::uint64_t n = 0;
  for (const auto& [id, s] : shards_) n += s->total;
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::uint64_t n = 0;
  for (const auto& [id, s] : shards_) n += s->total - s->ring.size();
  return n;
}

std::vector<Tracer::ShardedEvent> Tracer::ShardedEvents() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::vector<ShardedEvent> out;
  std::uint32_t shard_index = 0;
  for (const auto& [id, s] : shards_) {
    out.reserve(out.size() + s->ring.size());
    if (s->ring.size() < capacity_) {
      // Not yet wrapped: chronological as stored.
      for (const TraceEvent& e : s->ring) {
        out.push_back(ShardedEvent{e, shard_index});
      }
    } else {
      // next points at the oldest event once the ring is full.
      for (std::size_t i = 0; i < s->ring.size(); ++i) {
        out.push_back(
            ShardedEvent{s->ring[(s->next + i) % capacity_], shard_index});
      }
    }
    ++shard_index;
  }
  // Merge shards chronologically; stable, so the single-shard case (every
  // deterministic golden trace) keeps exact emission order.
  std::stable_sort(out.begin(), out.end(),
                   [](const ShardedEvent& a, const ShardedEvent& b) {
                     return a.event.t_ns < b.event.t_ns;
                   });
  return out;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  for (const ShardedEvent& se : ShardedEvents()) out.push_back(se.event);
  return out;
}

std::size_t Tracer::num_shards() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  return shards_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(shards_mu_);
  shards_.clear();
  key_ = g_next_tracer_key.fetch_add(1, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

Tracer* InstallTracer(Tracer* tracer) {
  Tracer* prev = internal::g_tracer;
  internal::g_tracer = tracer;
  return prev;
}

JsonValue TraceToJson(const Tracer& tracer) {
  JsonValue out = JsonValue::Object();
  out.Set("schema", "lamp.trace.v1");
  out.Set("capacity", tracer.capacity());
  out.Set("total_emitted", static_cast<std::size_t>(tracer.total_emitted()));
  out.Set("dropped", static_cast<std::size_t>(tracer.dropped()));
  out.Set("shards", tracer.num_shards());
  JsonValue events = JsonValue::Array();
  for (const Tracer::ShardedEvent& se : tracer.ShardedEvents()) {
    events.PushBack(EventToJson(se.event, se.shard));
  }
  out.Set("events", std::move(events));
  return out;
}

JsonValue EventToJson(const TraceEvent& event,
                      std::optional<std::uint32_t> shard) {
  JsonValue je = JsonValue::Object();
  je.Set("t_ns", static_cast<std::size_t>(event.t_ns));
  je.Set("kind", EventKindName(event.kind));
  je.Set("a", static_cast<std::size_t>(event.a));
  je.Set("b", static_cast<std::size_t>(event.b));
  je.Set("value", static_cast<std::size_t>(event.value));
  if (shard.has_value()) je.Set("shard", static_cast<std::size_t>(*shard));
  if (event.label != nullptr) je.Set("label", event.label);
  return je;
}

EventRecord EventFromJson(const JsonValue& event) {
  // AsInt reads a non-number as 0 and AsString a non-string as "".
  const auto u64 = [&event](std::string_view key) -> std::uint64_t {
    const JsonValue* v = event.Find(key);
    return v == nullptr ? 0 : static_cast<std::uint64_t>(v->AsInt());
  };
  EventRecord e;
  e.t_ns = u64("t_ns");
  e.a = static_cast<std::uint32_t>(u64("a"));
  e.b = static_cast<std::uint32_t>(u64("b"));
  e.value = u64("value");
  if (const JsonValue* v = event.Find("kind")) e.kind = v->AsString();
  if (const JsonValue* v = event.Find("label")) e.label = v->AsString();
  return e;
}

std::vector<EventRecord> EventsFromJson(const JsonValue& trace) {
  std::vector<EventRecord> out;
  const JsonValue* events = trace.Find("events");
  if (events == nullptr || !events->IsArray()) return out;
  out.reserve(events->size());
  for (std::size_t i = 0; i < events->size(); ++i) {
    out.push_back(EventFromJson(events->at(i)));
  }
  return out;
}

}  // namespace lamp::obs
