#include "obs/dist/shard.h"

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

namespace lamp::obs::dist {

namespace {

constexpr std::string_view kSchema = "lamp.traceshard.v1";

std::uint64_t GetU64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  return v == nullptr ? 0 : static_cast<std::uint64_t>(v->AsInt());
}

}  // namespace

JsonValue ShardHeader::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", kSchema);
  doc.Set("rank", static_cast<std::size_t>(rank));
  doc.Set("procs", static_cast<std::size_t>(procs));
  doc.Set("trace_id", static_cast<std::size_t>(trace_id));
  doc.Set("label", label);
  doc.Set("ring_t0_ns", static_cast<std::size_t>(ring_t0_ns));
  doc.Set("ring_t1_ns", static_cast<std::size_t>(ring_t1_ns));
  doc.Set("ring_fold_ns", static_cast<std::size_t>(ring_fold_ns));
  doc.Set("dropped", static_cast<std::size_t>(dropped));
  doc.Set("total_emitted", static_cast<std::size_t>(total_emitted));
  return doc;
}

std::optional<ShardHeader> ShardHeader::FromJson(const JsonValue& doc) {
  if (!doc.IsObject()) return std::nullopt;
  const JsonValue* tag = doc.Find("schema");
  if (tag == nullptr || !tag->IsString() || tag->AsString() != kSchema) {
    return std::nullopt;
  }
  ShardHeader header;
  header.rank = GetU64(doc, "rank");
  header.procs = GetU64(doc, "procs");
  header.trace_id = GetU64(doc, "trace_id");
  if (const JsonValue* v = doc.Find("label"); v != nullptr && v->IsString()) {
    header.label = v->AsString();
  }
  header.ring_t0_ns = GetU64(doc, "ring_t0_ns");
  header.ring_t1_ns = GetU64(doc, "ring_t1_ns");
  header.ring_fold_ns = GetU64(doc, "ring_fold_ns");
  header.dropped = GetU64(doc, "dropped");
  header.total_emitted = GetU64(doc, "total_emitted");
  if (header.procs == 0) header.procs = 1;
  return header;
}

std::string ShardPath(std::string_view prefix, std::string_view label,
                      std::uint64_t procs, std::uint64_t rank) {
  std::string path(prefix);
  path += '.';
  for (const char c : label) {
    // Labels are free-form; keep the path shell-safe.
    path += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
             c == '_')
                ? c
                : '_';
  }
  path += ".p";
  path += std::to_string(procs);
  path += ".r";
  path += std::to_string(rank);
  path += ".jsonl";
  return path;
}

void WriteShard(std::ostream& os, const ShardHeader& header,
                const Tracer& tracer) {
  ShardHeader h = header;
  h.dropped = tracer.dropped();
  h.total_emitted = tracer.total_emitted();
  os << h.ToJson().Dump() << "\n";
  for (const TraceEvent& e : tracer.Events()) {
    os << EventToJson(e).Dump() << "\n";
  }
}

bool WriteShardFile(const std::string& path, const ShardHeader& header,
                    const Tracer& tracer) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  WriteShard(os, header, tracer);
  return static_cast<bool>(os);
}

std::optional<TraceShard> ParseShard(std::istream& is, std::string* error) {
  std::string line;
  if (!std::getline(is, line)) {
    if (error != nullptr) *error = "empty shard (no header line)";
    return std::nullopt;
  }
  const auto header_doc = JsonValue::Parse(line);
  if (!header_doc.has_value()) {
    if (error != nullptr) *error = "malformed shard header line";
    return std::nullopt;
  }
  auto header = ShardHeader::FromJson(*header_doc);
  if (!header.has_value()) {
    if (error != nullptr) {
      *error = "header line is not a lamp.traceshard.v1 document";
    }
    return std::nullopt;
  }
  TraceShard shard;
  shard.header = std::move(*header);
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto doc = JsonValue::Parse(line);
    // A truncated tail (the worker died mid-write) is data loss, not a
    // load failure: keep what parsed.
    if (!doc.has_value() || !doc->IsObject()) continue;
    shard.events.push_back(EventFromJson(*doc));
  }
  return shard;
}

std::optional<TraceShard> LoadShardFile(const std::string& path,
                                        std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open shard file: " + path;
    return std::nullopt;
  }
  return ParseShard(is, error);
}

}  // namespace lamp::obs::dist
