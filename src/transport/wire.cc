#include "transport/wire.h"

#include <cstring>
#include <limits>

namespace lamp::transport {

namespace {

constexpr std::size_t kMaxVarintBytes = 10;

/// Largest relation id, arity or endpoint rank a decoder accepts: the
/// fields they land in are 32 bits wide, and truncating a larger varint
/// would decode to a different value than the one on the wire.
constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint32_t>::max();

std::uint64_t ZigzagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t ZigzagDecode(std::uint64_t z) {
  return static_cast<std::int64_t>(z >> 1) ^
         -static_cast<std::int64_t>(z & 1);
}

void PutU32Le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

}  // namespace

void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void PutZigzag(std::vector<std::uint8_t>& out, std::int64_t v) {
  PutVarint(out, ZigzagEncode(v));
}

std::size_t VarintSize(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::size_t ZigzagSize(std::int64_t v) { return VarintSize(ZigzagEncode(v)); }

std::optional<std::uint64_t> WireReader::ReadVarint() {
  std::uint64_t v = 0;
  std::size_t shift = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (pos_ >= size_) return std::nullopt;
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // A zero last byte is an over-long encoding; a tenth byte above 1
      // overflows 64 bits. PutVarint writes neither.
      if (i > 0 && byte == 0) return std::nullopt;
      if (i == kMaxVarintBytes - 1 && byte > 1) return std::nullopt;
      return v;
    }
    shift += 7;
  }
  return std::nullopt;  // Varint longer than 10 bytes: malformed.
}

std::optional<std::int64_t> WireReader::ReadZigzag() {
  const std::optional<std::uint64_t> z = ReadVarint();
  if (!z) return std::nullopt;
  return ZigzagDecode(*z);
}

void PutRow(std::vector<std::uint8_t>& out, const RowRef& row) {
  PutVarint(out, row.relation);
  PutVarint(out, row.arity);
  for (std::uint32_t i = 0; i < row.arity; ++i) {
    PutZigzag(out, row.row[i].v);
  }
}

std::size_t EncodedRowSize(const RowRef& row) {
  std::size_t n = VarintSize(row.relation) + VarintSize(row.arity);
  for (std::uint32_t i = 0; i < row.arity; ++i) {
    n += ZigzagSize(row.row[i].v);
  }
  return n;
}

void FactRows::AppendAll(const Instance& instance) {
  for (RelationId rel = 0; rel < instance.RelationBound(); ++rel) {
    const RowsView rows = instance.RowsOf(rel);
    if (rows.empty()) continue;
    shapes_.insert(shapes_.end(), rows.num_rows,
                   Shape{rel, static_cast<std::uint32_t>(rows.arity)});
    values_.insert(values_.end(), rows.data,
                   rows.data + rows.num_rows * rows.arity);
  }
}

bool FactRows::Read(WireReader& reader) {
  const auto count = reader.ReadVarint();
  // Every row takes at least two bytes (relation, arity) and every value
  // at least one, so neither the count nor the total value volume can
  // exceed what is left: both reservations below are bounded by the
  // payload's own size, and the value buffer never reallocates.
  if (!count || *count > reader.remaining() / 2) return false;
  shapes_.reserve(shapes_.size() + *count);
  values_.reserve(values_.size() + reader.remaining() - 2 * *count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto relation = reader.ReadVarint();
    const auto arity = reader.ReadVarint();
    if (!relation || !arity || *relation > kMaxId || *arity > kMaxId ||
        *arity > reader.remaining()) {
      return false;
    }
    shapes_.push_back({static_cast<RelationId>(*relation),
                       static_cast<std::uint32_t>(*arity)});
    for (std::uint64_t k = 0; k < *arity; ++k) {
      const auto arg = reader.ReadZigzag();
      if (!arg) return false;
      values_.emplace_back(*arg);
    }
  }
  return true;
}

std::vector<std::uint8_t> EncodeHelloPayload(std::uint64_t rank,
                                             std::uint64_t seed,
                                             std::uint64_t features) {
  std::vector<std::uint8_t> payload;
  PutVarint(payload, rank);
  PutVarint(payload, seed);
  if (features != 0) PutVarint(payload, features);
  return payload;
}

std::optional<HelloPayload> DecodeHelloPayload(
    const std::vector<std::uint8_t>& payload) {
  WireReader reader(payload);
  const auto rank = reader.ReadVarint();
  const auto seed = reader.ReadVarint();
  if (!rank || !seed) return std::nullopt;
  HelloPayload hello{*rank, *seed, 0};
  if (!reader.AtEnd()) {
    // The encoder omits a zero features varint, so an explicit zero is
    // not canonical.
    const auto features = reader.ReadVarint();
    if (!features || *features == 0 || !reader.AtEnd()) return std::nullopt;
    hello.features = *features;
  }
  return hello;
}

std::vector<std::uint8_t> EncodeTraceCtxPayload(std::uint64_t trace_id,
                                                std::uint64_t span,
                                                std::uint64_t round) {
  std::vector<std::uint8_t> payload;
  PutVarint(payload, trace_id);
  PutVarint(payload, span);
  PutVarint(payload, round);
  return payload;
}

std::optional<TraceCtxPayload> DecodeTraceCtxPayload(
    const std::vector<std::uint8_t>& payload) {
  WireReader reader(payload);
  const auto trace_id = reader.ReadVarint();
  const auto span = reader.ReadVarint();
  const auto round = reader.ReadVarint();
  if (!trace_id || !span || !round || !reader.AtEnd()) return std::nullopt;
  return TraceCtxPayload{*trace_id, *span, *round};
}

std::vector<std::uint8_t> EncodeFactBatchPayload(
    std::uint64_t round, const std::vector<RowRef>& rows) {
  std::vector<std::uint8_t> payload;
  PutVarint(payload, round);
  PutVarint(payload, rows.size());
  for (const RowRef& row : rows) PutRow(payload, row);
  return payload;
}

std::optional<FactBatchPayload> DecodeFactBatchPayload(
    const std::vector<std::uint8_t>& payload) {
  WireReader reader(payload);
  const auto round = reader.ReadVarint();
  if (!round) return std::nullopt;
  FactBatchPayload batch;
  batch.round = *round;
  if (!batch.facts.Read(reader) || !reader.AtEnd()) return std::nullopt;
  return batch;
}

std::vector<std::uint8_t> EncodeMessagePayload(std::uint64_t seq,
                                               std::uint64_t depth,
                                               std::uint32_t parent,
                                               const FactRows& facts) {
  std::vector<std::uint8_t> payload;
  PutVarint(payload, seq);
  PutVarint(payload, depth);
  PutVarint(payload, parent);
  PutVarint(payload, facts.size());
  for (const RowRef row : facts) PutRow(payload, row);
  return payload;
}

std::optional<MessagePayload> DecodeMessagePayload(
    const std::vector<std::uint8_t>& payload) {
  WireReader reader(payload);
  const auto seq = reader.ReadVarint();
  const auto depth = reader.ReadVarint();
  const auto parent = reader.ReadVarint();
  if (!seq || !depth || !parent || *parent > kMaxId) return std::nullopt;
  MessagePayload msg;
  msg.seq = *seq;
  msg.depth = *depth;
  msg.parent = static_cast<std::uint32_t>(*parent);
  if (!msg.facts.Read(reader) || !reader.AtEnd()) return std::nullopt;
  return msg;
}

std::vector<std::uint8_t> EncodeStatsPayload(std::uint64_t round,
                                             std::uint64_t received,
                                             std::uint64_t wire_bytes) {
  std::vector<std::uint8_t> payload;
  PutVarint(payload, round);
  PutVarint(payload, received);
  PutVarint(payload, wire_bytes);
  return payload;
}

std::optional<StatsPayload> DecodeStatsPayload(
    const std::vector<std::uint8_t>& payload) {
  WireReader reader(payload);
  const auto round = reader.ReadVarint();
  const auto received = reader.ReadVarint();
  const auto wire_bytes = reader.ReadVarint();
  if (!round || !received || !wire_bytes || !reader.AtEnd()) {
    return std::nullopt;
  }
  return StatsPayload{*round, *received, *wire_bytes};
}

void AppendFrame(std::vector<std::uint8_t>& out, const WireFrame& frame) {
  const std::size_t body = 2 + VarintSize(frame.from) + VarintSize(frame.to) +
                           frame.payload.size();
  PutU32Le(out, static_cast<std::uint32_t>(body));
  out.push_back(frame.version);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  PutVarint(out, frame.from);
  PutVarint(out, frame.to);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

std::size_t FrameWireSize(const WireFrame& frame) {
  return 4 + 2 + VarintSize(frame.from) + VarintSize(frame.to) +
         frame.payload.size();
}

std::size_t FactBatchFrameSize(std::uint32_t from, std::uint32_t to,
                               std::size_t payload_bytes) {
  return 4 + 2 + VarintSize(from) + VarintSize(to) + payload_bytes;
}

std::size_t MessageFrameSize(std::uint32_t from, std::uint32_t to,
                             std::uint64_t seq, std::uint64_t depth,
                             std::uint32_t parent, const FactRows& facts) {
  std::size_t payload = VarintSize(seq) + VarintSize(depth) +
                        VarintSize(parent) + VarintSize(facts.size());
  for (const RowRef row : facts) payload += EncodedRowSize(row);
  return FactBatchFrameSize(from, to, payload);
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t size) {
  if (error_) return;
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<WireFrame> FrameDecoder::Next() {
  while (!error_) {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < 4) return std::nullopt;
    const std::uint8_t* p = buffer_.data() + consumed_;
    const std::uint32_t body = static_cast<std::uint32_t>(p[0]) |
                               (static_cast<std::uint32_t>(p[1]) << 8) |
                               (static_cast<std::uint32_t>(p[2]) << 16) |
                               (static_cast<std::uint32_t>(p[3]) << 24);
    if (body < 2 || body > kMaxFrameBody) {
      error_ = true;
      return std::nullopt;
    }
    if (available < 4 + static_cast<std::size_t>(body)) return std::nullopt;
    WireFrame frame;
    frame.version = p[4];
    const std::uint8_t type = p[5];
    if (frame.version == 0 || frame.version > kWireVersion || type == 0) {
      error_ = true;
      return std::nullopt;
    }
    if (type > static_cast<std::uint8_t>(FrameType::kTraceCtx)) {
      // Well-framed frame of a type this build does not know (a newer
      // peer's optional extension): skip the whole frame and keep
      // decoding. The length prefix and version byte were validated, so
      // resynchronisation is exact.
      ++unknown_skipped_;
      last_unknown_type_ = type;
      consumed_ += 4 + body;
      continue;
    }
    frame.type = static_cast<FrameType>(type);
    WireReader reader(p + 6, body - 2);
    const auto from = reader.ReadVarint();
    const auto to = reader.ReadVarint();
    if (!from || !to || *from > kMaxId || *to > kMaxId) {
      error_ = true;
      return std::nullopt;
    }
    frame.from = static_cast<std::uint32_t>(*from);
    frame.to = static_cast<std::uint32_t>(*to);
    frame.payload.assign(p + 4 + body - reader.remaining(), p + 4 + body);
    consumed_ += 4 + body;
    return frame;
  }
  return std::nullopt;
}

}  // namespace lamp::transport
