#ifndef LAMP_TRANSPORT_WIRE_H_
#define LAMP_TRANSPORT_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "relational/instance.h"

/// \file
/// The lamp wire format ("lamp.wire.v1"): compact length-prefixed frames
/// carrying facts and transducer messages between MPC servers / network
/// nodes.
///
/// A frame on the wire is
///
///   [u32 LE body length] [u8 version] [u8 type] [varint from] [varint to]
///   [payload bytes]
///
/// where the length prefix counts everything after itself. Integers inside
/// payloads are LEB128 varints; signed domain values are zigzag-encoded
/// first, so small magnitudes of either sign stay short. The format is
/// versioned in-band: every frame repeats the version byte, and decoders
/// reject frames from the future instead of misparsing them. A committed
/// golden dump (tests/golden/wire_frames.bin) pins the byte layout.
///
/// Payload conventions per frame type:
///  * kHello      — varint rank, varint seed (handshake; the multi-process
///                  runner's ring seed exchange reuses it).
///  * kFactBatch  — varint round, then rows (below). One batch is
///                  everything `from` routes to `to` in one MPC
///                  communication phase (batched sends, possibly empty).
///  * kMessage    — varint seq, varint causal depth, varint parent
///                  transition (+1), then rows (below): one transducer
///                  broadcast copy addressed to `to`.
///  * kStats      — varint round, varint received, varint wire bytes
///                  (a worker reporting measured loads upstream).
///  * kShutdown   — empty payload; orderly channel teardown.
///  * kTraceCtx   — varint trace id, varint sender span id, varint logical
///                  round: the distributed-tracing context a sender
///                  piggybacks immediately before a data frame on the same
///                  channel, so the receiver can correlate its recv event
///                  with the sender's send event across process
///                  boundaries. Optional: senders emit it only after the
///                  Hello handshake negotiated the kHelloFeatureTraceCtx
///                  feature bit with every peer (see HelloPayload), and
///                  decoders that predate the type skip it (see
///                  FrameDecoder::unknown_skipped).
///
/// Both data payloads end in the same row list: varint count, then per
/// fact (one row) varint relation, varint arity and a zigzag varint per
/// value. Encoders take rows (RowRef, FactRows) and both decoders share one
/// validated row reader that yields a FactRows, so there is one fact codec.

namespace lamp::transport {

/// In-band format version. Bump on any *layout* change and regenerate the
/// golden frame dump. Adding a frame type is additive, not a layout
/// change: unknown types are skipped by decoders, and negotiation keeps
/// them off channels to peers that never advertised them.
inline constexpr std::uint8_t kWireVersion = 1;

/// Hard cap on a frame body; a decoder seeing a larger length prefix is
/// looking at a corrupt or foreign stream.
inline constexpr std::uint32_t kMaxFrameBody = 1u << 30;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kFactBatch = 2,
  kMessage = 3,
  kStats = 4,
  kShutdown = 5,
  kTraceCtx = 6,
};

/// A decoded frame. `from`/`to` are endpoint ranks (MPC servers, network
/// nodes or process ranks depending on who is talking).
struct WireFrame {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kFactBatch;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::vector<std::uint8_t> payload;
};

// --- primitive encoders -------------------------------------------------

/// Appends a LEB128 varint.
void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v);

/// Appends a zigzag-encoded signed varint.
void PutZigzag(std::vector<std::uint8_t>& out, std::int64_t v);

/// Bytes PutVarint would append for \p v.
std::size_t VarintSize(std::uint64_t v);

/// Bytes PutZigzag would append for \p v.
std::size_t ZigzagSize(std::int64_t v);

/// Cursor over an encoded payload. Reads return nullopt on truncation or
/// malformed varints: longer than 10 bytes, overflowing 64 bits, or not
/// the shortest encoding of their value (PutVarint's), so every accepted
/// varint re-encodes to the bytes it was read from.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::optional<std::uint64_t> ReadVarint();
  std::optional<std::int64_t> ReadZigzag();

  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- rows ---------------------------------------------------------------

/// A borrowed reference to one fact in columnar storage: the relation plus
/// \p arity values at \p row. Valid while the owning storage (an Instance
/// or a FactRows) is not mutated.
struct RowRef {
  RelationId relation = 0;
  const Value* row = nullptr;
  std::uint32_t arity = 0;

  /// The row of \p fact (valid while \p fact is not mutated).
  static RowRef Of(const Fact& fact) {
    return {fact.relation, fact.args.data(),
            static_cast<std::uint32_t>(fact.args.size())};
  }
};

/// Appends one encoded row: varint relation, varint arity, then a zigzag
/// varint per value.
void PutRow(std::vector<std::uint8_t>& out, const RowRef& row);

/// Bytes PutRow would append for \p row.
std::size_t EncodedRowSize(const RowRef& row);

/// A batch of facts stored flat: a relation and arity per row plus one
/// buffer holding every row's values back to back. It is what both data
/// payloads decode into and what a transducer Message is. Iterating yields
/// RowRefs into the value buffer (valid until the next append), ready for
/// Instance::InsertRow or PutRow; a copy is two buffer copies, not one
/// allocation per fact.
class FactRows {
 public:
  struct Shape {
    RelationId relation = 0;
    std::uint32_t arity = 0;
  };

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RowRef;
    using difference_type = std::ptrdiff_t;
    using pointer = const RowRef*;
    using reference = RowRef;

    Iterator(const Shape* shape, const Value* values)
        : shape_(shape), values_(values) {}
    RowRef operator*() const {
      return RowRef{shape_->relation, values_, shape_->arity};
    }
    Iterator& operator++() {
      values_ += shape_->arity;
      ++shape_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.shape_ == b.shape_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return !(a == b);
    }

   private:
    const Shape* shape_;
    const Value* values_;
  };

  std::size_t size() const { return shapes_.size(); }
  bool empty() const { return shapes_.empty(); }
  Iterator begin() const { return {shapes_.data(), values_.data()}; }
  Iterator end() const {
    return {shapes_.data() + shapes_.size(), values_.data() + values_.size()};
  }

  /// Appends a copy of \p row (which must not point into this batch).
  void Append(const RowRef& row) {
    shapes_.push_back({row.relation, row.arity});
    values_.insert(values_.end(), row.row, row.row + row.arity);
  }

  /// Appends \p count rows of \p arity values each for \p relation,
  /// row-major and contiguous at \p rows (which must not point into this
  /// batch): the block a RowBatchSink (cq/eval.h) delivers.
  void AppendRows(RelationId relation, const Value* rows, std::size_t count,
                  std::size_t arity) {
    shapes_.insert(shapes_.end(), count,
                   Shape{relation, static_cast<std::uint32_t>(arity)});
    values_.insert(values_.end(), rows, rows + count * arity);
  }

  /// Appends every row of \p instance in (relation, insertion) order.
  void AppendAll(const Instance& instance);

  /// Appends the row list at \p reader: varint count, then `count` rows.
  /// False on any malformation: truncation, a malformed varint, a relation
  /// or arity beyond 32 bits, or a count or arity the remaining bytes
  /// cannot hold (each row takes at least two bytes and each value one,
  /// checked before anything is reserved).
  bool Read(WireReader& reader);

 private:
  std::vector<Shape> shapes_;
  std::vector<Value> values_;
};

// --- payload builders ---------------------------------------------------

/// Feature bits a Hello advertises in its optional trailing varint.
/// A capability is active on a channel only when *both* ends advertised
/// it — a peer that never sends the bit never receives the corresponding
/// optional frames.
inline constexpr std::uint64_t kHelloFeatureTraceCtx = 1;

/// Hello payload: varint rank, varint seed, then an *optional* varint of
/// feature bits. The features varint is encoded only when nonzero, so a
/// featureless Hello is byte-identical to the pre-feature encoding, and
/// decoders treat a two-varint payload as features = 0 and reject an
/// explicit zero features varint.
std::vector<std::uint8_t> EncodeHelloPayload(std::uint64_t rank,
                                             std::uint64_t seed,
                                             std::uint64_t features = 0);
struct HelloPayload {
  std::uint64_t rank = 0;
  std::uint64_t seed = 0;
  std::uint64_t features = 0;
};
std::optional<HelloPayload> DecodeHelloPayload(
    const std::vector<std::uint8_t>& payload);

/// kTraceCtx payload: the distributed trace context stamped onto the next
/// data frame of the same channel. `span` is the sender's per-process send
/// sequence number — (sender rank, span) is globally unique, which is the
/// join key shard mergers use to pair send and recv events.
std::vector<std::uint8_t> EncodeTraceCtxPayload(std::uint64_t trace_id,
                                                std::uint64_t span,
                                                std::uint64_t round);
struct TraceCtxPayload {
  std::uint64_t trace_id = 0;
  std::uint64_t span = 0;
  std::uint64_t round = 0;
};
std::optional<TraceCtxPayload> DecodeTraceCtxPayload(
    const std::vector<std::uint8_t>& payload);

/// kFactBatch payload: \p rows routed in one round. The row list may
/// contain duplicates; receivers dedup on insert exactly like the
/// in-process merge.
std::vector<std::uint8_t> EncodeFactBatchPayload(
    std::uint64_t round, std::span<const RowRef> rows);

struct FactBatchPayload {
  std::uint64_t round = 0;
  FactRows facts;
};

/// Decodes and fully validates a kFactBatch payload; nullopt on any
/// malformation: a bad round varint, a row list FactRows::Read rejects, or
/// trailing bytes. Whatever it accepts re-encodes to exactly \p payload.
/// Two allocations per batch, none per row.
std::optional<FactBatchPayload> DecodeFactBatchPayload(
    const std::vector<std::uint8_t>& payload);

/// kMessage payload: one transducer broadcast copy plus its causal
/// bookkeeping (depth, parent transition + 1; see net/network.cc). The
/// decoder validates like DecodeFactBatchPayload and also rejects a parent
/// beyond 32 bits.
std::vector<std::uint8_t> EncodeMessagePayload(std::uint64_t seq,
                                               std::uint64_t depth,
                                               std::uint32_t parent,
                                               const FactRows& facts);
struct MessagePayload {
  std::uint64_t seq = 0;
  std::uint64_t depth = 0;
  std::uint32_t parent = 0;
  FactRows facts;
};
std::optional<MessagePayload> DecodeMessagePayload(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> EncodeStatsPayload(std::uint64_t round,
                                             std::uint64_t received,
                                             std::uint64_t wire_bytes);
struct StatsPayload {
  std::uint64_t round = 0;
  std::uint64_t received = 0;
  std::uint64_t wire_bytes = 0;
};
std::optional<StatsPayload> DecodeStatsPayload(
    const std::vector<std::uint8_t>& payload);

// --- framing ------------------------------------------------------------

/// Appends the full on-wire encoding of \p frame (length prefix included).
void AppendFrame(std::vector<std::uint8_t>& out, const WireFrame& frame);

/// Total on-wire bytes AppendFrame would produce for \p frame.
std::size_t FrameWireSize(const WireFrame& frame);

/// On-wire bytes of the kFactBatch frame carrying
/// EncodeFactBatchPayload(round, rows) from \p from to \p to, computed
/// without encoding.
std::size_t FactBatchFrameSize(std::uint32_t from, std::uint32_t to,
                               std::uint64_t round,
                               std::span<const RowRef> rows);

/// The same size from the batch's row count and the sum of its rows'
/// EncodedRowSize (the in-process MPC backend's wire-byte accounting,
/// which sizes each routed row once however many targets it goes to).
std::size_t FactBatchFrameSize(std::uint32_t from, std::uint32_t to,
                               std::uint64_t round, std::size_t count,
                               std::size_t row_bytes);

/// On-wire bytes of the kMessage frame carrying EncodeMessagePayload(seq,
/// depth, parent, facts) from \p from to \p to, computed without encoding
/// (the in-process transducer network's wire-byte accounting).
std::size_t MessageFrameSize(std::uint32_t from, std::uint32_t to,
                             std::uint64_t seq, std::uint64_t depth,
                             std::uint32_t parent, const FactRows& facts);

/// Incremental frame decoder for a byte stream: Feed() arbitrary chunks,
/// Next() yields completed frames in order. Malformed input (bad version,
/// oversized length, truncated header varints, ranks beyond 32 bits) puts
/// the decoder into a sticky error state. A well-framed frame of an *unknown type* — one this
/// build does not know but a future peer might send — is skipped, counted
/// in unknown_skipped(), and decoding continues with the next frame:
/// forward compatibility for optional frame types such as kTraceCtx.
/// Callers surface the count as a warning; the framing (length prefix +
/// version byte) is still validated, so a corrupt stream cannot hide
/// behind the skip path.
class FrameDecoder {
 public:
  void Feed(const std::uint8_t* data, std::size_t size);

  /// Next completed frame of a known type, or nullopt when more bytes are
  /// needed (or the stream is in error). Unknown-type frames are consumed
  /// silently along the way.
  std::optional<WireFrame> Next();

  bool error() const { return error_; }

  /// Well-framed frames of unknown type skipped so far.
  std::uint64_t unknown_skipped() const { return unknown_skipped_; }
  /// Type byte of the most recently skipped frame (0 when none).
  std::uint8_t last_unknown_type() const { return last_unknown_type_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool error_ = false;
  std::uint64_t unknown_skipped_ = 0;
  std::uint8_t last_unknown_type_ = 0;
};

}  // namespace lamp::transport

#endif  // LAMP_TRANSPORT_WIRE_H_
