// lamp.wire.v1 unit + property + golden tests.
//
// Three layers of pinning: (1) primitive and payload round-trips over
// seeded random inputs — every encode must decode back to itself through
// arbitrary chunk boundaries; (2) malformed-input rejection (future
// version, oversized body, unknown type, truncation) without misparses,
// including seeded mutation tests of every payload decoder and of the
// frame decoder (every truncation and byte value of random inputs:
// rejected, or re-encoded to the same bytes); (3) a committed golden frame dump
// (tests/golden/wire_frames.bin) that freezes the byte layout itself, so
// an accidental encoding change breaks the build even if encoder and
// decoder drift together.
//
// Regenerate the golden after an intentional format change (bump
// kWireVersion!) with:
//   LAMP_REGEN_GOLDEN=1 ./build/tests/transport_wire_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "transport/wire.h"

#ifndef LAMP_TESTS_DIR
#error "tests/CMakeLists.txt must define LAMP_TESTS_DIR"
#endif

namespace lamp::transport {
namespace {

std::string GoldenPath() {
  return std::string(LAMP_TESTS_DIR) + "/golden/wire_frames.bin";
}

Fact RandomFact(Rng& rng) {
  const auto relation = static_cast<RelationId>(rng.Uniform(64));
  const std::size_t arity = rng.Uniform(5);
  std::vector<Value> args;
  for (std::size_t i = 0; i < arity; ++i) {
    // Mix magnitudes: tiny values, negatives and full-range 64-bit ones
    // all have distinct varint/zigzag paths.
    switch (rng.Uniform(3)) {
      case 0:
        args.push_back(Value(rng.UniformInt(-10, 10)));
        break;
      case 1:
        args.push_back(Value(rng.UniformInt(-100000, 100000)));
        break;
      default:
        args.push_back(Value(static_cast<std::int64_t>(rng.Next())));
        break;
    }
  }
  return Fact(relation, std::move(args));
}

// Borrowed rows denoting \p facts (valid while \p facts lives).
std::vector<RowRef> RowsOf(const std::vector<Fact>& facts) {
  std::vector<RowRef> rows;
  for (const Fact& f : facts) rows.push_back(RowRef::Of(f));
  return rows;
}

Fact FactOf(const RowRef& row) {
  return Fact(row.relation, std::vector<Value>(row.row, row.row + row.arity));
}

// \p facts copied into one row batch (a transducer message).
FactRows BatchOf(const std::vector<Fact>& facts) {
  FactRows batch;
  for (const RowRef& row : RowsOf(facts)) batch.Append(row);
  return batch;
}

TEST(WireTest, VarintRoundTripAndSize) {
  Rng rng(5);
  std::vector<std::uint64_t> values = {0,       1,
                                       127,     128,
                                       16383,   16384,
                                       ~0ull,   0x8000000000000000ull};
  for (int i = 0; i < 200; ++i) values.push_back(rng.Next() >> rng.Uniform(64));
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    EXPECT_EQ(buf.size(), VarintSize(v)) << v;
    WireReader reader(buf);
    const auto back = reader.ReadVarint();
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(WireTest, ZigzagRoundTripAndSize) {
  Rng rng(6);
  std::vector<std::int64_t> values = {0, -1, 1, -64, 63, -65, 64,
                                      std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.Next()) >> rng.Uniform(63));
  }
  for (std::int64_t v : values) {
    std::vector<std::uint8_t> buf;
    PutZigzag(buf, v);
    EXPECT_EQ(buf.size(), ZigzagSize(v)) << v;
    WireReader reader(buf);
    const auto back = reader.ReadZigzag();
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
  }
}

TEST(WireTest, RowListRoundTripProperty) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::vector<Fact> facts;
    for (std::size_t k = rng.Uniform(6); k > 0; --k) {
      facts.push_back(RandomFact(rng));
    }
    std::vector<std::uint8_t> buf;
    PutVarint(buf, facts.size());
    std::size_t expected_size = VarintSize(facts.size());
    for (const RowRef& row : RowsOf(facts)) {
      PutRow(buf, row);
      expected_size += EncodedRowSize(row);
    }
    EXPECT_EQ(buf.size(), expected_size);
    WireReader reader(buf);
    FactRows back;
    ASSERT_TRUE(back.Read(reader));
    EXPECT_TRUE(reader.AtEnd());
    ASSERT_EQ(back.size(), facts.size());
    std::size_t k = 0;
    for (const RowRef row : back) EXPECT_EQ(FactOf(row), facts[k++]);
  }
}

TEST(WireTest, AppendAllTakesEveryRowInRelationOrder) {
  Instance instance;
  instance.Insert(Fact(3, {Value(7)}));
  instance.Insert(Fact(1, {Value(1), Value(2)}));
  instance.Insert(Fact(1, {Value(-4), Value(5)}));
  instance.Insert(Fact(5, {}));
  FactRows rows;
  rows.Append(RowsOf({Fact(9, {Value(0)})})[0]);
  rows.AppendAll(instance);
  const std::vector<Fact> expected = {
      Fact(9, {Value(0)}), Fact(1, {Value(1), Value(2)}),
      Fact(1, {Value(-4), Value(5)}), Fact(3, {Value(7)}), Fact(5, {})};
  ASSERT_EQ(rows.size(), expected.size());
  std::size_t i = 0;
  for (const RowRef row : rows) EXPECT_EQ(FactOf(row), expected[i++]);
}

TEST(WireTest, PayloadRoundTrips) {
  Rng rng(8);
  std::vector<Fact> owned;
  for (int i = 0; i < 20; ++i) owned.push_back(RandomFact(rng));

  const auto hello = DecodeHelloPayload(EncodeHelloPayload(3, 0xdeadbeef));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->rank, 3u);
  EXPECT_EQ(hello->seed, 0xdeadbeefull);
  EXPECT_EQ(hello->features, 0u);

  // Featureless encoding is byte-identical to features=0 (the optional
  // trailing varint is omitted), and nonzero features round-trip.
  EXPECT_EQ(EncodeHelloPayload(3, 0xdeadbeef),
            EncodeHelloPayload(3, 0xdeadbeef, 0));
  const auto featured = DecodeHelloPayload(
      EncodeHelloPayload(3, 0xdeadbeef, kHelloFeatureTraceCtx));
  ASSERT_TRUE(featured.has_value());
  EXPECT_EQ(featured->rank, 3u);
  EXPECT_EQ(featured->seed, 0xdeadbeefull);
  EXPECT_EQ(featured->features, kHelloFeatureTraceCtx);

  const auto ctx = DecodeTraceCtxPayload(
      EncodeTraceCtxPayload(0x1122334455667788ull, 4242, 9));
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->trace_id, 0x1122334455667788ull);
  EXPECT_EQ(ctx->span, 4242u);
  EXPECT_EQ(ctx->round, 9u);

  const auto facts =
      DecodeFactBatchPayload(EncodeFactBatchPayload(9, RowsOf(owned)));
  ASSERT_TRUE(facts.has_value());
  EXPECT_EQ(facts->round, 9u);
  ASSERT_EQ(facts->facts.size(), owned.size());
  std::size_t i = 0;
  for (const RowRef row : facts->facts) EXPECT_EQ(FactOf(row), owned[i++]);
  EXPECT_EQ(i, owned.size());

  const auto msg =
      DecodeMessagePayload(EncodeMessagePayload(42, 7, 12345, BatchOf(owned)));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->seq, 42u);
  EXPECT_EQ(msg->depth, 7u);
  EXPECT_EQ(msg->parent, 12345u);
  ASSERT_EQ(msg->facts.size(), owned.size());
  i = 0;
  for (const RowRef row : msg->facts) EXPECT_EQ(FactOf(row), owned[i++]);

  const auto stats = DecodeStatsPayload(EncodeStatsPayload(1, 999, 80000));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->received, 999u);
  EXPECT_EQ(stats->wire_bytes, 80000u);
}

TEST(WireTest, MessageFrameSizeMatchesTheEncodedFrame) {
  Rng rng(10);
  const auto id = [&rng] {
    return static_cast<std::uint32_t>(rng.Uniform(2) == 0 ? rng.Uniform(300)
                                                          : rng.Next() >> 32);
  };
  for (int i = 0; i < 200; ++i) {
    std::vector<Fact> facts;
    for (std::size_t k = rng.Uniform(6); k > 0; --k) {
      facts.push_back(RandomFact(rng));
    }
    const FactRows batch = BatchOf(facts);
    const std::uint32_t from = id();
    const std::uint32_t to = id();
    const std::uint64_t seq = rng.Next() >> rng.Uniform(64);
    const std::uint64_t depth = rng.Uniform(100);
    const std::uint32_t parent = id();
    std::vector<std::uint8_t> bytes;
    AppendFrame(bytes, {kWireVersion, FrameType::kMessage, from, to,
                        EncodeMessagePayload(seq, depth, parent, batch)});
    EXPECT_EQ(MessageFrameSize(from, to, seq, depth, parent, batch),
              bytes.size());
  }
}

// Both FactBatchFrameSize forms — over the rows, and from the count plus
// the summed EncodedRowSize the MPC drain uses — equal the encoded length.
void ExpectFactBatchSizesMatch(std::uint32_t from, std::uint32_t to,
                               std::uint64_t round,
                               const std::vector<RowRef>& rows) {
  std::vector<std::uint8_t> bytes;
  AppendFrame(bytes, {kWireVersion, FrameType::kFactBatch, from, to,
                      EncodeFactBatchPayload(round, rows)});
  std::size_t row_bytes = 0;
  for (const RowRef& row : rows) row_bytes += EncodedRowSize(row);
  EXPECT_EQ(FactBatchFrameSize(from, to, round, rows), bytes.size());
  EXPECT_EQ(FactBatchFrameSize(from, to, round, rows.size(), row_bytes),
            bytes.size());
}

TEST(WireTest, FactBatchFrameSizeMatchesTheEncodedFrame) {
  Rng rng(11);
  const auto id = [&rng] {
    return static_cast<std::uint32_t>(rng.Uniform(2) == 0 ? rng.Uniform(300)
                                                          : rng.Next() >> 32);
  };
  for (int i = 0; i < 200; ++i) {
    std::vector<Fact> facts;
    for (std::size_t k = rng.Uniform(6); k > 0; --k) {
      facts.push_back(RandomFact(rng));
    }
    const std::vector<RowRef> rows = RowsOf(facts);
    const std::uint32_t from = id();
    const std::uint32_t to = id();
    const std::uint64_t round = rng.Next() >> rng.Uniform(64);
    ExpectFactBatchSizesMatch(from, to, round, rows);
  }
  // Fixed runs: relations of different arity in one batch, negative
  // values and values at and past 2^31 (multi-byte zigzag), and counts
  // past one varint byte.
  std::vector<Fact> mixed = {
      Fact(0, {-1, 2147483648, -2147483649}),
      Fact(3, std::vector<Value>{}),
      Fact(200, {std::numeric_limits<std::int64_t>::min()}),
      Fact(1, {std::numeric_limits<std::int64_t>::max(), -64, 63}),
      Fact(0, {4294967296, -4294967296, 1}),
  };
  ExpectFactBatchSizesMatch(5, 300, 1, RowsOf(mixed));
  for (std::int64_t i = 0; i < 200; ++i) {
    mixed.push_back(Fact(static_cast<RelationId>(i % 3),
                         {i << 33, -(i << 31)}));
  }
  ExpectFactBatchSizesMatch(1u << 31, 0, 1u << 20, RowsOf(mixed));
}

TEST(WireTest, MessageAndFactBatchDecodersShareTheRowReader) {
  const auto varints = [](std::initializer_list<std::uint64_t> values) {
    std::vector<std::uint8_t> bytes;
    for (const std::uint64_t v : values) PutVarint(bytes, v);
    return bytes;
  };
  // The same row list behind either header, hostile counts and ids
  // included: both decoders accept it or both reject it.
  const std::vector<std::pair<std::vector<std::uint8_t>, bool>> row_lists = {
      {varints({0}), true},
      {varints({1ull << 62}), false},
      {varints({~0ull}), false},
      {varints({2, 0, 0}), false},
      {varints({2, 0, 0, 0, 0}), true},
      {varints({1, 0, 1ull << 40}), false},
      {varints({1, 0, 3, 1, 1}), false},
      {varints({1, 1ull << 32, 0}), false},
      {varints({1, (1ull << 32) - 1, 0}), true},
      {varints({2, 4, 2, 5, 6, 9, 0}), true},
  };
  for (const auto& [rows, valid] : row_lists) {
    std::vector<std::uint8_t> batch = varints({3});
    batch.insert(batch.end(), rows.begin(), rows.end());
    std::vector<std::uint8_t> message = varints({1, 2, 3});
    message.insert(message.end(), rows.begin(), rows.end());
    EXPECT_EQ(DecodeFactBatchPayload(batch).has_value(), valid);
    EXPECT_EQ(DecodeMessagePayload(message).has_value(), valid);
  }
}

TEST(WireTest, FrameRoundTripThroughArbitraryChunks) {
  Rng rng(9);
  // A frame stream with mixed types and payload sizes.
  std::vector<WireFrame> frames;
  for (int i = 0; i < 40; ++i) {
    WireFrame frame;
    frame.from = static_cast<std::uint32_t>(rng.Uniform(300));
    frame.to = static_cast<std::uint32_t>(rng.Uniform(300));
    std::vector<Fact> owned;
    for (std::size_t k = rng.Uniform(8); k > 0; --k) {
      owned.push_back(RandomFact(rng));
    }
    switch (rng.Uniform(3)) {
      case 0:
        frame.type = FrameType::kFactBatch;
        frame.payload = EncodeFactBatchPayload(rng.Uniform(5), RowsOf(owned));
        break;
      case 1:
        frame.type = FrameType::kMessage;
        frame.payload =
            EncodeMessagePayload(rng.Next(), rng.Uniform(50),
                                 static_cast<std::uint32_t>(rng.Uniform(99)),
                                 BatchOf(owned));
        break;
      default:
        frame.type = FrameType::kShutdown;
        break;
    }
    frames.push_back(std::move(frame));
  }

  std::vector<std::uint8_t> stream;
  std::size_t expected_bytes = 0;
  for (const WireFrame& frame : frames) {
    AppendFrame(stream, frame);
    expected_bytes += FrameWireSize(frame);
  }
  EXPECT_EQ(stream.size(), expected_bytes);

  // Feed in random chunks (including empty ones); every frame must come
  // back intact and in order.
  FrameDecoder decoder;
  std::size_t fed = 0;
  std::vector<WireFrame> decoded;
  while (fed < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(rng.Uniform(97), stream.size() - fed);
    decoder.Feed(stream.data() + fed, chunk);
    fed += chunk;
    while (auto frame = decoder.Next()) decoded.push_back(std::move(*frame));
  }
  ASSERT_FALSE(decoder.error());
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i].type, frames[i].type) << i;
    EXPECT_EQ(decoded[i].from, frames[i].from) << i;
    EXPECT_EQ(decoded[i].to, frames[i].to) << i;
    EXPECT_EQ(decoded[i].payload, frames[i].payload) << i;
  }
}

TEST(WireTest, DecoderRejectsMalformedStreams) {
  // Future version byte.
  {
    WireFrame frame;
    frame.type = FrameType::kShutdown;
    std::vector<std::uint8_t> bytes;
    AppendFrame(bytes, frame);
    bytes[4] = kWireVersion + 1;  // Version byte sits after the u32 length.
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_TRUE(decoder.error());
  }
  // Frame type zero is not a skip candidate — it can only come from
  // zeroed/corrupt bytes, so it stays a hard error.
  {
    WireFrame frame;
    frame.type = FrameType::kShutdown;
    std::vector<std::uint8_t> bytes;
    AppendFrame(bytes, frame);
    bytes[5] = 0;
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_TRUE(decoder.error());
  }
  // Oversized length prefix.
  {
    const std::uint32_t body = kMaxFrameBody + 1;
    std::uint8_t bytes[4] = {
        static_cast<std::uint8_t>(body),
        static_cast<std::uint8_t>(body >> 8),
        static_cast<std::uint8_t>(body >> 16),
        static_cast<std::uint8_t>(body >> 24),
    };
    FrameDecoder decoder;
    decoder.Feed(bytes, sizeof bytes);
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_TRUE(decoder.error());
  }
  // Truncation is not an error — just "need more bytes".
  {
    WireFrame frame;
    frame.type = FrameType::kHello;
    frame.payload = EncodeHelloPayload(1, 2);
    std::vector<std::uint8_t> bytes;
    AppendFrame(bytes, frame);
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size() - 1);
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_FALSE(decoder.error());
    decoder.Feed(bytes.data() + bytes.size() - 1, 1);
    EXPECT_TRUE(decoder.Next().has_value());
  }
  // Malformed payloads are rejected by the payload decoders.
  EXPECT_FALSE(DecodeFactBatchPayload({0x01}).has_value());
  EXPECT_FALSE(DecodeHelloPayload({}).has_value());
  // A truncated features varint (continuation bit with no next byte) and
  // bytes *after* the features varint are both rejected; a single whole
  // extra varint is the legal optional features field.
  std::vector<std::uint8_t> truncated = EncodeHelloPayload(1, 2);
  truncated.push_back(0x80);
  EXPECT_FALSE(DecodeHelloPayload(truncated).has_value());
  std::vector<std::uint8_t> trailing = EncodeHelloPayload(1, 2, 5);
  trailing.push_back(0);
  EXPECT_FALSE(DecodeHelloPayload(trailing).has_value());
  EXPECT_FALSE(DecodeTraceCtxPayload({}).has_value());
  std::vector<std::uint8_t> ctx_trailing = EncodeTraceCtxPayload(1, 2, 3);
  ctx_trailing.push_back(0);
  EXPECT_FALSE(DecodeTraceCtxPayload(ctx_trailing).has_value());
}

TEST(WireTest, DecoderSkipsUnknownFrameTypes) {
  // A current-version peer talking to an older decoder: frames of a type
  // the decoder does not know are skipped (counted, not fatal), and the
  // known frames around them still come through in order. This is the
  // forward-compatibility contract optional frames like kTraceCtx rely
  // on — see the FrameDecoder doc comment in transport/wire.h.
  std::vector<std::uint8_t> stream;
  AppendFrame(stream, {kWireVersion, FrameType::kHello, 1, 0,
                       EncodeHelloPayload(1, 7)});
  // Hand-build a frame whose type byte is from the future.
  {
    WireFrame unknown;
    unknown.type = FrameType::kShutdown;
    unknown.from = 1;
    unknown.to = 0;
    unknown.payload = {0xaa, 0xbb, 0xcc};
    const std::size_t at = stream.size();
    AppendFrame(stream, unknown);
    stream[at + 5] = 0x7f;  // Type byte sits after u32 length + version.
  }
  AppendFrame(stream, {kWireVersion, FrameType::kShutdown, 1, 0, {}});

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<WireFrame> decoded;
  while (auto frame = decoder.Next()) decoded.push_back(std::move(*frame));
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.unknown_skipped(), 1u);
  EXPECT_EQ(decoder.last_unknown_type(), 0x7f);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].type, FrameType::kHello);
  EXPECT_EQ(decoded[1].type, FrameType::kShutdown);

  // Skipping respects chunk boundaries: an unknown frame split across
  // feeds is still consumed exactly once.
  FrameDecoder chunked;
  std::vector<WireFrame> chunk_decoded;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    chunked.Feed(stream.data() + i, 1);
    while (auto frame = chunked.Next()) {
      chunk_decoded.push_back(std::move(*frame));
    }
  }
  EXPECT_FALSE(chunked.error());
  EXPECT_EQ(chunked.unknown_skipped(), 1u);
  EXPECT_EQ(chunk_decoded.size(), 2u);
}

// --- seeded mutation test of the fact-batch decoder ---------------------

// Values that exercise every zigzag length: small of either sign,
// negatives, and the 64-bit extremes.
Value MutationValue(Rng& rng) {
  switch (rng.Uniform(5)) {
    case 0:
      return Value(rng.UniformInt(-3, 3));
    case 1:
      return Value(rng.UniformInt(-1000000, -1));
    case 2:
      return Value(static_cast<std::int64_t>(rng.Next()));
    case 3:
      return Value(std::numeric_limits<std::int64_t>::min());
    default:
      return Value(std::numeric_limits<std::int64_t>::max());
  }
}

// A random batch: up to five rows of arity 0-4 over relation ids from 0
// up to the 32-bit maximum.
std::vector<Fact> MutationBatch(Rng& rng) {
  std::vector<Fact> facts;
  for (std::size_t n = rng.Uniform(6); n > 0; --n) {
    const auto relation =
        static_cast<RelationId>(rng.Uniform(2) == 0 ? rng.Uniform(8)
                                                    : rng.Next() >> 32);
    std::vector<Value> args;
    for (std::size_t k = rng.Uniform(5); k > 0; --k) {
      args.push_back(MutationValue(rng));
    }
    facts.emplace_back(relation, std::move(args));
  }
  return facts;
}

// Re-encodes what DecodeFactBatchPayload accepted.
std::vector<std::uint8_t> Reencode(const FactBatchPayload& batch) {
  const std::vector<RowRef> rows(batch.facts.begin(), batch.facts.end());
  return EncodeFactBatchPayload(batch.round, rows);
}

// One payload codec: decodes the bytes and re-encodes what it accepted,
// or returns nullopt when the decoder rejected them.
using Reencoder = std::function<std::optional<std::vector<std::uint8_t>>(
    const std::vector<std::uint8_t>&)>;

// The mutations of one payload a codec accepted, by kind.
struct Accepted {
  std::size_t prefixes = 0;
  std::size_t flips = 0;
};

// The decoder contract on arbitrary bytes: reject, or accept exactly what
// re-encodes to the same bytes (no crash, no misparse, no truncated
// field). Tried on \p payload itself, every proper prefix and every other
// value of every byte; trailing bytes, even a lone zero, must be rejected.
Accepted ExpectMutationsRejectedOrExact(
    const Reencoder& reencode, const std::vector<std::uint8_t>& payload,
    Rng& rng) {
  const auto accepts = [&reencode](const std::vector<std::uint8_t>& bytes) {
    const std::optional<std::vector<std::uint8_t>> again = reencode(bytes);
    if (!again.has_value()) return false;
    EXPECT_EQ(*again, bytes);
    return true;
  };
  EXPECT_TRUE(accepts(payload));
  Accepted accepted;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (accepts({payload.begin(), payload.begin() + len})) {
      ++accepted.prefixes;
    }
  }
  for (std::size_t at = 0; at < payload.size(); ++at) {
    std::vector<std::uint8_t> flipped = payload;
    for (unsigned v = 0; v < 256; ++v) {
      if (v == payload[at]) continue;
      flipped[at] = static_cast<std::uint8_t>(v);
      if (accepts(flipped)) ++accepted.flips;
    }
  }
  std::vector<std::uint8_t> trailing = payload;
  for (int extra = 0; extra < 3; ++extra) {
    trailing.push_back(static_cast<std::uint8_t>(rng.Next()));
    EXPECT_FALSE(reencode(trailing).has_value());
  }
  trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(reencode(trailing).has_value());
  return accepted;
}

TEST(WireFuzzTest, FactBatchDecoderSurvivesTruncationsAndByteFlips) {
  const Reencoder reencode = [](const std::vector<std::uint8_t>& bytes)
      -> std::optional<std::vector<std::uint8_t>> {
    const auto batch = DecodeFactBatchPayload(bytes);
    if (!batch.has_value()) return std::nullopt;
    return Reencode(*batch);
  };
  std::size_t accepted_flips = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<Fact> facts = MutationBatch(rng);
    const std::uint64_t round = rng.Uniform(2) == 0 ? rng.Uniform(4)
                                                    : rng.Next();
    const std::vector<std::uint8_t> payload =
        EncodeFactBatchPayload(round, RowsOf(facts));

    const auto batch = DecodeFactBatchPayload(payload);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->round, round);
    ASSERT_EQ(batch->facts.size(), facts.size());
    std::size_t i = 0;
    for (const RowRef row : batch->facts) EXPECT_EQ(FactOf(row), facts[i++]);

    // Every proper prefix runs out of bytes mid-parse.
    const Accepted accepted =
        ExpectMutationsRejectedOrExact(reencode, payload, rng);
    EXPECT_EQ(accepted.prefixes, 0u);
    accepted_flips += accepted.flips;
  }
  // Value bytes flipped to another canonical varint decode to a different
  // batch; the harness must have seen both outcomes.
  EXPECT_GT(accepted_flips, 0u);
}

// Small, up to the 32-bit maximum, or anywhere in 64 bits: the varint
// lengths 1, 5 and 10 all show up.
std::uint64_t MutationVarint(Rng& rng, bool fits_32_bits) {
  switch (rng.Uniform(fits_32_bits ? 2 : 3)) {
    case 0:
      return rng.Uniform(4);
    case 1:
      return rng.Uniform(2) == 0 ? std::numeric_limits<std::uint32_t>::max()
                                 : rng.Next() >> 32;
    default:
      return rng.Next();
  }
}

TEST(WireFuzzTest, PayloadDecodersSurviveTruncationsAndByteFlips) {
  const Reencoder message = [](const std::vector<std::uint8_t>& bytes)
      -> std::optional<std::vector<std::uint8_t>> {
    const auto m = DecodeMessagePayload(bytes);
    if (!m.has_value()) return std::nullopt;
    return EncodeMessagePayload(m->seq, m->depth, m->parent, m->facts);
  };
  const Reencoder hello = [](const std::vector<std::uint8_t>& bytes)
      -> std::optional<std::vector<std::uint8_t>> {
    const auto h = DecodeHelloPayload(bytes);
    if (!h.has_value()) return std::nullopt;
    return EncodeHelloPayload(h->rank, h->seed, h->features);
  };
  const Reencoder stats = [](const std::vector<std::uint8_t>& bytes)
      -> std::optional<std::vector<std::uint8_t>> {
    const auto st = DecodeStatsPayload(bytes);
    if (!st.has_value()) return std::nullopt;
    return EncodeStatsPayload(st->round, st->received, st->wire_bytes);
  };
  const Reencoder trace_ctx = [](const std::vector<std::uint8_t>& bytes)
      -> std::optional<std::vector<std::uint8_t>> {
    const auto c = DecodeTraceCtxPayload(bytes);
    if (!c.has_value()) return std::nullopt;
    return EncodeTraceCtxPayload(c->trace_id, c->span, c->round);
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto any = [&rng] { return MutationVarint(rng, false); };
    const std::vector<std::uint8_t> message_payload = EncodeMessagePayload(
        any(), any(), static_cast<std::uint32_t>(MutationVarint(rng, true)),
        BatchOf(MutationBatch(rng)));
    EXPECT_EQ(
        ExpectMutationsRejectedOrExact(message, message_payload, rng).prefixes,
        0u);
    // A nonzero features varint, so trailing bytes cannot pass for one;
    // the one accepted prefix is the same Hello without features.
    const std::vector<std::uint8_t> hello_payload =
        EncodeHelloPayload(any(), any(), any() | 1);
    EXPECT_EQ(
        ExpectMutationsRejectedOrExact(hello, hello_payload, rng).prefixes,
        1u);
    const std::vector<std::uint8_t> stats_payload =
        EncodeStatsPayload(any(), any(), any());
    EXPECT_EQ(ExpectMutationsRejectedOrExact(stats, stats_payload, rng).prefixes,
              0u);
    const std::vector<std::uint8_t> ctx_payload =
        EncodeTraceCtxPayload(any(), any(), any());
    EXPECT_EQ(
        ExpectMutationsRejectedOrExact(trace_ctx, ctx_payload, rng).prefixes,
        0u);
  }
}

// Drains \p decoder into \p frames; false if the stream is in error.
bool Drain(FrameDecoder& decoder, std::vector<WireFrame>& frames) {
  while (std::optional<WireFrame> frame = decoder.Next()) {
    frames.push_back(*std::move(frame));
  }
  return !decoder.error();
}

std::vector<std::uint8_t> Encoded(const std::vector<WireFrame>& frames) {
  std::vector<std::uint8_t> bytes;
  for (const WireFrame& frame : frames) AppendFrame(bytes, frame);
  return bytes;
}

TEST(WireFuzzTest, FrameDecoderSurvivesChunkBoundariesAndByteFlips) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto id = [&rng] {
      return static_cast<std::uint32_t>(MutationVarint(rng, true));
    };
    std::vector<WireFrame> frames;
    std::vector<std::size_t> ends;  // Stream offset after each frame.
    std::size_t offset = 0;
    for (int i = 0; i < 6; ++i) {
      WireFrame frame{kWireVersion, FrameType::kShutdown, id(), id(), {}};
      switch (rng.Uniform(5)) {
        case 0:
          frame.type = FrameType::kHello;
          frame.payload = EncodeHelloPayload(rng.Next(), rng.Next(), 1);
          break;
        case 1:
          frame.type = FrameType::kFactBatch;
          frame.payload =
              EncodeFactBatchPayload(rng.Next(), RowsOf(MutationBatch(rng)));
          break;
        case 2:
          frame.type = FrameType::kMessage;
          frame.payload =
              EncodeMessagePayload(rng.Next(), rng.Next(), id(),
                                   BatchOf(MutationBatch(rng)));
          break;
        case 3:
          frame.type = FrameType::kTraceCtx;
          frame.payload = EncodeTraceCtxPayload(rng.Next(), rng.Next(), 3);
          break;
        default:
          break;
      }
      offset += FrameWireSize(frame);
      ends.push_back(offset);
      frames.push_back(std::move(frame));
    }
    const std::vector<std::uint8_t> stream = Encoded(frames);
    ASSERT_EQ(stream.size(), offset);

    // Split at every chunk boundary: the first chunk yields exactly the
    // frames it holds whole (a truncated frame never comes out), and the
    // rest completes the stream.
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
      FrameDecoder decoder;
      std::vector<WireFrame> decoded;
      decoder.Feed(stream.data(), cut);
      ASSERT_TRUE(Drain(decoder, decoded)) << "cut " << cut;
      const auto whole = static_cast<std::size_t>(
          std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
      ASSERT_EQ(decoded.size(), whole) << "cut " << cut;
      decoder.Feed(stream.data() + cut, stream.size() - cut);
      ASSERT_TRUE(Drain(decoder, decoded)) << "cut " << cut;
      ASSERT_EQ(Encoded(decoded), stream) << "cut " << cut;
    }

    // Every other value of every byte of each frame: an error, a skipped
    // unknown type, or frames that re-encode to the bytes they came from
    // (ids beyond 32 bits must not be truncated into another channel).
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      const std::vector<std::uint8_t> one(stream.begin() + begin,
                                          stream.begin() + end);
      for (std::size_t at = 0; at < one.size(); ++at) {
        std::vector<std::uint8_t> flipped = one;
        for (unsigned v = 0; v < 256; ++v) {
          if (v == one[at]) continue;
          flipped[at] = static_cast<std::uint8_t>(v);
          FrameDecoder decoder;
          std::vector<WireFrame> decoded;
          decoder.Feed(flipped.data(), flipped.size());
          if (!Drain(decoder, decoded) || decoder.unknown_skipped() > 0) {
            continue;
          }
          const std::vector<std::uint8_t> again = Encoded(decoded);
          ASSERT_LE(again.size(), flipped.size());
          ASSERT_TRUE(std::equal(again.begin(), again.end(), flipped.begin()))
              << "byte " << at << " -> " << v;
        }
      }
      begin = end;
    }
  }
}

TEST(WireFuzzTest, DecodersRejectIdsBeyond32BitsAndNonCanonicalHellos) {
  const auto varints = [](std::initializer_list<std::uint64_t> values) {
    std::vector<std::uint8_t> bytes;
    for (const std::uint64_t v : values) PutVarint(bytes, v);
    return bytes;
  };
  // A frame header naming rank 2^32 + 1 would otherwise land on the
  // channel of rank 1.
  for (const std::uint64_t from : {(1ull << 32) + 1, (1ull << 32) - 1}) {
    const std::vector<std::uint8_t> ids = varints({from, 0});
    std::vector<std::uint8_t> bytes = {
        static_cast<std::uint8_t>(2 + ids.size()), 0, 0, 0, kWireVersion,
        static_cast<std::uint8_t>(FrameType::kShutdown)};
    bytes.insert(bytes.end(), ids.begin(), ids.end());
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    const std::optional<WireFrame> frame = decoder.Next();
    EXPECT_EQ(frame.has_value(), from < (1ull << 32)) << from;
    EXPECT_EQ(decoder.error(), from >= (1ull << 32)) << from;
  }
  // A kMessage parent and a fact relation beyond 32 bits; the 32-bit
  // maximum of each still decodes.
  EXPECT_FALSE(DecodeMessagePayload(varints({0, 0, (1ull << 32) + 5, 0}))
                   .has_value());
  EXPECT_TRUE(DecodeMessagePayload(varints({0, 0, (1ull << 32) - 1, 0}))
                  .has_value());
  EXPECT_FALSE(DecodeMessagePayload(varints({0, 0, 0, 1, (1ull << 32) + 3, 0}))
                   .has_value());
  EXPECT_TRUE(DecodeMessagePayload(varints({0, 0, 0, 1, (1ull << 32) - 1, 0}))
                  .has_value());
  // The Hello encoder omits a zero features varint, so an explicit zero is
  // rejected; any nonzero one is the optional field.
  EXPECT_FALSE(DecodeHelloPayload(varints({1, 2, 0})).has_value());
  EXPECT_TRUE(DecodeHelloPayload(varints({1, 2, 5})).has_value());
  EXPECT_TRUE(DecodeHelloPayload(varints({1, 2})).has_value());
}

TEST(WireFuzzTest, FactBatchDecoderRejectsHostileHeaders) {
  const auto payload = [](std::initializer_list<std::uint64_t> varints) {
    std::vector<std::uint8_t> bytes;
    for (const std::uint64_t v : varints) PutVarint(bytes, v);
    return bytes;
  };
  // A count the remaining bytes cannot hold (each row takes at least two
  // bytes) is rejected before anything is reserved: a 2^62-row
  // reservation would throw or trip the sanitizer's allocation limit.
  EXPECT_FALSE(DecodeFactBatchPayload(payload({0, 1ull << 62})).has_value());
  EXPECT_FALSE(DecodeFactBatchPayload(payload({0, ~0ull})).has_value());
  EXPECT_FALSE(DecodeFactBatchPayload(payload({0, 2, 0, 0})).has_value());
  EXPECT_TRUE(DecodeFactBatchPayload(payload({0, 2, 0, 0, 0, 0})).has_value());
  // An arity beyond the remaining bytes, and ids beyond 32 bits.
  EXPECT_FALSE(DecodeFactBatchPayload(payload({0, 1, 0, 1ull << 40}))
                   .has_value());
  EXPECT_FALSE(DecodeFactBatchPayload(payload({0, 1, 0, 3, 1, 1}))
                   .has_value());
  EXPECT_FALSE(DecodeFactBatchPayload(payload({0, 1, 1ull << 32, 0}))
                   .has_value());
  EXPECT_TRUE(DecodeFactBatchPayload(payload({0, 1, (1ull << 32) - 1, 0}))
                  .has_value());
  // Over-long varints (a zero final byte) and a tenth byte overflowing 64
  // bits: both would re-encode differently, so both are rejected.
  EXPECT_FALSE(DecodeFactBatchPayload({0x80, 0x00, 0x00}).has_value());
  EXPECT_FALSE(DecodeFactBatchPayload({0x00, 0x01, 0x85, 0x00, 0x00})
                   .has_value());
  std::vector<std::uint8_t> overflow(9, 0xff);
  overflow.push_back(0x02);
  overflow.push_back(0x00);
  EXPECT_FALSE(DecodeFactBatchPayload(overflow).has_value());
  overflow[9] = 0x01;  // 2^64 - 1: the largest round, still canonical.
  EXPECT_TRUE(DecodeFactBatchPayload(overflow).has_value());
}

// Deterministic frame stream covering every type and the interesting
// value shapes (empty batch, negative args, multi-byte varints).
std::vector<std::uint8_t> GoldenStream() {
  std::vector<std::uint8_t> stream;
  AppendFrame(stream, {kWireVersion, FrameType::kHello, 0, 1,
                       EncodeHelloPayload(0, 0x1234567890abcdefull)});
  AppendFrame(stream, {kWireVersion, FrameType::kHello, 1, 0,
                       EncodeHelloPayload(1, 0x1234567890abcdefull,
                                          kHelloFeatureTraceCtx)});
  AppendFrame(stream, {kWireVersion, FrameType::kTraceCtx, 2, 3,
                       EncodeTraceCtxPayload(0x0123456789abcdefull, 17, 4)});

  const Fact small(0, {Value(1), Value(-1)});
  const Fact wide(3, {Value(1000000), Value(-1000000), Value(0)});
  const Fact nullary(7, {});
  AppendFrame(stream, {kWireVersion, FrameType::kFactBatch, 2, 3,
                       EncodeFactBatchPayload(
                           4, RowsOf({small, wide, nullary}))});
  AppendFrame(stream, {kWireVersion, FrameType::kFactBatch, 3, 2,
                       EncodeFactBatchPayload(0, std::vector<RowRef>{})});
  AppendFrame(stream, {kWireVersion, FrameType::kMessage, 200, 300,
                       EncodeMessagePayload(77, 5, 42,
                                            BatchOf({small, wide}))});
  AppendFrame(stream, {kWireVersion, FrameType::kStats, 1, 0,
                       EncodeStatsPayload(2, 12345, 9876543)});
  AppendFrame(stream, {kWireVersion, FrameType::kShutdown, 0, 0, {}});
  return stream;
}

TEST(WireTest, GoldenFrameDumpIsStable) {
  const std::vector<std::uint8_t> stream = GoldenStream();
  if (std::getenv("LAMP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(stream.data()),
              static_cast<std::streamsize>(stream.size()));
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << GoldenPath()
                         << " — regenerate with LAMP_REGEN_GOLDEN=1";
  const std::vector<std::uint8_t> golden(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_EQ(stream, golden)
      << "wire layout drifted from the golden. If the change is intentional,"
         " bump kWireVersion and rerun with LAMP_REGEN_GOLDEN=1.";

  // And the committed bytes must decode — the dump doubles as a decoder
  // fixture for foreign implementations.
  FrameDecoder decoder;
  decoder.Feed(golden.data(), golden.size());
  std::size_t frames = 0;
  while (auto frame = decoder.Next()) {
    ++frames;
    if (frame->type == FrameType::kFactBatch && frame->from == 2) {
      const auto batch = DecodeFactBatchPayload(frame->payload);
      ASSERT_TRUE(batch.has_value());
      EXPECT_EQ(batch->round, 4u);
      EXPECT_EQ(batch->facts.size(), 3u);
    }
  }
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(frames, 8u);
  EXPECT_EQ(decoder.unknown_skipped(), 0u);
}

}  // namespace
}  // namespace lamp::transport
