// Property tests for the packed format's primitive codecs: varint /
// zigzag round-trips (including overlong-encoding rejection) and bucket
// block encode/decode across all three value types.  Every decode
// failure must be DataLoss — these codecs face possibly-corrupted
// mapped bytes.

#include "sim/packed_format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/random.h"

namespace fxdist {
namespace packed {
namespace {

TEST(PackedCodecVarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {
      0,
      1,
      127,
      128,
      16383,
      16384,
      (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (const std::uint64_t v : values) {
    std::string buf;
    PutVarint(buf, v);
    EXPECT_LE(buf.size(), 10u) << v;
    ByteReader reader(buf);
    auto decoded = reader.Varint();
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(reader.ExpectEnd().ok()) << v;
  }
}

TEST(PackedCodecVarint, RoundTripsRandomValues) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 2000; ++i) {
    // Mix magnitudes: raw 64-bit draws are almost always 9-10 bytes.
    const std::uint64_t v = rng.Next() >> (rng.Next() % 64);
    std::string buf;
    PutVarint(buf, v);
    ByteReader reader(buf);
    auto decoded = reader.Varint();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
  }
}

TEST(PackedCodecVarint, RejectsTruncation) {
  std::string buf;
  PutVarint(buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    ByteReader reader(buf.data(), len);
    auto decoded = reader.Varint();
    ASSERT_FALSE(decoded.ok()) << "prefix " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(PackedCodecVarint, RejectsOverlongEncoding) {
  // Eleven continuation bytes can never be a valid 64-bit varint.
  std::string buf(11, '\x80');
  buf.push_back('\x01');
  ByteReader reader(buf);
  auto decoded = reader.Varint();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCodecVarint, RejectsTenthByteOverflow) {
  // Ten bytes whose final byte carries more than the one remaining bit.
  std::string buf(9, '\xff');
  buf.push_back('\x7f');
  ByteReader reader(buf);
  auto decoded = reader.Varint();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCodecZigzag, RoundTripsExtremes) {
  const std::int64_t values[] = {
      0,
      1,
      -1,
      63,
      -64,
      64,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (const std::int64_t v : values) {
    std::string buf;
    PutZigzag(buf, v);
    ByteReader reader(buf);
    auto decoded = reader.Zigzag();
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
  }
}

TEST(PackedCodecFixed, U32AndU64RoundTrip) {
  std::string buf;
  AppendU32(buf, 0xDEADBEEFu);
  AppendU64(buf, 0x0123456789ABCDEFull);
  ByteReader reader(buf);
  auto u32 = reader.U32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xDEADBEEFu);
  auto u64 = reader.U64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(reader.ExpectEnd().ok());
  // Truncated fixed reads fail with DataLoss.
  ByteReader short_reader(buf.data(), 3);
  EXPECT_EQ(short_reader.U32().status().code(), StatusCode::kDataLoss);
}

TEST(PackedCodecRecordBlock, RoundTripsAllValueTypes) {
  const std::vector<ValueType> types = {ValueType::kInt64, ValueType::kDouble,
                                        ValueType::kString};
  std::vector<Record> records;
  records.push_back({FieldValue{std::int64_t{-42}}, FieldValue{3.25},
                     FieldValue{std::string("alpha")}});
  records.push_back({FieldValue{std::numeric_limits<std::int64_t>::min()},
                     FieldValue{-0.0}, FieldValue{std::string()}});
  records.push_back({FieldValue{std::int64_t{7}},
                     FieldValue{1e300},
                     FieldValue{std::string(300, 'x')}});
  std::string bytes;
  for (const Record& r : records) EncodeRecord(bytes, r);
  std::vector<Record> decoded;
  ASSERT_TRUE(
      DecodeRecordBlock(bytes, records.size(), types, &decoded).ok());
  EXPECT_EQ(decoded, records);
}

TEST(PackedCodecRecordBlock, RejectsTruncationAndTrailing) {
  const std::vector<ValueType> types = {ValueType::kInt64,
                                        ValueType::kString};
  std::string bytes;
  EncodeRecord(bytes, {FieldValue{std::int64_t{9}},
                       FieldValue{std::string("payload")}});
  std::vector<Record> out;
  // Every strict prefix fails (string length runs off the block, or the
  // block ends mid-record), and never crashes.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto status =
        DecodeRecordBlock(std::string_view(bytes.data(), len), 1, types, &out);
    ASSERT_FALSE(status.ok()) << "prefix " << len;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "prefix " << len;
  }
  EXPECT_EQ(DecodeRecordBlock(bytes + '\x01', 1, types, &out).code(),
            StatusCode::kDataLoss);
}

TEST(PackedCodecRecordBlock, RejectsCountTheBlockCannotHold) {
  // Every field takes at least one byte, so a count above the block's
  // byte length fails before anything is reserved for it — even one
  // near 2^64.
  const std::vector<ValueType> types = {ValueType::kInt64};
  std::string bytes;
  EncodeRecord(bytes, {FieldValue{std::int64_t{1}}});
  EncodeRecord(bytes, {FieldValue{std::int64_t{2}}});
  std::vector<Record> out;
  EXPECT_TRUE(DecodeRecordBlock(bytes, 2, types, &out).ok());
  EXPECT_EQ(DecodeRecordBlock(bytes, 3, types, &out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeRecordBlock(bytes, std::numeric_limits<std::uint64_t>::max(),
                              types, &out)
                .code(),
            StatusCode::kDataLoss);
  // Fewer records than the block holds leaves trailing bytes.
  EXPECT_EQ(DecodeRecordBlock(bytes, 1, types, &out).code(),
            StatusCode::kDataLoss);
}

TEST(PackedCodecChecksum, MatchesKnownFnv1aVectors) {
  // Standard FNV-1a-64 vectors; the wire protocol uses the same function.
  EXPECT_EQ(Checksum(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Checksum("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Checksum("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace packed
}  // namespace fxdist
