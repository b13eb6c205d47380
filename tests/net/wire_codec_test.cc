// Wire-format properties: encode/decode round trips for every payload
// shape, header validation, and a seeded corpus-style fuzz loop that
// mutates valid frames and asserts every mutant is rejected cleanly
// (error status, never a crash or over-read — CI runs this suite under
// AddressSanitizer so an over-read is a hard failure, not luck).

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"

namespace fxdist {
namespace {

WireFrame RoundTrip(const WireFrame& frame) {
  auto decoded = DecodeFrame(EncodeFrame(frame));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? *decoded : WireFrame{};
}

TEST(WireFrameTest, RoundTripsEveryOpcode) {
  for (WireOp op :
       {WireOp::kHandshake, WireOp::kDelete, WireOp::kExecute,
        WireOp::kNumRecords, WireOp::kRecordCounts, WireOp::kMarkDown,
        WireOp::kMarkUp, WireOp::kListRecords, WireOp::kInsertBatch,
        WireOp::kTopology, WireOp::kAnalyzeRange, WireOp::kScanMatch,
        WireOp::kError}) {
    for (bool is_reply : {false, true}) {
      WireFrame frame{op, is_reply, "payload \x00\xff bytes"};
      const WireFrame back = RoundTrip(frame);
      EXPECT_EQ(back.op, op);
      EXPECT_EQ(back.is_reply, is_reply);
      EXPECT_EQ(back.payload, frame.payload);
    }
  }
}

// 2, 5, 6 and 12 were the per-record insert, per-bucket scan, liveness
// probe and unfiltered gather: reserved, never reassigned, refused like
// any unknown opcode.
TEST(WireFrameTest, RetiredOpcodesAreRejected) {
  for (const std::uint8_t raw : {2, 5, 6, 12}) {
    auto op = ParseWireOp(raw);
    ASSERT_FALSE(op.ok()) << "opcode " << static_cast<int>(raw);
    EXPECT_EQ(op.status().code(), StatusCode::kInvalidArgument);

    std::string frame = EncodeFrame({WireOp::kExecute, false, "abc"});
    frame[6] = static_cast<char>(raw);
    // Re-seal so only the opcode is wrong.
    frame.resize(frame.size() - kWireChecksumSize);
    const std::uint64_t sum = WireChecksum(frame);
    for (int i = 0; i < 8; ++i) {
      frame.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
    }
    auto decoded = DecodeFrame(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireFrameTest, EmptyPayloadIsSmallestFrame) {
  const std::string bytes = EncodeFrame({WireOp::kNumRecords, false, ""});
  EXPECT_EQ(bytes.size(), kWireHeaderSize + kWireChecksumSize);
  auto size = FrameSizeFromHeader(bytes);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, bytes.size());
}

TEST(WireFrameTest, RejectsBadMagicVersionOpcodeAndLength) {
  const std::string good = EncodeFrame({WireOp::kExecute, false, "abc"});

  std::string bad_magic = good;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(FrameSizeFromHeader(bad_magic).ok());
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());

  // Version 2 is the only layout: the retired 1 and the unassigned 3
  // are both refused from the header alone.
  for (const int version : {kWireVersion - 1, kWireVersion + 1}) {
    std::string bad_version = good;
    bad_version[4] = static_cast<char>(version);
    EXPECT_FALSE(FrameSizeFromHeader(bad_version).ok());
    EXPECT_FALSE(DecodeFrame(bad_version).ok());
  }

  std::string bad_opcode = good;
  bad_opcode[6] = 126;  // not a WireOp value
  EXPECT_FALSE(DecodeFrame(bad_opcode).ok());

  // Announced length past kWireMaxPayload must be rejected from the
  // header alone — before any allocation could be sized from it.
  std::string bad_length = good;
  bad_length[16] = '\xff';
  bad_length[17] = '\xff';
  bad_length[18] = '\xff';
  bad_length[19] = '\x7f';
  EXPECT_FALSE(FrameSizeFromHeader(bad_length).ok());
  EXPECT_FALSE(DecodeFrame(bad_length).ok());
}

TEST(WireFrameTest, RejectsTruncationAndChecksumDamage) {
  const std::string good =
      EncodeFrame({WireOp::kInsertBatch, true, "0123456789"});
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeFrame(good.substr(0, cut)).ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(DecodeFrame(good + 'x').ok());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x5a);
    EXPECT_FALSE(DecodeFrame(flipped).ok()) << "flip at " << i;
  }
}

TEST(PayloadCodecTest, ScalarsRoundTripAndReadInOrder) {
  PayloadWriter writer;
  writer.U8(0xab);
  writer.U32(0xdeadbeefu);
  writer.U64(0x0123456789abcdefull);
  writer.F64(-2.5);
  writer.Str("hello \x00 wire");
  PayloadReader reader(writer.payload());
  EXPECT_EQ(*reader.U8(), 0xab);
  EXPECT_EQ(*reader.U32(), 0xdeadbeefu);
  EXPECT_EQ(*reader.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(*reader.F64(), -2.5);
  EXPECT_EQ(*reader.Str(), "hello \x00 wire");
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(PayloadCodecTest, StatusRoundTripsEveryCode) {
  for (const Status& status :
       {Status::OK(), Status::InvalidArgument("bad arg"),
        Status::NotFound("missing"), Status::FailedPrecondition("frozen"),
        Status::Unavailable("down"), Status::DeadlineExceeded("slow"),
        Status::DataLoss("torn")}) {
    PayloadWriter writer;
    writer.WriteStatus(status);
    PayloadReader reader(writer.payload());
    Status decoded;
    ASSERT_TRUE(reader.ReadStatusInto(&decoded).ok());
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), status.message());
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(PayloadCodecTest, RecordsAndQueriesRoundTrip) {
  const Record record{FieldValue{std::int64_t{-42}}, FieldValue{2.75},
                      FieldValue{std::string("str\x00ing")}};
  const std::vector<Record> records{record, Record{}, record};
  ValueQuery query(3);
  query[1] = FieldValue{std::int64_t{7}};

  PayloadWriter writer;
  writer.WriteRecords(records);
  writer.WriteQuery(query);
  PayloadReader reader(writer.payload());
  EXPECT_EQ(*reader.ReadRecords(), records);
  EXPECT_EQ(*reader.ReadQuery(), query);
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(PayloadCodecTest, QueryResultRoundTripsBitIdentically) {
  QueryResult result;
  result.records = {{FieldValue{std::int64_t{1}}, FieldValue{0.5}}};
  result.stats.qualified_per_device = {3, 0, 7, 1};
  result.stats.total_qualified = 11;
  result.stats.largest_response = 7;
  result.stats.optimal_bound = 3;
  result.stats.strict_optimal = false;
  result.stats.records_examined = 99;
  result.stats.records_matched = 1;
  result.stats.disk_timing.parallel_ms = 12.5;
  result.stats.disk_timing.serial_ms = 40.0;
  result.stats.disk_timing.speedup = 3.2;
  result.stats.wall_ms = 0.125;
  result.stats.device_wall_ms = {0.1, 0.0, 0.025, 0.0};

  PayloadWriter writer;
  writer.WriteResult(result);
  PayloadReader reader(writer.payload());
  auto back = reader.ReadResult();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(back->records, result.records);
  EXPECT_EQ(back->stats.qualified_per_device,
            result.stats.qualified_per_device);
  EXPECT_EQ(back->stats.total_qualified, result.stats.total_qualified);
  EXPECT_EQ(back->stats.largest_response, result.stats.largest_response);
  EXPECT_EQ(back->stats.optimal_bound, result.stats.optimal_bound);
  EXPECT_EQ(back->stats.strict_optimal, result.stats.strict_optimal);
  EXPECT_EQ(back->stats.records_examined, result.stats.records_examined);
  EXPECT_EQ(back->stats.records_matched, result.stats.records_matched);
  EXPECT_EQ(back->stats.disk_timing.parallel_ms,
            result.stats.disk_timing.parallel_ms);
  EXPECT_EQ(back->stats.disk_timing.serial_ms,
            result.stats.disk_timing.serial_ms);
  EXPECT_EQ(back->stats.disk_timing.speedup,
            result.stats.disk_timing.speedup);
  EXPECT_EQ(back->stats.wall_ms, result.stats.wall_ms);
  EXPECT_EQ(back->stats.device_wall_ms, result.stats.device_wall_ms);
}

TEST(PayloadCodecTest, ReaderNeverOverReads) {
  PayloadWriter writer;
  writer.WriteRecords({{FieldValue{std::int64_t{5}}}});
  const std::string full = writer.payload();
  // Every prefix must fail some read cleanly instead of running off the
  // end (under ASan this is an over-read detector, not just a status
  // check).
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    PayloadReader reader(std::string_view(full).substr(0, cut));
    auto records = reader.ReadRecords();
    if (records.ok()) {
      EXPECT_FALSE(reader.ExpectEnd().ok()) << "cut=" << cut;
    }
  }
}

TEST(PayloadCodecTest, CorruptedCountsCannotForceHugeAllocations) {
  // A record count of ~4 billion with a 16-byte payload must fail fast.
  PayloadWriter writer;
  writer.U32(0xffffffffu);
  writer.U64(0);
  PayloadReader records_reader(writer.payload());
  EXPECT_FALSE(records_reader.ReadRecords().ok());
  PayloadReader record_reader(writer.payload());
  EXPECT_FALSE(record_reader.ReadRecord().ok());
  PayloadReader stats_reader(writer.payload());
  EXPECT_FALSE(stats_reader.ReadStats().ok());
}

// Corpus-style fuzz loop: take valid frames of every kind, apply seeded
// random mutations (byte flips, truncations, splices, length rewrites),
// and require DecodeFrame to reject every mutant without crashing.  A
// mutant that happens to re-validate (the checksum is only 64 bits, but
// single mutations cannot collide it) would be accepted — assert instead
// that acceptance implies actual integrity.
TEST(WireFuzzTest, MutatedFramesAreRejectedCleanly) {
  std::vector<std::string> corpus;
  corpus.push_back(EncodeFrame({WireOp::kHandshake, false, ""}));
  {
    PayloadWriter writer;
    writer.WriteRecord({FieldValue{std::int64_t{123}},
                        FieldValue{std::string("abc")}});
    corpus.push_back(
        EncodeFrame({WireOp::kInsertBatch, false, writer.Take()}));
  }
  {
    PayloadWriter writer;
    writer.WriteStatus(Status::OK());
    QueryResult result;
    result.stats.qualified_per_device = {1, 2, 3};
    result.records = {{FieldValue{2.5}}};
    writer.WriteResult(result);
    corpus.push_back(EncodeFrame({WireOp::kExecute, true, writer.Take()}));
  }
  {
    PayloadWriter writer;
    writer.WriteStatus(Status::InvalidArgument("nope"));
    corpus.push_back(EncodeFrame({WireOp::kError, true, writer.Take()}));
  }
  {
    // kAnalyzeRange request: three u64 operands.
    PayloadWriter writer;
    writer.U64(0b101);
    writer.U64(0);
    writer.U64(4096);
    corpus.push_back(
        EncodeFrame({WireOp::kAnalyzeRange, false, writer.Take(), 42}));
  }
  {
    // kAnalyzeRange reply: status, device count, counts, qualified.
    PayloadWriter writer;
    writer.WriteStatus(Status::OK());
    writer.U32(4);
    for (std::uint64_t d = 0; d < 4; ++d) writer.U64(16 + d);
    writer.U64(70);
    corpus.push_back(
        EncodeFrame({WireOp::kAnalyzeRange, true, writer.Take(), 42}));
  }

  Xoshiro256 rng(20260805);
  std::uint64_t rejected = 0, accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string frame = corpus[rng.NextBounded(corpus.size())];
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(4)) {
        case 0: {  // flip a byte
          if (frame.empty()) break;
          const std::size_t at = rng.NextBounded(frame.size());
          frame[at] = static_cast<char>(frame[at] ^
                                        (1u << rng.NextBounded(8)));
          break;
        }
        case 1:  // truncate
          frame.resize(rng.NextBounded(frame.size() + 1));
          break;
        case 2: {  // splice random garbage
          const std::size_t n = rng.NextBounded(16);
          for (std::size_t i = 0; i < n; ++i) {
            frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(
                                             rng.NextBounded(frame.size() + 1)),
                         static_cast<char>(rng.Next()));
          }
          break;
        }
        default: {  // rewrite the announced payload length
          if (frame.size() < kWireHeaderSize) break;
          const std::uint32_t bogus = static_cast<std::uint32_t>(rng.Next());
          frame[16] = static_cast<char>(bogus & 0xff);
          frame[17] = static_cast<char>((bogus >> 8) & 0xff);
          frame[18] = static_cast<char>((bogus >> 16) & 0xff);
          frame[19] = static_cast<char>((bogus >> 24) & 0xff);
          break;
        }
      }
    }
    auto decoded = DecodeFrame(frame);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    // Accepted: the mutations reassembled a checksum-valid frame, so it
    // must round-trip to exactly these bytes.
    ++accepted;
    EXPECT_EQ(EncodeFrame(*decoded), frame);
  }
  // Overwhelmingly mutants must be rejected; a handful of no-op splices
  // or double flips may reassemble the original frame.
  EXPECT_GT(rejected, 19000u) << "accepted=" << accepted;
}

}  // namespace
}  // namespace fxdist
