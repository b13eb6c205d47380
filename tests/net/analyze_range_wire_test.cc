// Wire framing of kAnalyzeRange, the distributed-sweep opcode: golden
// byte layout of the request, end-to-end service dispatch checked
// against the in-process analysis kernel, and the v1 rejection rule.  A
// server that does not grant the bit fails Connect
// (PipelinedRemoteTest.OldServerFailsTheHandshake).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/range_sweep.h"
#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/parallel_file.h"

namespace fxdist {
namespace {

Schema RigSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 4},
                         {"f1", ValueType::kInt64, 4},
                         {"f2", ValueType::kInt64, 8}})
      .value();
}

void AppendLe(std::string* out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

// The request layout, pinned byte for byte from first principles: v2
// header (magic u32, version u16, op u8, flags u8, correlation id u64,
// payload length u32 — all little-endian), three u64 operands (mask,
// start, end), FNV-1a-64 trailer over header+payload.  A change to any
// of PayloadWriter, EncodeFrame, or the operand order lands here.
TEST(AnalyzeRangeWire, GoldenRequestFrame) {
  PayloadWriter writer;
  writer.U64(0b101);  // mask: fields 0 and 2 unspecified
  writer.U64(32);     // start
  writer.U64(96);     // end
  WireFrame frame{WireOp::kAnalyzeRange, false, writer.Take(), 7};
  const std::string encoded = EncodeFrame(frame);

  std::string expected;
  AppendLe(&expected, kWireMagic, 4);
  AppendLe(&expected, kWireVersion, 2);
  AppendLe(&expected, 15, 1);  // the opcode value itself is wire contract
  AppendLe(&expected, 0, 1);   // request, not reply
  AppendLe(&expected, 7, 8);   // correlation id
  AppendLe(&expected, 24, 4);  // payload: three u64s
  AppendLe(&expected, 0b101, 8);
  AppendLe(&expected, 32, 8);
  AppendLe(&expected, 96, 8);
  AppendLe(&expected, WireChecksum(expected), 8);
  EXPECT_EQ(encoded, expected);

  auto decoded = DecodeFrame(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, WireOp::kAnalyzeRange);
  EXPECT_EQ(decoded->correlation_id, 7u);
}

TEST(AnalyzeRangeWire, ServiceReplyMatchesLocalKernel) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 4, "fx-iu2", 7).value());
  ShardService service(*served);

  PayloadWriter writer;
  writer.U64(0b011);
  writer.U64(16);
  writer.U64(128);
  const std::string reply_bytes = service.HandleFrame(EncodeFrame(
      {WireOp::kAnalyzeRange, false, writer.Take(), 1}));

  auto reply = DecodeFrame(reply_bytes);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->op, WireOp::kAnalyzeRange);
  EXPECT_TRUE(reply->is_reply);
  PayloadReader reader(reply->payload);
  Status status;
  ASSERT_TRUE(reader.ReadStatusInto(&status).ok());
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto num_devices = reader.U32();
  ASSERT_TRUE(num_devices.ok());
  ASSERT_EQ(*num_devices, 4u);
  RangePartial wire;
  for (std::uint32_t d = 0; d < *num_devices; ++d) {
    auto count = reader.U64();
    ASSERT_TRUE(count.ok());
    wire.per_device.push_back(*count);
  }
  auto qualified = reader.U64();
  ASSERT_TRUE(qualified.ok());
  wire.qualified = *qualified;
  EXPECT_TRUE(reader.AtEnd());

  const RangePartial local =
      AnalyzeBucketRange(served->device_map(), 0b011, 16, 128).value();
  EXPECT_EQ(wire.per_device, local.per_device);
  EXPECT_EQ(wire.qualified, local.qualified);
}

TEST(AnalyzeRangeWire, V1FrameIsRejected) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 4, "fx-iu2", 7).value());
  ShardService service(*served);

  PayloadWriter writer;
  writer.U64(0);
  writer.U64(0);
  writer.U64(8);
  // The retired version 1 layout: 12-byte header without a correlation
  // id, built by hand since EncodeFrame only speaks version 2.
  const std::string payload = writer.Take();
  std::string v1;
  AppendLe(&v1, kWireMagic, 4);
  AppendLe(&v1, 1, 2);
  AppendLe(&v1, static_cast<std::uint8_t>(WireOp::kAnalyzeRange), 1);
  AppendLe(&v1, 0, 1);
  AppendLe(&v1, payload.size(), 4);
  v1 += payload;
  AppendLe(&v1, WireChecksum(v1), 8);
  auto reply = DecodeFrame(service.HandleFrame(v1));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->op, WireOp::kError);
  PayloadReader reader(reply->payload);
  Status status;
  ASSERT_TRUE(reader.ReadStatusInto(&status).ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(AnalyzeRangeWire, MalformedOperandsAreRejected) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 4, "fx-iu2", 7).value());
  ShardService service(*served);
  // Truncated (two operands), trailing garbage, and out-of-space range:
  // each must come back as a framed error, never a crash or a hang.
  const struct {
    std::vector<std::uint64_t> operands;
    StatusCode expected;
  } cases[] = {
      {{1, 0}, StatusCode::kDataLoss},            // truncated
      {{1, 0, 8, 99}, StatusCode::kDataLoss},     // trailing garbage
      {{1, 0, 1u << 20}, StatusCode::kInvalidArgument},  // end > space
      {{1, 64, 32}, StatusCode::kInvalidArgument},       // start > end
  };
  for (const auto& c : cases) {
    PayloadWriter writer;
    for (const std::uint64_t v : c.operands) writer.U64(v);
    auto reply = DecodeFrame(service.HandleFrame(EncodeFrame(
        {WireOp::kAnalyzeRange, false, writer.Take(), 1})));
    ASSERT_TRUE(reply.ok());
    PayloadReader reader(reply->payload);
    Status status;
    ASSERT_TRUE(reader.ReadStatusInto(&status).ok());
    EXPECT_EQ(status.code(), c.expected)
        << "operands=" << c.operands.size() << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace fxdist
