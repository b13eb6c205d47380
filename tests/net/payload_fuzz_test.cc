// Payload fuzz: the frame checksum rejects nearly every mutant of a whole
// frame before any payload parser runs, so these suites mutate the
// payload and re-frame it with a valid checksum.  Server side, every
// mutated request of the untrusted-input ops must get a decodable reply
// frame, and the service must still answer a valid request afterwards.
// Client side, every mutated kScanMatch reply body must either decode or
// fail the scan as DataLoss (reported through Health()), never over-read.
// ASan turns any over-read the assertions miss into a failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/parallel_file.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 4;

Schema FuzzSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kString, 8}})
      .value();
}

/// A query pinning `field` to `value`, every other field open.  Fields
/// are assigned from an lvalue: GCC 12 under ASan warns, falsely, that a
/// brace-initialized list of optional<FieldValue> may read an
/// uninitialized string.
ValueQuery Pin(std::size_t arity, std::size_t field, const FieldValue& value) {
  ValueQuery query(arity);
  query[field] = value;
  return query;
}

std::shared_ptr<ParallelFile> FilledFile() {
  auto file = std::make_shared<ParallelFile>(
      ParallelFile::Create(FuzzSchema(), kDevices, "fx-iu2", 5).value());
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(
        file->Insert({FieldValue{i % 9}, FieldValue{"s" + std::to_string(i)}})
            .ok());
  }
  return file;
}

/// Bit flips, byte overwrites, truncations, extensions and count-sized
/// windows set to all ones, drawn from a fixed seed; plus every strict
/// prefix.
std::vector<std::string> Mutants(const std::string& payload,
                                 std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> out;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    out.push_back(payload.substr(0, len));
  }
  for (int i = 0; i < count && !payload.empty(); ++i) {
    std::string m = payload;
    const std::size_t at = rng() % m.size();
    switch (rng() % 4) {
      case 0:
        m[at] = static_cast<char>(m[at] ^ (1 << (rng() % 8)));
        break;
      case 1:
        m[at] = static_cast<char>(rng());
        break;
      case 2:
        m.append(1 + rng() % 16, static_cast<char>(rng()));
        break;
      case 3:
        for (std::size_t k = at; k < std::min(m.size(), at + 1 + rng() % 8);
             ++k) {
          m[k] = '\xff';
        }
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// The decoded status of a reply frame; fails the test when the bytes are
/// not a reply frame at all.
Status ReplyStatus(const std::string& bytes, WireOp op) {
  auto frame = DecodeFrame(bytes);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  if (!frame.ok()) return frame.status();
  EXPECT_TRUE(frame->is_reply);
  EXPECT_TRUE(frame->op == op || frame->op == WireOp::kError)
      << WireOpName(frame->op);
  PayloadReader reader(frame->payload);
  Status status;
  const Status parse = reader.ReadStatusInto(&status);
  EXPECT_TRUE(parse.ok()) << parse.ToString();
  return status;
}

/// A valid request payload of each fuzzed op against FuzzSchema.
std::vector<std::pair<WireOp, std::string>> ValidRequests(
    const StorageBackend& file) {
  std::vector<std::pair<WireOp, std::string>> requests;
  PayloadWriter hello;
  hello.U64(kWireMaxPayload);
  hello.U32(kWireFeatureScanMany | kWireFeatureScanMatch);
  hello.Str("tenant");
  requests.emplace_back(WireOp::kHandshake, hello.Take());

  const DeviceMap& map = file.device_map();
  PayloadWriter scan;
  scan.U64(3);
  for (std::uint64_t b : {1u, 9u, 40u}) {
    scan.U64(map.DeviceOfLinear(b));
    scan.U64(b);
  }
  requests.emplace_back(WireOp::kScanMany, scan.Take());

  PayloadWriter match;
  match.Varint(2);
  match.WriteQuery(Pin(2, 0, FieldValue{std::int64_t{3}}));
  match.WriteQuery(Pin(2, 1, FieldValue{std::string("s7")}));
  match.Varint(3);
  std::uint64_t previous = 0;
  for (std::uint64_t b : {12u, 3u, 50u}) {
    match.Varint(map.DeviceOfLinear(b));
    match.Zigzag(static_cast<std::int64_t>(b - previous));
    previous = b;
    match.Varint(b == 3 ? 0 : 2);
    if (b != 3) {
      match.Varint(1);
      match.Varint(0);
    }
  }
  requests.emplace_back(WireOp::kScanMatch, match.Take());

  PayloadWriter insert;
  insert.U32(2);
  insert.WriteRecord({FieldValue{std::int64_t{70}}, FieldValue{std::string("x")}});
  insert.WriteRecord({FieldValue{std::int64_t{71}}, FieldValue{std::string("y")}});
  requests.emplace_back(WireOp::kInsertBatch, insert.Take());

  PayloadWriter execute;
  execute.WriteQuery(Pin(2, 0, FieldValue{std::int64_t{4}}));
  requests.emplace_back(WireOp::kExecute, execute.Take());

  PayloadWriter range;
  range.U64(0b01);
  range.U64(8);
  range.U64(48);
  requests.emplace_back(WireOp::kAnalyzeRange, range.Take());
  return requests;
}

TEST(ShardRequestFuzzTest, MutatedRequestPayloadsGetReplyFrames) {
  auto file = FilledFile();
  ShardService service(*file);
  const auto requests = ValidRequests(*file);
  std::uint64_t id = 1;
  for (const auto& [op, payload] : requests) {
    SCOPED_TRACE(WireOpName(op));
    ASSERT_TRUE(ReplyStatus(service.HandleFrame(
                                EncodeFrame({op, false, payload, id++})),
                            op)
                    .ok());
    std::size_t refused = 0;
    const std::vector<std::string> mutants =
        Mutants(payload, 0xf022 + static_cast<std::uint64_t>(op), 400);
    for (const std::string& mutant : mutants) {
      const std::string reply =
          service.HandleFrame(EncodeFrame({op, false, mutant, id++}));
      if (!ReplyStatus(reply, op).ok()) ++refused;
      if (testing::Test::HasFailure()) return;
    }
    // Every strict prefix is refused, at the least.
    EXPECT_GE(refused, payload.size());
    // The service is still whole: a valid request is answered.
    const Status after = ReplyStatus(
        service.HandleFrame(EncodeFrame({op, false, payload, id++})), op);
    EXPECT_TRUE(after.ok()) << after.ToString();
  }
}

/// A client whose server answers kScanMatch with `body` (after an OK
/// status) and everything else through `service`.
std::unique_ptr<RemoteBackend> ClientWithScanMatchBody(
    std::shared_ptr<ShardService> service, std::string body) {
  auto transport = std::make_unique<LoopbackTransport>(
      [service, body = std::move(body)](const std::string& request) {
        auto frame = DecodeFrame(request);
        if (frame.ok() && frame->op == WireOp::kScanMatch) {
          return EncodeShardReply(WireOp::kScanMatch, Status::OK(), body,
                                  frame->correlation_id);
        }
        return service->HandleFrame(request);
      });
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  return RemoteBackend::Connect(std::move(transport), options).value();
}

TEST(ScanMatchReplyFuzzTest, MutatedRepliesAreDataLossNeverOverReads) {
  auto file = FilledFile();
  auto service = std::make_shared<ShardService>(*file);
  // A filtered gather of every bucket: two queries, the second covering
  // only even buckets, so the reply mixes skips, matches and empty refs.
  const ValueQuery q0 = Pin(2, 0, FieldValue{std::int64_t{3}});
  const ValueQuery q1 = Pin(2, 1, FieldValue{std::string("s10")});
  const std::vector<const ValueQuery*> table = {&q0, &q1};
  const std::vector<std::uint32_t> both = {0, 1};
  const std::vector<std::uint32_t> first = {0};
  const std::uint64_t total = file->spec().TotalBuckets();
  std::vector<BucketRef> refs;
  for (std::uint64_t b = 0; b < total; ++b) {
    refs.push_back({file->device_map().DeviceOfLinear(b), b});
  }
  auto gather = [&refs, &table, &both, &first](const StorageBackend& remote,
                                               std::uint64_t* delivered) {
    std::vector<ScanFilter> filters;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      filters.push_back({table, i % 2 == 0 ? both : first});
    }
    std::vector<BucketRef> filtered = refs;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      filtered[i].filter = &filters[i];
    }
    remote.ScanMany(filtered, [delivered](std::size_t, const Record&) {
      ++*delivered;
      return true;
    });
  };

  // The genuine reply body, captured from the service.
  std::string body;
  {
    auto transport = std::make_unique<LoopbackTransport>(
        [service, &body](const std::string& request) {
          std::string reply = service->HandleFrame(request);
          auto frame = DecodeFrame(reply);
          if (frame.ok() && frame->op == WireOp::kScanMatch) {
            PayloadReader reader(frame->payload);
            Status status;
            EXPECT_TRUE(reader.ReadStatusInto(&status).ok());
            body = frame->payload.substr(frame->payload.size() -
                                         reader.remaining());
          }
          return reply;
        });
    auto remote = RemoteBackend::Connect(std::move(transport)).value();
    std::uint64_t delivered = 0;
    gather(*remote, &delivered);
    ASSERT_TRUE(remote->Health().ok()) << remote->Health().ToString();
    ASSERT_GT(delivered, 0u);
    ASSERT_FALSE(body.empty());
  }

  // Mutants() yields every strict prefix first; each must be refused.
  const std::vector<std::string> mutants = Mutants(body, 0x5ca7, 300);
  std::size_t refused = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    auto remote = ClientWithScanMatchBody(service, mutants[i]);
    std::uint64_t delivered = 0;
    gather(*remote, &delivered);
    const Status health = remote->Health();
    if (i < body.size()) {
      EXPECT_FALSE(health.ok()) << "prefix of " << i;
    }
    if (health.ok()) continue;  // the mutant still decodes
    ++refused;
    EXPECT_EQ(health.code(), StatusCode::kFailedPrecondition) << i;
    EXPECT_NE(health.message().find("DataLoss"), std::string::npos)
        << i << ": " << health.ToString();
    EXPECT_EQ(delivered, 0u) << i;
  }
  EXPECT_GE(refused, body.size());
}

}  // namespace
}  // namespace fxdist
