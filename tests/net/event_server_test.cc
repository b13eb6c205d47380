// Differential wall for the event-driven shard server: for the same
// request bytes, a reply over the socket must equal what an in-process
// ShardService returns — raw bytes for deterministic ops, the
// deterministic QueryStats face for kExecute (whose reply carries
// measured wall-clock) — and fan-in must match the in-process matched
// counts; plus the protocol-error semantics the reassembler adds:
// checksum damage is per-frame and survivable, header damage poisons
// the connection.

#include "net/event_shard_server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/loadgen.h"
#include "net/shard_server.h"
#include "net/socket_transport.h"
#include "net/wire.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 4;
constexpr std::uint64_t kSeed = 77;

Schema TestSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

std::unique_ptr<StorageBackend> LoadedBackend() {
  auto file = std::make_unique<ParallelFile>(
      ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed)
          .value());
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed + 1).value();
  for (const Record& record : gen.Take(500)) {
    EXPECT_TRUE(file->Insert(record).ok());
  }
  return file;
}

std::vector<ValueQuery> TestQueries(StorageBackend& backend, std::size_t n) {
  std::vector<Record> records;
  backend.ForEachLiveRecord(
      [&](const Record& record) { records.push_back(record); });
  auto gen = QueryGenerator::Create(&records, 0.5, kSeed + 2).value();
  std::vector<ValueQuery> queries;
  while (queries.size() < n) queries.push_back(gen.Next());
  return queries;
}

Result<int> Dial(std::uint16_t port) {
  return DialShardStream("127.0.0.1", port, 5000);
}

Status ReplyStatus(const std::string& reply_frame) {
  auto frame = DecodeFrame(reply_frame);
  if (!frame.ok()) return frame.status();
  PayloadReader reader(frame->payload);
  Status status;
  const Status parsed = reader.ReadStatusInto(&status);
  return parsed.ok() ? status : parsed;
}

/// Compares one kExecute reply across servers on its deterministic
/// face (everything but measured wall-clock).
void ExpectSameExecuteReply(const std::string& a, const std::string& b,
                            const char* context) {
  auto fa = DecodeFrame(a);
  auto fb = DecodeFrame(b);
  ASSERT_TRUE(fa.ok()) << context;
  ASSERT_TRUE(fb.ok()) << context;
  EXPECT_EQ(fa->op, fb->op) << context;
  EXPECT_EQ(fa->correlation_id, fb->correlation_id) << context;
  PayloadReader ra(fa->payload);
  PayloadReader rb(fb->payload);
  Status sa, sb;
  ASSERT_TRUE(ra.ReadStatusInto(&sa).ok()) << context;
  ASSERT_TRUE(rb.ReadStatusInto(&sb).ok()) << context;
  ASSERT_TRUE(sa.ok()) << context << ": " << sa.ToString();
  ASSERT_TRUE(sb.ok()) << context << ": " << sb.ToString();
  auto qa = ra.ReadResult();
  auto qb = rb.ReadResult();
  ASSERT_TRUE(qa.ok()) << context;
  ASSERT_TRUE(qb.ok()) << context;
  EXPECT_EQ(qa->records, qb->records) << context;
  EXPECT_EQ(qa->stats.qualified_per_device, qb->stats.qualified_per_device)
      << context;
  EXPECT_EQ(qa->stats.total_qualified, qb->stats.total_qualified)
      << context;
  EXPECT_EQ(qa->stats.records_examined, qb->stats.records_examined)
      << context;
  EXPECT_EQ(qa->stats.records_matched, qb->stats.records_matched)
      << context;
}

TEST(EventServerTest, DeterministicOpsAreBitIdenticalToInProcessService) {
  auto backend = LoadedBackend();
  ShardService service(*backend);
  auto event = EventShardServer::Start(*backend).value();

  std::vector<std::string> requests;
  {
    PayloadWriter writer;
    writer.U64(kWireMaxPayload);
    writer.U32(kWireFeatureScanMany | kWireFeatureInsertBatch);
    requests.push_back(
        EncodeFrame({WireOp::kHandshake, false, writer.Take()}));
  }
  requests.push_back(EncodeFrame({WireOp::kNumRecords, false, ""}));
  requests.push_back(EncodeFrame({WireOp::kRecordCounts, false, ""}));
  {
    PayloadWriter writer;
    writer.Varint(0);  // queries
    writer.Varint(2);  // refs, each with covering count 0
    writer.Varint(0);  // device
    writer.Zigzag(0);  // bucket
    writer.Varint(0);
    writer.Varint(1);
    writer.Zigzag(3);
    writer.Varint(0);
    requests.push_back(EncodeFrame({WireOp::kScanMatch, false, writer.Take()}));
  }
  // A frame with a correlation id must come back with the id echoed.
  {
    WireFrame topo;
    topo.op = WireOp::kTopology;
    topo.correlation_id = 0xdeadbeef12345678ULL;
    requests.push_back(EncodeFrame(topo));
  }
  // An undecodable request gets the same error frame.
  {
    std::string damaged = EncodeFrame({WireOp::kNumRecords, false, ""});
    damaged.back() ^= 0x01;  // checksum
    requests.push_back(damaged);
  }

  auto fd = Dial(event->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto reply = RoundTripOnFd(*fd, requests[i]);
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    EXPECT_EQ(*reply, service.HandleFrame(requests[i])) << "request " << i;
  }
  ::close(*fd);
}

TEST(EventServerTest, ExecuteRepliesMatchInProcessService) {
  auto backend = LoadedBackend();
  ShardService service(*backend);
  auto event = EventShardServer::Start(*backend).value();
  const std::vector<ValueQuery> queries = TestQueries(*backend, 24);

  auto fd = Dial(event->port());
  ASSERT_TRUE(fd.ok());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string request = EncodeExecuteFrame(queries[i]);
    auto reply = RoundTripOnFd(*fd, request);
    ASSERT_TRUE(reply.ok());
    ExpectSameExecuteReply(service.HandleFrame(request), *reply,
                           ("query " + std::to_string(i)).c_str());
  }
  ::close(*fd);
}

TEST(EventServerTest, PipelinedRequestsComeBackInRequestOrder) {
  auto backend = LoadedBackend();
  EventShardServer::Options options;
  // A tiny worker pool with a wide window maximizes out-of-order
  // completion pressure on the Serializer.
  options.workers = 3;
  options.max_in_flight = 16;
  auto event = EventShardServer::Start(*backend, options).value();
  const std::vector<ValueQuery> queries = TestQueries(*backend, 16);

  // Expected reply shapes from a serial connection, one at a time.
  std::vector<std::string> expected;
  {
    auto fd = Dial(event->port());
    ASSERT_TRUE(fd.ok());
    for (const ValueQuery& query : queries) {
      auto reply = RoundTripOnFd(*fd, EncodeExecuteFrame(query));
      ASSERT_TRUE(reply.ok());
      expected.push_back(*std::move(reply));
    }
    ::close(*fd);
  }

  // The whole batch sent back-to-back before the first read.
  auto fd = Dial(event->port());
  ASSERT_TRUE(fd.ok());
  std::string batch;
  for (const ValueQuery& query : queries) {
    batch += EncodeExecuteFrame(query);
  }
  ASSERT_EQ(::send(*fd, batch.data(), batch.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(batch.size()));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto reply = RecvFrameOnFd(*fd);
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    ExpectSameExecuteReply(expected[i], *reply,
                           ("pipelined " + std::to_string(i)).c_str());
  }
  ::close(*fd);

  const EventServerStats stats = event->Stats();
  EXPECT_EQ(stats.frames_in, 2 * queries.size());
  EXPECT_EQ(stats.replies_out, 2 * queries.size());
  EXPECT_EQ(stats.dropped_replies, 0u);
}

// The fan-in's summed matched count equals the in-process service's
// per-query counts replayed in the loadgen's deterministic stream order
// (connection c's wave w runs query (w * clients + c) % Q) — the serial
// ground truth bench/connection_scaling gates on.
TEST(EventServerTest, FanInMatchesInProcessServiceMatchedCounts) {
  auto backend = LoadedBackend();
  const std::vector<ValueQuery> queries = TestQueries(*backend, 12);

  FanInOptions fanin;
  fanin.clients = 40;
  fanin.threads = 8;
  fanin.waves = 3;

  ShardService service(*backend);
  std::vector<std::uint64_t> tallies;
  for (const ValueQuery& query : queries) {
    auto reply = DecodeFrame(service.HandleFrame(EncodeExecuteFrame(query)));
    ASSERT_TRUE(reply.ok());
    PayloadReader reader(reply->payload);
    Status status;
    ASSERT_TRUE(reader.ReadStatusInto(&status).ok());
    ASSERT_TRUE(status.ok()) << status.ToString();
    tallies.push_back(reader.ReadResult().value().stats.records_matched);
  }
  std::uint64_t expected = 0;
  for (std::size_t s = 0; s < fanin.clients * fanin.waves; ++s) {
    expected += tallies[s % tallies.size()];
  }
  ASSERT_GT(expected, 0u);

  auto event = EventShardServer::Start(*backend).value();
  fanin.port = event->port();
  auto report = RunQueryFanIn(queries, fanin);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->transport_errors, 0u);
  EXPECT_EQ(report->error_replies, 0u);
  EXPECT_EQ(report->replies, fanin.clients * fanin.waves);
  EXPECT_EQ(report->matched_total, expected);

  const EventServerStats stats = event->Stats();
  EXPECT_EQ(stats.accepted, fanin.clients);
  EXPECT_EQ(stats.frames_in, fanin.clients * fanin.waves);
  EXPECT_EQ(stats.replies_out, fanin.clients * fanin.waves);
  EXPECT_EQ(stats.shed_connections, 0u);
}

TEST(EventServerTest, ChecksumDamageIsPerFrameNotPerConnection) {
  auto backend = LoadedBackend();
  auto event = EventShardServer::Start(*backend).value();
  auto fd = Dial(event->port());
  ASSERT_TRUE(fd.ok());

  std::string damaged = EncodeFrame({WireOp::kNumRecords, false, ""});
  damaged[damaged.size() - 1] ^= 0x01;  // checksum
  auto reply = RoundTripOnFd(*fd, damaged);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(ReplyStatus(*reply).code(), StatusCode::kDataLoss);

  // The connection survives: the next good frame is served normally.
  auto good = RoundTripOnFd(*fd, EncodeFrame({WireOp::kNumRecords, false,
                                              ""}));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(ReplyStatus(*good).ok());
  ::close(*fd);
}

TEST(EventServerTest, MalformedHeaderGetsErrorReplyThenClose) {
  auto backend = LoadedBackend();
  auto event = EventShardServer::Start(*backend).value();
  auto fd = Dial(event->port());
  ASSERT_TRUE(fd.ok());

  std::string garbage = EncodeFrame({WireOp::kNumRecords, false, ""});
  garbage[0] ^= 0x01;  // magic: unframed beyond repair
  auto reply = RoundTripOnFd(*fd, garbage);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto frame = DecodeFrame(*reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->op, WireOp::kError);
  EXPECT_FALSE(ReplyStatus(*reply).ok());

  // ...and then the close: the stream cannot be resynced.
  auto next = RecvFrameOnFd(*fd);
  EXPECT_FALSE(next.ok());
  ::close(*fd);

  const EventServerStats stats = event->Stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST(EventServerTest, StopWithLiveConnectionsIsCleanAndIdempotent) {
  auto backend = LoadedBackend();
  auto event = EventShardServer::Start(*backend).value();
  auto fd = Dial(event->port());
  ASSERT_TRUE(fd.ok());
  auto reply = RoundTripOnFd(
      *fd, EncodeFrame({WireOp::kNumRecords, false, ""}));
  ASSERT_TRUE(reply.ok());
  event->Stop();
  event->Stop();  // idempotent
  // The socket is gone server-side; reads see EOF or reset.
  auto dead = RecvFrameOnFd(*fd);
  EXPECT_FALSE(dead.ok());
  ::close(*fd);
}

}  // namespace
}  // namespace fxdist
