// The pipelined wire layer: golden frame blobs pinning the frame layout
// (and the retired version 1 blobs, which every reader must refuse),
// frame-limit and length-slot hardening, the MuxTransport
// ordering/association contract (out-of-order completion, stale drops,
// desync rejection, window back-pressure), jittered retry backoff, and a
// differential proving a ShardedBackend of pipelined RemoteBackends is
// bit-identical to the in-process ShardedBackend it mirrors.
//
// Everything runs in-process (LoopbackFrameChannel / scripted channels),
// so the suite is deterministic and TSan-clean.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "net/event_shard_server.h"
#include "net/loadgen.h"
#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

using namespace std::string_literals;

Schema RigSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

// ---------------------------------------------------------------------
// Golden frames: byte-for-byte pins of the frame layout.  If the v2 blob
// stops matching, the build no longer interoperates with deployed peers
// — fix the code, never the blobs.  The v1 blobs are the retired layout
// every reader must now refuse.

// v1 per-bucket scan request (retired opcode 5) for (device=3, bucket=9).
const std::string kGoldenV1ScanBucket =
    "\x21\x57\x58\x46\x01\x00\x05\x00\x10\x00\x00\x00\x03\x00\x00\x00\x00"
    "\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x01\xdd\x03\x53\x73\x17"
    "\x4b\xdf"s;
// v1 empty kHandshake request (the classic-dialect opener).
const std::string kGoldenV1Handshake =
    "\x21\x57\x58\x46\x01\x00\x01\x00\x00\x00\x00\x00\xbf\xf9\x59\x70\xa3"
    "\xc0\x45\x93"s;
// v2 kScanMatch request, correlation id 0x1122334455667788: no queries,
// one ref (device=1, bucket=7) with covering count 0 (every record).
const std::string kGoldenV2ScanMatch =
    "\x21\x57\x58\x46\x02\x00\x10\x00\x88\x77\x66\x55\x44\x33\x22\x11\x05"
    "\x00\x00\x00\x00\x01\x01\x0e\x00\x88\x9e\x19\x96\x73\x66\x7a\x3f"s;

TEST(WireLimitsTest, GoldenV2FrameIsStable) {
  PayloadWriter writer;
  writer.Varint(0);   // queries
  writer.Varint(1);   // refs
  writer.Varint(1);   // device
  writer.Zigzag(7);   // bucket, as a delta from 0
  writer.Varint(0);   // covering count: every record
  WireFrame frame{WireOp::kScanMatch, false, writer.Take()};
  frame.correlation_id = 0x1122334455667788ull;
  EXPECT_EQ(EncodeFrame(frame), kGoldenV2ScanMatch);

  auto decoded = DecodeFrame(kGoldenV2ScanMatch);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, WireOp::kScanMatch);
  EXPECT_EQ(decoded->correlation_id, 0x1122334455667788ull);

  auto size = FrameSizeFromHeader(kGoldenV2ScanMatch);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, kGoldenV2ScanMatch.size());
  auto cid = CorrelationIdFromHeader(kGoldenV2ScanMatch);
  ASSERT_TRUE(cid.ok());
  EXPECT_EQ(*cid, 0x1122334455667788ull);
}

// The handshake request: a version 2 kHandshake frame whose payload is
// the client's frame limit (u64), its feature wants (u32: ScanMany,
// InsertBatch, AnalyzeRange, ScanMatch) and, when set, the client id —
// pinned byte for byte, since a server of any build must keep reading
// it.
TEST(WireLimitsTest, HandshakeRequestIsStable) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  for (const std::string client_id : {"", "t7"}) {
    auto hello = std::make_shared<std::string>();
    auto transport = std::make_unique<LoopbackTransport>(
        [service, hello](const std::string& request) {
          if (hello->empty()) *hello = request;
          return service->HandleFrame(request);
        });
    RemoteBackend::Options options;
    options.client_id = client_id;
    ASSERT_TRUE(RemoteBackend::Connect(std::move(transport), options).ok());

    std::string payload =
        "\x00\x00\x40\x00\x00\x00\x00\x00"  // limit: 4 MiB
        "\x0f\x00\x00\x00"s;                     // features 0b1111
    if (!client_id.empty()) payload += "\x02\x00\x00\x00t7"s;
    ASSERT_GE(hello->size(), kWireHeaderSize);
    EXPECT_EQ(hello->substr(0, 8), "\x21\x57\x58\x46\x02\x00\x01\x00"s)
        << "magic, version 2, kHandshake, request";
    auto frame = DecodeFrame(*hello);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->payload, payload) << "client id '" << client_id << "'";
  }
}

// Version 1 is retired: every reader refuses it from the header alone,
// as InvalidArgument (a peer speaking another dialect, not corruption),
// and the event server answers it with an error frame and then closes
// the connection.
TEST(WireLimitsTest, V1FramesAreRefused) {
  for (const std::string* v1 : {&kGoldenV1ScanBucket, &kGoldenV1Handshake}) {
    auto decoded = DecodeFrame(*v1);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    auto size = FrameSizeFromHeader(*v1);
    ASSERT_FALSE(size.ok());
    EXPECT_EQ(size.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(CorrelationIdFromHeader(*v1).ok());
  }

  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto server = EventShardServer::Start(*served).value();
  auto fd = DialShardStream("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto reply = RoundTripOnFd(*fd, kGoldenV1Handshake);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto frame = DecodeFrame(*reply);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->op, WireOp::kError);
  EXPECT_EQ(frame->correlation_id, 0u);
  PayloadReader reader(frame->payload);
  Status status;
  ASSERT_TRUE(reader.ReadStatusInto(&status).ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Then the server closes: the next read sees end of stream.
  char byte = 0;
  EXPECT_EQ(::recv(*fd, &byte, 1, 0), 0);
  ::close(*fd);
  server->Stop();
  EXPECT_EQ(server->Stats().protocol_errors, 1u);
}

// Satellite: an announced length past the frame limit must be rejected
// from the header alone — DataLoss, before any payload allocation.
TEST(WireLimitsTest, OversizedAnnouncedLengthIsDataLossNotAnAllocation) {
  std::string header = kGoldenV2ScanMatch.substr(0, kWireHeaderSize);
  const auto poke_len = [&header](std::uint32_t len) {
    for (int i = 0; i < 4; ++i) {
      header[16 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    }
  };

  poke_len(kWireMaxPayload + 1);
  auto size = FrameSizeFromHeader(header);
  ASSERT_FALSE(size.ok());
  EXPECT_EQ(size.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(DecodeFrame(header).ok());

  // A handshake-negotiated cap tightens the same check...
  poke_len(1024);
  EXPECT_FALSE(FrameSizeFromHeader(header, /*max_payload=*/512).ok());
  EXPECT_TRUE(FrameSizeFromHeader(header, /*max_payload=*/2048).ok());

  // ...and nothing can negotiate past the absolute ceiling.
  poke_len(kWireMaxPayloadCeiling + 1);
  EXPECT_FALSE(FrameSizeFromHeader(header, 0xffffffffu).ok());
}

TEST(WireLimitsTest, EncodeBoundedRefusesOversizedPayloads) {
  WireFrame frame{WireOp::kScanMatch, false, std::string(1025, 'x')};
  auto encoded = EncodeFrameBounded(frame, /*max_payload=*/1024);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
  frame.payload.resize(1024);
  EXPECT_TRUE(EncodeFrameBounded(frame, 1024).ok());
}

// Satellite: a string whose size cannot be represented in the 32-bit
// wire length slot must poison the writer instead of silently truncating
// the length (and then desyncing every later field).  The oversized
// string_view is fabricated — the writer must reject it from the size
// alone, without touching the bytes.
TEST(WireLimitsTest, WriterPoisonsOnLengthSlotOverflow) {
  const char byte = 'x';
  const std::string_view fabricated(&byte, (1ull << 32));

  PayloadWriter writer;
  writer.U32(7);
  const std::size_t before = writer.payload().size();
  writer.Str(fabricated);
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.payload().size(), before);  // nothing half-appended

  writer.U64(42);  // sticky: later writes are no-ops
  EXPECT_EQ(writer.payload().size(), before);

  const Status status = writer.CheckOk();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  PayloadWriter fine;
  fine.Str("small");
  EXPECT_TRUE(fine.ok());
  EXPECT_TRUE(fine.CheckOk().ok());
}

// ---------------------------------------------------------------------
// MuxTransport contract, driven through scripted channels.

std::string EchoReply(const std::string& request) {
  auto frame = DecodeFrame(request);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  WireFrame reply;
  reply.op = frame->op;
  reply.is_reply = true;
  reply.payload = frame->payload;
  reply.correlation_id = frame->correlation_id;
  return EncodeFrame(reply);
}

std::string MuxRequest(std::uint64_t cid, std::string payload) {
  WireFrame frame{WireOp::kExecute, false, std::move(payload)};
  frame.correlation_id = cid;
  return EncodeFrame(frame);
}

// Holds every reply until `hold` requests have been sent, then releases
// them in reverse arrival order — forces out-of-order completion.
class ReorderingChannel final : public FrameChannel {
 public:
  explicit ReorderingChannel(std::size_t hold) : hold_(hold) {}

  Status Send(const std::string& frame) override {
    std::string reply = EchoReply(frame);
    std::lock_guard<std::mutex> lock(mutex_);
    held_.push_back(std::move(reply));
    if (held_.size() >= hold_) {
      while (!held_.empty()) {
        ready_.push_back(std::move(held_.back()));
        held_.pop_back();
      }
      cv_.notify_all();
    }
    return Status::OK();
  }

  Result<std::string> Recv() override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return shutdown_ || !ready_.empty(); });
    if (ready_.empty()) return Status::Unavailable("channel shut down");
    std::string reply = std::move(ready_.front());
    ready_.pop_front();
    return reply;
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    cv_.notify_all();
  }

 private:
  const std::size_t hold_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> held_;
  std::deque<std::string> ready_;
  bool shutdown_ = false;
};

// Records every sent frame and delivers only replies pushed by the test.
class ScriptedChannel final : public FrameChannel {
 public:
  Status Send(const std::string& frame) override {
    std::lock_guard<std::mutex> lock(mutex_);
    sent_.push_back(frame);
    cv_.notify_all();
    return Status::OK();
  }

  Result<std::string> Recv() override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return shutdown_ || !replies_.empty(); });
    if (replies_.empty()) return Status::Unavailable("channel shut down");
    std::string reply = std::move(replies_.front());
    replies_.pop_front();
    return reply;
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    cv_.notify_all();
  }

  void Push(std::string reply) {
    std::lock_guard<std::mutex> lock(mutex_);
    replies_.push_back(std::move(reply));
    cv_.notify_all();
  }

  /// Blocks until at least `count` frames were sent; returns a copy.
  std::vector<std::string> WaitForSends(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, count] { return sent_.size() >= count; });
    return sent_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> sent_;
  std::deque<std::string> replies_;
  bool shutdown_ = false;
};

TEST(MuxTransportTest, OutOfOrderRepliesCompleteTheRightWaiters) {
  MuxTransport mux(std::make_unique<ReorderingChannel>(/*hold=*/2));
  Result<std::string> first = Status::Internal("unset");
  Result<std::string> second = Status::Internal("unset");
  std::thread t1([&] { first = mux.RoundTrip(MuxRequest(1, "alpha")); });
  std::thread t2([&] { second = mux.RoundTrip(MuxRequest(2, "beta")); });
  t1.join();
  t2.join();

  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto reply1 = DecodeFrame(*first);
  auto reply2 = DecodeFrame(*second);
  ASSERT_TRUE(reply1.ok() && reply2.ok());
  EXPECT_EQ(reply1->payload, "alpha");
  EXPECT_EQ(reply1->correlation_id, 1u);
  EXPECT_EQ(reply2->payload, "beta");
  EXPECT_EQ(reply2->correlation_id, 2u);
  EXPECT_EQ(mux.max_in_flight(), 2u);
  EXPECT_EQ(mux.stale_replies(), 0u);
}

TEST(MuxTransportTest, StaleReplyIsDroppedNotMisdelivered) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransport mux(std::move(channel));

  Result<std::string> first = Status::Internal("unset");
  std::thread t1([&] { first = mux.RoundTrip(MuxRequest(5, "one")); });
  script->Push(EchoReply(script->WaitForSends(1)[0]));
  t1.join();
  ASSERT_TRUE(first.ok());

  Result<std::string> second = Status::Internal("unset");
  std::thread t2([&] { second = mux.RoundTrip(MuxRequest(7, "two")); });
  const auto sent = script->WaitForSends(2);
  // Replay the completed call's reply (id 5 was issued, is no longer
  // pending): it must be dropped, and the real reply must still land.
  script->Push(EchoReply(sent[0]));
  script->Push(EchoReply(sent[1]));
  t2.join();

  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(DecodeFrame(*second)->payload, "two");
  EXPECT_EQ(mux.stale_replies(), 1u);
}

TEST(MuxTransportTest, NeverIssuedCorrelationIdBreaksThenHeals) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransport mux(std::move(channel));

  Result<std::string> first = Status::Internal("unset");
  std::thread t1([&] { first = mux.RoundTrip(MuxRequest(3, "doomed")); });
  script->WaitForSends(1);
  // A reply naming an id this connection never issued means the peer is
  // answering someone else's stream: every pending call must fail.
  script->Push(EchoReply(MuxRequest(999999, "from another stream")));
  t1.join();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);

  // The connection healed lazily (nothing pending): the next call works.
  Result<std::string> second = Status::Internal("unset");
  std::thread t2([&] { second = mux.RoundTrip(MuxRequest(4, "healed")); });
  script->Push(EchoReply(script->WaitForSends(2)[1]));
  t2.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(DecodeFrame(*second)->payload, "healed");
}

TEST(MuxTransportTest, WindowSaturationBlocksUntilASlotFrees) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransportOptions options;
  options.window = 2;
  MuxTransport mux(std::move(channel), options);

  std::vector<Result<std::string>> results(3, Status::Internal("unset"));
  std::vector<std::thread> callers;
  for (std::uint64_t i = 0; i < 3; ++i) {
    callers.emplace_back([&mux, &results, i] {
      results[i] = mux.RoundTrip(MuxRequest(i + 1, "r" + std::to_string(i)));
    });
  }
  // Only two fit the window; the third caller is parked.  Releasing one
  // reply frees a slot and the third request reaches the channel.
  auto sent = script->WaitForSends(2);
  script->Push(EchoReply(sent[0]));
  sent = script->WaitForSends(3);
  script->Push(EchoReply(sent[1]));
  script->Push(EchoReply(sent[2]));
  for (auto& t : callers) t.join();

  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(mux.max_in_flight(), 2u);
}

TEST(MuxTransportTest, TimedOutCallAbandonsItsIdAndLateReplyIsStale) {
  auto channel = std::make_unique<ScriptedChannel>();
  ScriptedChannel* script = channel.get();
  MuxTransportOptions options;
  options.call_timeout_ms = 50;
  MuxTransport mux(std::move(channel), options);

  auto slow = mux.RoundTrip(MuxRequest(1, "never answered"));
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kDeadlineExceeded);

  // The late reply names an issued-but-abandoned id: dropped as stale,
  // and the connection keeps working.
  script->Push(EchoReply(script->WaitForSends(1)[0]));
  Result<std::string> next = Status::Internal("unset");
  std::thread t([&] { next = mux.RoundTrip(MuxRequest(2, "alive")); });
  script->Push(EchoReply(script->WaitForSends(2)[1]));
  t.join();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(mux.stale_replies(), 1u);
}

// ---------------------------------------------------------------------
// Pipelined RemoteBackend rigs.

Record RigRecord(std::int64_t a, std::int64_t b) {
  return {FieldValue{a}, FieldValue{b}};
}

ValueQuery QueryFor(const Record& record) {
  ValueQuery query(record.size());
  query[0] = record[0];
  return query;
}

struct PipelinedRig {
  std::shared_ptr<ParallelFile> served;
  std::shared_ptr<ShardService> service;
  FaultInjectingTransport* faults = nullptr;  // owned by `remote`
  std::unique_ptr<RemoteBackend> remote;
};

PipelinedRig MakePipelinedRig(RemoteBackend::Options options = [] {
  RemoteBackend::Options o;
  o.backoff_initial_ms = 0;
  return o;
}()) {
  PipelinedRig rig;
  rig.served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  rig.service = std::make_shared<ShardService>(*rig.served);
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [served = rig.served, service = rig.service](
          const std::string& request) {
        return service->HandleFrame(request);
      });
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<MuxTransport>(std::move(channel)));
  rig.faults = faulty.get();
  auto remote = RemoteBackend::Connect(std::move(faulty), options);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  rig.remote = *std::move(remote);
  return rig;
}

TEST(PipelinedRemoteTest, NegotiatesV2AndScanMany) {
  PipelinedRig rig = MakePipelinedRig();
  EXPECT_TRUE(rig.remote->scan_many_enabled());
  EXPECT_TRUE(rig.remote->insert_batch_enabled());
  EXPECT_EQ(rig.remote->negotiated_max_payload(), kWireMaxPayload);

  ASSERT_TRUE(rig.remote->Insert(RigRecord(1, 2)).ok());
  ASSERT_TRUE(rig.remote->Insert(RigRecord(3, 4)).ok());

  // One kScanMatch frame gathers the whole bucket space.
  std::vector<BucketRef> refs;
  const std::uint64_t total = rig.remote->spec().TotalBuckets();
  for (std::uint64_t d = 0; d < rig.remote->num_devices(); ++d) {
    for (std::uint64_t b = 0; b < total; ++b) refs.push_back({d, b});
  }
  const std::uint64_t calls_before = rig.faults->calls();
  std::uint64_t visited = 0;
  rig.remote->ScanMany(refs, [&visited](std::size_t, const Record&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(rig.faults->calls() - calls_before, 1u);  // one frame, not 128
}

// A version 1 server rejects the handshake frame at the header with a
// version 1 error frame.
std::string OldServerHandleFrame(const std::string& /*request*/) {
  PayloadWriter writer;
  writer.WriteStatus(Status::InvalidArgument(
      "wire version mismatch: peer speaks v2, this build v1"));
  const std::string payload = writer.Take();
  std::string v1 = "\x21\x57\x58\x46\x01\x00"s;  // magic, version 1
  v1.push_back(static_cast<char>(WireOp::kError));
  v1.push_back('\x01');  // reply
  for (int i = 0; i < 4; ++i) {
    v1.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
  }
  v1 += payload;
  const std::uint64_t sum = WireChecksum(v1);
  for (int i = 0; i < 8; ++i) v1.push_back(static_cast<char>(sum >> (8 * i)));
  return v1;
}

// A server that does not grant `feature`: the handshake it answers has
// the client's want of it cleared.
std::string WithoutFeatureHandleFrame(ShardService& service,
                                      std::uint32_t feature,
                                      const std::string& request) {
  auto frame = DecodeFrame(request);
  if (!frame.ok() || frame->op != WireOp::kHandshake) {
    return service.HandleFrame(request);
  }
  PayloadReader reader(frame->payload);
  const std::uint64_t client_max = reader.U64().ValueOr(0);
  const std::uint32_t features = reader.U32().ValueOr(0);
  PayloadWriter hello;
  hello.U64(client_max);
  hello.U32(features & ~feature);
  frame->payload = hello.Take();
  return service.HandleFrame(EncodeFrame(*frame));
}

// A server from before client ids refuses a hello with trailing bytes.
std::string NoClientIdHandleFrame(ShardService& service,
                                  const std::string& request) {
  auto frame = DecodeFrame(request);
  if (frame.ok() && frame->op == WireOp::kHandshake &&
      frame->payload.size() > 12) {
    return EncodeShardReply(
        WireOp::kError,
        Status::InvalidArgument("trailing bytes in handshake payload"), "",
        frame->correlation_id);
  }
  return service.HandleFrame(request);
}

// There is no fallback dialect: against an old server Connect fails, on
// both transport shapes and without the mux hanging; a server that does
// not grant ScanMany, InsertBatch, AnalyzeRange or ScanMatch fails closed
// with FailedPrecondition, and one that refuses the client id fails with
// its own error.
TEST(PipelinedRemoteTest, OldServerFailsTheHandshake) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;

  using Handler = std::function<std::string(const std::string&)>;
  using Connector =
      std::function<Result<std::unique_ptr<RemoteBackend>>(Handler)>;
  const std::vector<Connector> connectors = {
      [&options](Handler handler) {  // plain blocking transport
        return RemoteBackend::Connect(
            std::make_unique<LoopbackTransport>(std::move(handler)),
            options);
      },
      [&options](Handler handler) {  // multiplexed connection
        return RemoteBackend::Connect(
            std::make_unique<MuxTransport>(
                std::make_unique<LoopbackFrameChannel>(std::move(handler))),
            options);
      }};

  for (const Connector& connect : connectors) {
    auto old_server = connect(OldServerHandleFrame);
    ASSERT_FALSE(old_server.ok());
    EXPECT_EQ(old_server.status().code(), StatusCode::kUnavailable)
        << old_server.status().ToString();

    for (const std::uint32_t feature :
         {kWireFeatureScanMany, kWireFeatureInsertBatch,
          kWireFeatureAnalyzeRange, kWireFeatureScanMatch}) {
      auto without = connect([service, feature](const std::string& request) {
        return WithoutFeatureHandleFrame(*service, feature, request);
      });
      ASSERT_FALSE(without.ok()) << "feature " << feature;
      EXPECT_EQ(without.status().code(), StatusCode::kFailedPrecondition)
          << "feature " << feature << ": " << without.status().ToString();
    }

    options.client_id = "tenant-7";
    auto no_client_id = connect([service](const std::string& request) {
      return NoClientIdHandleFrame(*service, request);
    });
    ASSERT_FALSE(no_client_id.ok());
    EXPECT_EQ(no_client_id.status().code(), StatusCode::kInvalidArgument)
        << no_client_id.status().ToString();
    options.client_id.clear();
  }
  EXPECT_EQ(served->num_records(), 0u);
}

// Insert and ScanBucket are one-element frames of the batch ops.
TEST(PipelinedRemoteTest, SingleElementOpsSendOneBatchFrame) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  auto ops = std::make_shared<std::vector<WireOp>>();
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [service, ops](const std::string& request) {
        ops->push_back(DecodeFrame(request)->op);
        return service->HandleFrame(request);
      });
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  auto remote = RemoteBackend::Connect(
      std::make_unique<MuxTransport>(std::move(channel)), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  ops->clear();
  const Record record = RigRecord(1, 2);
  ASSERT_TRUE((*remote)->Insert(record).ok());
  EXPECT_EQ(*ops, std::vector<WireOp>{WireOp::kInsertBatch});
  EXPECT_EQ(served->num_records(), 1u);

  ops->clear();
  const BucketId bucket = (*remote)->HashRecord(record).value();
  const std::uint64_t linear = LinearIndex((*remote)->spec(), bucket);
  const std::uint64_t device = (*remote)->device_map().DeviceOf(bucket);
  std::vector<Record> seen;
  (*remote)->ScanBucket(device, linear, [&seen](const Record& r) {
    seen.push_back(r);
    return true;
  });
  EXPECT_EQ(*ops, std::vector<WireOp>{WireOp::kScanMatch});
  EXPECT_EQ(seen, std::vector<Record>{record});
}

// Oversized chunks: 80 records with 64 KiB strings make a 5 MiB chunk,
// past the 4 MiB frame limit, while no single record or bucket is.
struct BlobRig {
  std::shared_ptr<ParallelFile> served;
  std::shared_ptr<std::vector<std::string>> frames;  ///< requests seen
  std::unique_ptr<RemoteBackend> remote;
  std::vector<Record> records;
};

BlobRig MakeBlobRig() {
  BlobRig rig;
  const Schema schema = Schema::Create({{"id", ValueType::kInt64, 8},
                                        {"blob", ValueType::kString, 4}})
                            .value();
  rig.served = std::make_shared<ParallelFile>(
      ParallelFile::Create(schema, 4, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*rig.served);
  rig.frames = std::make_shared<std::vector<std::string>>();
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [served = rig.served, service,
       frames = rig.frames](const std::string& request) {
        frames->push_back(request);
        return service->HandleFrame(request);
      });
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  rig.remote = RemoteBackend::Connect(
                   std::make_unique<MuxTransport>(std::move(channel)),
                   options)
                   .value();
  for (std::int64_t i = 0; i < 80; ++i) {
    rig.records.push_back(
        {FieldValue{i}, FieldValue{std::string(64 << 10, 'a' + i % 26)}});
  }
  return rig;
}

/// Op and element count of a frame: records of a kInsertBatch, refs of
/// a kScanMatch (past its query table).
std::pair<WireOp, std::uint64_t> OpAndCount(const std::string& bytes) {
  auto frame = DecodeFrame(bytes);
  if (!frame.ok()) return {WireOp::kError, 0};
  PayloadReader reader(frame->payload);
  if (frame->op != WireOp::kScanMatch) {
    return {frame->op, reader.U32().ValueOr(0)};
  }
  const std::uint64_t queries = reader.Varint().ValueOr(0);
  for (std::uint64_t q = 0; q < queries; ++q) {
    if (!reader.ReadQuery().ok()) return {WireOp::kError, 0};
  }
  return {frame->op, reader.Varint().ValueOr(0)};
}

TEST(PipelinedRemoteTest, OversizedInsertChunkFallsBackToOneRecordFrames) {
  BlobRig rig = MakeBlobRig();
  rig.frames->clear();
  ASSERT_TRUE(rig.remote->InsertBatch(rig.records).ok());
  EXPECT_EQ(rig.served->num_records(), rig.records.size());
  // The 5 MiB chunk never left the client; every record crossed alone.
  ASSERT_EQ(rig.frames->size(), rig.records.size());
  for (const std::string& frame : *rig.frames) {
    EXPECT_EQ(OpAndCount(frame),
              std::make_pair(WireOp::kInsertBatch, std::uint64_t{1}));
  }
  std::vector<Record> stored;
  rig.served->ForEachLiveRecord(
      [&stored](const Record& r) { stored.push_back(r); });
  std::sort(stored.begin(), stored.end());
  EXPECT_EQ(stored, rig.records);
}

TEST(PipelinedRemoteTest, OversizedScanChunkFallsBackToOneRefFrames) {
  BlobRig rig = MakeBlobRig();
  for (const Record& record : rig.records) {
    ASSERT_TRUE(rig.served->Insert(record).ok());
  }
  std::vector<BucketRef> refs;
  const std::uint64_t total = rig.remote->spec().TotalBuckets();
  for (std::uint64_t b = 0; b < total; ++b) {
    refs.push_back({rig.remote->device_map().DeviceOfLinear(b), b});
  }
  rig.frames->clear();
  std::vector<std::vector<Record>> seen(refs.size());
  rig.remote->ScanMany(refs, [&seen](std::size_t i, const Record& r) {
    seen[i].push_back(r);
    return true;
  });
  std::vector<Record> delivered;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    std::vector<Record> expected;
    rig.served->ScanBucket(refs[i].device, refs[i].linear_bucket,
                           [&expected](const Record& r) {
                             expected.push_back(r);
                             return true;
                           });
    EXPECT_EQ(seen[i], expected) << "ref " << i;
    delivered.insert(delivered.end(), seen[i].begin(), seen[i].end());
  }
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, rig.records);
  // One whole-chunk frame whose reply was refused, then one frame per ref.
  ASSERT_EQ(rig.frames->size(), 1 + refs.size());
  EXPECT_EQ(OpAndCount(rig.frames->front()),
            std::make_pair(WireOp::kScanMatch, std::uint64_t{refs.size()}));
  for (std::size_t i = 1; i < rig.frames->size(); ++i) {
    EXPECT_EQ(OpAndCount((*rig.frames)[i]),
              std::make_pair(WireOp::kScanMatch, std::uint64_t{1}));
  }
}

TEST(PipelinedRemoteTest, RetriesKeepExactCallCountsThroughTheMux) {
  PipelinedRig rig = MakePipelinedRig();
  ASSERT_TRUE(rig.remote->Insert(RigRecord(1, 2)).ok());

  const std::uint64_t calls_before = rig.faults->calls();
  rig.faults->InjectFault(FaultKind::kDrop, 2);
  auto result = rig.remote->Execute(QueryFor(RigRecord(1, 2)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.records_matched, 1u);
  EXPECT_EQ(rig.faults->calls() - calls_before, 3u);
  EXPECT_TRUE(rig.remote->Health().ok());
}

// Satellite: retry backoff draws decorrelated jitter from an injected
// seed (replayable schedules) and the total sleep is clamped to the
// deadline budget.
TEST(PipelinedRemoteTest, JitterBackoffIsDeterministicAndDeadlineClamped) {
  const auto run = [](std::uint64_t seed) {
    auto sleeps = std::make_shared<std::vector<std::uint64_t>>();
    auto served = std::make_shared<ParallelFile>(
        ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
    auto service = std::make_shared<ShardService>(*served);
    auto loopback = std::make_unique<LoopbackTransport>(
        [served, service](const std::string& request) {
          return service->HandleFrame(request);
        });
    auto faulty =
        std::make_unique<FaultInjectingTransport>(std::move(loopback));
    FaultInjectingTransport* faults = faulty.get();
    RemoteBackend::Options options;
    options.max_attempts = 8;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 40;
    options.deadline_ms = 60;
    options.backoff_seed = seed;
    options.sleep_fn = [sleeps](std::uint64_t ms) { sleeps->push_back(ms); };
    auto remote = RemoteBackend::Connect(std::move(faulty), options);
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    faults->InjectFault(FaultKind::kDrop, -1);
    auto result = (*remote)->Execute(QueryFor(RigRecord(1, 2)));
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    return *sleeps;
  };

  const auto a = run(123);
  const auto b = run(123);
  const auto c = run(77);
  EXPECT_EQ(a, b);  // same seed, same call history => same schedule
  EXPECT_NE(a, c);  // a different seed decorrelates
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.front(), 5u);  // first draw starts at backoff_initial
  std::uint64_t total = 0;
  for (std::uint64_t sleep : a) {
    EXPECT_LE(sleep, 40u);  // per-sleep cap
    total += sleep;
  }
  EXPECT_LE(total, 60u);  // clamped to the deadline budget
}

// ---------------------------------------------------------------------
// Differential: a ShardedBackend of pipelined remotes vs the in-process
// ShardedBackend it mirrors, serially and through the batch engine.

constexpr std::uint64_t kDevices = 4;
constexpr std::uint64_t kSeed = 11;
constexpr std::uint64_t kRecords = 400;

std::unique_ptr<StorageBackend> MakeFlatChild() {
  return std::make_unique<ParallelFile>(
      ParallelFile::Create(RigSchema(), kDevices, "fx-iu2", kSeed).value());
}

std::unique_ptr<StorageBackend> MakeLocalSharded() {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    children.push_back(MakeFlatChild());
  }
  auto created = ShardedBackend::Create(std::move(children));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::make_unique<ShardedBackend>(*std::move(created));
}

std::unique_ptr<StorageBackend> MakePipelinedSharded() {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    auto served = std::shared_ptr<StorageBackend>(MakeFlatChild());
    auto service = std::make_shared<ShardService>(*served);
    auto channel = std::make_unique<LoopbackFrameChannel>(
        [served, service](const std::string& request) {
          return service->HandleFrame(request);
        });
    auto remote = RemoteBackend::Connect(
        std::make_unique<MuxTransport>(std::move(channel)));
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    if (!remote.ok()) return nullptr;
    children.push_back(*std::move(remote));
  }
  auto created = ShardedBackend::Create(std::move(children));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::make_unique<ShardedBackend>(*std::move(created));
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const char* context) {
  EXPECT_EQ(a.records, b.records) << context;
  EXPECT_EQ(a.stats.qualified_per_device, b.stats.qualified_per_device)
      << context;
  EXPECT_EQ(a.stats.total_qualified, b.stats.total_qualified) << context;
  EXPECT_EQ(a.stats.largest_response, b.stats.largest_response) << context;
  EXPECT_EQ(a.stats.optimal_bound, b.stats.optimal_bound) << context;
  EXPECT_EQ(a.stats.strict_optimal, b.stats.strict_optimal) << context;
  EXPECT_EQ(a.stats.records_examined, b.stats.records_examined) << context;
  EXPECT_EQ(a.stats.records_matched, b.stats.records_matched) << context;
  EXPECT_EQ(a.stats.disk_timing.parallel_ms, b.stats.disk_timing.parallel_ms)
      << context;
  EXPECT_EQ(a.stats.disk_timing.serial_ms, b.stats.disk_timing.serial_ms)
      << context;
}

TEST(PipelinedRemoteDifferentialTest, SerialAndBatchedAreBitIdentical) {
  auto local = MakeLocalSharded();
  auto remote = MakePipelinedSharded();
  ASSERT_NE(remote, nullptr);

  auto gen = RecordGenerator::Uniform(RigSchema(), kSeed + 1).value();
  for (const Record& record : gen.Take(kRecords)) {
    ASSERT_TRUE(local->Insert(record).ok());
    ASSERT_TRUE(remote->Insert(record).ok());
  }
  ASSERT_EQ(local->num_records(), remote->num_records());

  auto records = RecordGenerator::Uniform(RigSchema(), kSeed + 1)
                     .value()
                     .Take(kRecords);
  auto qgen = QueryGenerator::Create(&records, 0.5, kSeed + 2).value();
  std::vector<ValueQuery> queries;
  while (queries.size() < 40) queries.push_back(qgen.Next());

  // Serial plane.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto a = local->Execute(queries[i]);
    auto b = remote->Execute(queries[i]);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameResult(*a, *b, "serial");
  }

  // Batch engine plane: every bucket gather crosses the wire as frames
  // per shard, not per bucket, and must change nothing observable.
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  QueryEngine local_engine(*local, engine_options);
  QueryEngine remote_engine(*remote, engine_options);
  auto a = local_engine.ExecuteBatch(queries);
  auto b = remote_engine.ExecuteBatch(queries);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    ExpectSameResult((*a)[i], (*b)[i], "batched");
  }
}

}  // namespace
}  // namespace fxdist
