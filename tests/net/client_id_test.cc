// Per-tenant client ids on the wire handshake: a RemoteBackend with a
// configured client_id announces it in the hello, the server records it
// (ShardService::AnnouncedClients), and an empty id stays anonymous.  The
// id is an optional tail: an anonymous hello is exactly what a server from
// before client ids reads, and such a server's refusal of the longer hello
// fails the connect with the server's own status.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/parallel_file.h"

namespace fxdist {
namespace {

Schema RigSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 4},
                            {"tag", ValueType::kString, 2},
                        })
      .value();
}

struct Rig {
  std::shared_ptr<ParallelFile> served;
  std::shared_ptr<ShardService> service;
  std::unique_ptr<RemoteBackend> remote;
};

Rig MakeRig(const std::string& client_id) {
  Rig rig;
  rig.served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  rig.service = std::make_shared<ShardService>(*rig.served);
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [served = rig.served, service = rig.service](
          const std::string& request) {
        return service->HandleFrame(request);
      });
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  options.client_id = client_id;
  auto remote = RemoteBackend::Connect(
      std::make_unique<MuxTransport>(std::move(channel)), options);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  rig.remote = *std::move(remote);
  return rig;
}

TEST(ClientIdTest, AnnouncedOnV2Handshake) {
  Rig rig = MakeRig("tenant-7");
  const auto clients = rig.service->AnnouncedClients();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0], "tenant-7");
}

TEST(ClientIdTest, EmptyIdStaysAnonymous) {
  Rig rig = MakeRig("");
  EXPECT_TRUE(rig.service->AnnouncedClients().empty());
}

TEST(ClientIdTest, ReconnectsDoNotDuplicate) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  for (int i = 0; i < 3; ++i) {
    auto channel = std::make_unique<LoopbackFrameChannel>(
        [served, service](const std::string& request) {
          return service->HandleFrame(request);
        });
    RemoteBackend::Options options;
    options.backoff_initial_ms = 0;
    options.client_id = "tenant-7";
    auto remote = RemoteBackend::Connect(
        std::make_unique<MuxTransport>(std::move(channel)), options);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  }
  EXPECT_EQ(service->AnnouncedClients().size(), 1u);
}

// A server from before client ids ExpectEnd()s the hello after the frame
// limit and the feature wants, and rejects the extra field.
std::string PreFrontDoorServer(ShardService& service,
                               const std::string& request) {
  auto frame = DecodeFrame(request);
  if (frame.ok() && frame->op == WireOp::kHandshake) {
    PayloadReader reader(frame->payload);
    (void)reader.U64();
    (void)reader.U32();
    if (!reader.AtEnd()) {
      PayloadWriter writer;
      writer.WriteStatus(
          Status::InvalidArgument("trailing bytes in handshake payload"));
      WireFrame error{WireOp::kError, true, writer.Take()};
      error.correlation_id = frame->correlation_id;
      return EncodeFrame(error);
    }
  }
  return service.HandleFrame(request);
}

std::unique_ptr<Transport> PreFrontDoorTransport(
    std::shared_ptr<ParallelFile> served,
    std::shared_ptr<ShardService> service) {
  return std::make_unique<LoopbackTransport>(
      [served, service](const std::string& request) {
        return PreFrontDoorServer(*service, request);
      });
}

TEST(ClientIdTest, OldServerRejectingTheIdFailsConnectWithItsStatus) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  options.client_id = "tenant-7";
  auto remote =
      RemoteBackend::Connect(PreFrontDoorTransport(served, service), options);
  // No anonymous fallback: the server's own refusal is the answer.
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kInvalidArgument)
      << remote.status().ToString();
  EXPECT_NE(remote.status().message().find("trailing bytes"),
            std::string::npos)
      << remote.status().ToString();
  EXPECT_TRUE(service->AnnouncedClients().empty());
}

TEST(ClientIdTest, AnonymousHelloCarriesNoTailSoOldServersServeIt) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  auto remote =
      RemoteBackend::Connect(PreFrontDoorTransport(served, service), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_TRUE((*remote)->scan_many_enabled());
  EXPECT_TRUE((*remote)->insert_batch_enabled());
  ASSERT_TRUE(
      (*remote)
          ->Insert({FieldValue{std::int64_t{1}}, FieldValue{std::string("a")}})
          .ok());
  EXPECT_EQ(served->num_records(), 1u);
  EXPECT_TRUE(service->AnnouncedClients().empty());
}

}  // namespace
}  // namespace fxdist
