// Wire-level topology plane tests: the kInsertBatch op and its feature
// negotiation, the kTopology probe, and the handshake rule that a
// migrating server ships its *serving plane's* blueprint (the
// "migrating" kind is persistence-v4 state, not a wire blueprint).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/migration.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"

namespace fxdist {
namespace {

Schema RigSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 4},
                            {"tag", ValueType::kString, 2},
                        })
      .value();
}

Record RecordOf(std::int64_t id) {
  return {FieldValue{id}, FieldValue{std::string("t")}};
}

std::unique_ptr<RemoteBackend> ConnectTo(std::shared_ptr<ShardService> service,
                                         RemoteBackend::Options options = {}) {
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [service](const std::string& request) {
        return service->HandleFrame(request);
      });
  options.backoff_initial_ms = 0;
  auto remote = RemoteBackend::Connect(
      std::make_unique<MuxTransport>(std::move(channel)), options);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  return *std::move(remote);
}

TEST(TopologyWire, V2HandshakeGrantsInsertBatch) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  auto remote = ConnectTo(service);
  EXPECT_TRUE(remote->insert_batch_enabled());
}

TEST(TopologyWire, InsertBatchLandsEveryRecordOnce) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  auto insert_frames = std::make_shared<std::atomic<int>>(0);
  auto channel = std::make_unique<LoopbackFrameChannel>(
      [service, insert_frames](const std::string& request) {
        auto frame = DecodeFrame(request);
        if (frame.ok() && frame->op == WireOp::kInsertBatch) ++*insert_frames;
        return service->HandleFrame(request);
      });
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  auto remote = RemoteBackend::Connect(
                    std::make_unique<MuxTransport>(std::move(channel)),
                    options)
                    .value();

  // Enough records for three frames, the last one partial.
  const std::int64_t count =
      2 * RemoteBackend::kRecordsPerInsertFrame + 276;
  std::vector<Record> records;
  for (std::int64_t id = 0; id < count; ++id) {
    records.push_back(RecordOf(id));
  }
  const std::uint64_t epoch_before = remote->MutationEpoch();
  ASSERT_TRUE(remote->InsertBatch(std::move(records)).ok());
  EXPECT_EQ(*insert_frames, 3);
  EXPECT_EQ(served->num_records(), static_cast<std::uint64_t>(count));
  EXPECT_EQ(remote->num_records(), static_cast<std::uint64_t>(count));
  EXPECT_GT(remote->MutationEpoch(), epoch_before);

  ValueQuery q(2);
  q[0] = std::int64_t{3};
  auto result = remote->Execute(q).value();
  EXPECT_EQ(result.records.size(), 1u);  // ids are unique
}

TEST(TopologyWire, TopologyProbeReportsIdlePlane) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  auto service = std::make_shared<ShardService>(*served);
  auto remote = ConnectTo(service);
  auto topo = remote->RemoteTopology().value();
  EXPECT_EQ(topo.version, 1u);
  EXPECT_EQ(topo.migrating_buckets, 0u);
  // The blueprint is a real one: it rebuilds an empty twin.
  auto twin = BuildBackendFromBlueprintText(topo.blueprint).value();
  EXPECT_EQ(twin->spec().num_devices(), 2u);
}

TEST(TopologyWire, MigratingServerShipsServingPlaneBlueprint) {
  auto wrapper = MigratingBackend::Create(
                     std::make_unique<ParallelFile>(
                         ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7)
                             .value()))
                     .value();
  for (std::int64_t id = 0; id < 30; ++id) {
    ASSERT_TRUE(wrapper->Insert(RecordOf(id)).ok());
  }
  auto target = BuildRetargetedEmptyBackend(*wrapper, 4, "fx-iu2").value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  ASSERT_TRUE(wrapper->CopyChunk(2).ok());

  auto service = std::make_shared<ShardService>(*wrapper);
  auto remote = ConnectTo(service);
  // The handshake blueprint came from the serving plane — a real kind,
  // not "migrating" — so the twin built and the connection works.
  EXPECT_EQ(remote->spec().num_devices(), 2u);
  ValueQuery q(2);
  q[0] = std::int64_t{5};
  EXPECT_EQ(remote->Execute(q).value().records.size(),
            wrapper->Execute(q).value().records.size());

  auto topo = remote->RemoteTopology().value();
  EXPECT_EQ(topo.version, 1u);
  EXPECT_GT(topo.migrating_buckets, 0u);

  // Finish the migration server-side; a fresh probe sees the new
  // generation and a blueprint re-cut for the target device count.
  while (!wrapper->CopyDone()) ASSERT_TRUE(wrapper->CopyChunk(8).ok());
  ASSERT_TRUE(wrapper->Cutover().ok());
  topo = remote->RemoteTopology().value();
  EXPECT_EQ(topo.version, 2u);
  EXPECT_EQ(topo.migrating_buckets, 0u);
  auto twin = BuildBackendFromBlueprintText(topo.blueprint).value();
  EXPECT_EQ(twin->spec().num_devices(), 4u);
}

}  // namespace
}  // namespace fxdist
