// Mutation-epoch synchronisation across clients of one shard server.
//
// The regression this file pins: RemoteBackend::MutationEpoch used to be
// the *local* bump counter — it counted this client's own mutations and
// nothing else.  With two writers, client A's epoch never moved when
// client B wrote, so every epoch consumer on A (ResultCache above all)
// kept certifying results the server had already invalidated.  The fix:
// the server echoes its authoritative epoch on every mutating reply and
// on kTopology, and the client's MutationEpoch is the max of the local
// counter and the freshest echo.  Old servers send no echo and the max
// degrades to exactly the old local-only behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "front/frontend.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "sim/parallel_file.h"

namespace fxdist {
namespace {

Schema RigSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

Record RigRecord(std::int64_t a, std::int64_t b) {
  return {FieldValue{a}, FieldValue{b}};
}

// Two independent clients of one served file — the multi-writer rig.
struct TwoClientRig {
  std::shared_ptr<ParallelFile> served;
  std::shared_ptr<ShardService> service;
  std::unique_ptr<RemoteBackend> a;
  std::unique_ptr<RemoteBackend> b;
};

TwoClientRig MakeRig() {
  TwoClientRig rig;
  rig.served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  rig.service = std::make_shared<ShardService>(*rig.served);
  auto connect = [&rig] {
    auto loopback = std::make_unique<LoopbackTransport>(
        [served = rig.served, service = rig.service](
            const std::string& request) {
          return service->HandleFrame(request);
        });
    RemoteBackend::Options options;
    options.backoff_initial_ms = 0;
    auto remote = RemoteBackend::Connect(std::move(loopback), options);
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    return *std::move(remote);
  };
  rig.a = connect();
  rig.b = connect();
  return rig;
}

TEST(EpochSyncTest, OwnMutationsObserveServerEpoch) {
  TwoClientRig rig = MakeRig();
  EXPECT_EQ(rig.a->MutationEpoch(), 0u);
  ASSERT_TRUE(rig.a->Insert(RigRecord(1, 2)).ok());
  // The reply echoed the server's count, which equals A's local count
  // here — one writer, no divergence.
  EXPECT_EQ(rig.a->MutationEpoch(), rig.served->MutationEpoch());
}

TEST(EpochSyncTest, PeerMutationsSurfaceOnNextEcho) {
  TwoClientRig rig = MakeRig();
  ASSERT_TRUE(rig.b->Insert(RigRecord(1, 2)).ok());
  ASSERT_TRUE(rig.b->Insert(RigRecord(3, 4)).ok());

  // A has not talked to the server since B wrote; it cannot know yet.
  EXPECT_EQ(rig.a->MutationEpoch(), 0u);

  // Any echo-bearing exchange resynchronises — the topology probe is
  // the one engines and frontends issue periodically anyway.
  ASSERT_TRUE(rig.a->RemoteTopology().ok());
  EXPECT_EQ(rig.a->MutationEpoch(), rig.served->MutationEpoch());
  EXPECT_GE(rig.a->MutationEpoch(), 2u);

  // The merged epoch is monotone: A's own next write may not lower it.
  ASSERT_TRUE(rig.a->Insert(RigRecord(5, 6)).ok());
  EXPECT_EQ(rig.a->MutationEpoch(), rig.served->MutationEpoch());
}

TEST(EpochSyncTest, TwoClientStaleReadInvalidatesCache) {
  // The end-to-end consequence: A's frontend caches a result, B writes
  // a row that belongs in it, A refreshes topology — the next lookup
  // must invalidate and return B's row, not serve the stale entry.
  TwoClientRig rig = MakeRig();
  ASSERT_TRUE(rig.a->Insert(RigRecord(1, 10)).ok());

  QueryEngine engine(*rig.a);
  Frontend frontend(engine);
  ValueQuery probe(2);
  probe[0] = std::int64_t{1};

  auto first =
      frontend.Submit("c", QueryPriority::kInteractive, probe).get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->records.size(), 1u);

  // B inserts a second row with the same f0 — it qualifies for `probe`.
  ASSERT_TRUE(rig.b->Insert(RigRecord(1, 20)).ok());

  // A's periodic topology refresh carries the authoritative epoch.
  ASSERT_TRUE(rig.a->RemoteTopology().ok());

  auto second =
      frontend.Submit("c", QueryPriority::kInteractive, probe).get();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->records.size(), 2u);  // stale entry would say 1
  EXPECT_GE(frontend.Stats().cache.epoch_invalidations, 1u);
}

}  // namespace
}  // namespace fxdist
