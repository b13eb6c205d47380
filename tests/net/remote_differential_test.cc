// Differential plane for the shard transport: a ShardedBackend whose
// children are RemoteBackends (loopback transport, full encode/decode on
// every operation) must be observationally identical to the in-process
// ShardedBackend it mirrors — same records, same deterministic
// QueryStats, bit for bit — over all three child kinds, serially and
// through the batch engine.  Divergence means the codec, the handshake
// twin, or the server locking changed semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 4;
constexpr std::uint64_t kSeed = 11;
constexpr std::uint64_t kRecords = 400;

Schema TestSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

std::unique_ptr<StorageBackend> MakeChild(const std::string& kind) {
  const Schema schema = TestSchema();
  if (kind == "flat") {
    return std::make_unique<ParallelFile>(
        ParallelFile::Create(schema, kDevices, "fx-iu2", kSeed).value());
  }
  if (kind == "paged") {
    return std::make_unique<PagedParallelFile>(
        PagedParallelFile::Create(schema, kDevices, "fx-iu2", 8, kSeed)
            .value());
  }
  // Provisioned to the schema's depths with a capacity the workload never
  // splits, so the frozen composite plane holds (64 buckets, ~6 records
  // per per-field cell).
  std::vector<DynamicFieldDecl> fields;
  for (unsigned i = 0; i < schema.num_fields(); ++i) {
    fields.push_back({schema.field(i).name, schema.field(i).type});
  }
  return std::make_unique<DynamicParallelFile>(
      DynamicParallelFile::Create(fields, kDevices, 1024, PlanFamily::kIU2,
                                  kSeed, {3, 3})
          .value());
}

std::unique_ptr<StorageBackend> MakeLocalSharded(const std::string& kind) {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    children.push_back(MakeChild(kind));
  }
  auto created = ShardedBackend::Create(std::move(children));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::make_unique<ShardedBackend>(*std::move(created));
}

std::unique_ptr<StorageBackend> MakeRemoteSharded(const std::string& kind) {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    auto served = std::shared_ptr<StorageBackend>(MakeChild(kind));
    auto service = std::make_shared<ShardService>(*served);
    auto transport = std::make_unique<LoopbackTransport>(
        [served, service](const std::string& request) {
          return service->HandleFrame(request);
        });
    auto remote = RemoteBackend::Connect(std::move(transport));
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    if (!remote.ok()) return nullptr;
    children.push_back(*std::move(remote));
  }
  auto created = ShardedBackend::Create(std::move(children));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::make_unique<ShardedBackend>(*std::move(created));
}

std::vector<Record> TestRecords() {
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed + 1).value();
  return gen.Take(kRecords);
}

std::vector<ValueQuery> TestQueries(const std::vector<Record>& records) {
  auto gen = QueryGenerator::Create(&records, 0.5, kSeed + 2).value();
  std::vector<ValueQuery> queries;
  while (queries.size() < 40) queries.push_back(gen.Next());
  return queries;
}

// The deterministic face of QueryStats; wall-clock fields are excluded,
// the model-timing fields are not (they derive from qualified counts).
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

class RemoteDifferentialTest : public testing::TestWithParam<const char*> {};

TEST_P(RemoteDifferentialTest, HandshakeTwinAgreesOnPlacement) {
  const std::string kind = GetParam();
  auto local = MakeChild(kind);
  auto remote_composite = MakeRemoteSharded(kind);
  ASSERT_NE(remote_composite, nullptr);
  const StorageBackend& remote_child =
      static_cast<const ShardedBackend&>(*remote_composite).child(0);

  EXPECT_EQ(remote_child.backend_name(), local->backend_name());
  EXPECT_EQ(remote_child.spec().ToString(), local->spec().ToString());
  EXPECT_EQ(remote_child.method().name(), local->method().name());
  for (const Record& r : TestRecords()) {
    auto a = remote_child.HashRecord(r);
    auto b = local->HashRecord(r);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST_P(RemoteDifferentialTest, SerialExecuteIsBitIdentical) {
  const std::string kind = GetParam();
  auto local = MakeLocalSharded(kind);
  auto remote = MakeRemoteSharded(kind);
  ASSERT_NE(remote, nullptr);

  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) {
    ASSERT_TRUE(local->Insert(r).ok());
    ASSERT_TRUE(remote->Insert(r).ok());
  }
  EXPECT_EQ(remote->num_records(), local->num_records());
  EXPECT_EQ(remote->RecordCountsPerDevice(), local->RecordCountsPerDevice());

  for (const ValueQuery& q : TestQueries(records)) {
    auto a = local->Execute(q);
    auto b = remote->Execute(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameResult(*a, *b, kind.c_str());
  }
}

TEST_P(RemoteDifferentialTest, EngineBatchesAreBitIdentical) {
  const std::string kind = GetParam();
  auto local = MakeLocalSharded(kind);
  auto remote = MakeRemoteSharded(kind);
  ASSERT_NE(remote, nullptr);

  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) {
    ASSERT_TRUE(local->Insert(r).ok());
    ASSERT_TRUE(remote->Insert(r).ok());
  }
  const std::vector<ValueQuery> queries = TestQueries(records);

  EngineOptions options;
  QueryEngine local_engine(*local, options);
  QueryEngine remote_engine(*remote, options);
  auto a = local_engine.ExecuteBatch(queries);
  auto b = remote_engine.ExecuteBatch(queries);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    ExpectSameResult((*a)[i], (*b)[i], kind.c_str());
  }
}

TEST_P(RemoteDifferentialTest, DeletesStayInLockstep) {
  const std::string kind = GetParam();
  auto local = MakeLocalSharded(kind);
  auto remote = MakeRemoteSharded(kind);
  ASSERT_NE(remote, nullptr);

  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) {
    ASSERT_TRUE(local->Insert(r).ok());
    ASSERT_TRUE(remote->Insert(r).ok());
  }
  for (std::size_t i = 0; i < 10; ++i) {
    ValueQuery q(records[i].size());
    q[0] = records[i][0];
    auto a = local->Delete(q);
    auto b = remote->Delete(q);
    // Dynamic children reject deletion; the remote must surface the same
    // application error instead of misreading it as a transport fault.
    ASSERT_EQ(a.ok(), b.ok()) << kind << ": " << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(*a, *b);
    } else {
      EXPECT_EQ(a.status().code(), b.status().code());
    }
  }
  EXPECT_EQ(remote->num_records(), local->num_records());
  EXPECT_EQ(remote->RecordCountsPerDevice(), local->RecordCountsPerDevice());
}

TEST_P(RemoteDifferentialTest, ScanManyFalseCancelsAcrossTheWire) {
  const std::string kind = GetParam();
  auto remote = MakeRemoteSharded(kind);
  ASSERT_NE(remote, nullptr);
  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) ASSERT_TRUE(remote->Insert(r).ok());

  const PartialMatchQuery hashed =
      remote->HashQuery(ValueQuery(2)).value();
  std::vector<BucketRef> all_refs;
  std::vector<BucketRef> one_device;
  for (std::uint64_t d = 0; d < remote->num_devices(); ++d) {
    remote->device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&](std::uint64_t linear) {
          all_refs.push_back({d, linear});
          if (d == 0) one_device.push_back({d, linear});
          return true;
        });
  }

  // One remote child, many chunked frames: fn returning false must
  // abandon the rest of the chunk and every later chunk, not just the
  // current bucket.  Deterministic: the child runs inline.
  std::size_t delivered = 0;
  remote->ScanMany(one_device, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return false;
  });
  EXPECT_EQ(delivered, 1u) << kind;

  // Across overlapped remote children the cancel is best-effort (each
  // concurrently-delivering child stops at its next record), but it must
  // not degenerate into a full sweep of every shard.
  delivered = 0;
  remote->ScanMany(all_refs, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return false;
  });
  EXPECT_GE(delivered, 1u) << kind;
  EXPECT_LT(delivered, remote->num_records()) << kind;
}

INSTANTIATE_TEST_SUITE_P(AllChildKinds, RemoteDifferentialTest,
                         testing::Values("flat", "paged", "dynamic"));

// A remote shard's scans are round trips (ScanPrefersFanout), so the
// engine keeps every query in the per-device gather even when some share
// no bucket with any other: one ScanMany per device, one kScanMany frame
// per device holding a qualified bucket and no other frame, and results
// bit-identical to the served file's own Execute.
TEST(RemoteDifferentialGatherTest, QueriesSharingNoBucketStayInTheGather) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed).value());
  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) ASSERT_TRUE(served->Insert(r).ok());

  struct Frames {
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> scan_many{0};
    std::atomic<std::uint64_t> execute{0};
  };
  auto service = std::make_shared<ShardService>(*served);
  auto frames = std::make_shared<Frames>();
  auto transport = std::make_unique<LoopbackTransport>(
      [served, service, frames](const std::string& request) {
        ++frames->total;
        auto frame = DecodeFrame(request);
        if (frame.ok() && frame->op == WireOp::kScanMany) ++frames->scan_many;
        if (frame.ok() && frame->op == WireOp::kExecute) ++frames->execute;
        return service->HandleFrame(request);
      });
  auto remote = RemoteBackend::Connect(std::move(transport));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_TRUE((*remote)->ScanPrefersFanout());

  // An overlapping pair (two field subsets of one record) and six
  // one-bucket queries, most of which share no bucket with anything.
  auto pin = [&records](std::size_t i, std::initializer_list<unsigned> f) {
    ValueQuery query(TestSchema().num_fields());
    for (unsigned field : f) query[field] = records[i][field];
    return query;
  };
  std::vector<ValueQuery> batch = {pin(0, {0}), pin(0, {1})};
  for (std::size_t i = 1; i < 7; ++i) batch.push_back(pin(i, {0, 1}));

  // Enumerate what a local backend would split off, and which devices
  // the batch touches.
  const DeviceMap& map = served->device_map();
  std::vector<std::set<std::uint64_t>> buckets(batch.size());
  std::set<std::uint64_t> devices;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    const PartialMatchQuery hashed = served->HashQuery(batch[q]).value();
    for (std::uint64_t d = 0; d < kDevices; ++d) {
      map.ForEachQualifiedLinearOnDevice(hashed, d, [&](std::uint64_t b) {
        buckets[q].insert(b);
        devices.insert(d);
        return true;
      });
    }
  }
  std::uint64_t sharing_nothing = 0;
  for (std::size_t a = 0; a < batch.size(); ++a) {
    std::size_t owners = 0;  // queries holding some bucket of query a
    for (const auto& other : buckets) {
      for (std::uint64_t linear : buckets[a]) {
        if (other.count(linear) > 0) {
          ++owners;
          break;
        }
      }
    }
    if (owners == 1) ++sharing_nothing;
  }
  ASSERT_GT(sharing_nothing, 0u);

  for (const unsigned threads : {1u, 2u}) {
    const std::string context = "threads=" + std::to_string(threads);
    EngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(**remote, options);
    const std::uint64_t total_before = frames->total;
    const std::uint64_t scan_many_before = frames->scan_many;
    auto results = engine.ExecuteBatch(batch);
    ASSERT_TRUE(results.ok()) << context << ": "
                              << results.status().ToString();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSameResult((*results)[i], served->Execute(batch[i]).value(),
                       context.c_str());
    }
    const StatsSnapshot snap = engine.Snapshot();
    EXPECT_EQ(snap.solo_queries, 0u) << context;
    EXPECT_EQ(snap.scan_many_calls, kDevices) << context;
    EXPECT_EQ(frames->scan_many - scan_many_before, devices.size())
        << context;
    // The gather is the whole batch: no kNumRecords probe precedes it
    // (the sparse-space check never runs on a round-trip backend).
    EXPECT_EQ(frames->total - total_before, devices.size()) << context;
    EXPECT_EQ(frames->execute, 0u) << context;
  }
}

// A composite with remote children persists through the *twin's* params
// — the saved form names the local construction, not the transport — so
// a reload builds a placement-identical local composite holding the same
// records.
TEST(RemotePersistenceTest, CompositeWithRemoteChildrenRoundTrips) {
  auto remote = MakeRemoteSharded("flat");
  ASSERT_NE(remote, nullptr);
  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) ASSERT_TRUE(remote->Insert(r).ok());

  const std::string path = testing::TempDir() + "/remote_composite.fxdist";
  ASSERT_TRUE(SaveBackend(*remote, path).ok());
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->backend_name(), "sharded");
  EXPECT_EQ((*loaded)->num_records(), remote->num_records());
  EXPECT_EQ((*loaded)->RecordCountsPerDevice(),
            remote->RecordCountsPerDevice());
  for (const ValueQuery& q : TestQueries(records)) {
    auto a = remote->Execute(q);
    auto b = (*loaded)->Execute(q);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameResult(*a, *b, "reloaded");
  }
  std::remove(path.c_str());
}

// The handshake blueprint itself round-trips: building a twin of the
// twin yields the same blueprint text (fixed point), so repeated hops
// cannot drift the placement plane.
TEST(RemotePersistenceTest, BlueprintIsAFixedPoint) {
  for (const char* kind : {"flat", "paged", "dynamic"}) {
    auto child = MakeChild(kind);
    const std::string blueprint = BackendBlueprintText(*child);
    auto twin = BuildBackendFromBlueprintText(blueprint);
    ASSERT_TRUE(twin.ok()) << kind << ": " << twin.status().ToString();
    EXPECT_EQ(BackendBlueprintText(**twin), blueprint) << kind;
  }
}

}  // namespace
}  // namespace fxdist
