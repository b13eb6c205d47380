// Differential plane for the shard transport: a ShardedBackend whose
// children are RemoteBackends (loopback transport, full encode/decode on
// every operation) must be observationally identical to the in-process
// ShardedBackend it mirrors — same records, same deterministic
// QueryStats, bit for bit — over all three child kinds, serially and
// through the batch engine.  Divergence means the codec, the handshake
// twin, or the server locking changed semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <mutex>
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
#include "sim/packed_backend.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"
#include "test_paths.h"

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

/// What the served side of a gather saw: frames by op, and what the
/// kScanMatch requests asked and their replies carried.
struct GatherTally {
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> scan_match{0};
  /// kScanMatch refs sent with covering count 0 (every record).
  std::atomic<std::uint64_t> unfiltered_refs{0};
  std::atomic<std::uint64_t> execute{0};
  std::mutex mutex;
  std::uint64_t skipped = 0;       ///< summed per-ref skip counts
  std::vector<Record> delivered;   ///< every record a reply carried
};

/// The kScanMatch refs of `request` whose covering count is 0.
std::uint64_t UnfilteredRefs(const WireFrame& request) {
  PayloadReader reader(request.payload);
  const std::uint64_t queries = reader.Varint().value();
  for (std::uint64_t q = 0; q < queries; ++q) {
    EXPECT_TRUE(reader.ReadQuery().ok());
  }
  const std::uint64_t refs = reader.Varint().value();
  std::uint64_t unfiltered = 0;
  for (std::uint64_t i = 0; i < refs; ++i) {
    (void)reader.Varint();  // device
    (void)reader.Zigzag();  // bucket delta
    const std::uint64_t covers = reader.Varint().value();
    if (covers == 0) ++unfiltered;
    for (std::uint64_t k = 0; k < covers; ++k) (void)reader.Varint();
  }
  return unfiltered;
}

/// Adds one kScanMatch reply frame's counts and records to `tally`.
void TallyScanMatchReply(const std::string& bytes, GatherTally& tally) {
  auto frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  PayloadReader reader(frame->payload);
  Status status;
  ASSERT_TRUE(reader.ReadStatusInto(&status).ok());
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::uint64_t refs = reader.Varint().value();
  std::uint64_t skipped = 0, delivered = 0;
  for (std::uint64_t i = 0; i < refs; ++i) {
    skipped += reader.Varint().value();
    delivered += reader.Varint().value();
  }
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < delivered; ++i) {
    records.push_back(reader.ReadRecord().value());
  }
  ASSERT_TRUE(reader.AtEnd());
  std::lock_guard<std::mutex> lock(tally.mutex);
  tally.skipped += skipped;
  tally.delivered.insert(tally.delivered.end(), records.begin(),
                         records.end());
}

/// A RemoteBackend over `service` whose transport tallies every frame.
std::unique_ptr<RemoteBackend> ConnectTallied(
    std::shared_ptr<StorageBackend> served,
    std::shared_ptr<ShardService> service,
    std::shared_ptr<GatherTally> tally) {
  auto transport = std::make_unique<LoopbackTransport>(
      [served, service, tally](const std::string& request) {
        ++tally->total;
        auto frame = DecodeFrame(request);
        if (!frame.ok()) return service->HandleFrame(request);
        if (frame->op == WireOp::kExecute) ++tally->execute;
        std::string reply = service->HandleFrame(request);
        if (frame->op == WireOp::kScanMatch) {
          ++tally->scan_match;
          tally->unfiltered_refs += UnfilteredRefs(*frame);
          TallyScanMatchReply(reply, *tally);
        }
        return reply;
      });
  auto remote = RemoteBackend::Connect(std::move(transport));
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  return remote.ok() ? *std::move(remote) : nullptr;
}

/// A ShardedBackend of RemoteBackend children, each over its own served
/// `kind` backend; every child's frames land in `tally` when it is set.
std::unique_ptr<StorageBackend> MakeRemoteSharded(
    const std::string& kind, std::shared_ptr<GatherTally> tally = nullptr) {
  if (tally == nullptr) tally = std::make_shared<GatherTally>();
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    auto served = std::shared_ptr<StorageBackend>(MakeChild(kind));
    auto service = std::make_shared<ShardService>(*served);
    auto remote = ConnectTallied(served, service, tally);
    if (remote == nullptr) return nullptr;
    children.push_back(std::move(remote));
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

// A composite over remote children fans its children out on threads, so
// the per-ref skip counts of one gather are written concurrently.  Its
// own Execute (one filtered gather per query) and engine batches at 1 and
// 2 threads go out as kScanMatch frames alone, ship fewer records than
// they examine, and stay bit-identical to the local composite.
TEST_P(RemoteDifferentialTest, CompositeGathersShipOnlyMatches) {
  const std::string kind = GetParam();
  auto local = MakeLocalSharded(kind);
  auto tally = std::make_shared<GatherTally>();
  auto remote = MakeRemoteSharded(kind, tally);
  ASSERT_NE(remote, nullptr);
  ASSERT_TRUE(remote->ScanPrefersFanout());

  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) {
    ASSERT_TRUE(local->Insert(r).ok());
    ASSERT_TRUE(remote->Insert(r).ok());
  }
  const std::vector<ValueQuery> queries = TestQueries(records);
  std::uint64_t examined = 0;
  for (const ValueQuery& q : queries) {
    auto a = local->Execute(q);
    auto b = remote->Execute(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameResult(*a, *b, kind.c_str());
    examined += a->stats.records_examined;
  }
  for (const unsigned threads : {1u, 2u}) {
    const std::string context = kind + " threads=" + std::to_string(threads);
    EngineOptions options;
    options.num_threads = threads;
    QueryEngine local_engine(*local, options);
    QueryEngine remote_engine(*remote, options);
    auto a = local_engine.ExecuteBatch(queries);
    auto b = remote_engine.ExecuteBatch(queries);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
      ExpectSameResult((*a)[i], (*b)[i], context.c_str());
    }
    EXPECT_EQ(remote_engine.Snapshot().records_examined,
              local_engine.Snapshot().records_examined)
        << context;
    examined += local_engine.Snapshot().records_examined;
  }
  EXPECT_GT(tally->scan_match, 0u) << kind;
  EXPECT_EQ(tally->unfiltered_refs, 0u) << kind;
  EXPECT_EQ(tally->execute, 0u) << kind;
  std::lock_guard<std::mutex> lock(tally->mutex);
  EXPECT_GT(tally->skipped, 0u) << kind;
  EXPECT_LT(tally->delivered.size(), examined) << kind;
}

INSTANTIATE_TEST_SUITE_P(AllChildKinds, RemoteDifferentialTest,
                         testing::Values("flat", "paged", "dynamic"));

/// The gather batch: an overlapping pair (two field subsets of one
/// record) and six one-bucket queries, most of which share no bucket
/// with anything.
std::vector<ValueQuery> GatherBatch(const std::vector<Record>& records) {
  auto pin = [&records](std::size_t i, std::initializer_list<unsigned> f) {
    ValueQuery query(TestSchema().num_fields());
    for (unsigned field : f) query[field] = records[i][field];
    return query;
  };
  std::vector<ValueQuery> batch = {pin(0, {0}), pin(0, {1})};
  for (std::size_t i = 1; i < 7; ++i) batch.push_back(pin(i, {0, 1}));
  return batch;
}

// A remote shard's scans are round trips (ScanPrefersFanout), so the
// engine keeps every query in the per-device gather even when some share
// no bucket with any other: one ScanMany per device, one kScanMatch frame
// per device holding a qualified bucket and no other frame, and results
// bit-identical to the served file's own Execute.  The server filters:
// its replies carry exactly the stored records some batch query matches,
// and their skip counts make up the rest of the scanned buckets.
TEST(RemoteDifferentialGatherTest, QueriesSharingNoBucketStayInTheGather) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed).value());
  const std::vector<Record> records = TestRecords();
  for (const Record& r : records) ASSERT_TRUE(served->Insert(r).ok());

  auto service = std::make_shared<ShardService>(*served);
  auto frames = std::make_shared<GatherTally>();
  auto remote = ConnectTallied(served, service, frames);
  ASSERT_NE(remote, nullptr);
  ASSERT_TRUE(remote->ScanPrefersFanout());

  const std::vector<ValueQuery> batch = GatherBatch(records);

  // Enumerate what a local backend would split off, and which devices
  // the batch touches.
  const DeviceMap& map = served->device_map();
  std::vector<std::set<std::uint64_t>> buckets(batch.size());
  std::set<std::uint64_t> devices;
  std::set<std::uint64_t> scanned;  // every bucket the gather reads
  for (std::size_t q = 0; q < batch.size(); ++q) {
    const PartialMatchQuery hashed = served->HashQuery(batch[q]).value();
    for (std::uint64_t d = 0; d < kDevices; ++d) {
      map.ForEachQualifiedLinearOnDevice(hashed, d, [&](std::uint64_t b) {
        buckets[q].insert(b);
        scanned.insert(b);
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

  // What the replies must carry: each stored record some batch query
  // matches, once; and the records of the scanned buckets in all.
  std::vector<Record> matching;
  std::uint64_t in_scanned = 0;
  for (const Record& r : records) {
    for (const ValueQuery& q : batch) {
      if (RecordMatchesValueQuery(q, r)) {
        matching.push_back(r);
        break;
      }
    }
    const BucketId bucket = served->HashRecord(r).value();
    if (scanned.count(LinearIndex(served->spec(), bucket)) > 0) ++in_scanned;
  }
  std::sort(matching.begin(), matching.end());
  ASSERT_LT(matching.size(), in_scanned) << "the filter must drop something";

  for (const unsigned threads : {1u, 2u}) {
    const std::string context = "threads=" + std::to_string(threads);
    EngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(*remote, options);
    const std::uint64_t total_before = frames->total;
    const std::uint64_t scan_match_before = frames->scan_match;
    {
      std::lock_guard<std::mutex> lock(frames->mutex);
      frames->skipped = 0;
      frames->delivered.clear();
    }
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
    EXPECT_EQ(frames->scan_match - scan_match_before, devices.size())
        << context;
    // The gather is the whole batch: no kNumRecords probe precedes it
    // (the sparse-space check never runs on a round-trip backend).
    EXPECT_EQ(frames->total - total_before, devices.size()) << context;
    EXPECT_EQ(frames->unfiltered_refs, 0u) << context;
    EXPECT_EQ(frames->execute, 0u) << context;

    std::lock_guard<std::mutex> lock(frames->mutex);
    std::vector<Record> delivered = frames->delivered;
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, matching) << context;
    EXPECT_EQ(frames->skipped + frames->delivered.size(), in_scanned)
        << context;
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

  const std::string path = TestPath("remote_composite.fxdist");
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

/// What saving `source` and packing it return.
std::pair<Status, Status> SaveAndPack(const StorageBackend& source) {
  const std::string saved = TestPath("saved.fxdist");
  const std::string packed = TestPath("packed.fxpk");
  std::pair<Status, Status> outcome = {SaveBackend(source, saved),
                                       PackBackend(source, packed).status()};
  std::remove(saved.c_str());
  std::remove(packed.c_str());
  return outcome;
}

// A remote shard whose kListRecords reply outgrows the 4 MiB frame (70
// records with 64 KiB strings; records of two int64 fields reach it at
// about 190,000) lists nothing, while its count and Health() stay
// fine.  Saving or packing it must fail instead of writing a file whose
// header promises 70 records and holds none.
TEST(RemotePersistenceTest, SaveOfAShardTooLargeToListFails) {
  const Schema schema = Schema::Create({{"id", ValueType::kInt64, 8},
                                        {"blob", ValueType::kString, 4}})
                            .value();
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(schema, kDevices, "fx-iu2", kSeed).value());
  for (std::int64_t i = 0; i < 70; ++i) {
    ASSERT_TRUE(
        served->Insert({FieldValue{i}, FieldValue{std::string(64 << 10, 'a')}})
            .ok());
  }
  auto service = std::make_shared<ShardService>(*served);
  auto remote = ConnectTallied(served, service,
                               std::make_shared<GatherTally>());
  ASSERT_NE(remote, nullptr);
  ASSERT_EQ(remote->num_records(), 70u);

  const auto [saved, packed] = SaveAndPack(*remote);
  EXPECT_EQ(saved.code(), StatusCode::kDataLoss) << saved.ToString();
  EXPECT_EQ(packed.code(), StatusCode::kDataLoss) << packed.ToString();
  EXPECT_TRUE(remote->Health().ok()) << remote->Health().ToString();
}

// A composite over four remote children, one of whose transports drops
// every request: the child goes terminal, counts 0 and lists nothing.
// Saving or packing the composite must report the dead child instead of
// writing the other children's records as if they were all.
TEST(RemotePersistenceTest, SaveWithADeadChildFails) {
  std::vector<std::unique_ptr<StorageBackend>> children;
  FaultInjectingTransport* dying = nullptr;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    auto served = std::shared_ptr<StorageBackend>(MakeChild("flat"));
    auto service = std::make_shared<ShardService>(*served);
    auto transport = std::make_unique<FaultInjectingTransport>(
        std::make_unique<LoopbackTransport>(
            [served, service](const std::string& request) {
              return service->HandleFrame(request);
            }));
    if (d == 1) dying = transport.get();
    RemoteBackend::Options options;
    options.backoff_initial_ms = 0;
    children.push_back(
        RemoteBackend::Connect(std::move(transport), options).value());
  }
  ShardedBackend composite =
      ShardedBackend::Create(std::move(children)).value();
  for (const Record& r : TestRecords()) {
    ASSERT_TRUE(composite.Insert(r).ok());
  }
  ASSERT_TRUE(SaveAndPack(composite).first.ok());

  dying->InjectFault(FaultKind::kDrop, -1);
  const auto [saved, packed] = SaveAndPack(composite);
  EXPECT_EQ(saved.code(), StatusCode::kUnavailable) << saved.ToString();
  EXPECT_EQ(packed.code(), StatusCode::kUnavailable) << packed.ToString();
  EXPECT_EQ(composite.Health().code(), StatusCode::kUnavailable);
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
