// Differential test for the engine's two paths: a distinct query that
// shares no bucket with any other query of its batch runs the backend's
// own Execute, the rest go through the shared per-device gather.
//
// The batches here populate both paths on purpose: a lone query, queries
// that overlap another (two field subsets of one record always share
// that record's bucket), queries pinned to one or a few buckets that
// share nothing with the rest, and duplicates of both kinds.  Which
// queries are solo is recomputed by enumerating every query's qualified
// buckets, independently of the engine's pairwise test, and every result
// must match the backend's serial Execute bit for bit at one and two
// worker threads, on every local backend kind, on sharded and degraded
// replicated composites, and on a migrating backend between copy chunks,
// after cutover, and with a cutover landing in the middle of a batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bucket.h"
#include "core/query.h"
#include "engine/query_engine.h"
#include "sim/composite_backend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/migration.h"
#include "sim/packed_backend.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "workload/record_gen.h"
#include "test_paths.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 23;
constexpr std::uint64_t kDevices = 8;
constexpr std::size_t kRecords = 300;

// 16 x 8 x 8 = 1,024 buckets, so queries pinned to a few buckets mostly
// share none.
Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 16},
                            {"tag", ValueType::kString, 8},
                            {"score", ValueType::kInt64, 8},
                        })
      .value();
}

std::vector<Record> MakeRecords() {
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  return gen.Take(kRecords);
}

/// The query that pins `fields` of `record` and wildcards the rest.
ValueQuery Pin(const Record& record, std::initializer_list<unsigned> fields) {
  ValueQuery query(record.size());
  for (unsigned f : fields) query[f] = record[f];
  return query;
}

std::vector<std::vector<ValueQuery>> TestBatches(
    const std::vector<Record>& records) {
  std::vector<ValueQuery> mixed = {
      // Two overlapping pairs: each pair shares its record's bucket.
      Pin(records[0], {0}),
      Pin(records[0], {1, 2}),
      Pin(records[1], {0, 1}),
      Pin(records[1], {1, 2}),
  };
  // One-bucket and eight-bucket queries, most of them sharing nothing.
  for (std::size_t i = 2; i < 10; ++i) {
    mixed.push_back(Pin(records[i], {0, 1, 2}));
  }
  for (std::size_t i = 10; i < 14; ++i) {
    mixed.push_back(Pin(records[i], {0, 2}));
  }
  // Duplicates of an overlapping and of a one-bucket query.
  mixed.push_back(mixed[0]);
  mixed.push_back(mixed[6]);
  mixed.push_back(mixed[6]);
  return {
      {Pin(records[20], {0, 1})},  // a lone query
      mixed,
  };
}

/// Qualified linear buckets of `query` on `backend`'s bucket space.
std::set<std::uint64_t> BucketsOf(const StorageBackend& backend,
                                  const ValueQuery& query) {
  const PartialMatchQuery hashed = backend.HashQuery(query).value();
  std::set<std::uint64_t> buckets;
  ForEachQualifiedBucket(backend.spec(), hashed, [&](const BucketId& b) {
    buckets.insert(LinearIndex(backend.spec(), b));
    return true;
  });
  return buckets;
}

/// How the engine must split `batch`, derived by enumeration.
struct ExpectedSplit {
  std::uint64_t solo = 0;
  std::uint64_t shared = 0;
  std::uint64_t solo_buckets = 0;    ///< sum of the solo queries' |R(q)|
  std::uint64_t shared_buckets = 0;  ///< |union of the shared R(q)|
};

ExpectedSplit SplitOf(const StorageBackend& backend,
                      const std::vector<ValueQuery>& batch) {
  std::vector<ValueQuery> distinct;
  for (const ValueQuery& q : batch) {
    if (std::find(distinct.begin(), distinct.end(), q) == distinct.end()) {
      distinct.push_back(q);
    }
  }
  std::vector<std::set<std::uint64_t>> buckets;
  for (const ValueQuery& q : distinct) buckets.push_back(BucketsOf(backend, q));
  ExpectedSplit split;
  std::set<std::uint64_t> shared_union;
  for (std::size_t a = 0; a < buckets.size(); ++a) {
    bool overlaps = false;
    for (std::size_t b = 0; b < buckets.size() && !overlaps; ++b) {
      if (a == b) continue;
      for (std::uint64_t linear : buckets[a]) {
        if (buckets[b].count(linear) > 0) {
          overlaps = true;
          break;
        }
      }
    }
    if (overlaps) {
      ++split.shared;
      shared_union.insert(buckets[a].begin(), buckets[a].end());
    } else {
      ++split.solo;
      split.solo_buckets += buckets[a].size();
    }
  }
  split.shared_buckets = shared_union.size();
  return split;
}

void ExpectSameResult(const QueryResult& engine, const QueryResult& serial,
                      const std::string& context) {
  EXPECT_EQ(engine.records, serial.records) << context;
  EXPECT_EQ(engine.stats.records_matched, serial.stats.records_matched)
      << context;
  EXPECT_EQ(engine.stats.records_examined, serial.stats.records_examined)
      << context;
  EXPECT_EQ(engine.stats.qualified_per_device,
            serial.stats.qualified_per_device)
      << context;
  EXPECT_EQ(engine.stats.total_qualified, serial.stats.total_qualified)
      << context;
  EXPECT_EQ(engine.stats.largest_response, serial.stats.largest_response)
      << context;
  EXPECT_EQ(engine.stats.optimal_bound, serial.stats.optimal_bound)
      << context;
  EXPECT_EQ(engine.stats.strict_optimal, serial.stats.strict_optimal)
      << context;
}

/// Runs every test batch through a fresh engine at 1 and 2 worker
/// threads: each result must match serial Execute, and the engine's
/// counters must show the split SplitOf derives.  `sparse` backends
/// plan only live buckets, so their scan counts are not compared.
void RunSplitDifferential(const StorageBackend& backend,
                          const std::vector<Record>& records, bool sparse,
                          const std::string& name) {
  ASSERT_FALSE(backend.ScanPrefersFanout()) << name;
  std::uint64_t solo_seen = 0, shared_seen = 0;
  for (const unsigned threads : {1u, 2u}) {
    for (const std::vector<ValueQuery>& batch : TestBatches(records)) {
      const std::string context = name + " threads=" +
                                  std::to_string(threads) + " batch of " +
                                  std::to_string(batch.size());
      const ExpectedSplit split = SplitOf(backend, batch);
      solo_seen += split.solo;
      shared_seen += split.shared;

      EngineOptions options;
      options.num_threads = threads;
      QueryEngine engine(backend, options);
      auto results = engine.ExecuteBatch(batch);
      ASSERT_TRUE(results.ok()) << context << ": "
                                << results.status().ToString();
      ASSERT_EQ(results->size(), batch.size()) << context;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ExpectSameResult((*results)[i], backend.Execute(batch[i]).value(),
                         context + " query #" + std::to_string(i));
      }

      const StatsSnapshot snap = engine.Snapshot();
      EXPECT_EQ(snap.solo_queries, split.solo) << context;
      EXPECT_EQ(snap.queries_completed, batch.size()) << context;
      EXPECT_EQ(snap.scan_many_calls,
                split.shared == 0 ? 0 : backend.num_devices())
          << context;
      if (!sparse) {
        EXPECT_EQ(snap.bucket_scans_performed,
                  split.solo_buckets + split.shared_buckets)
            << context;
        std::uint64_t gathered = 0;
        for (const DeviceStats& device : snap.devices) {
          gathered += device.bucket_scans;
        }
        EXPECT_EQ(gathered, split.shared_buckets) << context;
      }
    }
  }
  // Both paths ran on this backend.
  EXPECT_GT(solo_seen, 0u) << name;
  EXPECT_GT(shared_seen, 0u) << name;
}

template <typename Backend>
void Load(Backend& backend, const std::vector<Record>& records) {
  for (const Record& r : records) ASSERT_TRUE(backend.Insert(r).ok());
}

ParallelFile MakeFlat(const std::vector<Record>& records) {
  auto file =
      ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed).value();
  Load(file, records);
  return file;
}

TEST(EngineDifferentialSplitTest, FlatFileMatchesSerial) {
  const auto records = MakeRecords();
  const ParallelFile file = MakeFlat(records);
  RunSplitDifferential(file, records, false, "flat");
}

TEST(EngineDifferentialSplitTest, PagedFileMatchesSerial) {
  const auto records = MakeRecords();
  auto file =
      PagedParallelFile::Create(TestSchema(), kDevices, "fx-iu2", 3, kSeed)
          .value();
  Load(file, records);
  RunSplitDifferential(file, records, false, "paged");
}

TEST(EngineDifferentialSplitTest, SparseDynamicFileMatchesSerial) {
  const auto records = MakeRecords();
  // 2^11 provisioned buckets for 300 records: the engine's gather plans
  // only live buckets here.
  auto file = DynamicParallelFile::Create({{"id", ValueType::kInt64},
                                           {"tag", ValueType::kString},
                                           {"score", ValueType::kInt64}},
                                          kDevices, 256, PlanFamily::kIU2,
                                          kSeed, {5, 3, 3})
                  .value();
  Load(file, records);
  ASSERT_GT(file.spec().TotalBuckets(), 4 * file.num_records());
  RunSplitDifferential(file, records, true, "sparse dynamic");
}

TEST(EngineDifferentialSplitTest, PackedFileMatchesSerial) {
  const auto records = MakeRecords();
  const ParallelFile flat = MakeFlat(records);
  const std::string path = TestPath("engine_split.fxpk");
  ASSERT_TRUE(PackBackend(flat, path).ok());
  auto packed = PackedBackend::Open(path);
  std::remove(path.c_str());  // the open mapping keeps the inode alive
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  RunSplitDifferential(**packed, records, false, "packed");
}

TEST(EngineDifferentialSplitTest, ShardedCompositeMatchesSerial) {
  const auto records = MakeRecords();
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    children.push_back(std::make_unique<ParallelFile>(
        ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed)
            .value()));
  }
  auto sharded = ShardedBackend::Create(std::move(children)).value();
  Load(sharded, records);
  RunSplitDifferential(sharded, records, false, "sharded");
}

TEST(EngineDifferentialSplitTest, DegradedReplicatedCompositeMatchesSerial) {
  const auto records = MakeRecords();
  for (const auto placement :
       {ReplicaPlacement::kMirrored, ReplicaPlacement::kChained}) {
    auto replicated = MakeReplicatedFlat(TestSchema(), kDevices, "fx-iu2",
                                         placement, kSeed)
                          .value();
    Load(*replicated, records);
    ASSERT_TRUE(replicated->MarkDown(2).ok());
    ASSERT_TRUE(replicated->HasDegradedRouting());
    RunSplitDifferential(*replicated, records, false,
                         placement == ReplicaPlacement::kMirrored
                             ? "degraded mirrored"
                             : "degraded chained");
  }
}

std::unique_ptr<MigratingBackend> MakeMigrating(
    const std::vector<Record>& records) {
  auto wrapper = MigratingBackend::Create(std::make_unique<ParallelFile>(
                                              MakeFlat(records)))
                     .value();
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, 2 * kDevices, "fx-iu2").value();
  EXPECT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  return wrapper;
}

TEST(EngineDifferentialSplitTest, MigrationBetweenChunksAndAfterCutover) {
  const auto records = MakeRecords();
  auto wrapper = MakeMigrating(records);
  RunSplitDifferential(*wrapper, records, false, "before the first chunk");
  int chunks = 0;
  while (!wrapper->CopyDone()) {
    ASSERT_TRUE(wrapper->CopyChunk(200).ok());
    ++chunks;
    RunSplitDifferential(*wrapper, records, false,
                         "after chunk " + std::to_string(chunks));
  }
  EXPECT_GT(chunks, 1);
  ASSERT_TRUE(wrapper->Cutover().ok());
  RunSplitDifferential(*wrapper, records, false, "after cutover");
}

/// Forwards every call to `inner`, running `on_execute` before each
/// Execute; a non-OK status from it fails that Execute.
class ExecuteHookBackend final : public StorageBackend {
 public:
  ExecuteHookBackend(const StorageBackend& inner,
                     std::function<Status()> on_execute)
      : inner_(inner), on_execute_(std::move(on_execute)) {}

  std::string backend_name() const override { return inner_.backend_name(); }
  const FieldSpec& spec() const override { return inner_.spec(); }
  const DistributionMethod& method() const override {
    return inner_.method();
  }
  const DeviceMap& device_map() const override { return inner_.device_map(); }
  std::uint64_t num_records() const override { return inner_.num_records(); }
  Status Insert(Record) override {
    return Status::FailedPrecondition("read-only test wrapper");
  }
  Result<std::uint64_t> Delete(const ValueQuery&) override {
    return Status::FailedPrecondition("read-only test wrapper");
  }
  Result<PartialMatchQuery> HashQuery(const ValueQuery& query) const override {
    return inner_.HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return inner_.HashRecord(record);
  }
  std::uint64_t ServingDevice(std::uint64_t device,
                              std::uint64_t linear_bucket) const override {
    return inner_.ServingDevice(device, linear_bucket);
  }
  bool HasDegradedRouting() const override {
    return inner_.HasDegradedRouting();
  }
  Status Health() const override { return inner_.Health(); }
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override {
    return inner_.IsBucketLive(device, linear_bucket);
  }
  void ScanBucket(std::uint64_t device, std::uint64_t linear_bucket,
                  const std::function<bool(const Record&)>& fn)
      const override {
    inner_.ScanBucket(device, linear_bucket, fn);
  }
  void ScanMany(const std::vector<BucketRef>& refs,
                const std::function<bool(std::size_t, const Record&)>& fn)
      const override {
    inner_.ScanMany(refs, fn);
  }
  bool ScanPrefersFanout() const override {
    return inner_.ScanPrefersFanout();
  }
  std::uint64_t TopologyVersion() const override {
    return inner_.TopologyVersion();
  }
  Result<QueryResult> Execute(const ValueQuery& query) const override {
    FXDIST_RETURN_NOT_OK(on_execute_());
    return inner_.Execute(query);
  }
  std::vector<std::uint64_t> RecordCountsPerDevice() const override {
    return inner_.RecordCountsPerDevice();
  }
  void SaveParams(std::ostream& out) const override {
    inner_.SaveParams(out);
  }
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override {
    inner_.ForEachLiveRecord(fn);
  }

 private:
  const StorageBackend& inner_;
  const std::function<Status()> on_execute_;
};

// A cutover that lands while the batch's solo queries execute: the
// attempt is discarded and re-run, solo queries included, so every result
// still matches serial Execute on the new placement.
TEST(EngineDifferentialSplitTest, MigrationCutoverMidBatchRerunsSoloQueries) {
  const auto records = MakeRecords();
  const std::vector<ValueQuery> batch = TestBatches(records).back();
  for (const unsigned threads : {1u, 2u}) {
    const std::string context = "threads=" + std::to_string(threads);
    auto wrapper = MakeMigrating(records);
    while (!wrapper->CopyDone()) ASSERT_TRUE(wrapper->CopyChunk(200).ok());
    std::once_flag once;
    Status cut;
    const ExecuteHookBackend hooked(*wrapper, [&] {
      std::call_once(once, [&] { cut = wrapper->Cutover(); });
      return Status::OK();
    });
    const ExpectedSplit split = SplitOf(*wrapper, batch);
    ASSERT_GT(split.solo, 0u);

    EngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(hooked, options);
    auto results = engine.ExecuteBatch(batch);
    ASSERT_TRUE(cut.ok()) << context << ": " << cut.ToString();
    ASSERT_TRUE(results.ok()) << context << ": "
                              << results.status().ToString();
    EXPECT_EQ(wrapper->TopologyVersion(), 2u) << context;
    ASSERT_EQ(results->size(), batch.size()) << context;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const QueryResult serial = wrapper->Execute(batch[i]).value();
      ASSERT_EQ(serial.stats.qualified_per_device.size(), 2 * kDevices);
      ExpectSameResult((*results)[i], serial,
                       context + " query #" + std::to_string(i));
    }
    const StatsSnapshot snap = engine.Snapshot();
    EXPECT_EQ(snap.topology_retries, 1u) << context;
    EXPECT_EQ(snap.solo_queries, split.solo) << context;
    EXPECT_EQ(snap.queries_failed, 0u) << context;
  }
}

// A solo query whose Execute fails fails the whole batch, as a failed
// Health() after the gather does.
TEST(EngineDifferentialSplitTest, FailedSoloExecuteFailsTheBatch) {
  const auto records = MakeRecords();
  const ParallelFile file = MakeFlat(records);
  const ExecuteHookBackend failing(
      file, [] { return Status::Unavailable("shard lost"); });
  const std::vector<ValueQuery> batch = TestBatches(records).back();
  ASSERT_GT(SplitOf(file, batch).solo, 0u);
  for (const unsigned threads : {1u, 2u}) {
    EngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(failing, options);
    auto results = engine.ExecuteBatch(batch);
    ASSERT_FALSE(results.ok());
    EXPECT_EQ(results.status().code(), StatusCode::kUnavailable)
        << results.status().ToString();
    const StatsSnapshot snap = engine.Snapshot();
    EXPECT_EQ(snap.queries_failed, batch.size());
    EXPECT_EQ(snap.queries_completed, 0u);
    EXPECT_EQ(snap.solo_queries, 0u);
  }
}

}  // namespace
}  // namespace fxdist
