// StorageBackend contract tests: the three backends behind one base
// pointer, the v2 persistence round-trip (save any backend, load it
// back by kind token, get bit-identical query results), and the default
// Execute on a backend that implements only the required methods: its
// serial walk, its one-ScanMany gather for round-trip scans, its
// degraded-routing charge and both of its Health checks.

#include "sim/storage_backend.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/dynamic_parallel_file.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 11;

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

std::vector<Record> MakeRecords(std::size_t count) {
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  return gen.Take(count);
}

std::vector<ValueQuery> MakeQueries(const std::vector<Record>& records,
                                    std::size_t count) {
  auto gen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
  std::vector<ValueQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) queries.push_back(gen.Next());
  return queries;
}

void ExpectSameExecution(const StorageBackend& a, const StorageBackend& b,
                         const std::vector<ValueQuery>& queries,
                         const std::string& context) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto ra = a.Execute(queries[i]);
    auto rb = b.Execute(queries[i]);
    ASSERT_TRUE(ra.ok()) << context << " query " << i;
    ASSERT_TRUE(rb.ok()) << context << " query " << i;
    EXPECT_EQ(ra->records, rb->records) << context << " query " << i;
    EXPECT_EQ(ra->stats.records_matched, rb->stats.records_matched)
        << context << " query " << i;
    EXPECT_EQ(ra->stats.qualified_per_device,
              rb->stats.qualified_per_device)
        << context << " query " << i;
    EXPECT_EQ(ra->stats.largest_response, rb->stats.largest_response)
        << context << " query " << i;
  }
}

// One factory per backend kind so the round-trip test is uniform.
std::unique_ptr<StorageBackend> MakeBackend(const std::string& kind,
                                            const std::vector<Record>& data) {
  std::unique_ptr<StorageBackend> backend;
  if (kind == "flat") {
    backend = std::make_unique<ParallelFile>(
        ParallelFile::Create(TestSchema(), 8, "fx-iu2", kSeed).value());
  } else if (kind == "paged") {
    backend = std::make_unique<PagedParallelFile>(
        PagedParallelFile::Create(TestSchema(), 8, "fx-iu2", 3, kSeed)
            .value());
  } else {
    backend = std::make_unique<DynamicParallelFile>(
        DynamicParallelFile::Create({{"id", ValueType::kInt64},
                                     {"tag", ValueType::kString},
                                     {"score", ValueType::kInt64}},
                                    8, 4, PlanFamily::kIU2, kSeed)
            .value());
  }
  for (const Record& r : data) {
    EXPECT_TRUE(backend->Insert(r).ok());
  }
  return backend;
}

class StorageBackendTest : public testing::TestWithParam<std::string> {};

TEST_P(StorageBackendTest, NameMatchesKind) {
  const auto backend = MakeBackend(GetParam(), {});
  EXPECT_EQ(backend->backend_name(), GetParam());
}

TEST_P(StorageBackendTest, SaveLoadRoundTripIsBitIdentical) {
  const auto data = MakeRecords(300);
  const auto queries = MakeQueries(data, 40);
  const auto backend = MakeBackend(GetParam(), data);

  const std::string path =
      testing::TempDir() + "/backend_" + GetParam() + ".fxdist";
  ASSERT_TRUE(SaveBackend(*backend, path).ok());
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->backend_name(), GetParam());
  EXPECT_EQ((*loaded)->num_records(), backend->num_records());
  EXPECT_EQ((*loaded)->RecordCountsPerDevice(),
            backend->RecordCountsPerDevice());
  ExpectSameExecution(*backend, **loaded, queries, GetParam());
  std::remove(path.c_str());
}

TEST_P(StorageBackendTest, ScanBucketCoversEveryMatch) {
  // Summing ScanBucket visits over every qualified bucket of the
  // whole-file query must see exactly the live records.
  const auto data = MakeRecords(200);
  const auto backend = MakeBackend(GetParam(), data);
  const ValueQuery whole(3);
  const PartialMatchQuery hashed = backend->HashQuery(whole).value();
  std::uint64_t seen = 0;
  for (std::uint64_t d = 0; d < backend->num_devices(); ++d) {
    backend->device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&](std::uint64_t linear) {
          backend->ScanBucket(d, linear, [&](const Record&) {
            ++seen;
            return true;
          });
          return true;
        });
  }
  EXPECT_EQ(seen, backend->num_records());
}

TEST_P(StorageBackendTest, DefaultVirtualsReportMutableStableBackend) {
  const auto data = MakeRecords(50);
  const auto backend = MakeBackend(GetParam(), data);
  EXPECT_TRUE(backend->ScanRecordsAreStable());
  EXPECT_FALSE(backend->IsReadOnly());
  EXPECT_EQ(backend->FieldTypes(),
            (std::vector<ValueType>{ValueType::kInt64, ValueType::kString,
                                    ValueType::kInt64}));
  // ApproxMemoryBytes must at least account for the stored payloads.
  EXPECT_GT(backend->ApproxMemoryBytes(), 50 * sizeof(Record));
}

TEST_P(StorageBackendTest, ScanManyFalseCancelsWholeScatter) {
  // The contract: fn returning false abandons not just the current
  // bucket but every remaining ref of the scatter.
  const auto data = MakeRecords(200);
  const auto backend = MakeBackend(GetParam(), data);
  const PartialMatchQuery hashed = backend->HashQuery(ValueQuery(3)).value();
  std::vector<BucketRef> refs;
  for (std::uint64_t d = 0; d < backend->num_devices(); ++d) {
    backend->device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&refs, d](std::uint64_t linear) {
          refs.push_back({d, linear});
          return true;
        });
  }
  ASSERT_GT(refs.size(), 1u);

  // Cancel on the very first record: exactly one delivery.
  std::size_t delivered = 0;
  backend->ScanMany(refs, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return false;
  });
  EXPECT_EQ(delivered, 1u);

  // Cancel midway: deliveries stop at the limit even though later refs
  // still hold records.
  const std::size_t limit = backend->num_records() / 2;
  delivered = 0;
  backend->ScanMany(refs, [&delivered, limit](std::size_t, const Record&) {
    ++delivered;
    return delivered < limit;
  });
  EXPECT_EQ(delivered, limit);
}

INSTANTIATE_TEST_SUITE_P(Kinds, StorageBackendTest,
                         testing::Values("flat", "paged", "dynamic"));

TEST(StorageBackendDeleteTest, FlatAndPagedDeleteDynamicRefuses) {
  const auto data = MakeRecords(120);
  for (const std::string kind : {"flat", "paged"}) {
    const auto backend = MakeBackend(kind, data);
    auto removed = backend->Delete(ValueQuery(3));
    ASSERT_TRUE(removed.ok()) << kind;
    EXPECT_EQ(*removed, 120u) << kind;
    EXPECT_EQ(backend->num_records(), 0u) << kind;
  }
  const auto dynamic = MakeBackend("dynamic", data);
  auto removed = dynamic->Delete(ValueQuery(3));
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kUnimplemented)
      << removed.status().ToString();
  EXPECT_EQ(dynamic->num_records(), 120u);
}

// Implements only what StorageBackend requires (plus a settable
// Health), forwarding to a flat file, so Execute is the base class's
// default: ExecuteSerial over ScanBucket.
class DefaultOnlyBackend : public StorageBackend {
 public:
  explicit DefaultOnlyBackend(const ParallelFile& file) : file_(file) {}

  /// Health() reports `health` once `after_scans` buckets were scanned.
  void set_health(Status health, std::uint64_t after_scans = 0) {
    health_ = std::move(health);
    health_after_scans_ = after_scans;
  }
  std::uint64_t scans() const { return scans_; }

  std::string backend_name() const override { return "default-only"; }
  const FieldSpec& spec() const override { return file_.spec(); }
  const DistributionMethod& method() const override {
    return file_.method();
  }
  const DeviceMap& device_map() const override { return file_.device_map(); }
  std::uint64_t num_records() const override { return file_.num_records(); }
  Status Insert(Record) override {
    return Status::Unimplemented("read-only test backend");
  }
  Result<std::uint64_t> Delete(const ValueQuery&) override {
    return Status::Unimplemented("read-only test backend");
  }
  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return file_.HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return file_.HashRecord(record);
  }
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override {
    ++scans_;
    file_.ScanBucket(device, linear_bucket, fn);
  }
  std::vector<std::uint64_t> RecordCountsPerDevice() const override {
    return file_.RecordCountsPerDevice();
  }
  void SaveParams(std::ostream& out) const override { file_.SaveParams(out); }
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override {
    file_.ForEachLiveRecord(fn);
  }
  Status Health() const override {
    return scans_ >= health_after_scans_ ? health_ : Status::OK();
  }

 private:
  const ParallelFile& file_;
  Status health_;
  std::uint64_t health_after_scans_ = 0;
  mutable std::uint64_t scans_ = 0;
};

// Scans that are round trips: Execute must collect the qualified
// buckets and gather them with one ScanMany.
class RoundTripBackend final : public DefaultOnlyBackend {
 public:
  using DefaultOnlyBackend::DefaultOnlyBackend;

  std::uint64_t scan_many_calls() const { return scan_many_calls_; }

  bool ScanPrefersFanout() const override { return true; }
  void ScanMany(const std::vector<BucketRef>& refs,
                const std::function<bool(std::size_t, const Record&)>& fn)
      const override {
    ++scan_many_calls_;
    StorageBackend::ScanMany(refs, fn);
  }

 private:
  mutable std::uint64_t scan_many_calls_ = 0;
};

// Serves every bucket from the next device over, as a replica would
// while its placed device is down.
class RotatingBackend final : public DefaultOnlyBackend {
 public:
  using DefaultOnlyBackend::DefaultOnlyBackend;

  void set_degraded(bool degraded) { degraded_ = degraded; }

  std::uint64_t ServingDevice(std::uint64_t device,
                              std::uint64_t) const override {
    return (device + 1) % num_devices();
  }
  bool HasDegradedRouting() const override { return degraded_; }

 private:
  bool degraded_ = false;
};

ParallelFile LoadedFile(const std::vector<Record>& data,
                        const std::string& method = "fx-iu2") {
  auto file = ParallelFile::Create(TestSchema(), 8, method, kSeed).value();
  for (const Record& r : data) EXPECT_TRUE(file.Insert(r).ok());
  return file;
}

TEST(DefaultExecuteTest, MatchesTheFlatFileBitForBit) {
  const auto data = MakeRecords(400);
  auto file = ParallelFile::Create(TestSchema(), 8, "fx-iu2", kSeed).value();
  for (const Record& r : data) ASSERT_TRUE(file.Insert(r).ok());
  const DefaultOnlyBackend backend(file);

  std::vector<ValueQuery> queries = MakeQueries(data, 60);
  queries.push_back(ValueQuery(3));  // all wildcards
  for (std::size_t i = 0; i < 10; ++i) {
    const Record& r = data[i * 37];
    queries.push_back({r[0], r[1], r[2]});  // fully specified
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto want = file.Execute(queries[i]);
    auto got = backend.Execute(queries[i]);
    ASSERT_TRUE(want.ok()) << "query " << i;
    ASSERT_TRUE(got.ok()) << "query " << i;
    const QueryStats& a = want->stats;
    const QueryStats& b = got->stats;
    EXPECT_EQ(got->records, want->records) << "query " << i;
    EXPECT_EQ(b.qualified_per_device, a.qualified_per_device) << i;
    EXPECT_EQ(b.total_qualified, a.total_qualified) << i;
    EXPECT_EQ(b.largest_response, a.largest_response) << i;
    EXPECT_EQ(b.optimal_bound, a.optimal_bound) << i;
    EXPECT_EQ(b.strict_optimal, a.strict_optimal) << i;
    EXPECT_EQ(b.records_examined, a.records_examined) << i;
    EXPECT_EQ(b.records_matched, a.records_matched) << i;
    EXPECT_EQ(b.disk_timing.parallel_ms, a.disk_timing.parallel_ms) << i;
    EXPECT_EQ(b.disk_timing.serial_ms, a.disk_timing.serial_ms) << i;
    EXPECT_EQ(b.disk_timing.speedup, a.disk_timing.speedup) << i;
    EXPECT_EQ(b.device_wall_ms.size(), 8u) << i;
  }
  EXPECT_GT(backend.scans(), 0u);
}

TEST(DefaultExecuteTest, UnhealthyBackendFailsBeforeScanning) {
  const auto data = MakeRecords(50);
  auto file = ParallelFile::Create(TestSchema(), 8, "fx-iu2", kSeed).value();
  for (const Record& r : data) ASSERT_TRUE(file.Insert(r).ok());
  DefaultOnlyBackend backend(file);
  backend.set_health(Status::Unavailable("storage went away"));

  auto result = backend.Execute(ValueQuery(3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.status().message(), "storage went away");
  EXPECT_EQ(backend.scans(), 0u);
}

TEST(DefaultExecuteTest, MatchesTheFlatFileForEveryMethod) {
  const auto data = MakeRecords(300);
  std::vector<ValueQuery> queries = MakeQueries(data, 20);
  queries.push_back(ValueQuery(3));
  for (const char* method : {"fx-iu1", "modulo", "gdm1", "random"}) {
    const ParallelFile file = LoadedFile(data, method);
    const DefaultOnlyBackend backend(file);
    ExpectSameExecution(file, backend, queries, method);
  }
}

TEST(DefaultExecuteTest, RoundTripScansGatherInOneScanMany) {
  const auto data = MakeRecords(400);
  const ParallelFile file = LoadedFile(data);
  const RoundTripBackend backend(file);

  std::vector<ValueQuery> queries = MakeQueries(data, 30);
  queries.push_back(ValueQuery(3));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto want = file.Execute(queries[i]);
    auto got = backend.Execute(queries[i]);
    ASSERT_TRUE(want.ok()) << "query " << i;
    ASSERT_TRUE(got.ok()) << "query " << i;
    EXPECT_EQ(backend.scan_many_calls(), i + 1) << "query " << i;
    EXPECT_EQ(got->records, want->records) << "query " << i;
    EXPECT_EQ(got->stats.records_examined, want->stats.records_examined)
        << i;
    EXPECT_EQ(got->stats.records_matched, want->stats.records_matched) << i;
    EXPECT_EQ(got->stats.qualified_per_device,
              want->stats.qualified_per_device)
        << i;
    EXPECT_EQ(got->stats.largest_response, want->stats.largest_response)
        << i;
    EXPECT_EQ(got->stats.optimal_bound, want->stats.optimal_bound) << i;
    // The gather is not attributable to devices.
    EXPECT_EQ(got->stats.device_wall_ms, std::vector<double>(8, 0.0)) << i;
  }
}

TEST(DefaultExecuteTest, DegradedRoutingChargesTheServingDevice) {
  const auto data = MakeRecords(300);
  const ParallelFile file = LoadedFile(data);
  RotatingBackend backend(file);
  const std::vector<ValueQuery> queries = MakeQueries(data, 20);

  // ServingDevice is consulted only while routing is degraded.
  ExpectSameExecution(file, backend, queries, "healthy routing");

  backend.set_degraded(true);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult want = file.Execute(queries[i]).value();
    const QueryResult got = backend.Execute(queries[i]).value();
    EXPECT_EQ(got.records, want.records) << "query " << i;
    const std::vector<std::uint64_t>& placed =
        want.stats.qualified_per_device;
    std::vector<std::uint64_t> served(placed.size(), 0);
    for (std::size_t d = 0; d < placed.size(); ++d) {
      served[(d + 1) % placed.size()] = placed[d];
    }
    EXPECT_EQ(got.stats.qualified_per_device, served) << "query " << i;
    EXPECT_EQ(got.stats.total_qualified, want.stats.total_qualified) << i;
  }
}

TEST(DefaultExecuteTest, HealthLostMidWalkFailsTheQuery) {
  // ScanBucket cannot report a failure, so storage lost after the first
  // bucket must surface from Execute instead of partial results.
  const auto data = MakeRecords(200);
  const ParallelFile file = LoadedFile(data);
  DefaultOnlyBackend backend(file);
  backend.set_health(Status::Unavailable("shard lost mid-walk"),
                     /*after_scans=*/1);

  auto result = backend.Execute(ValueQuery(3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.status().message(), "shard lost mid-walk");
  EXPECT_GE(backend.scans(), 1u);  // the first check passed; the walk ran
}

TEST(StorageBackendPersistenceTest, UnknownKindRejected) {
  const std::string path = testing::TempDir() + "/unknown_kind.fxdist";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("fxdist-backend v2\nkind tape\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadBackend(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fxdist
