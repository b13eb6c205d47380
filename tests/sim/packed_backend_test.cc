// PackedBackend differential wall: a packed file must be observationally
// identical to the flat backend it was packed from — same records, same
// QueryStats bit for bit, same ScanBucket/ScanMany delivery order —
// across device counts, record counts (empty file and single-bucket
// devices included), both write paths (PackBackend from a live backend
// and PackedBuilder::Create + Add), buckets far larger than any other,
// sharded composition, and concurrent readers.

#include "sim/packed_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "sim/composite_backend.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"
#include "test_paths.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 23;

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

std::vector<Record> MakeRecords(std::size_t count) {
  if (count == 0) return {};
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  return gen.Take(count);
}

std::vector<ValueQuery> MakeQueries(const std::vector<Record>& records,
                                    std::size_t count) {
  std::vector<ValueQuery> queries;
  // Always exercise the whole-file wildcard and a literal miss.
  queries.emplace_back(3);
  ValueQuery miss(3);
  miss[0] = FieldValue{std::int64_t{-9999}};
  queries.push_back(std::move(miss));
  if (!records.empty()) {
    auto gen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
    for (std::size_t i = 0; i < count; ++i) queries.push_back(gen.Next());
  }
  return queries;
}

ParallelFile MakeFlat(std::uint64_t num_devices,
                      const std::vector<Record>& records) {
  auto file =
      ParallelFile::Create(TestSchema(), num_devices, "fx-iu2", kSeed)
          .value();
  for (const Record& r : records) {
    EXPECT_TRUE(file.Insert(r).ok());
  }
  return file;
}

std::string TempPath(const std::string& name) {
  return TestPath(name + ".fxpk");
}

std::unique_ptr<PackedBackend> PackAndOpen(const StorageBackend& source,
                                           const std::string& name,
                                           PackedOptions options = {}) {
  const std::string path = TempPath(name);
  auto written = PackBackend(source, path);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, source.num_records());
  auto opened = PackedBackend::Open(path, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::remove(path.c_str());  // the open mapping keeps the inode alive
  return *std::move(opened);
}

/// Full-stats equality: everything solo Execute reports except wall
/// clocks must match bit for bit.
void ExpectSameStats(const QueryStats& a, const QueryStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.qualified_per_device, b.qualified_per_device) << context;
  EXPECT_EQ(a.total_qualified, b.total_qualified) << context;
  EXPECT_EQ(a.largest_response, b.largest_response) << context;
  EXPECT_EQ(a.optimal_bound, b.optimal_bound) << context;
  EXPECT_EQ(a.strict_optimal, b.strict_optimal) << context;
  EXPECT_EQ(a.records_examined, b.records_examined) << context;
  EXPECT_EQ(a.records_matched, b.records_matched) << context;
}

void ExpectSameExecution(const StorageBackend& flat,
                         const StorageBackend& packed,
                         const std::vector<ValueQuery>& queries,
                         const std::string& context) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string where = context + " query " + std::to_string(i);
    auto rf = flat.Execute(queries[i]);
    auto rp = packed.Execute(queries[i]);
    ASSERT_TRUE(rf.ok()) << where << ": " << rf.status().ToString();
    ASSERT_TRUE(rp.ok()) << where << ": " << rp.status().ToString();
    EXPECT_EQ(rf->records, rp->records) << where;
    ExpectSameStats(rf->stats, rp->stats, where);
  }
}

/// Every (device, linear) bucket pair of the whole-file query, in plan
/// order — the refs both backends must deliver identically.
std::vector<BucketRef> AllBuckets(const StorageBackend& backend) {
  const PartialMatchQuery hashed =
      backend.HashQuery(ValueQuery(3)).value();
  std::vector<BucketRef> refs;
  for (std::uint64_t d = 0; d < backend.num_devices(); ++d) {
    backend.device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&refs, d](std::uint64_t linear) {
          refs.push_back({d, linear});
          return true;
        });
  }
  return refs;
}

using Delivery = std::vector<std::pair<std::size_t, Record>>;

Delivery GatherScanMany(const StorageBackend& backend,
                        const std::vector<BucketRef>& refs) {
  Delivery out;
  backend.ScanMany(refs, [&out](std::size_t s, const Record& record) {
    out.emplace_back(s, record);
    return true;
  });
  return out;
}

struct DifferentialCase {
  std::uint64_t num_devices;
  std::size_t num_records;
};

class PackedDifferentialTest
    : public testing::TestWithParam<DifferentialCase> {};

TEST_P(PackedDifferentialTest, MatchesFlatBitForBit) {
  const auto [num_devices, num_records] = GetParam();
  const std::string context = "M=" + std::to_string(num_devices) + " n=" +
                              std::to_string(num_records);
  const auto records = MakeRecords(num_records);
  const auto queries = MakeQueries(records, 25);
  const ParallelFile flat = MakeFlat(num_devices, records);
  const auto packed = PackAndOpen(
      flat, "diff_m" + std::to_string(num_devices) + "_n" +
                std::to_string(num_records));

  EXPECT_EQ(packed->backend_name(), "packed");
  EXPECT_EQ(packed->source_kind(), "flat");
  EXPECT_EQ(packed->num_records(), flat.num_records());
  EXPECT_EQ(packed->RecordCountsPerDevice(), flat.RecordCountsPerDevice());
  EXPECT_EQ(packed->FieldTypes(), flat.FieldTypes());
  EXPECT_EQ(packed->spec().ToString(), flat.spec().ToString());

  ExpectSameExecution(flat, *packed, queries, context);

  const std::vector<BucketRef> refs = AllBuckets(flat);
  EXPECT_EQ(GatherScanMany(flat, refs), GatherScanMany(*packed, refs))
      << context;

  // IsBucketLive agrees bucket by bucket.
  for (const BucketRef& ref : refs) {
    EXPECT_EQ(packed->IsBucketLive(ref.device, ref.linear_bucket),
              flat.IsBucketLive(ref.device, ref.linear_bucket))
        << context << " bucket (" << ref.device << ", " << ref.linear_bucket
        << ")";
  }
  EXPECT_TRUE(packed->Health().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedDifferentialTest,
    testing::Values(DifferentialCase{1, 0}, DifferentialCase{1, 17},
                    DifferentialCase{2, 1}, DifferentialCase{2, 500},
                    DifferentialCase{4, 0}, DifferentialCase{4, 17},
                    DifferentialCase{8, 1}, DifferentialCase{8, 500}),
    [](const testing::TestParamInfo<DifferentialCase>& p) {
      return "M" + std::to_string(p.param.num_devices) + "n" +
             std::to_string(p.param.num_records);
    });

TEST(PackedBackendTest, VerifyAllChecksumsAcceptsHealthyFile) {
  const auto records = MakeRecords(64);
  const ParallelFile flat = MakeFlat(2, records);
  PackedOptions options;
  options.verify_all_checksums = true;
  const auto packed = PackAndOpen(flat, "verify_all", options);
  ExpectSameExecution(flat, *packed, MakeQueries(records, 10),
                      "verify-all");
}

TEST(PackedBackendTest, InsertAndDeleteAreFailedPrecondition) {
  const auto records = MakeRecords(10);
  const ParallelFile flat = MakeFlat(2, records);
  auto packed = PackAndOpen(flat, "read_only");
  EXPECT_TRUE(packed->IsReadOnly());
  EXPECT_FALSE(packed->ScanRecordsAreStable());

  auto insert = packed->Insert(records.front());
  EXPECT_EQ(insert.code(), StatusCode::kFailedPrecondition)
      << insert.ToString();
  auto removed = packed->Delete(ValueQuery(3));
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kFailedPrecondition);
  // A refused mutation must not disturb the data.
  EXPECT_EQ(packed->num_records(), 10u);
  EXPECT_TRUE(packed->Health().ok());
}

TEST(PackedBackendTest, SaveLoadUnpacksToSourceKind) {
  const auto records = MakeRecords(80);
  const auto queries = MakeQueries(records, 15);
  const ParallelFile flat = MakeFlat(4, records);
  const auto packed = PackAndOpen(flat, "unpack_src");

  const std::string path = TempPath("unpack_saved");
  ASSERT_TRUE(SaveBackend(*packed, path).ok());
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  // The load "unpacks": the reconstructed backend is the mutable source
  // kind, holding the same records in the same placement.
  EXPECT_EQ((*loaded)->backend_name(), "flat");
  EXPECT_EQ((*loaded)->num_records(), packed->num_records());
  ExpectSameExecution(**loaded, *packed, queries, "unpacked");
}

TEST(PackedBackendTest, PerDeviceShardsComposeIntoSharded) {
  const std::uint64_t num_devices = 4;
  const auto records = MakeRecords(220);
  const auto queries = MakeQueries(records, 20);
  const ParallelFile flat = MakeFlat(num_devices, records);

  // One packed file per device (only_device filter), composed back into
  // a ShardedBackend: the read-only children arrive full, which Create
  // must accept.
  std::vector<std::unique_ptr<StorageBackend>> children;
  std::uint64_t sharded_total = 0;
  for (std::uint64_t d = 0; d < num_devices; ++d) {
    const std::string path = TempPath("shard_dev" + std::to_string(d));
    auto written = PackBackend(flat, path, d);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    sharded_total += *written;
    auto opened = PackedBackend::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::remove(path.c_str());
    children.push_back(*std::move(opened));
  }
  EXPECT_EQ(sharded_total, flat.num_records());

  auto sharded = ShardedBackend::Create(std::move(children));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->num_records(), flat.num_records());
  EXPECT_EQ(sharded->RecordCountsPerDevice(),
            flat.RecordCountsPerDevice());
  ExpectSameExecution(flat, *sharded, queries, "packed shards");
  // The composite inherits the children's instability and read-only
  // refusal.
  EXPECT_FALSE(sharded->ScanRecordsAreStable());
  EXPECT_EQ(sharded->Insert(records.front()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PackedBackendTest, ScanManyFalseCancelsWholeScatter) {
  const auto records = MakeRecords(150);
  const ParallelFile flat = MakeFlat(2, records);
  const auto packed = PackAndOpen(flat, "cancel");
  const std::vector<BucketRef> refs = AllBuckets(flat);
  ASSERT_GT(refs.size(), 1u);
  std::size_t delivered = 0;
  packed->ScanMany(refs, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return false;
  });
  EXPECT_EQ(delivered, 1u);
}

TEST(PackedBackendTest, ApproxMemoryStaysUnderHalfOfFlat) {
  // Large enough that record payloads dominate the per-bucket
  // directory floor and the resident mapped pages.
  const auto records = MakeRecords(4000);
  const ParallelFile flat = MakeFlat(4, records);
  const auto packed = PackAndOpen(flat, "memory");
  // Touch everything so the mapping is warm.
  for (const ValueQuery& q : MakeQueries(records, 10)) {
    (void)packed->Execute(q);
  }
  // The resident cost must stay well under the flat backend's: decoded
  // records live only for the scan that decoded them.
  EXPECT_LT(packed->ApproxMemoryBytes(), flat.ApproxMemoryBytes() / 2);
}

// -- Builder-path differential ----------------------------------------------

/// `big` records that all hash to one bucket, interleaved in arrival
/// order with `others` records from elsewhere — a bucket far larger than
/// any other, whose records arrive between everyone else's.
std::vector<Record> RecordsWithBigBucket(const StorageBackend& router,
                                         std::size_t big,
                                         std::size_t others) {
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed + 7).value();
  std::vector<Record> in_bucket = {gen.Next()};
  const BucketId target = router.HashRecord(in_bucket.front()).value();
  std::vector<Record> rest;
  while (in_bucket.size() < big || rest.size() < others) {
    Record record = gen.Next();
    const bool hit = router.HashRecord(record).value() == target;
    std::vector<Record>& pile = hit ? in_bucket : rest;
    if (pile.size() < (hit ? big : others)) pile.push_back(std::move(record));
  }
  std::vector<Record> arrival;
  std::size_t b = 0, r = 0;
  while (b < in_bucket.size() || r < rest.size()) {
    if (b < in_bucket.size()) arrival.push_back(in_bucket[b++]);
    if (b < in_bucket.size()) arrival.push_back(in_bucket[b++]);
    if (r < rest.size()) arrival.push_back(rest[r++]);
  }
  return arrival;
}

struct BuilderCase {
  std::uint64_t num_devices;
  std::size_t big_bucket;  ///< records in the one oversized bucket
  std::size_t others;      ///< records spread by the generator
  bool empty_device;       ///< whether some device ends up holding none
};

class PackedBuilderDifferentialTest
    : public testing::TestWithParam<BuilderCase> {};

// The streaming write path (PackedBuilder::Create + Add, as the serving
// benchmark and any record-at-a-time writer use it) against
// ParallelFile::Create with the same schema, M, method and seed fed the
// same arrival-ordered records: the image must be indistinguishable
// from the flat file, and so must per-device images cut from that file.
TEST_P(PackedBuilderDifferentialTest, BuilderPathMatchesFlatBitForBit) {
  const auto [num_devices, big_bucket, others, empty_device] = GetParam();
  const std::string context = "M=" + std::to_string(num_devices) +
                              " big=" + std::to_string(big_bucket) +
                              " others=" + std::to_string(others);
  ParallelFile flat =
      ParallelFile::Create(TestSchema(), num_devices, "fx-iu2", kSeed)
          .value();
  const std::vector<Record> records =
      RecordsWithBigBucket(flat, big_bucket, others);
  for (const Record& r : records) ASSERT_TRUE(flat.Insert(r).ok());

  const std::string path = TempPath("builder_m" +
                                    std::to_string(num_devices) + "_big" +
                                    std::to_string(big_bucket));
  auto builder =
      PackedBuilder::Create(TestSchema(), num_devices, "fx-iu2", kSeed, path);
  ASSERT_TRUE(builder.ok()) << builder.status().ToString();
  for (const Record& r : records) ASSERT_TRUE(builder->Add(r).ok());
  EXPECT_EQ(builder->records_added(), records.size());
  ASSERT_TRUE(builder->Finish().ok());
  EXPECT_EQ(builder->Add(records.front()).code(),
            StatusCode::kFailedPrecondition);
  auto opened = PackedBackend::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::remove(path.c_str());
  const PackedBackend& packed = **opened;

  // The case's shape: one bucket holds `big_bucket` records, and some
  // device holds none exactly when the case says so.
  const std::vector<BucketRef> refs = AllBuckets(flat);
  std::size_t largest = 0;
  for (const BucketRef& ref : refs) {
    std::size_t held = 0;
    flat.ScanBucket(ref.device, ref.linear_bucket, [&held](const Record&) {
      ++held;
      return true;
    });
    largest = std::max(largest, held);
  }
  EXPECT_EQ(largest, big_bucket) << context;
  const std::vector<std::uint64_t> per_device = flat.RecordCountsPerDevice();
  EXPECT_EQ(std::count(per_device.begin(), per_device.end(), 0u) > 0,
            empty_device)
      << context;

  EXPECT_EQ(packed.num_records(), flat.num_records());
  EXPECT_EQ(packed.RecordCountsPerDevice(), per_device);
  EXPECT_EQ(packed.spec().ToString(), flat.spec().ToString());
  std::vector<ValueQuery> queries = MakeQueries(records, 25);
  ValueQuery in_big(3);  // names the big bucket's first record exactly
  in_big[0] = records.front()[0];
  in_big[1] = records.front()[1];
  queries.push_back(in_big);
  ExpectSameExecution(flat, packed, queries, context + " builder");
  EXPECT_EQ(GatherScanMany(flat, refs), GatherScanMany(packed, refs))
      << context;

  // Per-device shards cut from the same records (empty devices included)
  // compose back into the same file.
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < num_devices; ++d) {
    const std::string shard_path = TempPath(
        "builder_shard_m" + std::to_string(num_devices) + "_" +
        std::to_string(d));
    auto written = PackBackend(flat, shard_path, d);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(*written, per_device[d]) << context << " device " << d;
    auto shard = PackedBackend::Open(shard_path);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    std::remove(shard_path.c_str());
    children.push_back(*std::move(shard));
  }
  auto sharded = ShardedBackend::Create(std::move(children));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameExecution(flat, *sharded, queries, context + " shards");
  EXPECT_EQ(GatherScanMany(flat, refs), GatherScanMany(*sharded, refs))
      << context;
  EXPECT_TRUE(packed.Health().ok());
  EXPECT_TRUE(sharded->Health().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedBuilderDifferentialTest,
    testing::Values(BuilderCase{4, 1200, 300, false},
                    BuilderCase{8, 40, 2, true}),
    [](const testing::TestParamInfo<BuilderCase>& p) {
      return "M" + std::to_string(p.param.num_devices) + "big" +
             std::to_string(p.param.big_bucket);
    });

// Suite name keyed into the TSan CI filter: concurrent const scans
// decode into per-scan buffers, share only the immutable mapping and
// the poison flag, and must be race-free.
TEST(PackedConcurrentScanTest, ParallelReadersSeeIdenticalResults) {
  const auto records = MakeRecords(300);
  const auto queries = MakeQueries(records, 12);
  const ParallelFile flat = MakeFlat(4, records);
  const auto packed = PackAndOpen(flat, "concurrent");

  std::vector<QueryResult> expected;
  for (const ValueQuery& q : queries) {
    expected.push_back(flat.Execute(q).value());
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  // Not vector<bool>: adjacent bits share a byte and the per-thread
  // writes would race.
  std::vector<char> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      bool all_match = true;
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          auto result = packed->Execute(queries[i]);
          if (!result.ok() || result->records != expected[i].records ||
              result->stats.records_matched !=
                  expected[i].stats.records_matched) {
            all_match = false;
          }
        }
      }
      ok[static_cast<std::size_t>(t)] = all_match;
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << "thread " << t;
  }
  EXPECT_TRUE(packed->Health().ok());
}

// Suite name keyed into the TSan CI filter: the engine's shared sweep
// over an unstable-scan backend copies records instead of keeping
// pointers into a scan's decoded block, which dies with the scan.
TEST(PackedEngineTest, BatchedResultsMatchFlatSerial) {
  const auto records = MakeRecords(400);
  const auto queries = MakeQueries(records, 60);
  const ParallelFile flat = MakeFlat(4, records);
  const auto packed = PackAndOpen(flat, "engine");

  EngineOptions engine_options;
  QueryEngine engine(*packed, engine_options);
  auto batched = engine.ExecuteBatch(queries);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto serial = flat.Execute(queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batched)[i].records, serial->records) << "query " << i;
    ExpectSameStats((*batched)[i].stats, serial->stats,
                    "query " + std::to_string(i));
  }
}

}  // namespace
}  // namespace fxdist
