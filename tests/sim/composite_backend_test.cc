// Composite serving-plane tests: ShardedBackend and ReplicatedBackend
// behind the StorageBackend contract.
//
// The load-bearing claims: a sharded composite answers bit-identically
// to the monolithic backend of its child kind; a replicated composite
// answers bit-identically while healthy, keeps every record reachable
// with any one device down, refuses failures that would lose both
// copies, and reports honest degraded QueryStats; and persistence v3
// round-trips both composites including down-device state.

#include "sim/composite_backend.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"
#include "test_paths.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::uint64_t kDevices = 8;

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

// One empty child per device.  The dynamic children are provisioned at
// depths matching the static schema's directory sizes {8,4,4} and a
// page capacity the test workloads never split, so the frozen composite
// plane holds.
std::unique_ptr<StorageBackend> MakeChild(const std::string& kind) {
  if (kind == "flat") {
    return std::make_unique<ParallelFile>(
        ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed)
            .value());
  }
  if (kind == "paged") {
    return std::make_unique<PagedParallelFile>(
        PagedParallelFile::Create(TestSchema(), kDevices, "fx-iu2", 3,
                                  kSeed)
            .value());
  }
  return std::make_unique<DynamicParallelFile>(
      DynamicParallelFile::Create({{"id", ValueType::kInt64},
                                   {"tag", ValueType::kString},
                                   {"score", ValueType::kInt64}},
                                  kDevices, 256, PlanFamily::kIU2, kSeed,
                                  {3, 2, 2})
          .value());
}

std::unique_ptr<StorageBackend> MakeShardedOf(const std::string& kind) {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    children.push_back(MakeChild(kind));
  }
  auto sharded = ShardedBackend::Create(std::move(children));
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::make_unique<ShardedBackend>(*std::move(sharded));
}

// The monolithic backend a sharded(kind) composite must match.  The
// dynamic counterpart uses the same provisioned depths so both sides
// share one bucket space.
std::unique_ptr<StorageBackend> MakeMonolithic(const std::string& kind) {
  return MakeChild(kind);
}

class CompositeBackendTest : public testing::TestWithParam<std::string> {};

TEST_P(CompositeBackendTest, ShardedMatchesMonolithic) {
  const auto data = MakeRecords(400);
  const auto queries = MakeQueries(data, 60);
  auto mono = MakeMonolithic(GetParam());
  auto sharded = MakeShardedOf(GetParam());
  for (const Record& r : data) {
    ASSERT_TRUE(mono->Insert(r).ok());
    ASSERT_TRUE(sharded->Insert(r).ok());
  }
  EXPECT_EQ(sharded->backend_name(), "sharded");
  EXPECT_EQ(sharded->num_records(), mono->num_records());
  EXPECT_EQ(sharded->RecordCountsPerDevice(),
            mono->RecordCountsPerDevice());
  ExpectSameExecution(*mono, *sharded, queries,
                      "sharded(" + GetParam() + ")");
}

TEST_P(CompositeBackendTest, ShardedDeleteMatchesMonolithic) {
  if (GetParam() == "dynamic") {
    GTEST_SKIP() << "dynamic children refuse Delete";
  }
  const auto data = MakeRecords(150);
  auto mono = MakeMonolithic(GetParam());
  auto sharded = MakeShardedOf(GetParam());
  for (const Record& r : data) {
    ASSERT_TRUE(mono->Insert(r).ok());
    ASSERT_TRUE(sharded->Insert(r).ok());
  }
  ValueQuery by_field(3);
  by_field[0] = data.front()[0];
  auto removed_mono = mono->Delete(by_field);
  auto removed_sharded = sharded->Delete(by_field);
  ASSERT_TRUE(removed_mono.ok());
  ASSERT_TRUE(removed_sharded.ok());
  EXPECT_EQ(*removed_sharded, *removed_mono);
  EXPECT_EQ(sharded->num_records(), mono->num_records());
  ExpectSameExecution(*mono, *sharded, MakeQueries(data, 20),
                      "post-delete " + GetParam());
}

TEST_P(CompositeBackendTest, PersistenceRoundTripsSharded) {
  const auto data = MakeRecords(300);
  const auto queries = MakeQueries(data, 40);
  auto sharded = MakeShardedOf(GetParam());
  for (const Record& r : data) ASSERT_TRUE(sharded->Insert(r).ok());

  const std::string path =
      TestPath(std::string("sharded_") + GetParam() + ".fxdist");
  ASSERT_TRUE(SaveBackend(*sharded, path).ok());
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->backend_name(), "sharded");
  EXPECT_EQ((*loaded)->num_records(), sharded->num_records());
  EXPECT_EQ((*loaded)->RecordCountsPerDevice(),
            sharded->RecordCountsPerDevice());
  ExpectSameExecution(*sharded, **loaded, queries,
                      "sharded(" + GetParam() + ") round-trip");
  std::remove(path.c_str());
}

TEST_P(CompositeBackendTest, ScanManyFalseCancelsAcrossChildren) {
  // All-local composites take the serial gather path: fn returning
  // false must abandon every remaining ref, including refs owned by
  // children that have not been touched yet.
  const auto data = MakeRecords(300);
  auto sharded = MakeShardedOf(GetParam());
  for (const Record& r : data) ASSERT_TRUE(sharded->Insert(r).ok());

  const PartialMatchQuery hashed =
      sharded->HashQuery(ValueQuery(3)).value();
  std::vector<BucketRef> refs;
  for (std::uint64_t d = 0; d < sharded->num_devices(); ++d) {
    sharded->device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&refs, d](std::uint64_t linear) {
          refs.push_back({d, linear});
          return true;
        });
  }
  std::size_t delivered = 0;
  sharded->ScanMany(refs, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return false;
  });
  EXPECT_EQ(delivered, 1u);
}

INSTANTIATE_TEST_SUITE_P(ChildKinds, CompositeBackendTest,
                         testing::Values("flat", "paged", "dynamic"));

TEST(ShardedBackendTest, CreateValidatesChildren) {
  // Empty.
  EXPECT_FALSE(ShardedBackend::Create({}).ok());
  // Wrong count: children.size() != num_devices.
  std::vector<std::unique_ptr<StorageBackend>> two;
  two.push_back(MakeChild("flat"));
  two.push_back(MakeChild("flat"));
  EXPECT_FALSE(ShardedBackend::Create(std::move(two)).ok());
  // Mixed kinds.
  std::vector<std::unique_ptr<StorageBackend>> mixed;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    mixed.push_back(MakeChild(d == 3 ? "paged" : "flat"));
  }
  EXPECT_FALSE(ShardedBackend::Create(std::move(mixed)).ok());
  // Non-empty child.
  std::vector<std::unique_ptr<StorageBackend>> loaded;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    loaded.push_back(MakeChild("flat"));
  }
  ASSERT_TRUE(loaded.front()->Insert(MakeRecords(1).front()).ok());
  EXPECT_FALSE(ShardedBackend::Create(std::move(loaded)).ok());
}

TEST(ShardedBackendTest, OutgrowingTheFrozenPlanePoisonsTheComposite) {
  // Dynamic children with a tiny page capacity and no provisioning:
  // the first split grows the bucket space out from under the frozen
  // composite plane.  From that Insert on, the frozen plane's linear
  // bucket ids no longer name the same buckets inside the grown child,
  // so every operation — reads included — must fail with
  // FailedPrecondition instead of silently diverging.
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    children.push_back(std::make_unique<DynamicParallelFile>(
        DynamicParallelFile::Create({{"id", ValueType::kInt64},
                                     {"tag", ValueType::kString},
                                     {"score", ValueType::kInt64}},
                                    kDevices, 2, PlanFamily::kIU2, kSeed)
            .value()));
  }
  auto sharded = ShardedBackend::Create(std::move(children));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const auto data = MakeRecords(64);
  Status failure = Status::OK();
  for (const Record& r : data) {
    Status st = sharded->Insert(r);
    if (!st.ok()) {
      failure = st;
      break;
    }
  }
  ASSERT_FALSE(failure.ok()) << "expected the plane to be outgrown";
  EXPECT_EQ(failure.code(), StatusCode::kFailedPrecondition)
      << failure.ToString();
  // The poison is sticky: further writes and reads repeat the refusal.
  Status again = sharded->Insert(data.front());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition)
      << again.ToString();
  auto whole = sharded->Execute(ValueQuery(3));
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(whole.status().code(), StatusCode::kFailedPrecondition)
      << whole.status().ToString();
  auto removed = sharded->Delete(ValueQuery(3));
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kFailedPrecondition)
      << removed.status().ToString();
}

struct ReplicatedCase {
  ReplicaPlacement placement;
  const char* name;
};

class ReplicatedBackendTest
    : public testing::TestWithParam<ReplicatedCase> {};

std::unique_ptr<ReplicatedBackend> MakeReplicated(
    ReplicaPlacement placement) {
  auto backend =
      MakeReplicatedFlat(TestSchema(), kDevices, "fx-iu2", placement, kSeed);
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  return *std::move(backend);
}

TEST_P(ReplicatedBackendTest, HealthyMatchesMonolithicFlat) {
  const auto data = MakeRecords(400);
  const auto queries = MakeQueries(data, 60);
  auto mono = MakeMonolithic("flat");
  auto replicated = MakeReplicated(GetParam().placement);
  for (const Record& r : data) {
    ASSERT_TRUE(mono->Insert(r).ok());
    ASSERT_TRUE(replicated->Insert(r).ok());
  }
  EXPECT_EQ(replicated->backend_name(), "replicated");
  EXPECT_EQ(replicated->num_records(), mono->num_records());
  ExpectSameExecution(*mono, *replicated, queries, GetParam().name);
}

TEST_P(ReplicatedBackendTest, EveryRecordReachableWithOneDeviceDown) {
  const auto data = MakeRecords(300);
  const auto queries = MakeQueries(data, 30);
  auto replicated = MakeReplicated(GetParam().placement);
  for (const Record& r : data) ASSERT_TRUE(replicated->Insert(r).ok());

  // Healthy baseline per query, then re-check under every single-device
  // failure: same matched records, and nothing charged to the down
  // device.
  std::vector<QueryResult> healthy;
  for (const ValueQuery& q : queries) {
    healthy.push_back(replicated->Execute(q).value());
  }
  for (std::uint64_t f = 0; f < kDevices; ++f) {
    ASSERT_TRUE(replicated->MarkDown(f).ok()) << "device " << f;
    EXPECT_TRUE(replicated->IsDown(f));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto degraded = replicated->Execute(queries[i]);
      ASSERT_TRUE(degraded.ok()) << "device " << f << " query " << i;
      EXPECT_EQ(degraded->records, healthy[i].records)
          << "device " << f << " query " << i;
      EXPECT_EQ(degraded->stats.qualified_per_device[f], 0u)
          << "degraded stats still charge down device " << f;
      EXPECT_EQ(degraded->stats.total_qualified,
                healthy[i].stats.total_qualified)
          << "device " << f << " query " << i;
    }
    ASSERT_TRUE(replicated->MarkUp(f).ok());
  }
  // Back to healthy routing.
  ExpectSameExecution(*replicated, *replicated, queries, "recovered");
  EXPECT_EQ(replicated->num_down(), 0u);
}

TEST_P(ReplicatedBackendTest, LosingBothCopiesIsRefused) {
  auto replicated = MakeReplicated(GetParam().placement);
  for (const Record& r : MakeRecords(100)) {
    ASSERT_TRUE(replicated->Insert(r).ok());
  }
  const std::uint64_t partner = replicated->replica_offset();
  ASSERT_TRUE(replicated->MarkDown(0).ok());
  // Down device 0's buckets are served from (0 + offset); taking that
  // device too would lose both copies.
  Status st = replicated->MarkDown(partner);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_FALSE(replicated->IsDown(partner)) << "refusal must not leak state";
  // Double-down and writes while degraded are refused too.
  EXPECT_EQ(replicated->MarkDown(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(replicated->Insert(MakeRecords(1).front()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(replicated->Delete(ValueQuery(3)).ok());
  ASSERT_TRUE(replicated->MarkUp(0).ok());
  EXPECT_EQ(replicated->MarkUp(0).code(), StatusCode::kFailedPrecondition);
}

TEST_P(ReplicatedBackendTest, PersistenceRoundTripsDownState) {
  const auto data = MakeRecords(250);
  const auto queries = MakeQueries(data, 30);
  auto replicated = MakeReplicated(GetParam().placement);
  for (const Record& r : data) ASSERT_TRUE(replicated->Insert(r).ok());
  ASSERT_TRUE(replicated->MarkDown(2).ok());

  const std::string path =
      TestPath("replicated_" + std::string(GetParam().name) + ".fxdist");
  ASSERT_TRUE(SaveBackend(*replicated, path).ok());
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->backend_name(), "replicated");
  auto* reloaded = dynamic_cast<ReplicatedBackend*>(loaded->get());
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->placement(), GetParam().placement);
  EXPECT_TRUE(reloaded->IsDown(2));
  EXPECT_EQ(reloaded->num_down(), 1u);
  // Degraded execution (routing included) survives the round trip.
  ExpectSameExecution(*replicated, *reloaded, queries,
                      std::string(GetParam().name) + " round-trip");
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Placements, ReplicatedBackendTest,
    testing::Values(ReplicatedCase{ReplicaPlacement::kMirrored, "mirrored"},
                    ReplicatedCase{ReplicaPlacement::kChained, "chained"}),
    [](const testing::TestParamInfo<ReplicatedCase>& param_info) {
      return std::string(param_info.param.name);
    });

// ---------------------------------------------------------------------
// Engine differential: batched execution over composites — including a
// degraded replicated backend — stays bit-identical to the composite's
// own serial Execute.

void ExpectEngineMatchesSerial(const StorageBackend& backend,
                               const std::vector<ValueQuery>& queries,
                               const std::string& context) {
  EngineOptions options;
  options.num_threads = 1;  // deterministic order
  QueryEngine engine(backend, options);
  auto batched = engine.ExecuteBatch(queries);
  ASSERT_TRUE(batched.ok()) << context;
  ASSERT_EQ(batched->size(), queries.size()) << context;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult serial = backend.Execute(queries[i]).value();
    EXPECT_EQ((*batched)[i].records, serial.records)
        << context << " query " << i;
    EXPECT_EQ((*batched)[i].stats.qualified_per_device,
              serial.stats.qualified_per_device)
        << context << " query " << i;
    EXPECT_EQ((*batched)[i].stats.largest_response,
              serial.stats.largest_response)
        << context << " query " << i;
    EXPECT_EQ((*batched)[i].stats.records_matched,
              serial.stats.records_matched)
        << context << " query " << i;
  }
}

TEST(CompositeEngineDifferentialTest, ShardedBackendsMatchSerial) {
  const auto data = MakeRecords(350);
  const auto queries = MakeQueries(data, 48);
  for (const std::string kind : {"flat", "paged", "dynamic"}) {
    auto sharded = MakeShardedOf(kind);
    for (const Record& r : data) ASSERT_TRUE(sharded->Insert(r).ok());
    ExpectEngineMatchesSerial(*sharded, queries, "sharded(" + kind + ")");
  }
}

TEST(CompositeEngineDifferentialTest, DegradedReplicatedMatchesSerial) {
  const auto data = MakeRecords(350);
  const auto queries = MakeQueries(data, 48);
  for (const auto placement :
       {ReplicaPlacement::kMirrored, ReplicaPlacement::kChained}) {
    auto replicated = MakeReplicated(placement);
    for (const Record& r : data) ASSERT_TRUE(replicated->Insert(r).ok());
    ExpectEngineMatchesSerial(*replicated, queries, "healthy");
    for (std::uint64_t f : {std::uint64_t{1}, std::uint64_t{6}}) {
      ASSERT_TRUE(replicated->MarkDown(f).ok());
      ExpectEngineMatchesSerial(*replicated, queries,
                                "down device " + std::to_string(f));
      ASSERT_TRUE(replicated->MarkUp(f).ok());
    }
  }
}

}  // namespace
}  // namespace fxdist
