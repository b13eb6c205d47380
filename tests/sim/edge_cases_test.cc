// Edge cases and error paths across the simulator module.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/composite_backend.h"
#include "sim/parallel_file.h"
#include "sim/timing.h"

namespace fxdist {
namespace {

Schema TestSchema() {
  return Schema::Create({{"a", ValueType::kInt64, 4},
                         {"b", ValueType::kString, 4}})
      .value();
}

TEST(SimEdgeTest, QueryOnEmptyFile) {
  auto file = ParallelFile::Create(TestSchema(), 4, "fx-iu2").value();
  auto result = file.Execute(ValueQuery(2)).value();
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.stats.records_examined, 0u);
  // Qualified buckets are an allocation-level count; they exist even with
  // no data.
  EXPECT_EQ(result.stats.total_qualified, 16u);
  EXPECT_TRUE(result.stats.strict_optimal);
}

TEST(SimEdgeTest, DeleteOnEmptyFile) {
  auto file = ParallelFile::Create(TestSchema(), 4, "fx-iu2").value();
  EXPECT_EQ(file.Delete(ValueQuery(2)).value(), 0u);
}

TEST(SimEdgeTest, DeleteWithBadQueryArity) {
  auto file = ParallelFile::Create(TestSchema(), 4, "fx-iu2").value();
  EXPECT_FALSE(file.Delete(ValueQuery(3)).ok());
}

TEST(SimEdgeTest, ExecuteRejectsWrongQueryArity) {
  auto file = ParallelFile::Create(TestSchema(), 4, "fx-iu2").value();
  EXPECT_FALSE(file.Execute(ValueQuery(1)).ok());
}

TEST(SimEdgeTest, ExecuteRejectsWrongQueryType) {
  auto file = ParallelFile::Create(TestSchema(), 4, "fx-iu2").value();
  ValueQuery q(2);
  q[0] = FieldValue{std::string("not-an-int")};
  EXPECT_FALSE(file.Execute(q).ok());
}

TEST(SimEdgeTest, TimingModelsDegenerateInputs) {
  EXPECT_DOUBLE_EQ(DiskQueryTiming({}).parallel_ms, 0.0);
  EXPECT_DOUBLE_EQ(MemoryQueryTiming({}, 100).parallel_ms, 0.0);
  const QueryTiming t = DiskQueryTiming({0, 0, 0});
  EXPECT_DOUBLE_EQ(t.speedup, 1.0);
}

TEST(SimEdgeTest, DeviceWallTimesPopulated) {
  // Every local backend times each device's share, composites included.
  std::vector<std::unique_ptr<StorageBackend>> shards;
  for (int d = 0; d < 4; ++d) {
    shards.push_back(std::make_unique<ParallelFile>(
        ParallelFile::Create(TestSchema(), 4, "fx-iu2").value()));
  }
  std::vector<std::unique_ptr<StorageBackend>> backends;
  backends.push_back(std::make_unique<ParallelFile>(
      ParallelFile::Create(TestSchema(), 4, "fx-iu2").value()));
  backends.push_back(std::make_unique<ShardedBackend>(
      ShardedBackend::Create(std::move(shards)).value()));
  backends.push_back(MakeReplicatedFlat(TestSchema(), 4, "fx-iu2",
                                        ReplicaPlacement::kMirrored)
                         .value());
  for (const auto& backend : backends) {
    const std::string kind = backend->backend_name();
    ASSERT_TRUE(backend->Insert({std::int64_t{1}, std::string("x")}).ok())
        << kind;
    auto result = backend->Execute(ValueQuery(2)).value();
    EXPECT_EQ(result.stats.device_wall_ms.size(), 4u) << kind;
    for (double ms : result.stats.device_wall_ms) EXPECT_GE(ms, 0.0) << kind;
    EXPECT_TRUE(std::any_of(result.stats.device_wall_ms.begin(),
                            result.stats.device_wall_ms.end(),
                            [](double ms) { return ms > 0.0; }))
        << kind;
  }
}

TEST(SimEdgeTest, DuplicateRecordsAllRetrieved) {
  auto file = ParallelFile::Create(TestSchema(), 4, "fx-iu2").value();
  const Record r{std::int64_t{1}, std::string("dup")};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(file.Insert(r).ok());
  ValueQuery q{r[0], r[1]};
  EXPECT_EQ(file.Execute(q).value().records.size(), 5u);
  EXPECT_EQ(file.Delete(q).value(), 5u);
  EXPECT_EQ(file.num_records(), 0u);
}

}  // namespace
}  // namespace fxdist
