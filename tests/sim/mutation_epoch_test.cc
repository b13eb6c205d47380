// MutationEpoch contract tests: every successful mutation strictly
// advances the epoch, reads never do, composites aggregate their
// children, and the read-only packed backend stays frozen.  The result
// cache's soundness is exactly this contract (front/result_cache.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/composite_backend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/packed_backend.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 8;
constexpr std::uint64_t kSeed = 42;

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                        })
      .value();
}

Record RecordOf(std::int64_t id) {
  return {FieldValue{id}, FieldValue{std::string("t")}};
}

std::unique_ptr<StorageBackend> MakeBackend(const std::string& kind) {
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
                                   {"tag", ValueType::kString}},
                                  kDevices, 256, PlanFamily::kIU2, kSeed,
                                  {3, 2})
          .value());
}

class MutationEpochTest : public testing::TestWithParam<std::string> {};

TEST_P(MutationEpochTest, InsertAdvancesReadsDoNot) {
  auto backend = MakeBackend(GetParam());
  EXPECT_EQ(backend->MutationEpoch(), 0u);
  ASSERT_TRUE(backend->Insert(RecordOf(1)).ok());
  const std::uint64_t after_insert = backend->MutationEpoch();
  EXPECT_GT(after_insert, 0u);
  ASSERT_TRUE(backend->Insert(RecordOf(2)).ok());
  EXPECT_GT(backend->MutationEpoch(), after_insert);

  const std::uint64_t before_reads = backend->MutationEpoch();
  (void)backend->Execute(ValueQuery(2)).value();
  (void)backend->num_records();
  EXPECT_EQ(backend->MutationEpoch(), before_reads);
}

TEST_P(MutationEpochTest, DeleteAdvancesOnlyWhenRecordsDie) {
  if (GetParam() == "dynamic") {
    GTEST_SKIP() << "dynamic backend refuses Delete";
  }
  auto backend = MakeBackend(GetParam());
  ASSERT_TRUE(backend->Insert(RecordOf(1)).ok());
  const std::uint64_t before = backend->MutationEpoch();

  // A delete that removes nothing changes nothing a cache could observe.
  ValueQuery miss(2);
  miss[0] = std::int64_t{999};
  ASSERT_EQ(backend->Delete(miss).value(), 0u);
  EXPECT_EQ(backend->MutationEpoch(), before);

  ValueQuery hit(2);
  hit[0] = std::int64_t{1};
  ASSERT_EQ(backend->Delete(hit).value(), 1u);
  EXPECT_GT(backend->MutationEpoch(), before);
}

INSTANTIATE_TEST_SUITE_P(AllMutableBackends, MutationEpochTest,
                         testing::Values("flat", "paged", "dynamic"));

TEST(MutationEpochCompositeTest, ShardedAggregatesChildren) {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    children.push_back(MakeBackend("flat"));
  }
  auto sharded = ShardedBackend::Create(std::move(children)).value();
  EXPECT_EQ(sharded.MutationEpoch(), 0u);
  ASSERT_TRUE(sharded.Insert(RecordOf(1)).ok());
  EXPECT_GT(sharded.MutationEpoch(), 0u);
}

TEST(MutationEpochCompositeTest, ReplicatedCountsWritesAndStateFlips) {
  auto replicated = MakeReplicatedFlat(TestSchema(), kDevices, "fx-iu2",
                                       ReplicaPlacement::kMirrored, kSeed)
                        .value();
  const std::uint64_t start = replicated->MutationEpoch();
  ASSERT_TRUE(replicated->Insert(RecordOf(1)).ok());
  const std::uint64_t after_insert = replicated->MutationEpoch();
  EXPECT_GT(after_insert, start);
  // A device-state flip re-routes scans and changes stats accounting —
  // cached results computed before it must not survive.
  ASSERT_TRUE(replicated->MarkDown(0).ok());
  const std::uint64_t after_down = replicated->MutationEpoch();
  EXPECT_GT(after_down, after_insert);
  ASSERT_TRUE(replicated->MarkUp(0).ok());
  EXPECT_GT(replicated->MutationEpoch(), after_down);
}

TEST(MutationEpochPackedTest, PackedStaysFrozen) {
  auto source = MakeBackend("flat");
  for (std::int64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(source->Insert(RecordOf(i)).ok());
  }
  const std::string pack_path =
      testing::TempDir() + "/mutation_epoch_test.pack";
  ASSERT_TRUE(PackBackend(*source, pack_path).ok());
  auto packed = PackedBackend::Open(pack_path).value();
  EXPECT_EQ(packed->MutationEpoch(), 0u);
  (void)packed->Execute(ValueQuery(2)).value();
  EXPECT_EQ(packed->MutationEpoch(), 0u);
}

}  // namespace
}  // namespace fxdist
