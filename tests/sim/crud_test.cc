// Delete / Update semantics on ParallelFile.

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "sim/parallel_file.h"

namespace fxdist {
namespace {

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"status", ValueType::kString, 4},
                        })
      .value();
}

ParallelFile SeededFile() {
  auto file = ParallelFile::Create(TestSchema(), 8, "fx-iu2").value();
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(file.Insert({std::int64_t{i},
                             std::string(i % 2 == 0 ? "open" : "done")})
                    .ok());
  }
  return file;
}

TEST(CrudTest, DeleteByExactMatch) {
  auto file = SeededFile();
  ValueQuery q{std::int64_t{7}, std::string("done")};
  EXPECT_EQ(file.Delete(q).value(), 1u);
  EXPECT_EQ(file.num_records(), 19u);
  EXPECT_TRUE(file.Execute(q).value().records.empty());
}

TEST(CrudTest, DeleteByPartialMatch) {
  auto file = SeededFile();
  ValueQuery q(2);
  q[1] = FieldValue{std::string("open")};
  EXPECT_EQ(file.Delete(q).value(), 10u);
  EXPECT_EQ(file.num_records(), 10u);
  // The others remain queryable.
  ValueQuery done(2);
  done[1] = FieldValue{std::string("done")};
  EXPECT_EQ(file.Execute(done).value().records.size(), 10u);
}

TEST(CrudTest, DeleteNoMatchesIsZero) {
  auto file = SeededFile();
  ValueQuery q{std::int64_t{999}, std::nullopt};
  EXPECT_EQ(file.Delete(q).value(), 0u);
  EXPECT_EQ(file.num_records(), 20u);
}

TEST(CrudTest, DeleteAllWithWildcardQuery) {
  auto file = SeededFile();
  EXPECT_EQ(file.Delete(ValueQuery(2)).value(), 20u);
  EXPECT_EQ(file.num_records(), 0u);
  EXPECT_TRUE(file.Execute(ValueQuery(2)).value().records.empty());
}

TEST(CrudTest, DeviceCountsShrinkOnDelete) {
  auto file = SeededFile();
  ValueQuery q(2);
  q[1] = FieldValue{std::string("open")};
  ASSERT_EQ(file.Delete(q).value(), 10u);
  std::uint64_t total = 0;
  for (std::uint64_t c : file.RecordCountsPerDevice()) total += c;
  EXPECT_EQ(total, 10u);
}

TEST(CrudTest, InsertAfterDeleteWorks) {
  auto file = SeededFile();
  ASSERT_EQ(file.Delete(ValueQuery(2)).value(), 20u);
  ASSERT_TRUE(
      file.Insert({std::int64_t{42}, std::string("open")}).ok());
  EXPECT_EQ(file.num_records(), 1u);
  ValueQuery q{std::int64_t{42}, std::nullopt};
  EXPECT_EQ(file.Execute(q).value().records.size(), 1u);
}

TEST(CrudTest, UpdateReplacesMatches) {
  auto file = SeededFile();
  ValueQuery q(2);
  q[1] = FieldValue{std::string("open")};
  const Record closed{std::int64_t{100}, std::string("done")};
  EXPECT_EQ(file.Update(q, closed).value(), 10u);
  EXPECT_EQ(file.num_records(), 20u);
  EXPECT_TRUE(file.Execute(q).value().records.empty());
  ValueQuery hundred{std::int64_t{100}, std::nullopt};
  EXPECT_EQ(file.Execute(hundred).value().records.size(), 10u);
}

TEST(CrudTest, UpdateKeepsLiveCountStableAndStaysVisible) {
  // Update is delete + reinsert: each round must leave the live record
  // count unchanged and make the new value immediately queryable.
  auto file = SeededFile();
  for (int round = 0; round < 3; ++round) {
    ValueQuery open(2);
    open[1] = FieldValue{std::string("open")};
    const std::uint64_t before = file.num_records();
    const std::uint64_t moved = file.Update(
        open, Record{std::int64_t{200 + round}, std::string("closed")})
        .value();
    EXPECT_EQ(file.num_records(), before);
    // The rewritten rows answer a follow-up query with the new value.
    ValueQuery q{std::int64_t{200 + round}, std::nullopt};
    EXPECT_EQ(file.Execute(q).value().records.size(), moved);
    // Reopen them so the next round has rows to move again.
    ASSERT_EQ(file.Update(q, Record{std::int64_t{200 + round},
                                    std::string("open")})
                  .value(),
              moved);
    EXPECT_EQ(file.num_records(), before);
  }
}

TEST(CrudTest, DeleteTombstonesAreInvisibleEverywhere) {
  // Delete tombstones the arena entry; every read path — queries, the
  // per-device counts, and the live-record walk — must agree.
  auto file = SeededFile();
  ValueQuery open(2);
  open[1] = FieldValue{std::string("open")};
  ASSERT_EQ(file.Delete(open).value(), 10u);

  // Re-querying the deleted rows finds nothing.
  EXPECT_TRUE(file.Execute(open).value().records.empty());
  ValueQuery two{std::int64_t{2}, std::nullopt};
  EXPECT_TRUE(file.Execute(two).value().records.empty());

  // Device bucket counts sum to the live count.
  std::uint64_t device_total = 0;
  for (std::uint64_t c : file.RecordCountsPerDevice()) device_total += c;
  EXPECT_EQ(device_total, file.num_records());
  EXPECT_EQ(file.num_records(), 10u);

  // ForEachRecord skips tombstones and visits each survivor once.
  std::uint64_t visited = 0;
  file.ForEachRecord([&](const Record& r) {
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(std::get<std::string>(r[1]), "done");
    ++visited;
  });
  EXPECT_EQ(visited, 10u);

  // A wildcard query sees exactly the survivors.
  EXPECT_EQ(file.Execute(ValueQuery(2)).value().records.size(), 10u);
}

TEST(CrudTest, UpdateValidatesReplacement) {
  auto file = SeededFile();
  ValueQuery q(2);
  q[1] = FieldValue{std::string("open")};
  // Wrong arity replacement: the first delete succeeds but insert fails —
  // the call reports the error.
  EXPECT_FALSE(file.Update(q, Record{std::int64_t{1}}).ok());
}

}  // namespace
}  // namespace fxdist
