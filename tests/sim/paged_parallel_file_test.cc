#include "sim/paged_parallel_file.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

Schema TestSchema() {
  return Schema::Create({
                            {"a", ValueType::kInt64, 8},
                            {"b", ValueType::kString, 8},
                            {"c", ValueType::kInt64, 4},
                        })
      .value();
}

TEST(PagedParallelFileTest, CreateValidates) {
  EXPECT_TRUE(PagedParallelFile::Create(TestSchema(), 16, "fx-iu2", 4).ok());
  EXPECT_FALSE(
      PagedParallelFile::Create(TestSchema(), 16, "fx-iu2", 0).ok());
  EXPECT_FALSE(
      PagedParallelFile::Create(TestSchema(), 15, "fx-iu2", 4).ok());
  EXPECT_FALSE(PagedParallelFile::Create(TestSchema(), 16, "bogus", 4).ok());
}

TEST(PagedParallelFileTest, MatchesUnpagedResults) {
  // Same schema, same seed, same data: the paged file must return exactly
  // the records the plain one does.
  auto gen = RecordGenerator::Uniform(TestSchema(), 51).value();
  const auto data = gen.Take(600);
  auto plain = ParallelFile::Create(TestSchema(), 16, "fx-iu2", 9).value();
  auto paged =
      PagedParallelFile::Create(TestSchema(), 16, "fx-iu2", 3, 9).value();
  for (const Record& r : data) {
    ASSERT_TRUE(plain.Insert(r).ok());
    ASSERT_TRUE(paged.Insert(r).ok());
  }
  auto qgen = QueryGenerator::Create(&data, 0.5, 53).value();
  for (int i = 0; i < 40; ++i) {
    const ValueQuery q = qgen.Next();
    auto a = plain.Execute(q).value();
    auto b = paged.Execute(q).value();
    auto key = [](const Record& r) { return RecordToString(r); };
    std::sort(a.records.begin(), a.records.end(),
              [&](auto& x, auto& y) { return key(x) < key(y); });
    std::sort(b.records.begin(), b.records.end(),
              [&](auto& x, auto& y) { return key(x) < key(y); });
    ASSERT_EQ(a.records, b.records) << "query " << i;
    EXPECT_EQ(a.stats.records_matched, b.stats.records_matched);
  }
}

TEST(PagedParallelFileTest, PageAccountingReflectsChains) {
  // One bucket with many records: pages read == chain length.
  auto schema = Schema::Create({{"k", ValueType::kInt64, 2}}).value();
  auto file = PagedParallelFile::Create(schema, 2, "fx-basic", 4).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(file.Insert({std::int64_t{7}}).ok());  // same hash bucket
  }
  ValueQuery q{std::int64_t{7}};
  auto result = file.ExecutePaged(q).value();
  EXPECT_EQ(result.stats.records_matched, 20u);
  EXPECT_EQ(result.stats.total_pages_read, 5u);  // ceil(20/4)
}

TEST(PagedParallelFileTest, LargestPagesTracksDeclusteringQuality) {
  auto gen = RecordGenerator::Uniform(TestSchema(), 77).value();
  const auto data = gen.Take(4000);
  auto fx = PagedParallelFile::Create(TestSchema(), 16, "fx-iu2", 4).value();
  auto md = PagedParallelFile::Create(TestSchema(), 16, "modulo", 4).value();
  for (const Record& r : data) {
    ASSERT_TRUE(fx.Insert(r).ok());
    ASSERT_TRUE(md.Insert(r).ok());
  }
  // Whole-file query: pages gate the parallel scan.
  auto fx_result = fx.ExecutePaged(ValueQuery(3)).value();
  auto md_result = md.ExecutePaged(ValueQuery(3)).value();
  EXPECT_EQ(fx_result.stats.records_matched, 4000u);
  EXPECT_LE(fx_result.stats.largest_pages_read,
            md_result.stats.largest_pages_read);
}

TEST(PagedParallelFileTest, UtilizationReasonable) {
  auto gen = RecordGenerator::Uniform(TestSchema(), 5).value();
  auto file = PagedParallelFile::Create(TestSchema(), 8, "fx-iu2", 8).value();
  for (const Record& r : gen.Take(3000)) ASSERT_TRUE(file.Insert(r).ok());
  EXPECT_GT(file.MeanUtilization(), 0.3);
  EXPECT_LE(file.MeanUtilization(), 1.0);
  std::uint64_t pages = 0;
  for (std::uint64_t d = 0; d < 8; ++d) pages += file.DevicePages(d);
  EXPECT_GE(pages, 3000u / 8u);
}

}  // namespace
}  // namespace fxdist
