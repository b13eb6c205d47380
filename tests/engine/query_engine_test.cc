// QueryEngine unit tests: metrics determinism, duplicate collapse,
// whole-batch rejection, and the enumeration budget.

#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "analysis/batch.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 11;

Schema TestSchema() {
  return Schema::Create({
                            {"a", ValueType::kInt64, 8},
                            {"b", ValueType::kInt64, 8},
                            {"c", ValueType::kInt64, 4},
                        })
      .value();
}

ParallelFile SeededFile(std::uint64_t num_devices = 8) {
  auto file =
      ParallelFile::Create(TestSchema(), num_devices, "fx-iu2", kSeed)
          .value();
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  for (const Record& r : gen.Take(500)) {
    EXPECT_TRUE(file.Insert(r).ok());
  }
  return file;
}

std::vector<ValueQuery> SampleQueries(const ParallelFile& file,
                                      std::size_t count) {
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  static const std::vector<Record> records = gen.Take(500);
  auto queries = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
  std::vector<ValueQuery> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(queries.Next());
  (void)file;
  return out;
}

TEST(QueryEngineTest, EmptyBatchIsANoOp) {
  auto file = SeededFile();
  QueryEngine engine(file);
  auto results = engine.ExecuteBatch({});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  EXPECT_EQ(engine.Snapshot().batches_executed, 0u);
}

TEST(QueryEngineTest, DeterministicCountersUnderFixedSeedSingleThread) {
  // Two engines fed the identical stream with one worker shard must
  // produce identical deterministic counters; wall-clock fields are
  // excluded by design.
  auto file = SeededFile();
  const auto queries = SampleQueries(file, 96);
  auto run = [&file, &queries] {
    EngineOptions options;
    options.num_threads = 1;
    QueryEngine engine(file, options);
    for (std::size_t begin = 0; begin < queries.size(); begin += 32) {
      std::vector<ValueQuery> batch(queries.begin() + begin,
                                    queries.begin() + begin + 32);
      EXPECT_TRUE(engine.ExecuteBatch(batch).ok());
    }
    return engine.Snapshot();
  };
  const StatsSnapshot a = run();
  const StatsSnapshot b = run();

  EXPECT_EQ(a.queries_completed, 96u);
  EXPECT_EQ(a.batches_executed, 3u);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_failed, b.queries_failed);
  EXPECT_EQ(a.batches_executed, b.batches_executed);
  EXPECT_EQ(a.max_batch_size, b.max_batch_size);
  EXPECT_EQ(a.duplicates_collapsed, b.duplicates_collapsed);
  EXPECT_EQ(a.solo_queries, b.solo_queries);
  EXPECT_EQ(a.bucket_scans_requested, b.bucket_scans_requested);
  EXPECT_EQ(a.bucket_scans_performed, b.bucket_scans_performed);
  EXPECT_EQ(a.records_examined, b.records_examined);
  EXPECT_EQ(a.records_matched, b.records_matched);
  // Per-device deterministic counters match too.
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    EXPECT_EQ(a.devices[d].bucket_scans, b.devices[d].bucket_scans);
    EXPECT_EQ(a.devices[d].records_examined,
              b.devices[d].records_examined);
  }
  // Sharing is genuinely exploited on this stream.
  EXPECT_GT(a.sharing_factor(), 1.0);
  EXPECT_LT(a.bucket_scans_performed, a.bucket_scans_requested);
  // The latency histograms saw every query/batch even though their
  // timings are non-deterministic.
  EXPECT_EQ(a.query_latency.total, 96u);
  EXPECT_EQ(a.batch_latency.total, 3u);
}

TEST(QueryEngineTest, DuplicateCollapseCountsAndMatchesSolo) {
  auto file = SeededFile();
  const auto queries = SampleQueries(file, 4);
  // 3 distinct queries, 9 total: 6 duplicates collapse.
  std::vector<ValueQuery> batch = {queries[0], queries[1], queries[0],
                                   queries[2], queries[1], queries[0],
                                   queries[2], queries[2], queries[1]};
  QueryEngine engine(file);
  auto results = engine.ExecuteBatch(batch);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(engine.Snapshot().duplicates_collapsed, 6u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryResult solo = file.Execute(batch[i]).value();
    EXPECT_EQ((*results)[i].records, solo.records) << "query #" << i;
    EXPECT_EQ((*results)[i].stats.records_examined,
              solo.stats.records_examined)
        << "query #" << i;
  }
}

// Solo queries count their own buckets and the gather its distinct ones,
// so on a non-sparse backend the scans performed for a mixed batch are
// exactly the distinct buckets of its representatives, and the
// per-device counters hold only the gather's share.
TEST(QueryEngineTest, ScansPerformedAreTheBatchsDistinctBuckets) {
  auto file = SeededFile();
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  const std::vector<Record> records = gen.Take(12);
  auto pin = [](const Record& record,
                std::initializer_list<unsigned> fields) {
    ValueQuery query(record.size());
    for (unsigned f : fields) query[f] = record[f];
    return query;
  };
  std::vector<ValueQuery> batch = {pin(records[0], {0}),
                                   pin(records[0], {1, 2})};
  for (std::size_t i = 1; i < 8; ++i) {
    batch.push_back(pin(records[i], {0, 1, 2}));
  }
  batch.push_back(pin(records[8], {0, 1}));
  batch.push_back(batch[0]);
  batch.push_back(batch[3]);

  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(file, options);
  ASSERT_TRUE(engine.ExecuteBatch(batch).ok());
  const StatsSnapshot snap = engine.Snapshot();
  ASSERT_EQ(snap.duplicates_collapsed, 2u);

  std::vector<PartialMatchQuery> reps;
  for (std::size_t i = 0; i + 2 < batch.size(); ++i) {
    reps.push_back(file.HashQuery(batch[i]).value());
  }
  const BatchStats analyzed = AnalyzeBatch(file.method(), reps).value();
  EXPECT_GT(snap.solo_queries, 0u);
  EXPECT_LT(snap.solo_queries, reps.size());
  EXPECT_EQ(snap.bucket_scans_performed, analyzed.distinct_buckets);
  // The solo queries' buckets are not in the per-device counters.
  std::uint64_t gathered = 0;
  for (const DeviceStats& device : snap.devices) {
    gathered += device.bucket_scans;
  }
  EXPECT_LT(gathered, snap.bucket_scans_performed);
}

TEST(QueryEngineTest, CollapseCanBeDisabled) {
  auto file = SeededFile();
  const auto queries = SampleQueries(file, 1);
  EngineOptions options;
  options.collapse_duplicates = false;
  QueryEngine engine(file, options);
  ASSERT_TRUE(
      engine.ExecuteBatch({queries[0], queries[0], queries[0]}).ok());
  EXPECT_EQ(engine.Snapshot().duplicates_collapsed, 0u);
}

TEST(QueryEngineTest, ExecuteBatchRejectsArityMismatchAsAWhole) {
  auto file = SeededFile();
  const auto queries = SampleQueries(file, 1);
  QueryEngine engine(file);
  auto results = engine.ExecuteBatch({queries[0], ValueQuery(1)});
  EXPECT_FALSE(results.ok());
  EXPECT_EQ(engine.Snapshot().queries_failed, 2u);
  EXPECT_EQ(engine.Snapshot().queries_completed, 0u);
}

TEST(QueryEngineTest, EnumerationBudgetRefusesOversizedBatches) {
  auto file = SeededFile();
  EngineOptions options;
  options.enumeration_budget = 1;  // a wildcard query blows this
  QueryEngine engine(file, options);
  auto results = engine.ExecuteBatch({ValueQuery(3)});
  EXPECT_FALSE(results.ok());
  EXPECT_EQ(engine.Snapshot().queries_failed, 1u);
}

}  // namespace
}  // namespace fxdist
