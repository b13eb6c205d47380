// Differential test: QueryEngine batches, and Frontend futures, vs serial
// ParallelFile::Execute.
//
// Random records and random query batches (with planted duplicates, the
// case the engine collapses) run through both paths on a mixed-type
// schema for several distribution methods and pool sizes.  Every
// observable the serial path produces deterministically must match
// bit-for-bit: the records themselves, match/examine counts, the
// per-device qualified-bucket vector and the largest response.  Frontend
// futures are checked on one pass, and on a second pass answered from
// the result cache with QoS scheduling on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "front/frontend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "util/random.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 97;

Schema MixedSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

std::vector<Record> MakeRecords(const Schema& schema, std::size_t count) {
  auto gen = RecordGenerator::Uniform(schema, kSeed).value();
  return gen.Take(count);
}

std::vector<ValueQuery> MakeStream(const std::vector<Record>& records,
                                   std::size_t count) {
  auto gen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
  std::vector<ValueQuery> stream;
  stream.reserve(count);
  Xoshiro256 rng(kSeed + 2);
  while (stream.size() < count) {
    // Plant duplicates: with probability 1/2 repeat an earlier query.
    if (!stream.empty() && rng.NextBool(0.5)) {
      stream.push_back(stream[rng.NextBounded(stream.size())]);
    } else {
      stream.push_back(gen.Next());
    }
  }
  return stream;
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

class EngineDifferentialTest
    : public testing::TestWithParam<std::string> {};

TEST_P(EngineDifferentialTest, BatchesMatchSerialAcrossPoolSizes) {
  const Schema schema = MixedSchema();
  const std::vector<Record> records = MakeRecords(schema, 600);
  const std::vector<ValueQuery> stream = MakeStream(records, 192);

  auto file =
      ParallelFile::Create(schema, 8, GetParam(), kSeed).value();
  for (const Record& r : records) ASSERT_TRUE(file.Insert(r).ok());

  std::vector<QueryResult> serial;
  serial.reserve(stream.size());
  for (const ValueQuery& q : stream) {
    serial.push_back(file.Execute(q).value());
  }

  const unsigned hw = std::max(3u, std::thread::hardware_concurrency());
  for (const unsigned threads : {1u, 2u, hw}) {
    EngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(file, options);
    std::size_t next = 0;
    for (std::size_t begin = 0; begin < stream.size(); begin += 48) {
      const std::size_t end = std::min(stream.size(), begin + 48);
      std::vector<ValueQuery> batch(stream.begin() + begin,
                                    stream.begin() + end);
      auto results = engine.ExecuteBatch(batch);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      for (QueryResult& r : *results) {
        ExpectSameResult(r, serial[next],
                         GetParam() + " threads=" +
                             std::to_string(threads) + " query #" +
                             std::to_string(next));
        ++next;
      }
    }
    EXPECT_EQ(next, stream.size());
  }
}

TEST_P(EngineDifferentialTest, FrontendFuturesMatchSerial) {
  // The Frontend is the one asynchronous path: every future, whether its
  // query ran in a dispatch round or came back from the result cache,
  // resolves with what serial Execute returns.
  const Schema schema = MixedSchema();
  const std::vector<Record> records = MakeRecords(schema, 400);
  const std::vector<ValueQuery> stream = MakeStream(records, 64);

  auto file =
      ParallelFile::Create(schema, 4, GetParam(), kSeed).value();
  for (const Record& r : records) ASSERT_TRUE(file.Insert(r).ok());

  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(file, options);
  Frontend frontend(engine);
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    futures.push_back(frontend.Submit(
        i % 2 == 0 ? "even" : "odd",
        i % 3 == 0 ? QueryPriority::kInteractive : QueryPriority::kBatch,
        stream[i]));
  }
  frontend.Flush();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameResult(*result, file.Execute(stream[i]).value(),
                     GetParam() + " frontend query #" +
                         std::to_string(i));
  }
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted, stream.size());
  EXPECT_EQ(stats.completed, stream.size());
  EXPECT_EQ(stats.failed, 0u);
}

// One stream through one Frontend twice, as a front door sees a popular
// workload: the first pass fills an 8 MiB result cache, the second is
// answered from it.  Three tenants, every 8th query interactive.  Every
// future of both passes resolves with what serial Execute returns.
void ExpectTwoFrontendPassesMatchSerial(const std::string& method,
                                        bool qos_enabled) {
  const Schema schema = MixedSchema();
  const std::vector<Record> records = MakeRecords(schema, 400);
  const std::vector<ValueQuery> stream = MakeStream(records, 64);

  auto file = ParallelFile::Create(schema, 4, method, kSeed).value();
  for (const Record& r : records) ASSERT_TRUE(file.Insert(r).ok());
  std::vector<QueryResult> serial;
  serial.reserve(stream.size());
  for (const ValueQuery& q : stream) {
    serial.push_back(file.Execute(q).value());
  }

  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(file, options);
  FrontendOptions front_options;
  front_options.cache.max_bytes = 8ull << 20;
  front_options.qos_enabled = qos_enabled;
  Frontend frontend(engine, front_options);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::future<Result<QueryResult>>> futures;
    futures.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      futures.push_back(frontend.Submit(
          "tenant-" + std::to_string(i % 3),
          i % 8 == 0 ? QueryPriority::kInteractive : QueryPriority::kBatch,
          stream[i]));
    }
    frontend.Flush();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      auto result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameResult(*result, serial[i],
                       method + " pass " + std::to_string(pass) +
                           " query #" + std::to_string(i));
    }
  }
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted, 2 * stream.size());
  EXPECT_EQ(stats.completed, 2 * stream.size());
  EXPECT_EQ(stats.failed, 0u);
  // The first pass cached every distinct query, so none of the second
  // pass waits for a dispatch round.
  EXPECT_GE(stats.cache_served, stream.size());
}

TEST_P(EngineDifferentialTest, CachedSecondPassWithQosMatchesSerial) {
  ExpectTwoFrontendPassesMatchSerial(GetParam(), /*qos_enabled=*/true);
}

TEST_P(EngineDifferentialTest, CachedSecondPassWithoutQosMatchesSerial) {
  // One FIFO in arrival order instead of the two priority classes.
  ExpectTwoFrontendPassesMatchSerial(GetParam(), /*qos_enabled=*/false);
}

INSTANTIATE_TEST_SUITE_P(Methods, EngineDifferentialTest,
                         testing::Values("fx-iu2", "afx-iu1", "modulo",
                                         "gdm2"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Backend-generic differential: the engine drives any StorageBackend, and
// its batches must match that backend's own serial Execute bit-for-bit.
void RunBackendDifferential(const StorageBackend& backend,
                            const std::vector<ValueQuery>& stream,
                            std::size_t batch_size) {
  std::vector<QueryResult> serial;
  serial.reserve(stream.size());
  for (const ValueQuery& q : stream) {
    serial.push_back(backend.Execute(q).value());
  }
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(backend, options);
  std::size_t next = 0;
  for (std::size_t begin = 0; begin < stream.size();
       begin += batch_size) {
    const std::size_t end = std::min(stream.size(), begin + batch_size);
    std::vector<ValueQuery> batch(stream.begin() + begin,
                                  stream.begin() + end);
    auto results = engine.ExecuteBatch(batch);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    for (QueryResult& r : *results) {
      ExpectSameResult(r, serial[next],
                       backend.backend_name() + " query #" +
                           std::to_string(next));
      ++next;
    }
  }
  EXPECT_EQ(next, stream.size());
}

TEST(EngineBackendDifferentialTest, PagedBackendMatchesSerial) {
  const Schema schema = MixedSchema();
  const std::vector<Record> records = MakeRecords(schema, 500);
  const std::vector<ValueQuery> stream = MakeStream(records, 96);
  auto file =
      PagedParallelFile::Create(schema, 8, "fx-iu2", 3, kSeed).value();
  for (const Record& r : records) ASSERT_TRUE(file.Insert(r).ok());
  RunBackendDifferential(file, stream, 32);
}

TEST(EngineBackendDifferentialTest, DynamicBackendMatchesSerial) {
  const Schema schema = MixedSchema();
  const std::vector<Record> records = MakeRecords(schema, 500);
  const std::vector<ValueQuery> stream = MakeStream(records, 96);
  auto file = DynamicParallelFile::Create({{"id", ValueType::kInt64},
                                           {"tag", ValueType::kString},
                                           {"score", ValueType::kInt64}},
                                          8, 4, PlanFamily::kIU2, kSeed)
                  .value();
  for (const Record& r : records) ASSERT_TRUE(file.Insert(r).ok());
  ASSERT_GT(file.num_rebuilds(), 0u);  // the directories actually grew
  RunBackendDifferential(file, stream, 32);
}

}  // namespace
}  // namespace fxdist
