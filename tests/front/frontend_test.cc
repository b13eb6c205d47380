// Frontend end-to-end tests: cache correctness against live mutation on
// every mutable backend shape, admission shedding, TTL, and the
// key-equality-implies-identical-results property the whole cache design
// rests on.

#include "front/frontend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "hashing/query_key.h"
#include "sim/composite_backend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 8;
constexpr std::uint64_t kSeed = 42;

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

std::vector<Record> MakeRecords(std::size_t count) {
  FieldDistribution dist;
  dist.domain = 64;
  auto gen =
      RecordGenerator::Create(TestSchema(), {dist, dist, dist}, kSeed)
          .value();
  return gen.Take(count);
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
  if (kind == "dynamic") {
    return std::make_unique<DynamicParallelFile>(
        DynamicParallelFile::Create({{"id", ValueType::kInt64},
                                     {"tag", ValueType::kString},
                                     {"score", ValueType::kInt64}},
                                    kDevices, 256, PlanFamily::kIU2, kSeed,
                                    {3, 2, 2})
            .value());
  }
  if (kind == "sharded") {
    std::vector<std::unique_ptr<StorageBackend>> children;
    for (std::uint64_t d = 0; d < kDevices; ++d) {
      children.push_back(MakeBackend("flat"));
    }
    auto sharded = ShardedBackend::Create(std::move(children));
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return std::make_unique<ShardedBackend>(*std::move(sharded));
  }
  auto replicated = MakeReplicatedFlat(TestSchema(), kDevices, "fx-iu2",
                                       ReplicaPlacement::kMirrored, kSeed);
  EXPECT_TRUE(replicated.ok()) << replicated.status().ToString();
  return *std::move(replicated);
}

/// A probe query and a record built to match it.
ValueQuery Probe() {
  ValueQuery q(3);
  q[0] = std::int64_t{3};
  return q;
}

Record MatchingRecord() {
  return {FieldValue{std::int64_t{3}}, FieldValue{std::string("new")},
          FieldValue{std::int64_t{9}}};
}

class FrontendBackendTest : public testing::TestWithParam<std::string> {};

TEST_P(FrontendBackendTest, CacheHitIsBitIdenticalToExecute) {
  auto backend = MakeBackend(GetParam());
  for (const Record& r : MakeRecords(300)) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  const QueryResult oracle = backend->Execute(Probe()).value();

  QueryEngine engine(*backend, EngineOptions{});
  Frontend frontend(engine, FrontendOptions{});
  auto first =
      frontend.Submit("c", QueryPriority::kInteractive, Probe()).get();
  auto second =
      frontend.Submit("c", QueryPriority::kInteractive, Probe()).get();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->records, oracle.records);
  EXPECT_EQ(second->records, oracle.records);
  frontend.Flush();
  const FrontendStats stats = frontend.Stats();
  EXPECT_GE(stats.cache.hits, 1u);
}

TEST_P(FrontendBackendTest, MutationInvalidatesCachedResult) {
  auto backend = MakeBackend(GetParam());
  for (const Record& r : MakeRecords(300)) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  QueryEngine engine(*backend, EngineOptions{});
  Frontend frontend(engine, FrontendOptions{});

  auto before =
      frontend.Submit("c", QueryPriority::kInteractive, Probe()).get();
  ASSERT_TRUE(before.ok());
  frontend.Flush();

  // Mutate through the backend (never while a submit is in flight — the
  // StorageBackend contract) and re-query: the cached entry must die and
  // the new row must be visible.
  ASSERT_TRUE(backend->Insert(MatchingRecord()).ok());
  const QueryResult oracle = backend->Execute(Probe()).value();
  ASSERT_EQ(oracle.stats.records_matched,
            before->stats.records_matched + 1);

  auto after =
      frontend.Submit("c", QueryPriority::kInteractive, Probe()).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->records, oracle.records);
  frontend.Flush();
  EXPECT_GE(frontend.Stats().cache.epoch_invalidations, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllMutableBackends, FrontendBackendTest,
                         testing::Values("flat", "paged", "dynamic",
                                         "sharded", "replicated"));

TEST(FrontendTest, AdmissionShedsWithResourceExhausted) {
  auto backend = MakeBackend("flat");
  for (const Record& r : MakeRecords(100)) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  QueryEngine engine(*backend, EngineOptions{});
  FrontendOptions options;
  options.cache_enabled = false;
  options.admission.rate_per_sec = 1.0;
  options.admission.burst = 1.0;
  // A frozen clock: no refill, so exactly one admit per client.
  options.now_ms = [] { return std::uint64_t{0}; };
  Frontend frontend(engine, options);

  std::uint64_t ok_count = 0;
  std::uint64_t shed_count = 0;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        frontend.Submit("greedy", QueryPriority::kBatch, Probe()));
  }
  for (auto& f : futures) {
    auto result = f.get();
    if (result.ok()) {
      ++ok_count;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++shed_count;
    }
  }
  EXPECT_EQ(ok_count, 1u);
  EXPECT_EQ(shed_count, 7u);
  frontend.Flush();
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.shed_admission, 7u);
  ASSERT_EQ(stats.clients.size(), 1u);
  EXPECT_EQ(stats.clients[0].client_id, "greedy");
}

TEST(FrontendTest, TtlExpiresCachedEntries) {
  auto backend = MakeBackend("flat");
  for (const Record& r : MakeRecords(100)) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  QueryEngine engine(*backend, EngineOptions{});
  std::atomic<std::uint64_t> clock{0};
  FrontendOptions options;
  options.cache.ttl_ms = 100;
  options.now_ms = [&clock] { return clock.load(); };
  Frontend frontend(engine, options);

  ASSERT_TRUE(
      frontend.Submit("c", QueryPriority::kBatch, Probe()).get().ok());
  frontend.Flush();
  clock = 50;  // still fresh
  ASSERT_TRUE(
      frontend.Submit("c", QueryPriority::kBatch, Probe()).get().ok());
  frontend.Flush();
  EXPECT_GE(frontend.Stats().cache.hits, 1u);
  clock = 200;  // outlived the TTL
  ASSERT_TRUE(
      frontend.Submit("c", QueryPriority::kBatch, Probe()).get().ok());
  frontend.Flush();
  EXPECT_GE(frontend.Stats().cache.ttl_expirations, 1u);
}

TEST(FrontendTest, MixedPriorityStreamCompletesConsistently) {
  auto backend = MakeBackend("flat");
  const auto records = MakeRecords(400);
  for (const Record& r : records) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  auto query_gen = QueryGenerator::Create(&records, 0.5, kSeed).value();
  QueryEngine engine(*backend, EngineOptions{});
  Frontend frontend(engine, FrontendOptions{});
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 256; ++i) {
    futures.push_back(frontend.Submit(
        "tenant-" + std::to_string(i % 3),
        i % 4 == 0 ? QueryPriority::kInteractive : QueryPriority::kBatch,
        query_gen.Next()));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  frontend.Flush();
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted, 256u);
  EXPECT_EQ(stats.completed + stats.failed, 256u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(FrontendTest, SubmitIsolatesInvalidQueries) {
  // A malformed query resolves its own future with the error; a valid
  // query of another tenant that shares its dispatch round completes.
  auto backend = MakeBackend("flat");
  const auto records = MakeRecords(200);
  for (const Record& r : records) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  QueryEngine engine(*backend, EngineOptions{});

  // The dispatcher reads the clock in its first round (cache lookup);
  // parking it there lets both queries below queue for the next round.
  struct Gate {
    std::thread::id client = std::this_thread::get_id();
    std::atomic<bool> armed{true};
    std::promise<void> parked;
    std::promise<void> release;
  };
  auto gate = std::make_shared<Gate>();
  std::shared_future<void> released = gate->release.get_future().share();
  FrontendOptions options;
  options.now_ms = [gate, released] {
    if (std::this_thread::get_id() != gate->client &&
        gate->armed.exchange(false)) {
      gate->parked.set_value();
      released.wait();
    }
    return std::uint64_t{0};
  };
  Frontend frontend(engine, options);

  auto first = frontend.Submit("tenant-a", QueryPriority::kInteractive,
                               Probe());
  gate->parked.get_future().wait();
  ValueQuery valid(3);
  valid[1] = records[0][1];
  auto bad = frontend.Submit("tenant-b", QueryPriority::kInteractive,
                             ValueQuery(1));  // wrong arity
  auto good = frontend.Submit("tenant-c", QueryPriority::kInteractive,
                              valid);
  gate->release.set_value();

  EXPECT_TRUE(first.get().ok());
  auto bad_result = bad.get();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kInvalidArgument);
  auto good_result = good.get();
  ASSERT_TRUE(good_result.ok()) << good_result.status().ToString();
  EXPECT_EQ(good_result->records, backend->Execute(valid).value().records);
  frontend.Flush();
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(FrontendTest, RoundsStayWithinTheEngineBudget) {
  // The engine budgets a batch's summed bucket count, and a round is one
  // batch: two 256-bucket queries of different tenants, each within a
  // 300-bucket budget, must not fail together, and a query over the
  // budget on its own fails alone.
  const Schema schema = Schema::Create({{"a", ValueType::kInt64, 16},
                                        {"b", ValueType::kInt64, 16},
                                        {"c", ValueType::kInt64, 16}})
                            .value();
  ParallelFile file =
      ParallelFile::Create(schema, kDevices, "fx-iu2", kSeed).value();
  FieldDistribution dist;
  dist.domain = 64;
  const std::vector<Record> records =
      RecordGenerator::Create(schema, {dist, dist, dist}, kSeed)
          .value()
          .Take(400);
  for (const Record& r : records) ASSERT_TRUE(file.Insert(r).ok());
  EngineOptions engine_options;
  engine_options.enumeration_budget = 300;
  QueryEngine engine(file, engine_options);

  // Park the dispatcher in its first round so the wave below queues.
  struct Gate {
    std::thread::id client = std::this_thread::get_id();
    std::atomic<bool> armed{true};
    std::promise<void> parked;
    std::promise<void> release;
  };
  auto gate = std::make_shared<Gate>();
  std::shared_future<void> released = gate->release.get_future().share();
  FrontendOptions options;
  options.now_ms = [gate, released] {
    if (std::this_thread::get_id() != gate->client &&
        gate->armed.exchange(false)) {
      gate->parked.set_value();
      released.wait();
    }
    return std::uint64_t{0};
  };
  Frontend frontend(engine, options);

  ValueQuery probe(3);
  probe[0] = records[2][0];
  probe[1] = records[2][1];
  probe[2] = records[2][2];  // 1 bucket
  auto first = frontend.Submit("tenant-a", QueryPriority::kInteractive,
                               probe);
  gate->parked.get_future().wait();

  ValueQuery wide_b(3);
  wide_b[0] = records[0][0];  // 256 buckets
  ValueQuery wide_c(3);
  wide_c[1] = records[1][1];  // 256 buckets
  const ValueQuery over(3);   // 4096 buckets: over the budget alone
  ValueQuery narrow(3);
  narrow[0] = records[3][0];
  narrow[1] = records[3][1];  // 16 buckets
  auto b = frontend.Submit("tenant-b", QueryPriority::kInteractive, wide_b);
  auto c = frontend.Submit("tenant-c", QueryPriority::kInteractive, wide_c);
  auto d = frontend.Submit("tenant-d", QueryPriority::kInteractive, over);
  auto e = frontend.Submit("tenant-e", QueryPriority::kBatch, narrow);
  gate->release.set_value();

  EXPECT_TRUE(first.get().ok());
  const auto expect_serial = [&file](Result<QueryResult> got,
                                     const ValueQuery& query,
                                     const char* which) {
    ASSERT_TRUE(got.ok()) << which << ": " << got.status().ToString();
    const QueryResult serial = file.Execute(query).value();
    EXPECT_EQ(got->records, serial.records) << which;
    EXPECT_EQ(got->stats.qualified_per_device,
              serial.stats.qualified_per_device)
        << which;
    EXPECT_EQ(got->stats.total_qualified, serial.stats.total_qualified)
        << which;
    EXPECT_EQ(got->stats.largest_response, serial.stats.largest_response)
        << which;
    EXPECT_EQ(got->stats.records_examined, serial.stats.records_examined)
        << which;
    EXPECT_EQ(got->stats.records_matched, serial.stats.records_matched)
        << which;
  };
  expect_serial(b.get(), wide_b, "tenant-b");
  expect_serial(c.get(), wide_c, "tenant-c");
  auto d_result = d.get();
  ASSERT_FALSE(d_result.ok());
  EXPECT_EQ(d_result.status().code(), StatusCode::kInvalidArgument);
  expect_serial(e.get(), narrow, "tenant-e");
  frontend.Flush();
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(FrontendTest, DestructorDrainsOutstandingSubmissions) {
  // Futures obtained before the frontend dies must still be fulfilled.
  auto backend = MakeBackend("flat");
  const auto records = MakeRecords(200);
  for (const Record& r : records) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  auto query_gen = QueryGenerator::Create(&records, 0.5, kSeed).value();
  QueryEngine engine(*backend, EngineOptions{});
  std::vector<ValueQuery> queries;
  std::vector<std::future<Result<QueryResult>>> futures;
  {
    FrontendOptions options;
    options.cache_enabled = false;
    Frontend frontend(engine, options);
    for (int i = 0; i < 16; ++i) {
      queries.push_back(query_gen.Next());
      futures.push_back(
          frontend.Submit("c", QueryPriority::kBatch, queries.back()));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->records, backend->Execute(queries[i]).value().records);
  }
}

TEST(FrontendTest, KeyEqualityImpliesIdenticalResultsProperty) {
  // The property the cache (and the engine dedup) rests on: equal
  // canonical keys => Execute returns bit-identical results.  Random
  // queries from a narrow domain collide on keys often enough to
  // exercise it for real.
  auto backend = MakeBackend("flat");
  const auto records = MakeRecords(300);
  for (const Record& r : records) {
    ASSERT_TRUE(backend->Insert(r).ok());
  }
  auto query_gen = QueryGenerator::Create(&records, 0.5, kSeed).value();
  std::map<std::string, QueryResult> by_key;
  std::size_t collisions = 0;
  for (int i = 0; i < 400; ++i) {
    const ValueQuery q = query_gen.Next();
    const QueryResult result = backend->Execute(q).value();
    const std::string key = CanonicalQueryKey(q).ToString();
    auto [it, inserted] = by_key.try_emplace(key, result);
    if (!inserted) {
      ++collisions;
      EXPECT_EQ(result.records, it->second.records);
      EXPECT_EQ(result.stats.records_matched,
                it->second.stats.records_matched);
    }
  }
  // The draw is seeded: the stream genuinely revisits keys.
  EXPECT_GT(collisions, 0u);
}

}  // namespace
}  // namespace fxdist
