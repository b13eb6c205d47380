// A RemoteBackend keeps no decoded records between engine batches.
// Scan references are valid only during their callback, so the client
// delivers each kScanMatch reply straight from its decoded buffer and
// frees it: N read-only batches that together scan every bucket of the
// shard leave the process heap where it started, instead of growing
// toward a decoded copy of the shard.
//
// The heap is read through glibc's mallinfo2, so the test skips where
// that is unavailable and under sanitizers (their allocators bypass it).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "engine/query_engine.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "sim/parallel_file.h"
#include "workload/record_gen.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FXDIST_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FXDIST_TEST_UNDER_SANITIZER 1
#endif
#endif

#if defined(__GLIBC__) && !defined(FXDIST_TEST_UNDER_SANITIZER)
#if __GLIBC_PREREQ(2, 33)
#define FXDIST_TEST_HAS_MALLINFO2 1
#endif
#endif

namespace fxdist {
namespace {

#if defined(FXDIST_TEST_HAS_MALLINFO2)
constexpr std::uint64_t kDevices = 8;
constexpr std::uint64_t kSeed = 23;
constexpr std::size_t kRecords = 20000;

/// 8 * 8 * 8 * 4 = 2,048 buckets, about ten records each.
Schema DenseSchema() {
  return Schema::Create({{"a", ValueType::kInt64, 8},
                         {"b", ValueType::kInt64, 8},
                         {"c", ValueType::kInt64, 8},
                         {"d", ValueType::kInt64, 4}})
      .value();
}

/// Bytes the allocator has handed out and not yet taken back.
std::int64_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}
#endif

TEST(RemoteScanMemoryTest, ReadOnlyBatchesLeaveTheClientHeapWhereItStarted) {
#if !defined(FXDIST_TEST_HAS_MALLINFO2)
  GTEST_SKIP() << "needs glibc mallinfo2 and no sanitizer allocator";
#else
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(DenseSchema(), kDevices, "fx-iu2", kSeed)
          .value());
  auto gen = RecordGenerator::Uniform(DenseSchema(), kSeed).value();
  for (const Record& r : gen.Take(kRecords)) {
    ASSERT_TRUE(served->Insert(r).ok());
  }
  // Dense: the engine plans every qualified bucket, no live filter.
  ASSERT_LT(served->spec().TotalBuckets(), 4 * served->num_records());
  const std::uint64_t shard_bytes = served->ApproxMemoryBytes();

  auto service = std::make_shared<ShardService>(*served);
  auto transport = std::make_unique<LoopbackTransport>(
      [served, service](const std::string& request) {
        return service->HandleFrame(request);
      });
  auto remote = RemoteBackend::Connect(std::move(transport));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(**remote, options);

  // One batch per value of field a (its domain is 4x its 8 hash slots),
  // each with two more queries pinning b: one sweep over the domain
  // scans every bucket that holds a record and matches every record.
  const auto batch_for = [](std::int64_t a) {
    std::vector<ValueQuery> batch;
    ValueQuery whole_slice(4);
    whole_slice[0] = FieldValue{a};
    batch.push_back(whole_slice);
    for (std::int64_t b : {a, a + 3}) {
      ValueQuery q = whole_slice;
      q[1] = FieldValue{b};
      batch.push_back(q);
    }
    return batch;
  };
  const auto run = [&](std::int64_t a) {
    auto results = engine.ExecuteBatch(batch_for(a));
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 3u);
    EXPECT_EQ((*results)[0].stats.total_qualified, 256u);
  };

  // Warm up on one batch (first-use allocations), then measure.
  run(0);
  const std::int64_t before = HeapInUse();
  for (int round = 0; round < 2; ++round) {
    for (std::int64_t a = 0; a < 32; ++a) run(a);
  }
  const std::int64_t grown = HeapInUse() - before;
  // The sweeps really read the whole shard.
  EXPECT_GT(engine.Snapshot().records_matched, 2 * kRecords);

  // Keeping the decoded buckets would hold about the shard's own size.
  EXPECT_LT(grown, static_cast<std::int64_t>(shard_bytes / 16))
      << "heap grew " << grown << " bytes over read-only batches against a "
      << shard_bytes << "-byte shard";
  EXPECT_TRUE((*remote)->Health().ok());
#endif
}

}  // namespace
}  // namespace fxdist
