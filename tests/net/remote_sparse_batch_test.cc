// Sparse bucket spaces over the wire: when a file has far more buckets
// than records, the engine filters each device's plan through
// IsBucketLive.  A remote shard answers that hint locally (true), so an
// engine batch gathers through kScanMany frames alone — one synchronous
// liveness round trip per qualified bucket would cost thousands of
// frames per batch — and the results stay bit-identical to the served
// file's own serial Execute.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 8;
constexpr std::uint64_t kSeed = 19;
constexpr std::size_t kRecords = 3000;

/// 32 * 32 * 32 * 4 = 131,072 buckets: about 44 per record.
Schema SparseSchema() {
  return Schema::Create({{"a", ValueType::kInt64, 32},
                         {"b", ValueType::kInt64, 32},
                         {"c", ValueType::kInt64, 32},
                         {"d", ValueType::kInt64, 4}})
      .value();
}

/// Frames the served side saw, by op.
struct FrameCounts {
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> scan_many{0};
};

TEST(RemoteSparseBatchTest, EngineBatchSendsNoLivenessProbes) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(SparseSchema(), kDevices, "fx-iu2", kSeed)
          .value());
  auto gen = RecordGenerator::Uniform(SparseSchema(), kSeed).value();
  const std::vector<Record> records = gen.Take(kRecords);
  for (const Record& r : records) ASSERT_TRUE(served->Insert(r).ok());
  // The engine's sparse filter engages above four buckets per record.
  ASSERT_EQ(served->spec().TotalBuckets(), 131072u);
  ASSERT_GT(served->spec().TotalBuckets(), 4 * served->num_records());

  auto service = std::make_shared<ShardService>(*served);
  auto counts = std::make_shared<FrameCounts>();
  auto transport = std::make_unique<LoopbackTransport>(
      [served, service, counts](const std::string& request) {
        ++counts->total;
        auto frame = DecodeFrame(request);
        if (frame.ok() && frame->op == WireOp::kScanMany) ++counts->scan_many;
        return service->HandleFrame(request);
      });
  auto remote = RemoteBackend::Connect(std::move(transport));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ((*remote)->num_records(), served->num_records());

  // Half the queries leave one field open (up to 32 buckets), half two
  // (up to 1,024), with values drawn from live records.
  auto qgen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
  std::vector<ValueQuery> queries;
  for (unsigned i = 0; i < 16; ++i) {
    queries.push_back(qgen.NextWithUnspecified(1 + i % 2));
  }
  std::uint64_t qualified = 0;
  for (const ValueQuery& q : queries) {
    qualified += served->Execute(q).value().stats.total_qualified;
  }

  EngineOptions options;
  QueryEngine engine(**remote, options);
  const std::uint64_t frames_before = counts->total.load();
  const std::uint64_t scans_before = counts->scan_many.load();
  auto batched = engine.ExecuteBatch(queries);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const std::uint64_t frames = counts->total.load() - frames_before;

  // Every frame of the batch is a kScanMany: no probes of any kind.
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(counts->scan_many.load() - scans_before, frames);
  // A probe per qualified bucket would dwarf the gather.
  EXPECT_LT(frames, qualified / 8) << frames << " frames for " << qualified
                                   << " qualified buckets";

  ASSERT_EQ(batched->size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string where = "query " + std::to_string(i);
    auto serial = served->Execute(queries[i]);
    ASSERT_TRUE(serial.ok()) << where;
    const QueryResult& got = (*batched)[i];
    EXPECT_EQ(got.records, serial->records) << where;
    EXPECT_EQ(got.stats.qualified_per_device,
              serial->stats.qualified_per_device)
        << where;
    EXPECT_EQ(got.stats.total_qualified, serial->stats.total_qualified)
        << where;
    EXPECT_EQ(got.stats.largest_response, serial->stats.largest_response)
        << where;
    EXPECT_EQ(got.stats.optimal_bound, serial->stats.optimal_bound) << where;
    EXPECT_EQ(got.stats.strict_optimal, serial->stats.strict_optimal)
        << where;
    EXPECT_EQ(got.stats.records_examined, serial->stats.records_examined)
        << where;
    EXPECT_EQ(got.stats.records_matched, serial->stats.records_matched)
        << where;
    EXPECT_EQ(got.stats.disk_timing.parallel_ms,
              serial->stats.disk_timing.parallel_ms)
        << where;
    EXPECT_EQ(got.stats.disk_timing.serial_ms,
              serial->stats.disk_timing.serial_ms)
        << where;
  }

  // The hint itself costs nothing on the wire.
  const std::uint64_t before_probe = counts->total.load();
  EXPECT_TRUE((*remote)->IsBucketLive(0, 0));
  EXPECT_EQ(counts->total.load(), before_probe);
  EXPECT_TRUE((*remote)->Health().ok());
}

}  // namespace
}  // namespace fxdist
