// The filtered gather (kScanMatch): the request layout pinned byte for
// byte, which chunks go out unfiltered, the server's refusals of
// untrusted requests, the one-ref split of a filtered chunk that
// outgrows the frame limit, and what a client does when a scan frame
// fails: a refusal poisons it, so Health() reports the buckets it never
// delivered instead of letting an engine batch or a migration copy go on
// without them, while a kError reply (the server never ran the scan) is
// retried.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "net/remote_backend.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/migration.h"
#include "sim/parallel_file.h"

namespace fxdist {
namespace {

Schema RigSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

/// id plus a string wide enough that a few dozen records outgrow the
/// 4 MiB frame limit.
Schema BlobSchema() {
  return Schema::Create({{"id", ValueType::kInt64, 8},
                         {"blob", ValueType::kString, 4}})
      .value();
}

Record BlobRecord(std::int64_t id) {
  return {FieldValue{id}, FieldValue{std::string(64 << 10, 'a')}};
}

/// A query pinning `field` to `value`, every other field open.  Fields
/// are assigned from an lvalue: GCC 12 under ASan warns, falsely, that a
/// brace-initialized list of optional<FieldValue> may read an
/// uninitialized string.
ValueQuery Pin(std::size_t arity, std::size_t field, const FieldValue& value) {
  ValueQuery query(arity);
  query[field] = value;
  return query;
}

void AppendLe(std::string* out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

/// A one-byte varint (every count and index below is under 128).
void AppendSmallVarint(std::string* out, std::uint64_t value) {
  ASSERT_LT(value, 128u);
  out->push_back(static_cast<char>(value));
}

/// The request frames a RemoteBackend sent, and its service.
struct Rig {
  std::shared_ptr<ParallelFile> served;
  std::shared_ptr<ShardService> service;
  std::shared_ptr<std::vector<std::string>> requests;
  std::unique_ptr<RemoteBackend> remote;
};

Rig MakeRig(const Schema& schema, std::uint64_t devices) {
  Rig rig;
  rig.served = std::make_shared<ParallelFile>(
      ParallelFile::Create(schema, devices, "fx-iu2", 7).value());
  rig.service = std::make_shared<ShardService>(*rig.served);
  rig.requests = std::make_shared<std::vector<std::string>>();
  auto transport = std::make_unique<LoopbackTransport>(
      [served = rig.served, service = rig.service,
       requests = rig.requests](const std::string& request) {
        requests->push_back(request);
        return service->HandleFrame(request);
      });
  RemoteBackend::Options options;
  options.backoff_initial_ms = 0;
  rig.remote = RemoteBackend::Connect(std::move(transport), options).value();
  rig.requests->clear();
  return rig;
}

/// The status of a reply frame the service produced.
Status ReplyStatus(const std::string& bytes) {
  auto frame = DecodeFrame(bytes);
  if (!frame.ok()) return frame.status();
  PayloadReader reader(frame->payload);
  Status status;
  const Status parse = reader.ReadStatusInto(&status);
  return parse.ok() ? status : parse;
}

/// Op and the leading varint count of a kScanMatch frame's refs: the
/// query table comes first, so skip it.
std::pair<WireOp, std::uint64_t> OpAndRefCount(const std::string& bytes) {
  auto frame = DecodeFrame(bytes);
  if (!frame.ok()) return {WireOp::kError, 0};
  PayloadReader reader(frame->payload);
  if (frame->op != WireOp::kScanMatch) {
    return {frame->op, reader.U64().ValueOr(0)};
  }
  const std::uint64_t queries = reader.Varint().ValueOr(0);
  for (std::uint64_t q = 0; q < queries; ++q) {
    if (!reader.ReadQuery().ok()) return {WireOp::kError, 0};
  }
  return {frame->op, reader.Varint().ValueOr(0)};
}

// The request layout from first principles: the frame's distinct
// queries once (varint count, then WriteQuery: u32 arity, per field a
// presence byte and a tagged value), then the refs (varint count; per ref
// varint device, zigzag delta of the linear bucket, varint covering count
// and varint indices).  Queries enter the table in first-use order.
TEST(ScanMatchWire, GoldenRequestFrame) {
  Rig rig = MakeRig(RigSchema(), 2);
  const ValueQuery q0 = Pin(2, 0, FieldValue{std::int64_t{5}});
  const ValueQuery q1 = Pin(2, 1, FieldValue{std::int64_t{300}});
  // The engine's table order is q1, q0; the frame's is first use.
  const std::vector<const ValueQuery*> table = {&q1, &q0};
  const std::vector<std::uint32_t> both = {1, 0};
  const std::vector<std::uint32_t> only_q1 = {0};
  const std::vector<std::uint32_t> only_q0 = {1};
  const DeviceMap& map = rig.remote->device_map();
  ScanFilter first{table, both};
  ScanFilter second{table, only_q1};
  ScanFilter third{table, only_q0};
  const std::vector<BucketRef> refs = {
      {map.DeviceOfLinear(7), 7, &first},
      {map.DeviceOfLinear(2), 2, &second},
      {map.DeviceOfLinear(9), 9, &third}};
  rig.remote->ScanMany(refs, [](std::size_t, const Record&) { return true; });
  ASSERT_TRUE(rig.remote->Health().ok()) << rig.remote->Health().ToString();
  ASSERT_EQ(rig.requests->size(), 1u);

  std::string payload;
  AppendSmallVarint(&payload, 2);  // queries
  // q0: arity 2, f0 = int64 5, f1 open.
  AppendLe(&payload, 2, 4);
  AppendLe(&payload, 1, 1);
  AppendLe(&payload, 0, 1);  // ValueType::kInt64
  AppendLe(&payload, 5, 8);
  AppendLe(&payload, 0, 1);
  // q1: arity 2, f0 open, f1 = int64 300.
  AppendLe(&payload, 2, 4);
  AppendLe(&payload, 0, 1);
  AppendLe(&payload, 1, 1);
  AppendLe(&payload, 0, 1);
  AppendLe(&payload, 300, 8);
  AppendSmallVarint(&payload, 3);  // refs
  AppendSmallVarint(&payload, map.DeviceOfLinear(7));
  AppendSmallVarint(&payload, 14);  // zigzag(+7)
  AppendSmallVarint(&payload, 2);   // covers engine entries 1, 0:
  AppendSmallVarint(&payload, 0);   // q0, the frame's entry 0
  AppendSmallVarint(&payload, 1);   // q1, the frame's entry 1
  AppendSmallVarint(&payload, map.DeviceOfLinear(2));
  AppendSmallVarint(&payload, 9);  // zigzag(-5)
  AppendSmallVarint(&payload, 1);
  AppendSmallVarint(&payload, 1);
  AppendSmallVarint(&payload, map.DeviceOfLinear(9));
  AppendSmallVarint(&payload, 14);  // zigzag(+7)
  AppendSmallVarint(&payload, 1);
  AppendSmallVarint(&payload, 0);

  auto frame = DecodeFrame(rig.requests->front());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->op, WireOp::kScanMatch);
  EXPECT_FALSE(frame->is_reply);
  EXPECT_EQ(frame->payload, payload);

  std::string expected;
  AppendLe(&expected, kWireMagic, 4);
  AppendLe(&expected, kWireVersion, 2);
  AppendLe(&expected, 16, 1);  // the opcode value itself is wire contract
  AppendLe(&expected, 0, 1);   // request, not reply
  AppendLe(&expected, frame->correlation_id, 8);
  AppendLe(&expected, payload.size(), 4);
  expected += payload;
  AppendLe(&expected, WireChecksum(expected), 8);
  EXPECT_EQ(rig.requests->front(), expected);
}

// kScanMatch carries filtered refs only: a chunk holding an unfiltered
// ref (ScanBucket, a migration copy, or a caller mixing the two) goes out
// as kScanMany, its bytes unchanged, and delivers every record with no
// skip counted.
TEST(ScanMatchWire, ChunkWithAnUnfilteredRefGoesOutAsScanMany) {
  Rig rig = MakeRig(RigSchema(), 2);
  for (std::int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(rig.served->Insert({FieldValue{i % 7}, FieldValue{i % 5}})
                    .ok());
  }
  const ValueQuery query = Pin(2, 0, FieldValue{std::int64_t{3}});
  const std::vector<const ValueQuery*> table = {&query};
  const std::vector<std::uint32_t> covering = {0};
  const std::uint64_t total = rig.remote->spec().TotalBuckets();
  std::vector<ScanFilter> filters(total, ScanFilter{table, covering});
  std::vector<BucketRef> refs;
  for (std::uint64_t bucket = 0; bucket < total; ++bucket) {
    refs.push_back({rig.remote->device_map().DeviceOfLinear(bucket), bucket,
                    bucket == 5 ? nullptr : &filters[bucket]});
  }
  std::uint64_t delivered = 0;
  rig.remote->ScanMany(refs, [&delivered](std::size_t, const Record&) {
    ++delivered;
    return true;
  });
  ASSERT_TRUE(rig.remote->Health().ok()) << rig.remote->Health().ToString();
  ASSERT_EQ(rig.requests->size(), 1u);
  EXPECT_EQ(OpAndRefCount(rig.requests->front()),
            std::make_pair(WireOp::kScanMany, total));
  EXPECT_EQ(delivered, 60u);
  for (const ScanFilter& filter : filters) EXPECT_EQ(filter.skipped, 0u);
}

// Refs may name different query tables (the contract only asks that
// each ref's indices point into its own).  Alternating two tables across
// a chunk, every ref still gets exactly the records one of its own
// queries matches, in scan order, and the rest counted as skipped.
TEST(ScanMatchWire, RefsNamingDifferentTablesEachGetTheirOwnMatches) {
  Rig rig = MakeRig(RigSchema(), 2);
  for (std::int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(rig.served->Insert({FieldValue{i % 7}, FieldValue{i % 5}})
                    .ok());
  }
  const std::vector<ValueQuery> a = {Pin(2, 0, FieldValue{std::int64_t{3}})};
  const std::vector<ValueQuery> b = {Pin(2, 1, FieldValue{std::int64_t{2}}),
                                     Pin(2, 0, FieldValue{std::int64_t{5}})};
  const std::vector<const ValueQuery*> table_a = {&a[0]};
  const std::vector<const ValueQuery*> table_b = {&b[0], &b[1]};
  const std::vector<std::uint32_t> all_a = {0};
  const std::vector<std::uint32_t> all_b = {1, 0};
  const std::uint64_t total = rig.remote->spec().TotalBuckets();
  std::vector<ScanFilter> filters;
  for (std::uint64_t bucket = 0; bucket < total; ++bucket) {
    filters.push_back(bucket % 2 == 0 ? ScanFilter{table_a, all_a}
                                      : ScanFilter{table_b, all_b});
  }
  std::vector<BucketRef> refs;
  for (std::uint64_t bucket = 0; bucket < total; ++bucket) {
    refs.push_back({rig.remote->device_map().DeviceOfLinear(bucket), bucket,
                    &filters[bucket]});
  }
  std::vector<std::vector<Record>> got(total);
  rig.remote->ScanMany(refs, [&got](std::size_t i, const Record& r) {
    got[i].push_back(r);
    return true;
  });
  ASSERT_TRUE(rig.remote->Health().ok()) << rig.remote->Health().ToString();
  ASSERT_EQ(rig.requests->size(), 1u);
  EXPECT_EQ(OpAndRefCount(rig.requests->front()),
            std::make_pair(WireOp::kScanMatch, total));
  std::uint64_t delivered = 0;
  for (std::uint64_t bucket = 0; bucket < total; ++bucket) {
    std::vector<Record> expected;
    std::uint64_t skipped = 0;
    rig.served->ScanBucket(refs[bucket].device, bucket, [&](const Record& r) {
      if (filters[bucket].Matches(r)) {
        expected.push_back(r);
      } else {
        ++skipped;
      }
      return true;
    });
    EXPECT_EQ(got[bucket], expected) << "bucket " << bucket;
    EXPECT_EQ(filters[bucket].skipped, skipped) << "bucket " << bucket;
    delivered += got[bucket].size();
  }
  EXPECT_GT(delivered, 0u);
}

/// A kScanMatch request: `queries`, then refs of (device, bucket,
/// covering indices).
std::string ScanMatchRequest(
    const std::vector<ValueQuery>& queries,
    const std::vector<std::tuple<std::uint64_t, std::uint64_t,
                                 std::vector<std::uint64_t>>>& refs) {
  PayloadWriter writer;
  writer.Varint(queries.size());
  for (const ValueQuery& query : queries) writer.WriteQuery(query);
  writer.Varint(refs.size());
  std::uint64_t previous = 0;
  for (const auto& [device, bucket, covering] : refs) {
    writer.Varint(device);
    writer.Zigzag(static_cast<std::int64_t>(bucket - previous));
    previous = bucket;
    writer.Varint(covering.size());
    for (std::uint64_t index : covering) writer.Varint(index);
  }
  return EncodeFrame({WireOp::kScanMatch, false, writer.Take(), 3});
}

TEST(ScanMatchWire, QueryArityPastTheSchemaIsInvalidArgument) {
  Rig rig = MakeRig(RigSchema(), 2);
  ASSERT_TRUE(rig.served->Insert({FieldValue{std::int64_t{1}},
                                  FieldValue{std::int64_t{2}}})
                  .ok());
  const std::uint64_t device = rig.served->device_map().DeviceOfLinear(0);
  // A third field would make the filter read past every two-field record.
  const ValueQuery wide = Pin(3, 2, FieldValue{std::int64_t{1}});
  const Status status = ReplyStatus(rig.service->HandleFrame(
      ScanMatchRequest({wide}, {{device, 0, {0}}})));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  const ValueQuery narrow = Pin(1, 0, FieldValue{std::int64_t{1}});
  EXPECT_EQ(ReplyStatus(rig.service->HandleFrame(
                            ScanMatchRequest({narrow}, {{device, 0, {0}}})))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanMatchWire, CoveringIndexPastTheTableIsRefused) {
  Rig rig = MakeRig(RigSchema(), 2);
  const std::uint64_t device = rig.served->device_map().DeviceOfLinear(0);
  const ValueQuery query = Pin(2, 0, FieldValue{std::int64_t{1}});
  const Status status = ReplyStatus(rig.service->HandleFrame(
      ScanMatchRequest({query}, {{device, 0, {0, 1}}})));
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  // No table at all: every index is past it.
  EXPECT_EQ(ReplyStatus(rig.service->HandleFrame(
                            ScanMatchRequest({}, {{device, 0, {0}}})))
                .code(),
            StatusCode::kOutOfRange);
  // The refs are checked as kScanMany checks them.
  EXPECT_EQ(ReplyStatus(rig.service->HandleFrame(
                            ScanMatchRequest({query}, {{2, 0, {0}}})))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ReplyStatus(rig.service->HandleFrame(
                            ScanMatchRequest({query}, {{device, 64, {0}}})))
                .code(),
            StatusCode::kOutOfRange);
  // A well-formed request still gets an answer.
  EXPECT_TRUE(ReplyStatus(rig.service->HandleFrame(
                              ScanMatchRequest({query}, {{device, 0, {0}}})))
                  .ok());
}

// 80 records of 64 KiB: 75 queries, each pinning one id, cover every
// bucket, so the whole chunk's matches (75 records, 4.8 MiB) outgrow the
// frame limit while each bucket's fit.  The chunk is re-sent one ref per
// kScanMatch frame, every match arrives once, and the five records no
// query matches are counted as skipped exactly once.
TEST(ScanMatchWire, OversizedFilteredChunkSplitsWithoutDoubleCountingSkips) {
  Rig rig = MakeRig(BlobSchema(), 4);
  std::vector<Record> records;
  for (std::int64_t i = 0; i < 80; ++i) {
    records.push_back(BlobRecord(i));
    ASSERT_TRUE(rig.served->Insert(records.back()).ok());
  }
  std::vector<ValueQuery> queries;
  for (std::int64_t i = 0; i < 75; ++i) {
    queries.push_back(Pin(2, 0, FieldValue{i}));
  }
  std::vector<const ValueQuery*> table;
  std::vector<std::uint32_t> covering;
  for (std::uint32_t q = 0; q < queries.size(); ++q) {
    table.push_back(&queries[q]);
    covering.push_back(q);
  }
  const std::uint64_t total = rig.remote->spec().TotalBuckets();
  std::vector<ScanFilter> filters(total, ScanFilter{table, covering});
  std::vector<BucketRef> refs;
  for (std::uint64_t b = 0; b < total; ++b) {
    refs.push_back({rig.remote->device_map().DeviceOfLinear(b), b,
                    &filters[b]});
  }
  std::vector<Record> delivered;
  rig.remote->ScanMany(refs, [&delivered](std::size_t, const Record& r) {
    delivered.push_back(r);
    return true;
  });
  ASSERT_TRUE(rig.remote->Health().ok()) << rig.remote->Health().ToString();
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered,
            std::vector<Record>(records.begin(), records.begin() + 75));
  std::uint64_t skipped = 0;
  for (const ScanFilter& filter : filters) skipped += filter.skipped;
  EXPECT_EQ(skipped, 5u);
  // One whole-chunk frame whose reply was refused, then one per ref.
  ASSERT_EQ(rig.requests->size(), 1 + refs.size());
  EXPECT_EQ(OpAndRefCount(rig.requests->front()),
            std::make_pair(WireOp::kScanMatch, std::uint64_t{refs.size()}));
  for (std::size_t i = 1; i < rig.requests->size(); ++i) {
    EXPECT_EQ(OpAndRefCount((*rig.requests)[i]),
              std::make_pair(WireOp::kScanMatch, std::uint64_t{1}));
  }
}

/// A 64 KiB string with `tag` written over its front.
std::string LongString(const std::string& tag) {
  std::string blob(64 << 10, 'b');
  blob.replace(0, tag.size(), tag);
  return blob;
}

// Seventy queries pin the blob field to distinct 64 KiB strings of one
// blob hash, so they cover the same eight buckets and each bucket's
// covering queries alone (4.5 MiB) outgrow the 4 MiB frame limit.  Every
// whole-chunk kScanMatch request is refused before it is sent, and each
// lone ref goes out as kScanMany with its skip count left at 0: the
// engine filters what the server ships.  The batch equals the served
// file's own Execute query by query, and the client stays healthy.
// So does a composite over remote children running its own Execute of
// one query larger than a frame.
TEST(ScanMatchWire, LoneRefWhoseQueriesOutgrowTheFrameGoesOutAsScanMany) {
  Rig rig = MakeRig(BlobSchema(), 4);
  std::vector<ValueQuery> queries;
  std::optional<std::uint64_t> blob_hash;
  for (int i = 0; queries.size() < 70; ++i) {
    ValueQuery query =
        Pin(2, 1, FieldValue{LongString("q" + std::to_string(i))});
    const std::uint64_t hash = rig.served->HashQuery(query).value().value(1);
    if (!blob_hash) blob_hash = hash;
    if (hash == *blob_hash) queries.push_back(std::move(query));
  }
  // Every fifth query matches a record; ten records match none.
  for (std::size_t q = 0; q < queries.size(); q += 5) {
    ASSERT_TRUE(rig.served
                    ->Insert({FieldValue{static_cast<std::int64_t>(q)},
                              *queries[q][1]})
                    .ok());
  }
  for (std::int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.served
                    ->Insert({FieldValue{i},
                              FieldValue{LongString("r" + std::to_string(i))}})
                    .ok());
  }
  // One engine thread: the rig's request log is not synchronized.
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(*rig.remote, options);
  auto results = engine.ExecuteBatch(queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_TRUE(rig.remote->Health().ok()) << rig.remote->Health().ToString();
  std::uint64_t matched = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const QueryResult expected = rig.served->Execute(queries[q]).value();
    EXPECT_EQ((*results)[q].records, expected.records) << q;
    EXPECT_EQ((*results)[q].stats.records_examined,
              expected.stats.records_examined)
        << q;
    matched += expected.records.size();
  }
  EXPECT_EQ(matched, 14u);
  // Eight qualified buckets, each a one-ref kScanMany.
  ASSERT_EQ(rig.requests->size(), 8u);
  for (const std::string& request : *rig.requests) {
    EXPECT_EQ(OpAndRefCount(request),
              std::make_pair(WireOp::kScanMany, std::uint64_t{1}));
  }

  // A composite's Execute filters each ref by its one query, here a
  // string larger than a frame that no record holds.
  std::vector<std::unique_ptr<StorageBackend>> children;
  std::vector<std::unique_ptr<StorageBackend>> local_children;
  for (int d = 0; d < 2; ++d) {
    children.push_back(std::move(MakeRig(BlobSchema(), 2).remote));
    local_children.push_back(std::make_unique<ParallelFile>(
        ParallelFile::Create(BlobSchema(), 2, "fx-iu2", 7).value()));
  }
  ShardedBackend remote = ShardedBackend::Create(std::move(children)).value();
  ShardedBackend local =
      ShardedBackend::Create(std::move(local_children)).value();
  for (std::int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(remote.Insert(BlobRecord(i)).ok());
    ASSERT_TRUE(local.Insert(BlobRecord(i)).ok());
  }
  const ValueQuery huge =
      Pin(2, 1, FieldValue{std::string(5 << 20, 'h')});
  auto got = remote.Execute(huge);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const QueryResult want = local.Execute(huge).value();
  EXPECT_TRUE(got->records.empty());
  EXPECT_EQ(got->stats.records_examined, want.stats.records_examined);
  EXPECT_EQ(got->stats.qualified_per_device, want.stats.qualified_per_device);
  EXPECT_TRUE(remote.Health().ok()) << remote.Health().ToString();
}

// A server that refuses every scan frame with an application status:
// the client never goes terminal (the server answered), so before scan
// refusals poisoned the client an engine batch returned without those
// buckets' records and Health() stayed OK.
TEST(ScanRefusalTest, RefusedScanFramesFailTheEngineBatch) {
  auto served = std::make_shared<ParallelFile>(
      ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
  for (std::int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(served->Insert({FieldValue{i}, FieldValue{i % 5}}).ok());
  }
  auto service = std::make_shared<ShardService>(*served);
  auto connect = [&served, &service] {
    auto transport = std::make_unique<LoopbackTransport>(
        [served, service](const std::string& request) {
          auto frame = DecodeFrame(request);
          if (frame.ok() && (frame->op == WireOp::kScanMany ||
                             frame->op == WireOp::kScanMatch)) {
            return EncodeShardReply(frame->op,
                                    Status::OutOfRange("scan refused"), "",
                                    frame->correlation_id);
          }
          return service->HandleFrame(request);
        });
    return RemoteBackend::Connect(std::move(transport)).value();
  };

  const std::vector<ValueQuery> batch = {
      Pin(2, 0, FieldValue{std::int64_t{3}}),
      Pin(2, 1, FieldValue{std::int64_t{3}})};
  auto filtered = connect();
  QueryEngine engine(*filtered, EngineOptions{});
  auto results = engine.ExecuteBatch(batch);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results.status().message().find("scan refused"),
            std::string::npos)
      << results.status().ToString();
  EXPECT_EQ(filtered->Health().code(), StatusCode::kFailedPrecondition);

  // An unfiltered scan (kScanMany) reports the same way.
  auto plain = connect();
  std::uint64_t visited = 0;
  plain->ScanBucket(0, 0, [&visited](const Record&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0u);
  const Status health = plain->Health();
  EXPECT_EQ(health.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(health.message().find("scan refused"), std::string::npos)
      << health.ToString();
}

// A kError reply to a scan says the server never ran it: the event
// server sends one when it sheds a connection (ResourceExhausted) or
// evicts one whose request missed the read deadline (DeadlineExceeded).
// Nothing about the refs would repeat, so the scan retries instead of
// poisoning: one such reply costs one retry and the client stays whole.
// A server that drops every attempt spends the retry budget, and the
// client goes terminal (Unavailable) as for any transport failure.
TEST(ScanRefusalTest, ErrorRepliesToScansRetryInsteadOfPoisoning) {
  const std::vector<ValueQuery> batch = {
      Pin(2, 0, FieldValue{std::int64_t{3}}),
      Pin(2, 1, FieldValue{std::int64_t{3}})};
  for (const Status& dropped :
       {Status::ResourceExhausted("connection limit 1 reached"),
        Status::DeadlineExceeded("frame not completed within 50ms")}) {
    SCOPED_TRACE(dropped.ToString());
    auto served = std::make_shared<ParallelFile>(
        ParallelFile::Create(RigSchema(), 2, "fx-iu2", 7).value());
    for (std::int64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(served->Insert({FieldValue{i}, FieldValue{i % 5}}).ok());
    }
    auto service = std::make_shared<ShardService>(*served);
    // kError replies left to send, and scan frames seen.
    auto to_drop = std::make_shared<std::atomic<int>>(1);
    auto scan_frames = std::make_shared<std::atomic<int>>(0);
    auto transport = std::make_unique<LoopbackTransport>(
        [served, service, to_drop, scan_frames,
         dropped](const std::string& request) {
          auto frame = DecodeFrame(request);
          if (frame.ok() && (frame->op == WireOp::kScanMany ||
                             frame->op == WireOp::kScanMatch)) {
            ++*scan_frames;
            if (to_drop->fetch_sub(1) > 0) {
              return EncodeShardErrorReplyFor(request, dropped);
            }
          }
          return service->HandleFrame(request);
        });
    RemoteBackend::Options options;
    options.backoff_initial_ms = 0;
    auto remote =
        RemoteBackend::Connect(std::move(transport), options).value();

    QueryEngine engine(*remote, EngineOptions{});
    auto results = engine.ExecuteBatch(batch);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ((*results)[i].records, served->Execute(batch[i])->records);
    }
    EXPECT_TRUE(remote->Health().ok()) << remote->Health().ToString();
    EXPECT_TRUE(remote->Insert({FieldValue{std::int64_t{99}},
                                FieldValue{std::int64_t{1}}})
                    .ok());

    to_drop->store(1000);
    const int before = scan_frames->load();
    std::uint64_t visited = 0;
    remote->ScanBucket(0, 0, [&visited](const Record&) {
      ++visited;
      return true;
    });
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(scan_frames->load() - before, options.max_attempts);
    const Status health = remote->Health();
    EXPECT_EQ(health.code(), StatusCode::kUnavailable) << health.ToString();
    EXPECT_NE(health.message().find(dropped.message()), std::string::npos)
        << health.ToString();
  }
}

// A bucket whose records alone outgrow the frame limit: 70 copies of one
// 64 KiB record hash to one bucket.  Its one-ref frame is refused too, so
// the client poisons, and Health() says why.
TEST(ScanRefusalTest, OversizedBucketReportsThroughHealth) {
  Rig rig = MakeRig(BlobSchema(), 4);
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(rig.served->Insert(BlobRecord(1)).ok());
  }
  ASSERT_TRUE(rig.remote->Health().ok());
  const BucketId bucket = rig.served->HashRecord(BlobRecord(1)).value();
  const std::uint64_t linear = LinearIndex(rig.served->spec(), bucket);
  const std::uint64_t device =
      rig.served->device_map().DeviceOfLinear(linear);
  std::uint64_t visited = 0;
  rig.remote->ScanBucket(device, linear, [&visited](const Record&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0u);
  const Status health = rig.remote->Health();
  EXPECT_EQ(health.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(health.message().find("exceeds the frame payload limit"),
            std::string::npos)
      << health.ToString();
  // Poisoned is sticky: every later operation refuses with the cause.
  EXPECT_EQ(rig.remote->Execute(Pin(2, 0, FieldValue{std::int64_t{1}}))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// A migration copying from a remote source that holds such a bucket must
// fail the chunk instead of advancing its cursor past records it never
// copied (the cutover would then lose them).
TEST(ScanRefusalTest, CopyChunkOverAnOversizedBucketFails) {
  Rig rig = MakeRig(BlobSchema(), 4);
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(rig.served->Insert(BlobRecord(1)).ok());
  }
  ASSERT_TRUE(rig.served->Insert(BlobRecord(2)).ok());
  auto migrating = MigratingBackend::Create(std::move(rig.remote)).value();
  ASSERT_TRUE(migrating
                  ->BeginMigration(std::make_unique<ParallelFile>(
                      ParallelFile::Create(BlobSchema(), 2, "fx-iu2", 7)
                          .value()))
                  .ok());
  auto copied = migrating->CopyChunk(migrating->spec().TotalBuckets());
  ASSERT_FALSE(copied.ok());
  EXPECT_EQ(copied.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(migrating->CopyCursor(), 0u);
  EXPECT_FALSE(migrating->MigrationHealth().ok());
  EXPECT_FALSE(migrating->Cutover().ok());
}

}  // namespace
}  // namespace fxdist
