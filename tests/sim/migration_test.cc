// MigratingBackend / MigrationController tests: dual-write, incremental
// copy, atomic cutover, abort, failure handling (a target shard dying
// mid-copy), and the headline guarantee — post-cutover results are
// bit-identical to a fresh build of the target topology.  Persistence
// v4 round-trips an in-flight migration and version skew degrades to
// clean errors, never a crash.

#include "sim/migration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSourceDevices = 8;
constexpr std::uint64_t kTargetDevices = 16;

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

std::unique_ptr<StorageBackend> MakeSource() {
  return std::make_unique<ParallelFile>(
      ParallelFile::Create(TestSchema(), kSourceDevices, "fx-iu2", 42)
          .value());
}

std::unique_ptr<MigratingBackend> MakeWrapper(std::int64_t records) {
  auto wrapper = MigratingBackend::Create(MakeSource()).value();
  for (std::int64_t id = 0; id < records; ++id) {
    EXPECT_TRUE(wrapper->Insert(RecordOf(id)).ok());
  }
  return wrapper;
}

std::vector<std::int64_t> LiveIds(const StorageBackend& backend) {
  std::vector<std::int64_t> ids;
  backend.ForEachLiveRecord([&ids](const Record& r) {
    ids.push_back(std::get<std::int64_t>(r[0]));
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

QueryResult QueryId(const StorageBackend& backend, std::int64_t id) {
  ValueQuery q(2);
  q[0] = FieldValue{id};
  return backend.Execute(q).value();
}

/// Forwards to an inner backend but fails every insert once `budget`
/// records have landed — a target shard dying mid-migration.
class DyingBackend : public StorageBackend {
 public:
  DyingBackend(std::unique_ptr<StorageBackend> inner, std::uint64_t budget)
      : inner_(std::move(inner)), budget_(budget) {}

  std::string backend_name() const override {
    return inner_->backend_name();
  }
  const FieldSpec& spec() const override { return inner_->spec(); }
  const DistributionMethod& method() const override {
    return inner_->method();
  }
  const DeviceMap& device_map() const override {
    return inner_->device_map();
  }
  std::uint64_t num_records() const override {
    return inner_->num_records();
  }
  Status Insert(Record record) override {
    if (budget_ == 0) return Status::Unavailable("target shard died");
    --budget_;
    return inner_->Insert(std::move(record));
  }
  Result<std::uint64_t> Delete(const ValueQuery& query) override {
    return inner_->Delete(query);
  }
  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return inner_->HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return inner_->HashRecord(record);
  }
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override {
    inner_->ScanBucket(device, linear_bucket, fn);
  }
  Result<QueryResult> Execute(const ValueQuery& query) const override {
    return inner_->Execute(query);
  }
  std::vector<std::uint64_t> RecordCountsPerDevice() const override {
    return inner_->RecordCountsPerDevice();
  }
  std::uint64_t MutationEpoch() const override {
    return inner_->MutationEpoch();
  }
  void SaveParams(std::ostream& out) const override {
    inner_->SaveParams(out);
  }
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override {
    inner_->ForEachLiveRecord(fn);
  }

 private:
  std::unique_ptr<StorageBackend> inner_;
  std::uint64_t budget_;
};

TEST(Migration, WrapperServesSourceUnchanged) {
  auto wrapper = MakeWrapper(50);
  EXPECT_EQ(wrapper->num_records(), 50u);
  EXPECT_EQ(wrapper->TopologyVersion(), 1u);
  EXPECT_FALSE(wrapper->IsMigrating());
  EXPECT_EQ(wrapper->BucketsInMigration(), 0u);
  EXPECT_FALSE(wrapper->HasDegradedRouting());
  EXPECT_EQ(wrapper->Topology().num_devices, kSourceDevices);
  EXPECT_EQ(QueryId(*wrapper, 7).records.size(), 1u);
  // The serving plane reported to the wire handshake is the source, not
  // the wrapper itself ("migrating" is not a wire blueprint kind).
  EXPECT_NE(wrapper->ServingPlane().backend_name(), "migrating");
}

TEST(Migration, BeginRejectsMismatchedBucketSpace) {
  auto wrapper = MakeWrapper(10);
  auto other_schema =
      Schema::Create({{"id", ValueType::kInt64, 16}}).value();
  auto wrong = std::make_unique<ParallelFile>(
      ParallelFile::Create(other_schema, kTargetDevices, "fx-iu2", 42)
          .value());
  EXPECT_FALSE(wrapper->BeginMigration(std::move(wrong)).ok());
  EXPECT_FALSE(wrapper->IsMigrating());
}

TEST(Migration, PhaseControlRefusesOutOfOrderCalls) {
  auto wrapper = MakeWrapper(10);
  EXPECT_FALSE(wrapper->Cutover().ok());  // no migration
  EXPECT_FALSE(wrapper->Abort().ok());    // no migration
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  EXPECT_TRUE(wrapper->IsMigrating());
  // Second Begin while one is live: refused.
  auto target2 =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  EXPECT_FALSE(wrapper->BeginMigration(std::move(target2)).ok());
  // Cutover before the copy is done: refused.
  EXPECT_FALSE(wrapper->Cutover().ok());
  EXPECT_TRUE(wrapper->Abort().ok());
  EXPECT_FALSE(wrapper->IsMigrating());
}

TEST(Migration, QueriesAnswerMidMigrationAndCutoverIsBitIdentical) {
  auto wrapper = MakeWrapper(120);
  const std::uint64_t epoch_before = wrapper->MutationEpoch();
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  EXPECT_TRUE(wrapper->HasDegradedRouting());
  EXPECT_GT(wrapper->BucketsInMigration(), 0u);
  EXPECT_EQ(wrapper->PendingTopology().num_devices, kTargetDevices);

  // Interleave copy chunks with queries and dual-written inserts.
  std::int64_t next_id = 120;
  while (!wrapper->CopyDone()) {
    auto copied = wrapper->CopyChunk(3);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    ASSERT_TRUE(wrapper->Insert(RecordOf(next_id++)).ok());
    // Mid-migration reads see every record exactly once.
    EXPECT_EQ(QueryId(*wrapper, 7).records.size(), 1u);
    EXPECT_EQ(wrapper->num_records(),
              static_cast<std::uint64_t>(next_id));
  }
  ASSERT_TRUE(wrapper->Cutover().ok());
  EXPECT_EQ(wrapper->TopologyVersion(), 2u);
  EXPECT_FALSE(wrapper->IsMigrating());
  EXPECT_EQ(wrapper->Topology().num_devices, kTargetDevices);
  EXPECT_EQ(wrapper->num_records(), static_cast<std::uint64_t>(next_id));
  // Epochs never move backwards across phase changes.
  EXPECT_GT(wrapper->MutationEpoch(), epoch_before);

  // The headline guarantee: identical to a fresh build of the target
  // topology fed the same records in the same arrival order.
  auto fresh_seed = MakeWrapper(0);
  auto fresh =
      BuildRetargetedEmptyBackend(*fresh_seed, kTargetDevices, "fx-iu2")
          .value();
  for (std::int64_t id = 0; id < next_id; ++id) {
    ASSERT_TRUE(fresh->Insert(RecordOf(id)).ok());
  }
  EXPECT_EQ(wrapper->RecordCountsPerDevice(),
            fresh->RecordCountsPerDevice());
  for (std::int64_t id = 0; id < next_id; id += 7) {
    const QueryResult mine = QueryId(*wrapper, id);
    const QueryResult theirs = QueryId(*fresh, id);
    EXPECT_EQ(mine.records, theirs.records) << "id " << id;
    EXPECT_EQ(mine.stats.largest_response, theirs.stats.largest_response);
  }
}

// Engine batches over a wrapper part-way through a copy.  The wrapper's
// scan references live only for the scan's shared lock, so the engine
// must keep nothing past its callback; its results must match the
// wrapper's own serial Execute bit for bit between CopyChunk calls and
// after cutover.
TEST(Migration, EngineBatchesMatchSerialBetweenChunksAndAfterCutover) {
  auto wrapper = MakeWrapper(200);
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());

  // Point lookups (one duplicated, one absent), a tag-only query, an
  // overlapping id+tag query and a full scan.
  std::vector<ValueQuery> batch;
  for (std::int64_t id : {0, 7, 7, 33, 150, 199, 500}) {
    ValueQuery q(2);
    q[0] = FieldValue{id};
    batch.push_back(q);
  }
  ValueQuery tag(2);
  tag[1] = FieldValue{std::string("t")};
  batch.push_back(tag);
  ValueQuery both = tag;
  both[0] = FieldValue{std::int64_t{33}};
  batch.push_back(both);
  batch.push_back(ValueQuery(2));

  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(*wrapper, options);
  const auto expect_matches_serial = [&](const std::string& when) {
    auto results = engine.ExecuteBatch(batch);
    ASSERT_TRUE(results.ok()) << when << ": " << results.status().ToString();
    ASSERT_EQ(results->size(), batch.size()) << when;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string where = when + ", query " + std::to_string(i);
      const QueryResult serial = wrapper->Execute(batch[i]).value();
      const QueryResult& got = (*results)[i];
      EXPECT_EQ(got.records, serial.records) << where;
      EXPECT_EQ(got.stats.records_examined, serial.stats.records_examined)
          << where;
      EXPECT_EQ(got.stats.records_matched, serial.stats.records_matched)
          << where;
      EXPECT_EQ(got.stats.qualified_per_device,
                serial.stats.qualified_per_device)
          << where;
      EXPECT_EQ(got.stats.total_qualified, serial.stats.total_qualified)
          << where;
      EXPECT_EQ(got.stats.largest_response, serial.stats.largest_response)
          << where;
      EXPECT_EQ(got.stats.optimal_bound, serial.stats.optimal_bound)
          << where;
      EXPECT_EQ(got.stats.strict_optimal, serial.stats.strict_optimal)
          << where;
    }
  };

  expect_matches_serial("before the first chunk");
  int chunks = 0;
  while (!wrapper->CopyDone()) {
    auto copied = wrapper->CopyChunk(5);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    ++chunks;
    expect_matches_serial("after chunk " + std::to_string(chunks));
  }
  EXPECT_GT(chunks, 1);
  ASSERT_TRUE(wrapper->Cutover().ok());
  expect_matches_serial("after cutover");
  EXPECT_EQ(engine.Snapshot().queries_failed, 0u);
}

TEST(Migration, AbortKeepsEveryRecordAndStaysOnSource) {
  auto wrapper = MakeWrapper(60);
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  ASSERT_TRUE(wrapper->CopyChunk(5).ok());
  ASSERT_TRUE(wrapper->Insert(RecordOf(60)).ok());  // dual-written
  const std::uint64_t epoch_mid = wrapper->MutationEpoch();
  ASSERT_TRUE(wrapper->Abort().ok());
  EXPECT_FALSE(wrapper->IsMigrating());
  EXPECT_EQ(wrapper->TopologyVersion(), 1u);
  EXPECT_EQ(wrapper->Topology().num_devices, kSourceDevices);
  EXPECT_EQ(wrapper->num_records(), 61u);
  std::vector<std::int64_t> want(61);
  for (std::int64_t id = 0; id < 61; ++id) want[id] = id;
  EXPECT_EQ(LiveIds(*wrapper), want);
  // Discarding the target's epoch contribution must not rewind time.
  EXPECT_GE(wrapper->MutationEpoch(), epoch_mid);
  ASSERT_TRUE(wrapper->Insert(RecordOf(61)).ok());
  EXPECT_GT(wrapper->MutationEpoch(), epoch_mid);
}

TEST(Migration, TargetDeathFailsMigrationButSourceServesOn) {
  auto wrapper = MakeWrapper(80);
  auto inner =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  auto dying =
      std::make_unique<DyingBackend>(std::move(inner), /*budget=*/20);
  ASSERT_TRUE(wrapper->BeginMigration(std::move(dying)).ok());
  // Drive the copy into the wall.
  while (!wrapper->CopyDone() && wrapper->MigrationHealth().ok()) {
    ASSERT_TRUE(wrapper->CopyChunk(4).ok() ||
                !wrapper->MigrationHealth().ok());
  }
  EXPECT_FALSE(wrapper->MigrationHealth().ok());
  EXPECT_FALSE(wrapper->Cutover().ok());  // refused: copy failed
  // The source is still complete and serving.
  EXPECT_EQ(wrapper->num_records(), 80u);
  EXPECT_EQ(QueryId(*wrapper, 11).records.size(), 1u);
  ASSERT_TRUE(wrapper->Abort().ok());
  EXPECT_EQ(wrapper->num_records(), 80u);
}

TEST(Migration, ControllerRetriesPastAKilledShardWithoutLossOrDup) {
  auto wrapper = MakeWrapper(100);
  MigrationController::Options options;
  options.chunk_buckets = 4;
  options.max_attempts = 3;
  MigrationController controller(*wrapper, options);

  // First target dies 30 records in; the retry gets a healthy one.
  int builds = 0;
  const Status st = controller.Run(
      [&]() -> Result<std::unique_ptr<StorageBackend>> {
        auto inner =
            BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2");
        FXDIST_RETURN_NOT_OK(inner.status());
        ++builds;
        if (builds == 1) {
          return std::unique_ptr<StorageBackend>(
              std::make_unique<DyingBackend>(*std::move(inner), 30));
        }
        return inner;
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(controller.attempts(), 2);
  EXPECT_EQ(wrapper->TopologyVersion(), 2u);
  EXPECT_EQ(wrapper->Topology().num_devices, kTargetDevices);
  // No lost or duplicated records.
  EXPECT_EQ(wrapper->num_records(), 100u);
  std::vector<std::int64_t> want(100);
  for (std::int64_t id = 0; id < 100; ++id) want[id] = id;
  EXPECT_EQ(LiveIds(*wrapper), want);
}

TEST(Migration, ControllerExhaustsAttemptsAndLeavesSourceServing) {
  auto wrapper = MakeWrapper(40);
  MigrationController::Options options;
  options.chunk_buckets = 4;
  options.max_attempts = 2;
  MigrationController controller(*wrapper, options);
  const Status st = controller.Run(
      [&]() -> Result<std::unique_ptr<StorageBackend>> {
        auto inner =
            BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2");
        FXDIST_RETURN_NOT_OK(inner.status());
        return std::unique_ptr<StorageBackend>(
            std::make_unique<DyingBackend>(*std::move(inner), 5));
      });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(controller.attempts(), 2);
  EXPECT_FALSE(wrapper->IsMigrating());
  EXPECT_EQ(wrapper->TopologyVersion(), 1u);
  EXPECT_EQ(wrapper->num_records(), 40u);
}

// ---------------------------------------------------------------------
// Persistence v4: in-flight migrations round-trip; skew degrades to
// clean errors.

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------
// Deletes racing the copy cursor.  The invariant these tests document:
// CopyChunk's cursor walks *bucket ranges*, not record lists, and every
// mutation during migration is dual-applied.  So a delete landing in an
// already-copied bucket removes the record from both planes (it cannot
// resurrect at cutover), a delete in a not-yet-copied bucket removes it
// from the source before the cursor arrives (the copy just moves fewer
// records — nothing dangles), and a bucket emptied under the cursor is
// simply an empty range to copy.  No hole was found here; the tests pin
// the invariant so a future cursor optimisation cannot silently break
// it.

TEST(Migration, DeleteDuringCopyNeverResurrectsAtCutover) {
  auto wrapper = MakeWrapper(120);
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());

  // Copy roughly half the bucket space, then delete ids spread across
  // the whole domain — some live in buckets behind the cursor (already
  // on the target), some ahead of it (source-only still).
  const std::uint64_t half = wrapper->BucketsInMigration() / 2;
  ASSERT_TRUE(wrapper->CopyChunk(half).ok());
  std::vector<std::int64_t> deleted;
  for (std::int64_t id = 3; id < 120; id += 13) {
    ValueQuery q(2);
    q[0] = FieldValue{id};
    auto removed = wrapper->Delete(q);
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    EXPECT_EQ(*removed, 1u) << "id " << id;
    deleted.push_back(id);
  }
  while (!wrapper->CopyDone()) {
    ASSERT_TRUE(wrapper->CopyChunk(3).ok());
  }
  ASSERT_TRUE(wrapper->Cutover().ok());

  // None of the deleted ids came back; everything else survived.
  std::vector<std::int64_t> expected;
  for (std::int64_t id = 0; id < 120; ++id) {
    if ((id - 3) % 13 != 0 || id < 3) expected.push_back(id);
  }
  EXPECT_EQ(LiveIds(*wrapper), expected);
  for (const std::int64_t id : deleted) {
    EXPECT_TRUE(QueryId(*wrapper, id).records.empty()) << "id " << id;
  }

  // And the post-cutover form equals a fresh build without those ids.
  auto fresh_seed = MakeWrapper(0);
  auto fresh =
      BuildRetargetedEmptyBackend(*fresh_seed, kTargetDevices, "fx-iu2")
          .value();
  for (const std::int64_t id : expected) {
    ASSERT_TRUE(fresh->Insert(RecordOf(id)).ok());
  }
  EXPECT_EQ(wrapper->RecordCountsPerDevice(),
            fresh->RecordCountsPerDevice());
}

TEST(Migration, BucketEmptiedUnderTheCursorIsJustAnEmptyRange) {
  // Delete *every* record before the cursor reaches any of them: the
  // copy then walks a fully emptied bucket space.  The cursor must
  // reach the end without error, move zero records, and cut over to an
  // empty target.
  auto wrapper = MakeWrapper(40);
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  const std::uint64_t total_buckets = wrapper->BucketsInMigration();
  for (std::int64_t id = 0; id < 40; ++id) {
    ValueQuery q(2);
    q[0] = FieldValue{id};
    auto removed = wrapper->Delete(q);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(*removed, 1u);
  }
  EXPECT_EQ(wrapper->num_records(), 0u);
  // CopyChunk reports *buckets* walked; over an emptied space it still
  // advances (the ranges are just empty) and must never error.
  std::uint64_t copied_buckets = 0;
  while (!wrapper->CopyDone()) {
    auto copied = wrapper->CopyChunk(7);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    copied_buckets += *copied;
  }
  EXPECT_EQ(copied_buckets, total_buckets);
  ASSERT_TRUE(wrapper->Cutover().ok());
  EXPECT_EQ(wrapper->num_records(), 0u);
  EXPECT_TRUE(LiveIds(*wrapper).empty());
  // The emptied store still serves: a fresh insert lands normally.
  ASSERT_TRUE(wrapper->Insert(RecordOf(7)).ok());
  EXPECT_EQ(QueryId(*wrapper, 7).records.size(), 1u);
}

TEST(MigrationPersistence, IdleWrapperSavesAsPlainBackend) {
  auto wrapper = MakeWrapper(30);
  const std::string path = TempPath("idle_wrapper.fxdist");
  ASSERT_TRUE(SaveBackend(*wrapper, path).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "fxdist-backend v3");  // no in-flight state: v3
  auto loaded = LoadBackend(path).value();
  EXPECT_EQ(loaded->num_records(), 30u);
  std::remove(path.c_str());
}

TEST(MigrationPersistence, InFlightMigrationResumesFromSavedCursor) {
  auto wrapper = MakeWrapper(90);
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  ASSERT_TRUE(wrapper->CopyChunk(10).ok());
  const std::uint64_t cursor = wrapper->CopyCursor();
  ASSERT_GT(cursor, 0u);

  const std::string path = TempPath("inflight.fxdist");
  ASSERT_TRUE(SaveBackend(*wrapper, path).ok());
  {
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "fxdist-backend v4");
  }

  auto loaded = LoadBackend(path).value();
  auto* resumed = dynamic_cast<MigratingBackend*>(loaded.get());
  ASSERT_NE(resumed, nullptr);
  EXPECT_TRUE(resumed->IsMigrating());
  EXPECT_EQ(resumed->CopyCursor(), cursor);
  EXPECT_EQ(resumed->PendingTopology().num_devices, kTargetDevices);

  // Finish the resumed migration and check nothing was lost.
  while (!resumed->CopyDone()) {
    ASSERT_TRUE(resumed->CopyChunk(16).ok());
  }
  ASSERT_TRUE(resumed->Cutover().ok());
  EXPECT_EQ(resumed->num_records(), 90u);
  EXPECT_EQ(resumed->Topology().num_devices, kTargetDevices);
  std::vector<std::int64_t> want(90);
  for (std::int64_t id = 0; id < 90; ++id) want[id] = id;
  EXPECT_EQ(LiveIds(*resumed), want);
  std::remove(path.c_str());
}

TEST(MigrationPersistence, V4BlobWithV3HeaderIsRejectedNotCrashed) {
  // What an old (pre-topology) reader sees: a "migrating" section it has
  // no kind for.  Forge it by downgrading the header tag of a real v4
  // blob — the load must fail with InvalidArgument, never crash.
  auto wrapper = MakeWrapper(25);
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  ASSERT_TRUE(wrapper->CopyChunk(4).ok());
  const std::string path = TempPath("skew_v3.fxdist");
  ASSERT_TRUE(SaveBackend(*wrapper, path).ok());

  std::string blob;
  {
    std::ifstream in(path);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(blob.rfind("fxdist-backend v4", 0), 0u);
  blob.replace(0, 17, "fxdist-backend v3");
  {
    std::ofstream out(path, std::ios::trunc);
    out << blob;
  }
  auto loaded = LoadBackend(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MigrationPersistence, FutureVersionTagIsRejectedNotCrashed) {
  auto wrapper = MakeWrapper(5);
  const std::string path = TempPath("skew_v5.fxdist");
  ASSERT_TRUE(SaveBackend(*wrapper, path).ok());
  std::string blob;
  {
    std::ifstream in(path);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  blob.replace(0, 17, "fxdist-backend v5");
  {
    std::ofstream out(path, std::ios::trunc);
    out << blob;
  }
  auto loaded = LoadBackend(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(MigrationPersistence, TruncatedV4NeverCrashes) {
  auto wrapper = MakeWrapper(40);
  auto target =
      BuildRetargetedEmptyBackend(*wrapper, kTargetDevices, "fx-iu2")
          .value();
  ASSERT_TRUE(wrapper->BeginMigration(std::move(target)).ok());
  ASSERT_TRUE(wrapper->CopyChunk(6).ok());
  const std::string path = TempPath("trunc_v4.fxdist");
  ASSERT_TRUE(SaveBackend(*wrapper, path).ok());
  std::string blob;
  {
    std::ifstream in(path);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Chop at many points, including mid-header: every prefix must load
  // to a clean error, not a crash or success.
  for (std::size_t cut = 0; cut < blob.size();
       cut += 1 + blob.size() / 57) {
    const std::string piece = blob.substr(0, cut);
    {
      std::ofstream out(path, std::ios::trunc);
      out << piece;
    }
    auto loaded = LoadBackend(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kDataLoss ||
                code == StatusCode::kNotFound)
        << "prefix " << cut << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fxdist
