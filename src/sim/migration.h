// Live topology migration: online elastic resharding with dual-write,
// incremental bucket copy, and atomic cutover.
//
// MigratingBackend wraps an *active* StorageBackend (the source) and
// drives a second, empty backend (the target — any device count, any
// distribution scheme over the same bucket space) through three phases:
//
//   1. dual-write — every mutation applies to the source and, for
//      buckets the copy cursor has already passed, to the target too.
//      Both writes bump the mutation epoch, so the front door's
//      ResultCache invalidates exactly as for any other mutation.
//   2. incremental copy — CopyChunk moves bucket ranges [cursor,
//      cursor+n) from source to target with ONE ScanMany scatter-gather
//      (a remote child sees one frame per chunk, not one per bucket)
//      and one routed InsertBatch.  Linear bucket ids are M-independent,
//      so a record's bucket means the same thing in both placements;
//      copying buckets in ascending order reproduces exactly the insert
//      order a fresh build of the target would see — post-cutover
//      results are bit-identical to that fresh build.
//   3. atomic cutover — once the cursor covers the bucket space, the
//      target becomes the active plane under the wrapper's write lock
//      and a new TopologyVersion is published.  The engine brackets
//      every batch with two version loads (seqlock-style) and retries
//      on change, so no batch ever mixes accounting from two
//      placements.  The retired source stays allocated until the
//      wrapper dies: references the engine captured just before a
//      cutover stay valid (stale, and discarded by the retry) instead
//      of dangling.
//
// Unlike every other backend, MigratingBackend is *internally*
// synchronized (readers shared, mutators and phase changes exclusive):
// the whole point is queries keep answering while a background thread
// copies buckets.  ScanRecordsAreStable() is false — record references
// only live for the duration of a scan's shared lock, which the scan
// contract allows of every backend.
//
// Failure: if a dual-write or chunk copy fails (a remote target shard
// died), the migration is marked failed — the source is still complete
// and serving, Cutover() refuses, and Abort() discards the target so a
// fresh attempt can start.  MigrationController packages that retry
// loop.  An in-progress migration round-trips through persistence v4
// (sim/persistence.h) so a restart resumes from the saved cursor.

#ifndef FXDIST_SIM_MIGRATION_H_
#define FXDIST_SIM_MIGRATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/topology.h"
#include "sim/storage_backend.h"

namespace fxdist {

class MigratingBackend : public StorageBackend {
 public:
  /// Wraps `source` as the active plane at topology version 1.  (The
  /// wrapper is heap-only: it owns a shared_mutex.)
  static Result<std::unique_ptr<MigratingBackend>> Create(
      std::unique_ptr<StorageBackend> source);

  // -- Phase control (driven by MigrationController or a tool) ---------

  /// Starts a migration onto `target`: an empty, mutable backend over
  /// the same bucket space (field sizes must match; device count and
  /// scheme are free — that is the point).  Dual-write begins at once.
  Status BeginMigration(std::unique_ptr<StorageBackend> target);

  /// Copies up to `max_buckets` buckets at the cursor from source to
  /// target (one ScanMany scatter + one routed InsertBatch) and
  /// advances the cursor.  Returns the number of buckets copied (0 when
  /// the cursor already covers the space).  Exclusive with readers for
  /// the duration of the chunk — keep chunks small to keep queries
  /// answering between them.
  Result<std::uint64_t> CopyChunk(std::uint64_t max_buckets);

  /// Replays CopyChunk until the cursor reaches `cursor` — how a
  /// persistence-v4 load resumes an interrupted migration.
  Status CopyUntil(std::uint64_t cursor);

  /// Atomically swaps the target in as the active plane and publishes
  /// the next TopologyVersion.  Requires a complete, healthy copy
  /// (cursor at end, no failed dual-write).  The retired source stays
  /// allocated (see file comment).
  Status Cutover();

  /// Discards the target and returns to normal single-plane serving.
  /// Always safe before Cutover: the source holds every record (writes
  /// go source-first).  Refused when no migration is in progress.
  Status Abort();

  bool IsMigrating() const;
  /// True once every bucket has been copied (and a migration is live).
  bool CopyDone() const;
  std::uint64_t CopyCursor() const;
  /// OK, or the first dual-write / copy failure of the current attempt.
  Status MigrationHealth() const;
  /// The active topology generation (scheme + M + version).
  TopologyVersionInfo Topology() const { return handle_.Get(); }
  /// What the topology will become if the current migration cuts over.
  TopologyVersionInfo PendingTopology() const;

  // -- StorageBackend --------------------------------------------------
  std::string backend_name() const override { return "migrating"; }
  const FieldSpec& spec() const override;
  const DistributionMethod& method() const override;
  const DeviceMap& device_map() const override;
  std::uint64_t num_records() const override;

  Status Insert(Record record) override;
  Status InsertBatch(std::vector<Record> records) override;
  Result<std::uint64_t> Delete(const ValueQuery& query) override;

  Result<PartialMatchQuery> HashQuery(const ValueQuery& query) const override;
  Result<BucketId> HashRecord(const Record& record) const override;

  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override;
  void ScanMany(
      const std::vector<BucketRef>& refs,
      const std::function<bool(std::size_t, const Record&)>& fn)
      const override;
  bool ScanPrefersFanout() const override;
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;

  Result<QueryResult> Execute(const ValueQuery& query) const override;
  std::vector<std::uint64_t> RecordCountsPerDevice() const override;

  std::uint64_t MutationEpoch() const override;
  Status Health() const override;

  /// Scans may be served mid-migration with buckets still in flight;
  /// planners keep per-bucket accounting on while this holds.
  bool HasDegradedRouting() const override;
  /// References die with the scan's shared lock.
  bool ScanRecordsAreStable() const override { return false; }
  bool IsReadOnly() const override;
  std::vector<ValueType> FieldTypes() const override;
  std::uint64_t ApproxMemoryBytes() const override;

  std::uint64_t TopologyVersion() const override {
    return handle_.version();
  }
  std::uint64_t BucketsInMigration() const override;
  const StorageBackend& ServingPlane() const override;

  /// Persistence-v4 body: phase, cursor, target blueprint (while
  /// migrating), source blueprint.  SaveBackend writes this only for an
  /// in-progress migration; an idle wrapper saves as its active plane.
  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

 private:
  explicit MigratingBackend(std::unique_ptr<StorageBackend> source);

  /// Insert under the exclusive lock: source first, then (if the bucket
  /// is behind the cursor) the target.  A target failure marks the
  /// migration failed; the source write stands.
  Status InsertLocked(Record record);

  mutable std::shared_mutex mutex_;
  std::unique_ptr<StorageBackend> active_;
  std::unique_ptr<StorageBackend> target_;  // non-null while migrating
  /// Retired planes a cutover replaced — kept alive so references
  /// captured just before the swap stay valid (see file comment).
  std::vector<std::unique_ptr<StorageBackend>> retired_;
  bool migrating_ = false;
  /// Buckets with linear id < cursor_ are fully copied to the target.
  std::uint64_t cursor_ = 0;
  /// First dual-write/copy failure of the current attempt.
  Status failed_ = Status::OK();
  /// Epochs of aborted targets and retired sources, absorbed so the
  /// aggregate MutationEpoch stays monotone across phase changes.
  std::uint64_t epoch_base_ = 0;
  TopologyVersionInfo pending_;
  VersionedTopologyHandle handle_;
};

/// Drives a full migration with bounded retry: build a target, copy in
/// chunks, cut over; on failure abort, rebuild a fresh target, retry.
class MigrationController {
 public:
  struct Options {
    /// Buckets per CopyChunk — the reader-blocking granule.
    std::uint64_t chunk_buckets = 64;
    /// Attempts before giving up (each attempt gets a fresh target).
    int max_attempts = 3;
  };

  using TargetFactory =
      std::function<Result<std::unique_ptr<StorageBackend>>()>;

  explicit MigrationController(MigratingBackend& backend)
      : MigrationController(backend, Options()) {}
  MigrationController(MigratingBackend& backend, Options options);

  /// Runs to cutover or exhausts attempts (the backend is left serving
  /// the source, migration aborted, on failure).
  Status Run(const TargetFactory& make_target);

  int attempts() const { return attempts_; }

 private:
  MigratingBackend& backend_;
  Options options_;
  int attempts_ = 0;
};

}  // namespace fxdist

#endif  // FXDIST_SIM_MIGRATION_H_
