// StorageBackend: the storage plane of the two-stage model.
//
// The paper separates *distribution* (which device owns a bucket) from
// *construction* (how a device stores its share).  The placement plane is
// core/device_map.h; this interface is the storage plane: every file
// shape — flat in-memory buckets (ParallelFile), fixed-capacity pages
// with overflow chains (PagedParallelFile), growing extendible
// directories (DynamicParallelFile) — implements the same contract, so
// the batch QueryEngine, persistence, and the tools drive any of them
// interchangeably.  Composite stores (sim/composite_backend.h's
// ShardedBackend and ReplicatedBackend) are further implementations
// built from child backends, not forks of the contract.
//
// Contract notes:
//  * ScanBucket visits a bucket's records in the backend's own stable
//    scan order; the default Execute (ExecuteSerial over ScanBucket) and
//    the engine's shared scans both go through it, which is what makes
//    batched results bit-identical to serial.  Backends that override
//    Execute visit the same records in the same order.
//  * A record reference handed to a ScanBucket/ScanMany callback is
//    valid only during that callback.  Callers that need a record
//    afterwards copy it inside the callback.
//  * Backends are externally synchronized: readers (Execute/ScanBucket)
//    are const and may run concurrently, but no call may overlap a
//    mutation (Insert/Delete).
//  * SaveParams/ForEachLiveRecord are the persistence hooks: the header
//    tokens plus a deterministic insert replay reconstruct the backend
//    exactly (see sim/persistence.h SaveBackend/LoadBackend).

#ifndef FXDIST_SIM_STORAGE_BACKEND_H_
#define FXDIST_SIM_STORAGE_BACKEND_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/device_map.h"
#include "core/distribution.h"
#include "hashing/multikey_hash.h"
#include "hashing/value.h"
#include "sim/timing.h"
#include "util/status.h"

namespace fxdist {

/// Statistics of one executed query.
struct QueryStats {
  /// Qualified buckets allocated to each device (the paper's r_i(q)).
  std::vector<std::uint64_t> qualified_per_device;
  std::uint64_t total_qualified = 0;
  std::uint64_t largest_response = 0;  ///< max_i r_i(q)
  std::uint64_t optimal_bound = 0;     ///< ceil(total / M)
  bool strict_optimal = false;
  std::uint64_t records_examined = 0;
  std::uint64_t records_matched = 0;
  QueryTiming disk_timing;
  /// Measured wall-clock of the per-device phase (ms).
  double wall_ms = 0.0;
  /// Measured wall-clock of each device's own share (ms).  max() is the
  /// critical path — the time an M-core deployment would need; the sum is
  /// the serial cost.  Meaningful on any host core count.
  std::vector<double> device_wall_ms;
};

/// Matched records plus execution statistics.
struct QueryResult {
  std::vector<Record> records;
  QueryStats stats;
};

/// The covering queries of one bucket in a filtered gather: the queries
/// whose answer needs this bucket's records.  It names them without
/// owning them (`queries` is the caller's query table, `covering` the
/// indices into it), so every ref of a gather points at one table with
/// no per-ref allocation.  `skipped` is the one out-field: a backend that
/// drops records no covering query matches adds their number here.
struct ScanFilter {
  std::span<const ValueQuery* const> queries;
  std::span<const std::uint32_t> covering;
  std::uint64_t skipped = 0;

  /// True iff some covering query matches `record`
  /// (RecordMatchesValueQuery).
  bool Matches(const Record& record) const;
};

/// One bucket coordinate of a batched scatter-gather scan, with an
/// optional filter pushdown (see StorageBackend::ScanMany).  Each ref
/// needs its own ScanFilter: distinct refs may be delivered concurrently,
/// so two refs never share a `skipped` field.
struct BucketRef {
  std::uint64_t device = 0;
  std::uint64_t linear_bucket = 0;
  /// Null: deliver every record.
  ScanFilter* filter = nullptr;

  /// Same coordinate; the filter is not compared.
  friend bool operator==(const BucketRef& a, const BucketRef& b) {
    return a.device == b.device && a.linear_bucket == b.linear_bucket;
  }
};

/// True iff `record` satisfies every specified field of `query` by value
/// equality (the filter applied after bucket-level candidates are
/// fetched).  Shared by every backend and the batch QueryEngine so all
/// paths match bit-identically.
bool RecordMatchesValueQuery(const ValueQuery& query, const Record& record);

/// Heap cost of one record as the in-memory backends store it: the
/// Record vector, its FieldValue slots, and any string heap allocations
/// past the small-string buffer.  The unit ApproxMemoryBytes sums.
std::uint64_t ApproxRecordBytes(const Record& record);

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Mutation epoch: 0 at construction, strictly increased by every
  /// successful state-changing Insert/Delete on this handle.  Result
  /// caches tag entries with the epoch they were computed at and treat
  /// any later epoch as invalidation — sound because an unchanged epoch
  /// means no mutation ran through this backend, so a cached result is
  /// still what Execute would return.  Composites report an aggregate of
  /// their children (monotone; only equality matters); read-only
  /// backends (packed) stay frozen at 0 forever; a RemoteBackend merges
  /// its local count with the authoritative epoch the server echoes on
  /// mutating replies and the topology probe, so a shared remote shard's
  /// other writers invalidate this client's caches too (max of two
  /// monotone counters — still monotone, still only equality matters).
  virtual std::uint64_t MutationEpoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }

  /// Stable kind tag: "flat", "paged", "dynamic", "sharded", or
  /// "replicated".  Doubles as the persistence format's kind token.
  virtual std::string backend_name() const = 0;

  /// Current bucket-space shape (the dynamic backend's changes as its
  /// directories grow).
  virtual const FieldSpec& spec() const = 0;
  virtual const DistributionMethod& method() const = 0;
  /// Cached placement plane over method() — rebuilt by backends whose
  /// mapping changes (dynamic growth).
  virtual const DeviceMap& device_map() const = 0;

  std::uint64_t num_devices() const { return spec().num_devices(); }
  /// Live (non-deleted) records.
  virtual std::uint64_t num_records() const = 0;

  /// Hashes and stores one record.
  virtual Status Insert(Record record) = 0;

  /// Stores a batch of records.  Semantically a loop of Insert (and that
  /// is the default), but overridable where batching buys real work:
  /// ShardedBackend groups by owning child so each child sees one call,
  /// and RemoteBackend ships one kInsertBatch frame per chunk instead of
  /// one round trip per record — the data-movement primitive bucket
  /// migration is built on.  Stops at the first failure; records before
  /// the failure stay inserted (callers needing atomicity replay).
  virtual Status InsertBatch(std::vector<Record> records);

  /// Deletes every record matching the partial match query (Execute's
  /// filter semantics); returns the number removed.  Backends without
  /// delete support return Unimplemented.
  virtual Result<std::uint64_t> Delete(const ValueQuery& query) = 0;

  /// Lifts a value-level query into the hashed domain (specified values
  /// hashed, wildcards kept) — the signatures batch executors plan
  /// shared scans over.
  virtual Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const = 0;

  /// Hashes a record to its bucket coordinates — the routing step
  /// composite backends use to pick the owning shard before storage.
  virtual Result<BucketId> HashRecord(const Record& record) const = 0;

  /// Device that actually serves scans of (device, linear_bucket).
  /// Monolithic backends serve every bucket in place; ReplicatedBackend
  /// re-routes to the replica's holder while devices are down.  Bucket
  /// scans and qualified-per-device accounting must both honor this so
  /// batched execution stays bit-identical to solo Execute.
  virtual std::uint64_t ServingDevice(std::uint64_t device,
                                      std::uint64_t linear_bucket) const {
    (void)linear_bucket;
    return device;
  }

  /// True while some scan may be served away from its placed device
  /// (degraded mode).  Planners keep per-bucket server accounting on —
  /// and live-bucket filtering off — whenever this holds.
  virtual bool HasDegradedRouting() const { return false; }

  /// OK unless the backend can no longer answer faithfully.  ScanBucket
  /// returns void, so a backend whose storage went away (a remote shard
  /// past its retry budget, a poisoned composite) visits nothing and
  /// reports the cause here; executors re-check Health after a sweep and
  /// escalate the error instead of returning silently partial results.
  virtual Status Health() const { return Status::OK(); }

  /// Never false for a live bucket: false means the bucket holds no live
  /// record on `device`, true only that it may.  A planning hint for
  /// sparse bucket spaces: skipping a dead bucket never changes results,
  /// only bookkeeping.  The default probes via ScanBucket; backends with
  /// O(1) bucket indexes override it, and backends whose probe costs
  /// more than scanning an empty bucket (remote shards) answer true.
  virtual bool IsBucketLive(std::uint64_t device,
                            std::uint64_t linear_bucket) const;

  /// Visits every record of bucket `linear_bucket` on `device` in the
  /// backend's scan order.  `fn` returning false stops early.  The
  /// reference passed to `fn` is valid only during that call.
  virtual void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const = 0;

  /// Batched scatter-gather scan: visits the records of every ref in
  /// `refs`, calling `fn(index_into_refs, record)` with each record in
  /// that ref's ScanBucket order.  `fn` returning false cancels the whole
  /// scatter: the rest of that ref is abandoned and no ref that has not
  /// yet begun delivery is visited (refs a fanned-out backend is already
  /// delivering concurrently stop at their next record).  Distinct
  /// indices may be visited concurrently — and interleaved — but records
  /// of one ref are always delivered in order by a single thread at a
  /// time, so per-index accumulation needs no locking while cross-index
  /// state does.  As with ScanBucket, a record reference is valid only
  /// during its callback.  The default loops ScanBucket serially;
  /// composite and remote backends override it to fan the whole batch
  /// out (one frame per shard instead of one per bucket).
  ///
  /// A ref with a filter lets the backend filter where the bucket is
  /// read: it may skip a record that matches none of the ref's covering
  /// queries, adding the number it skipped to `filter->skipped`, and it
  /// delivers every record it does not skip, in ScanBucket order.  So
  /// delivered + skipped is what an unfiltered scan would deliver.  Local
  /// backends ignore the filter (skipping saves nothing in-process);
  /// wrappers pass refs on unchanged, and a remote shard evaluates the
  /// queries on the server.
  virtual void ScanMany(
      const std::vector<BucketRef>& refs,
      const std::function<bool(std::size_t, const Record&)>& fn) const;

  /// True when a ScanMany call on this backend is dominated by waiting
  /// (a network round trip) rather than CPU, so a composite parent
  /// should overlap this child's gather with its siblings' on separate
  /// threads.  Local in-memory backends return false — for them the
  /// thread fan-out costs far more than the scans it would overlap.
  virtual bool ScanPrefersFanout() const { return false; }

  /// True when references handed to scan callbacks happen to stay valid
  /// until the backend's next mutation (in-memory backends hand out
  /// references into their own storage).  Backends that materialize
  /// records per scan (packed, migrating, remote) return false.  The
  /// scan contract promises a reference only for its callback, and the
  /// engine no longer consults this: it filters inside the callback and
  /// copies only the matches.
  virtual bool ScanRecordsAreStable() const { return true; }

  /// True for immutable backends whose Insert/Delete always fail with
  /// FailedPrecondition.  Composites accept read-only children
  /// pre-loaded with records (a packed shard arrives full by design).
  virtual bool IsReadOnly() const { return false; }

  // -- Topology plane ---------------------------------------------------
  /// Active topology version: 1 at construction, advanced by live
  /// resharding cutovers (sim/migration.h).  The engine brackets every
  /// batch with two loads of this and retries on change (seqlock-style),
  /// so a cutover mid-batch can never mix accounting from two
  /// placements.
  virtual std::uint64_t TopologyVersion() const { return 1; }

  /// Buckets whose contents have not yet reached the target placement of
  /// an in-progress migration (0 when no migration is running) — the
  /// honest degraded-stats signal StatsSnapshot surfaces.
  virtual std::uint64_t BucketsInMigration() const { return 0; }

  /// The backend whose blueprint describes this backend to the outside
  /// world — what the wire handshake ships and persistence embeds as a
  /// *placement twin*.  Monolithic and composite backends describe
  /// themselves; a MigratingBackend answers with its active plane
  /// (source before cutover, target after), so a "migrating" wrapper
  /// never leaks across the wire to clients that only need placement.
  virtual const StorageBackend& ServingPlane() const { return *this; }

  /// Value types of the schema's fields in declaration order — the
  /// decode shape converters (PackBackend) persist.  The default probes
  /// the first live record, so empty backends without an override
  /// return {}; concrete backends override with their schema's answer.
  virtual std::vector<ValueType> FieldTypes() const;

  /// Rough resident bytes this backend costs the process: record
  /// storage, bucket indexes, caches.  The default sums
  /// ApproxRecordBytes over the live records (every current in-memory
  /// backend keeps all records resident); backends with lazily-mapped
  /// storage override it with what is actually paged in.
  virtual std::uint64_t ApproxMemoryBytes() const;

  /// Executes one partial match query serially (wildcards are
  /// std::nullopt), with full QueryStats accounting.  The default is
  /// ExecuteSerial over ScanBucket.  When scans are round trips
  /// (ScanPrefersFanout: a composite over remote children) the walk only
  /// collects the qualified buckets and one ScanMany gathers them, each
  /// ref filtered by the query, so each child pays one frame per chunk
  /// instead of one per bucket and ships only the matches; its
  /// per-device times read as zero.  Overrides exist only where a
  /// backend has a cheaper whole-query step: flat and dynamic files run
  /// ExecuteSerial over their own bucket vectors, a remote shard filters
  /// on the server, and a migrating wrapper runs the query on one plane
  /// under its lock.
  virtual Result<QueryResult> Execute(const ValueQuery& query) const;

  /// Per-device record counts — storage balance diagnostics.
  virtual std::vector<std::uint64_t> RecordCountsPerDevice() const = 0;

  // -- Persistence hooks -----------------------------------------------
  /// Writes the construction parameters as header tokens (device count,
  /// method/seed, field declarations, kind-specific extras).
  virtual void SaveParams(std::ostream& out) const = 0;
  /// Visits every live record (replayed by LoadBackend in this order).
  virtual void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const = 0;

 protected:
  // The epoch is a base-class member so every backend shares one bump
  // discipline, but backends stay movable (ParallelFile et al. are
  // returned by value): copies/moves start from the source's current
  // count — a copied backend has the same visible state, so reusing the
  // epoch keeps any equal-epoch cache comparison conservative.
  StorageBackend() = default;
  StorageBackend(const StorageBackend& other)
      : mutation_epoch_(other.MutationEpoch()) {}
  StorageBackend& operator=(const StorageBackend& other) {
    mutation_epoch_.store(other.MutationEpoch(), std::memory_order_release);
    return *this;
  }

  /// Called by mutators after a successful state change.
  void BumpMutationEpoch() {
    mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  std::atomic<std::uint64_t> mutation_epoch_{0};
};

/// The paper's accounting of one query, from stats->qualified_per_device
/// (the r_i(q)): total_qualified = |R(q)|, largest_response =
/// max_i r_i(q), optimal_bound = ceil(|R(q)|/M) under `spec`,
/// strict_optimal, and the disk timing model.  ExecuteSerial and the
/// engine's shared gather both end with it.
void FinishQueryStats(const FieldSpec& spec, const PartialMatchQuery& query,
                      QueryStats* stats);

/// The serial query algorithm, written once:
///  1. Health(), then HashQuery;
///  2. walk the DeviceMap inverse device by device, timing each device's
///     share into device_wall_ms;
///  3. charge each qualified bucket to its ServingDevice, but only while
///     the backend re-routes (HasDegradedRouting);
///  4. call `visit_bucket(device, linear, filter)` per qualified bucket;
///     it hands each record of that bucket, in scan order, to `filter`,
///     which counts it and copies it out when it matches;
///  5. Health() again (ScanBucket cannot report a failure, so a backend
///     that lost storage mid-walk must not return partial results), then
///     FinishQueryStats.
/// The default Execute visits through ScanBucket; a backend may pass its
/// own bucket loop so the filter call is inlined per record.
template <typename VisitBucket>
Result<QueryResult> ExecuteSerial(const StorageBackend& backend,
                                  const ValueQuery& query,
                                  VisitBucket visit_bucket) {
  FXDIST_RETURN_NOT_OK(backend.Health());
  auto hashed = backend.HashQuery(query);
  FXDIST_RETURN_NOT_OK(hashed.status());

  using Clock = std::chrono::steady_clock;
  const DeviceMap& map = backend.device_map();
  const std::uint64_t m = map.spec().num_devices();
  const bool rerouting = backend.HasDegradedRouting();
  QueryResult result;
  QueryStats& stats = result.stats;
  stats.qualified_per_device.assign(m, 0);
  stats.device_wall_ms.assign(m, 0.0);
  const auto filter = [&query, &result](const Record& record) {
    ++result.stats.records_examined;
    if (RecordMatchesValueQuery(query, record)) {
      ++result.stats.records_matched;
      result.records.push_back(record);
    }
    return true;
  };

  const auto start = Clock::now();
  for (std::uint64_t d = 0; d < m; ++d) {
    const auto device_start = Clock::now();
    map.ForEachQualifiedLinearOnDevice(*hashed, d, [&](std::uint64_t linear) {
      ++stats.qualified_per_device[rerouting ? backend.ServingDevice(d, linear)
                                             : d];
      visit_bucket(d, linear, filter);
      return true;
    });
    stats.device_wall_ms[d] = std::chrono::duration<double, std::milli>(
                                  Clock::now() - device_start)
                                  .count();
  }
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  FXDIST_RETURN_NOT_OK(backend.Health());
  FinishQueryStats(map.spec(), *hashed, &stats);
  return result;
}

}  // namespace fxdist

#endif  // FXDIST_SIM_STORAGE_BACKEND_H_
