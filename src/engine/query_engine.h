// QueryEngine: a concurrent batch serving layer over any StorageBackend.
//
// StorageBackend::Execute answers one query at a time; under serving load
// the engine instead admits *batches* of partial-match queries and exploits
// two structural properties of query streams where they exist (Doerr et
// al. evaluate declustering over streams):
//
//  * shared bucket scans — overlapping queries qualify the same buckets, so
//    each device makes one pass per distinct qualified bucket and evaluates
//    every covering query against its records (the executable form of
//    analysis/batch's union cost model, via PlanDeviceBatch), and
//  * duplicate collapse — value-identical queries in a batch (Zipf-popular
//    queries repeat) execute once and share the result.
//
// Overlap is not the common case on every stream: under Fukuyama's
// random-wildcard model most distinct queries of a small batch share no
// bucket with any other.  Such a query pays its own largest response, the
// paper's cost measure, whether or not it is batched, so the engine tests
// every pair of distinct queries for a common bucket (exactly, in the
// hashed domain, PartialMatchQuery::SharesBucketWith) and runs each query
// that shares nothing through the backend's own Execute; only the rest
// are planned and gathered.  Backends whose scans are round trips
// (ScanPrefersFanout) keep every query in the gather, where one frame
// per device carries the whole batch.
//
// Every path is result-preserving: every query's records, match counts,
// per-device qualified counts and largest response are bit-identical to
// the backend's own solo Execute (enforced by the differential tests).
// Bucket enumeration and scan planning go through the backend's cached
// DeviceMap and record access through ScanMany; a query that shares
// nothing runs whatever Execute the backend implements.
//
// One entry point, ExecuteBatch(): synchronous, and the caller's batch
// is the unit of sharing.  Per-device work fans out over the worker
// shards.  Asynchronous admission lives one layer up: the Frontend
// (front/frontend.h) queues queries and hands each dispatch round to
// ExecuteBatch, isolating a malformed query before it joins a round.
//
// The engine is read-only over the backend: callers must not mutate it
// while an engine serves it.  The one sanctioned exception is a
// MigratingBackend (sim/migration.h), which is internally synchronized
// and changes its topology — device count and scheme — at cutover.  The
// engine brackets every batch with two TopologyVersion() loads
// (seqlock-style): the whole plan/scan/merge runs against ONE DeviceMap
// captured at the start, and if the version moved by the end the
// attempt is discarded and re-planned against the new map, so no batch
// ever mixes accounting (or bucket routing) from two placements.

#ifndef FXDIST_ENGINE_QUERY_ENGINE_H_
#define FXDIST_ENGINE_QUERY_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "engine/stats_snapshot.h"
#include "sim/storage_backend.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fxdist {

struct EngineOptions {
  /// Worker shards for per-device scan fan-out; 0 = hardware concurrency.
  /// With 1 shard the engine runs scans inline on the thread that calls
  /// ExecuteBatch (fully deterministic execution order).
  unsigned num_threads = 0;
  /// Refuse batches whose total qualified-bucket enumeration exceeds this.
  std::uint64_t enumeration_budget = std::uint64_t{1} << 24;
};

class QueryEngine {
 public:
  /// `backend` must outlive the engine and stay unmodified while serving.
  explicit QueryEngine(const StorageBackend& backend,
                       EngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `batch` with shared scans; results arrive in batch order and
  /// each element is bit-identical to backend.Execute(batch[i]).  Fails as
  /// a whole on an invalid query or a blown enumeration budget.
  Result<std::vector<QueryResult>> ExecuteBatch(
      const std::vector<ValueQuery>& batch);

  StatsSnapshot Snapshot() const;

  const StorageBackend& backend() const { return backend_; }
  const EngineOptions& options() const { return options_; }

 private:
  struct DeviceCounters {
    Counter bucket_scans;
    Counter records_examined;
    Counter routed_queries;
    Counter degraded_reroutes;
    Counter busy_nanos;
  };

  /// Grows device_counters_ to at least `count` slots (a cutover can
  /// raise the device count mid-serve).  Existing slots keep counting.
  void EnsureDeviceCounters(std::uint64_t count);

  const StorageBackend& backend_;
  const EngineOptions options_;
  ThreadPool pool_;
  const std::chrono::steady_clock::time_point start_;

  // Metrics.
  Counter queries_completed_;
  Counter queries_failed_;
  Counter batches_executed_;
  Counter duplicates_collapsed_;
  Counter solo_queries_;
  Counter bucket_scans_requested_;
  Counter bucket_scans_performed_;
  Counter scan_many_calls_;
  Counter records_examined_;
  Counter records_matched_;
  Counter topology_retries_;
  Gauge max_batch_size_seen_;
  LatencyHistogram query_latency_;
  LatencyHistogram batch_latency_;
  /// Guards the device_counters_ *vector* (it grows at a cutover to more
  /// devices); the Counter cells themselves are atomic and are reached
  /// through stable unique_ptrs, so holders of a cell pointer never need
  /// the lock.
  mutable std::shared_mutex counters_mutex_;
  std::vector<std::unique_ptr<DeviceCounters>> device_counters_;
};

}  // namespace fxdist

#endif  // FXDIST_ENGINE_QUERY_ENGINE_H_
