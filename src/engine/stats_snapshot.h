// StatsSnapshot: a point-in-time copy of the QueryEngine's metrics.
//
// The counters are exact and — under a fixed seed and a single worker
// shard — deterministic, so tests can assert on them; the timing fields
// (latency quantiles, utilization) are wall-clock measurements and vary
// run to run.

#ifndef FXDIST_ENGINE_STATS_SNAPSHOT_H_
#define FXDIST_ENGINE_STATS_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "util/metrics.h"

namespace fxdist {

/// One device's share of the engine's shared gather (solo queries run
/// the backend's Execute and are not attributed to devices here).
struct DeviceStats {
  std::uint64_t bucket_scans = 0;      ///< distinct buckets scanned
  std::uint64_t records_examined = 0;
  /// Representative queries with at least one qualified bucket placed on
  /// this device (a sharded composite's per-shard routing counter).
  std::uint64_t routed_queries = 0;
  /// Qualified buckets this device owned but a degraded backend served
  /// from another device (0 unless a replica is down).
  std::uint64_t degraded_reroutes = 0;
  double busy_ms = 0.0;                ///< summed scan wall-clock
  double utilization = 0.0;            ///< busy_ms / engine uptime
};

struct StatsSnapshot {
  // -- Deterministic counters ------------------------------------------
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_failed = 0;
  std::uint64_t batches_executed = 0;
  std::uint64_t max_batch_size = 0;
  std::uint64_t duplicates_collapsed = 0;
  /// Distinct queries that shared no bucket with another query of their
  /// batch and ran the backend's own Execute instead of the shared
  /// gather.  They count in the totals below (scans performed, records)
  /// but not in the per-device `devices` counters, which describe only
  /// the shared gather.
  std::uint64_t solo_queries = 0;
  /// Sum over executed queries of |R(q)| — what one-at-a-time execution
  /// would fetch.
  std::uint64_t bucket_scans_requested = 0;
  /// Distinct (bucket, batch) scans actually performed: the gather's
  /// planned scans plus each solo query's |R(q)|.
  std::uint64_t bucket_scans_performed = 0;
  /// ScanMany scatter-gathers the shared gather issued to the backend
  /// (one per device per batch with overlapping queries; against a
  /// remote shard each becomes one frame per chunk).
  std::uint64_t scan_many_calls = 0;
  std::uint64_t records_examined = 0;
  std::uint64_t records_matched = 0;
  /// Sums of the per-device counters (devices[i].routed_queries /
  /// .degraded_reroutes) so aggregate dashboards need not re-sum.
  std::uint64_t routed_queries = 0;
  std::uint64_t degraded_reroutes = 0;
  /// Batches re-planned because a topology cutover landed mid-batch.
  std::uint64_t topology_retries = 0;

  // -- Topology plane ---------------------------------------------------
  /// The backend's active topology generation (1 unless a migrating
  /// wrapper has cut over).
  std::uint64_t topology_version = 1;
  /// Buckets an in-progress migration has not yet copied (0 when idle).
  std::uint64_t migrating_buckets = 0;

  // -- Wall-clock measurements -----------------------------------------
  double uptime_ms = 0.0;
  HistogramSnapshot query_latency;  ///< ExecuteBatch call to completion, us
  HistogramSnapshot batch_latency;  ///< per executed batch, us
  std::vector<DeviceStats> devices;

  double avg_batch_size() const {
    return batches_executed == 0
               ? 0.0
               : static_cast<double>(queries_completed) /
                     static_cast<double>(batches_executed);
  }
  /// requested / performed (>= 1; higher = more sharing exploited).
  double sharing_factor() const {
    return bucket_scans_performed == 0
               ? 1.0
               : static_cast<double>(bucket_scans_requested) /
                     static_cast<double>(bucket_scans_performed);
  }
};

}  // namespace fxdist

#endif  // FXDIST_ENGINE_STATS_SNAPSHOT_H_
