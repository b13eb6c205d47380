// Batch partial-match analysis: shared bucket fetches.
//
// Real workloads issue query *batches*; overlapping queries qualify the
// same buckets, and a device only needs to fetch each bucket once per
// batch.  The per-device cost of a batch is therefore the size of the
// *union* of its queries' device shares, not the sum.  This module
// computes those unions and the resulting balance — declustering quality
// has to hold up for unions too, which no single-query theorem speaks to
// (another place where measurement complements the paper's §4 theory).

#ifndef FXDIST_ANALYSIS_BATCH_H_
#define FXDIST_ANALYSIS_BATCH_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/device_map.h"
#include "core/distribution.h"
#include "core/query.h"
#include "util/status.h"

namespace fxdist {

/// A shared-scan plan for one device and a batch of hashed queries: each
/// distinct qualified bucket the device owns appears once, tagged with
/// every query it serves, so an executor makes exactly one pass per
/// bucket.  This is the cost model of AnalyzeBatch turned into an
/// executable schedule.
struct DeviceBatchPlan {
  /// Distinct qualified linear bucket ids on this device, in first-touch
  /// order (query 0's enumeration order, then query 1's new buckets, ...).
  std::vector<std::uint64_t> scan_buckets;
  /// scan_queries[s] — indices of the batch queries bucket s qualifies
  /// for, in batch order.
  std::vector<std::vector<std::uint32_t>> scan_queries;
  /// query_slots[q] — q's qualified buckets as (scan index, slot within
  /// scan_queries[scan]) pairs, in q's own ForEachQualifiedBucketOnDevice
  /// enumeration order.  |query_slots[q]| is the paper's r_device(q), and
  /// walking it reproduces the exact record order of a solo execution.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      query_slots;
  /// Sum over queries of their qualified-bucket count here (the
  /// no-sharing cost; >= scan_buckets.size()).
  std::uint64_t bucket_requests = 0;
  /// qualified_counts[q] — q's full qualified-bucket count on this
  /// device, the paper's r_device(q).  Equal to |query_slots[q]| unless a
  /// live-bucket filter excluded dead buckets from the scan list: solo
  /// Execute counts empty buckets too, so executors must report this,
  /// not the slot count.
  std::vector<std::uint64_t> qualified_counts;
};

/// Builds the shared-scan plan of `batch` on `device`.  Every query must
/// have the spec's arity (enforced by the callers' validation; violations
/// are undefined).  Cost: one qualified-bucket enumeration per query.
/// Every overload dedups through one hash map keyed by the enumerated
/// buckets, so planning time and memory follow the batch's bucket
/// requests, never the size of the bucket space.
DeviceBatchPlan PlanDeviceBatch(const DistributionMethod& method,
                                const std::vector<PartialMatchQuery>& batch,
                                std::uint64_t device);

/// Same plan through the cached placement plane: enumeration goes through
/// DeviceMap's strategy selection (no virtual DeviceOf per bucket) and
/// hands out linear ids directly.  Identical output to the method form.
DeviceBatchPlan PlanDeviceBatch(const DeviceMap& map,
                                const std::vector<PartialMatchQuery>& batch,
                                std::uint64_t device);

/// Live-filtered plan for sparse bucket spaces (|R(q)| far beyond the
/// live buckets, e.g. grown dynamic directories): only buckets
/// `live(linear)` approves get scan entries — dead buckets carry no
/// records, so skipping them cannot change results — while
/// qualified_counts still counts every qualified bucket, preserving solo
/// accounting.  `live` runs once per distinct bucket.
DeviceBatchPlan PlanDeviceBatch(const DeviceMap& map,
                                const std::vector<PartialMatchQuery>& batch,
                                std::uint64_t device,
                                const std::function<bool(std::uint64_t)>& live);

struct BatchStats {
  /// Sum over queries of |R(q)| — the no-sharing cost.
  std::uint64_t total_bucket_requests = 0;
  /// |union of R(q)| — what actually has to be fetched.
  std::uint64_t distinct_buckets = 0;
  /// Distinct buckets per device.
  std::vector<std::uint64_t> distinct_per_device;
  std::uint64_t largest_device_share = 0;
  /// requests / distinct (>= 1; higher = more sharing exploited).
  double sharing_factor = 1.0;
  /// Is the union spread within ceil(distinct / M) per device?
  bool balanced = false;
};

/// Analyzes a batch against `method`.  Enumerates each query's qualified
/// buckets; refuses batches whose total enumeration exceeds `budget`.
Result<BatchStats> AnalyzeBatch(
    const DistributionMethod& method,
    const std::vector<PartialMatchQuery>& batch,
    std::uint64_t budget = std::uint64_t{1} << 24);

}  // namespace fxdist

#endif  // FXDIST_ANALYSIS_BATCH_H_
