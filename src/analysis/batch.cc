#include "analysis/batch.h"

#include <algorithm>
#include <unordered_map>

#include "util/math.h"

namespace fxdist {

namespace {

/// Shared plan builder: `enumerate(q, fn)` must call `fn(linear)` for
/// every qualified bucket of batch query q on the target device, in the
/// solo enumeration order.  A non-null `live` filter drops dead buckets
/// from the scan bookkeeping (they still count toward qualified_counts
/// and bucket_requests, which is what solo accounting reports).  Dedup
/// goes through a hash map keyed by what the batch enumerates, so time
/// and memory follow the batch's bucket requests, never the size of the
/// bucket space.
template <typename Enumerate>
DeviceBatchPlan BuildDevicePlan(
    std::size_t batch_size, const Enumerate& enumerate,
    const std::function<bool(std::uint64_t)>* live = nullptr) {
  DeviceBatchPlan plan;
  plan.query_slots.resize(batch_size);
  plan.qualified_counts.assign(batch_size, 0);
  /// A distinct bucket the filter rejected: counted, never scanned.
  constexpr std::uint32_t kDead = 0xffffffffu;
  std::unordered_map<std::uint64_t, std::uint32_t> scan_of_bucket;
  for (std::uint32_t q = 0; q < batch_size; ++q) {
    enumerate(q, [&](std::uint64_t linear) {
      ++plan.qualified_counts[q];
      ++plan.bucket_requests;
      auto [it, inserted] = scan_of_bucket.try_emplace(linear, kDead);
      if (inserted && (live == nullptr || (*live)(linear))) {
        it->second = static_cast<std::uint32_t>(plan.scan_buckets.size());
        plan.scan_buckets.push_back(linear);
        plan.scan_queries.emplace_back();
      }
      if (it->second != kDead) {
        auto& covering = plan.scan_queries[it->second];
        plan.query_slots[q].emplace_back(
            it->second, static_cast<std::uint32_t>(covering.size()));
        covering.push_back(q);
      }
      return true;
    });
  }
  return plan;
}

}  // namespace

DeviceBatchPlan PlanDeviceBatch(const DistributionMethod& method,
                                const std::vector<PartialMatchQuery>& batch,
                                std::uint64_t device) {
  const FieldSpec& spec = method.spec();
  return BuildDevicePlan(
      batch.size(),
      [&](std::uint32_t q, const std::function<bool(std::uint64_t)>& fn) {
        method.ForEachQualifiedBucketOnDevice(
            batch[q], device, [&](const BucketId& bucket) {
              return fn(LinearIndex(spec, bucket));
            });
      });
}

DeviceBatchPlan PlanDeviceBatch(const DeviceMap& map,
                                const std::vector<PartialMatchQuery>& batch,
                                std::uint64_t device) {
  return BuildDevicePlan(
      batch.size(),
      [&](std::uint32_t q, const std::function<bool(std::uint64_t)>& fn) {
        map.ForEachQualifiedLinearOnDevice(batch[q], device, fn);
      });
}

DeviceBatchPlan PlanDeviceBatch(
    const DeviceMap& map, const std::vector<PartialMatchQuery>& batch,
    std::uint64_t device, const std::function<bool(std::uint64_t)>& live) {
  return BuildDevicePlan(
      batch.size(),
      [&](std::uint32_t q, const std::function<bool(std::uint64_t)>& fn) {
        map.ForEachQualifiedLinearOnDevice(batch[q], device, fn);
      },
      &live);
}

Result<BatchStats> AnalyzeBatch(const DistributionMethod& method,
                                const std::vector<PartialMatchQuery>& batch,
                                std::uint64_t budget) {
  const FieldSpec& spec = method.spec();
  std::uint64_t total = 0;
  for (const PartialMatchQuery& q : batch) {
    if (q.num_fields() != spec.num_fields()) {
      return Status::InvalidArgument("query arity mismatch in batch");
    }
    total += q.NumQualifiedBuckets(spec);
    if (total > budget) {
      return Status::InvalidArgument(
          "batch enumeration exceeds the budget");
    }
  }

  // Each bucket lives on exactly one device, so the per-device plans
  // partition the union: summing their distinct counts is exact.
  BatchStats stats;
  stats.total_bucket_requests = total;
  stats.distinct_per_device.assign(spec.num_devices(), 0);
  for (std::uint64_t d = 0; d < spec.num_devices(); ++d) {
    const DeviceBatchPlan plan = PlanDeviceBatch(method, batch, d);
    stats.distinct_per_device[d] = plan.scan_buckets.size();
    stats.distinct_buckets += plan.scan_buckets.size();
  }
  stats.largest_device_share =
      stats.distinct_per_device.empty()
          ? 0
          : *std::max_element(stats.distinct_per_device.begin(),
                              stats.distinct_per_device.end());
  stats.sharing_factor =
      stats.distinct_buckets == 0
          ? 1.0
          : static_cast<double>(total) /
                static_cast<double>(stats.distinct_buckets);
  stats.balanced =
      stats.largest_device_share <=
      CeilDiv(stats.distinct_buckets, spec.num_devices());
  return stats;
}

}  // namespace fxdist
