#include "analysis/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/optimality.h"
#include "core/bucket.h"
#include "core/device_map.h"
#include "core/registry.h"
#include "util/random.h"

namespace fxdist {
namespace {

FieldSpec Spec() { return FieldSpec::Uniform(3, 8, 8).value(); }

TEST(BatchTest, SingleQueryMatchesResponseVector) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  auto q = PartialMatchQuery::Create(Spec(), {3, std::nullopt, std::nullopt})
               .value();
  auto stats = AnalyzeBatch(*fx, {q}).value();
  const ResponseVector rv = ComputeResponseVector(*fx, q);
  EXPECT_EQ(stats.distinct_per_device, rv.per_device);
  EXPECT_EQ(stats.total_bucket_requests, rv.Total());
  EXPECT_DOUBLE_EQ(stats.sharing_factor, 1.0);
}

TEST(BatchTest, IdenticalQueriesShareEverything) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  auto q = PartialMatchQuery::Create(Spec(), {3, std::nullopt, std::nullopt})
               .value();
  auto stats = AnalyzeBatch(*fx, {q, q, q}).value();
  EXPECT_EQ(stats.distinct_buckets, q.NumQualifiedBuckets(Spec()));
  EXPECT_DOUBLE_EQ(stats.sharing_factor, 3.0);
}

TEST(BatchTest, DisjointQueriesShareNothing) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  auto a = PartialMatchQuery::Create(Spec(), {0, std::nullopt, std::nullopt})
               .value();
  auto b = PartialMatchQuery::Create(Spec(), {1, std::nullopt, std::nullopt})
               .value();
  auto stats = AnalyzeBatch(*fx, {a, b}).value();
  EXPECT_EQ(stats.distinct_buckets, 128u);  // 64 + 64, no overlap
  EXPECT_DOUBLE_EQ(stats.sharing_factor, 1.0);
}

TEST(BatchTest, OverlappingQueriesPartialSharing) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  // <3,*,*> and <3,5,*> overlap: the second is a subset of the first.
  auto big = PartialMatchQuery::Create(Spec(),
                                       {3, std::nullopt, std::nullopt})
                 .value();
  auto sub = PartialMatchQuery::Create(Spec(), {3, 5, std::nullopt}).value();
  auto stats = AnalyzeBatch(*fx, {big, sub}).value();
  EXPECT_EQ(stats.distinct_buckets, 64u);
  EXPECT_EQ(stats.total_bucket_requests, 64u + 8u);
  EXPECT_GT(stats.sharing_factor, 1.0);
}

TEST(BatchTest, FxKeepsBatchesBalanced) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  std::vector<PartialMatchQuery> batch;
  for (std::uint64_t v = 0; v < 8; ++v) {
    batch.push_back(
        PartialMatchQuery::Create(Spec(), {v, std::nullopt, std::nullopt})
            .value());
  }
  // The union is the whole bucket space; Basic/planned FX spreads it
  // perfectly.
  auto stats = AnalyzeBatch(*fx, batch).value();
  EXPECT_EQ(stats.distinct_buckets, Spec().TotalBuckets());
  EXPECT_TRUE(stats.balanced);
}

TEST(BatchTest, ArityMismatchRejected) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  PartialMatchQuery wrong(2);
  EXPECT_FALSE(AnalyzeBatch(*fx, {wrong}).ok());
}

TEST(BatchTest, BudgetEnforced) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  PartialMatchQuery whole(3);
  EXPECT_FALSE(AnalyzeBatch(*fx, {whole}, /*budget=*/10).ok());
}

TEST(BatchTest, EmptyBatch) {
  auto fx = MakeDistribution(Spec(), "fx-iu1").value();
  auto stats = AnalyzeBatch(*fx, {}).value();
  EXPECT_EQ(stats.distinct_buckets, 0u);
  EXPECT_EQ(stats.largest_device_share, 0u);
  EXPECT_TRUE(stats.balanced);
}

// -- PlanDeviceBatch property test ----------------------------------------
//
// Random specs (small spaces and one above 2^20 buckets) and random
// batches with duplicate and overlapping queries, planned with and
// without a live filter, against a plain reference planner: enumerate
// each query's qualified buckets on the device in ascending linear order
// by brute force over R(q), and dedup through a std::map in first-touch
// order.

/// Every linear id of R(q), ascending.
std::vector<std::uint64_t> QualifiedLinears(const FieldSpec& spec,
                                            const PartialMatchQuery& query) {
  std::vector<std::uint64_t> out;
  BucketId bucket(spec.num_fields(), 0);
  for (unsigned f = 0; f < spec.num_fields(); ++f) {
    if (query.is_specified(f)) bucket[f] = query.value(f);
  }
  const std::vector<unsigned> open = query.UnspecifiedFields();
  while (true) {
    out.push_back(LinearIndex(spec, bucket));
    std::size_t i = 0;
    for (; i < open.size(); ++i) {
      if (++bucket[open[i]] < spec.field_size(open[i])) break;
      bucket[open[i]] = 0;
    }
    if (i == open.size()) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

DeviceBatchPlan ReferencePlan(
    const DeviceMap& map, const std::vector<PartialMatchQuery>& batch,
    std::uint64_t device,
    const std::function<bool(std::uint64_t)>* live = nullptr) {
  DeviceBatchPlan plan;
  plan.query_slots.resize(batch.size());
  plan.qualified_counts.assign(batch.size(), 0);
  // linear bucket -> scan index, or nullopt for a bucket `live` rejected.
  std::map<std::uint64_t, std::optional<std::uint32_t>> scan_of;
  for (std::uint32_t q = 0; q < batch.size(); ++q) {
    for (std::uint64_t linear : QualifiedLinears(map.spec(), batch[q])) {
      if (map.DeviceOfLinear(linear) != device) continue;
      ++plan.qualified_counts[q];
      ++plan.bucket_requests;
      auto it = scan_of.find(linear);
      if (it == scan_of.end()) {
        std::optional<std::uint32_t> scan;
        if (live == nullptr || (*live)(linear)) {
          scan = static_cast<std::uint32_t>(plan.scan_buckets.size());
          plan.scan_buckets.push_back(linear);
          plan.scan_queries.emplace_back();
        }
        it = scan_of.emplace(linear, scan).first;
      }
      if (!it->second.has_value()) continue;
      auto& covering = plan.scan_queries[*it->second];
      plan.query_slots[q].emplace_back(
          *it->second, static_cast<std::uint32_t>(covering.size()));
      covering.push_back(q);
    }
  }
  return plan;
}

void ExpectSamePlan(const DeviceBatchPlan& got, const DeviceBatchPlan& want,
                    const std::string& context) {
  EXPECT_EQ(got.scan_buckets, want.scan_buckets) << context;
  EXPECT_EQ(got.scan_queries, want.scan_queries) << context;
  EXPECT_EQ(got.query_slots, want.query_slots) << context;
  EXPECT_EQ(got.bucket_requests, want.bucket_requests) << context;
  EXPECT_EQ(got.qualified_counts, want.qualified_counts) << context;
}

/// A random query whose |R(q)| stays within `max_qualified`.
PartialMatchQuery RandomQuery(const FieldSpec& spec, Xoshiro256& rng,
                              std::uint64_t max_qualified) {
  PartialMatchQuery query(spec.num_fields());
  std::uint64_t qualified = 1;
  for (unsigned f = 0; f < spec.num_fields(); ++f) {
    const std::uint64_t size = spec.field_size(f);
    if (rng.NextBool(0.5) && qualified * size <= max_qualified) {
      qualified *= size;
    } else {
      query.Specify(f, rng.NextBounded(size));
    }
  }
  return query;
}

/// Random distinct-ish queries, then exact duplicates and overlapping
/// variants (one field opened or pinned) of earlier ones.
std::vector<PartialMatchQuery> RandomBatch(const FieldSpec& spec,
                                           Xoshiro256& rng,
                                           std::uint64_t max_qualified) {
  std::vector<PartialMatchQuery> batch;
  const std::uint64_t fresh = 1 + rng.NextBounded(6);
  for (std::uint64_t i = 0; i < fresh; ++i) {
    batch.push_back(RandomQuery(spec, rng, max_qualified));
  }
  const std::uint64_t derived = 1 + rng.NextBounded(6);
  for (std::uint64_t i = 0; i < derived; ++i) {
    PartialMatchQuery query = batch[rng.NextBounded(batch.size())];
    const auto f = static_cast<unsigned>(rng.NextBounded(spec.num_fields()));
    switch (rng.NextBounded(3)) {
      case 0:  // exact duplicate
        break;
      case 1:  // subset: pin one more field
        query.Specify(f, rng.NextBounded(spec.field_size(f)));
        break;
      default:  // superset: open one field, if the budget allows
        if (query.is_specified(f) &&
            query.NumQualifiedBuckets(spec) * spec.field_size(f) <=
                max_qualified) {
          query.Unspecify(f);
        }
        break;
    }
    batch.push_back(query);
  }
  // Shuffle so duplicates and overlaps land before their originals too.
  for (std::size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng.NextBounded(i)]);
  }
  return batch;
}

void CheckPlansAgainstReference(const FieldSpec& spec,
                                const std::string& method_name,
                                Xoshiro256& rng, int batches,
                                std::uint64_t max_qualified) {
  auto method = MakeDistribution(spec, method_name);
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  const DeviceMap map(**method);
  for (int b = 0; b < batches; ++b) {
    const std::vector<PartialMatchQuery> batch =
        RandomBatch(spec, rng, max_qualified);
    const std::uint64_t salt = rng.Next();
    for (std::uint64_t d = 0; d < spec.num_devices(); ++d) {
      const std::string context = method_name + " M=" +
                                  std::to_string(spec.num_devices()) +
                                  " buckets=" +
                                  std::to_string(spec.TotalBuckets()) +
                                  " batch " + std::to_string(b) +
                                  " device " + std::to_string(d);
      const DeviceBatchPlan want = ReferencePlan(map, batch, d);
      ExpectSamePlan(PlanDeviceBatch(map, batch, d), want, context);
      ExpectSamePlan(PlanDeviceBatch(**method, batch, d), want,
                     context + " (method)");

      // A live filter that rejects about a third of the buckets; it must
      // run once per distinct bucket.
      std::map<std::uint64_t, int> calls;
      const std::function<bool(std::uint64_t)> live =
          [&calls, salt](std::uint64_t linear) {
            ++calls[linear];
            return ((linear ^ salt) * 0x9e3779b97f4a7c15ull) % 3 != 0;
          };
      const DeviceBatchPlan filtered = PlanDeviceBatch(map, batch, d, live);
      std::map<std::uint64_t, int> reference_calls;
      const std::function<bool(std::uint64_t)> reference_live =
          [&reference_calls, salt](std::uint64_t linear) {
            ++reference_calls[linear];
            return ((linear ^ salt) * 0x9e3779b97f4a7c15ull) % 3 != 0;
          };
      ExpectSamePlan(filtered, ReferencePlan(map, batch, d, &reference_live),
                     context + " (live)");
      EXPECT_EQ(calls, reference_calls) << context;
      for (const auto& [linear, count] : calls) {
        EXPECT_EQ(count, 1) << context << " bucket " << linear;
      }
    }
  }
}

TEST(BatchPlanProperty, SmallSpacesMatchReferencePlanner) {
  Xoshiro256 rng(20260419);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned fields = 1 + static_cast<unsigned>(rng.NextBounded(4));
    std::vector<std::uint64_t> sizes;
    for (unsigned f = 0; f < fields; ++f) {
      sizes.push_back(std::uint64_t{1} << rng.NextBounded(4));  // 1..8
    }
    const std::uint64_t devices = std::uint64_t{1} << rng.NextBounded(5);
    auto spec = FieldSpec::Create(sizes, devices);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const std::string method = trial % 2 == 0 ? "modulo" : "fx-iu2";
    CheckPlansAgainstReference(*spec, method, rng, /*batches=*/3,
                               /*max_qualified=*/spec->TotalBuckets());
  }
}

TEST(BatchPlanProperty, SpaceAboveTwoToTheTwentyMatchesReferencePlanner) {
  // 2^21 buckets: past the DeviceMap's precompute limit, so enumeration
  // falls back to the method's residue solver.
  auto spec = FieldSpec::Create({64, 64, 64, 8}, 8);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_GT(spec->TotalBuckets(), std::uint64_t{1} << 20);
  Xoshiro256 rng(7);
  CheckPlansAgainstReference(*spec, "fx-iu2", rng, /*batches=*/4,
                             /*max_qualified=*/4096);
}

}  // namespace
}  // namespace fxdist
