#include "core/query.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "util/random.h"

namespace fxdist {
namespace {

FieldSpec Spec() { return FieldSpec::Create({2, 8, 4}, 4).value(); }

TEST(QueryTest, CreateValidatesValues) {
  const FieldSpec spec = Spec();
  auto ok = PartialMatchQuery::Create(spec, {std::nullopt, 7, 3});
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok->is_specified(0));
  EXPECT_TRUE(ok->is_specified(1));
  EXPECT_EQ(ok->value(1), 7u);

  EXPECT_FALSE(PartialMatchQuery::Create(spec, {std::nullopt, 8, 0}).ok());
  EXPECT_FALSE(PartialMatchQuery::Create(spec, {std::nullopt, 0}).ok());
}

TEST(QueryTest, FromUnspecifiedMask) {
  const FieldSpec spec = Spec();
  auto q = PartialMatchQuery::FromUnspecifiedMask(spec, 0b101, {1, 5, 2});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->is_specified(0));
  EXPECT_TRUE(q->is_specified(1));
  EXPECT_EQ(q->value(1), 5u);
  EXPECT_FALSE(q->is_specified(2));
  EXPECT_EQ(q->UnspecifiedMask(), 0b101u);
}

TEST(QueryTest, FromMaskRejectsOutOfRangeBits) {
  const FieldSpec spec = Spec();
  EXPECT_FALSE(
      PartialMatchQuery::FromUnspecifiedMask(spec, 0b1000, {0, 0, 0}).ok());
}

TEST(QueryTest, CountsAndSets) {
  const FieldSpec spec = Spec();
  auto q = PartialMatchQuery::Create(spec, {std::nullopt, 3, std::nullopt})
               .value();
  EXPECT_EQ(q.NumUnspecified(), 2u);
  EXPECT_EQ(q.UnspecifiedFields(), (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(q.SpecifiedFields(), (std::vector<unsigned>{1}));
  EXPECT_EQ(q.NumQualifiedBuckets(spec), 8u);  // 2 * 4
}

TEST(QueryTest, ExactMatchHasOneQualifiedBucket) {
  const FieldSpec spec = Spec();
  auto q = PartialMatchQuery::Create(spec, {1, 2, 3}).value();
  EXPECT_EQ(q.NumUnspecified(), 0u);
  EXPECT_EQ(q.NumQualifiedBuckets(spec), 1u);
}

TEST(QueryTest, WholeFileQuery) {
  const FieldSpec spec = Spec();
  PartialMatchQuery q(spec.num_fields());
  EXPECT_EQ(q.NumUnspecified(), 3u);
  EXPECT_EQ(q.NumQualifiedBuckets(spec), spec.TotalBuckets());
}

TEST(QueryTest, Matches) {
  const FieldSpec spec = Spec();
  auto q = PartialMatchQuery::Create(spec, {std::nullopt, 3, 2}).value();
  EXPECT_TRUE(q.Matches({0, 3, 2}));
  EXPECT_TRUE(q.Matches({1, 3, 2}));
  EXPECT_FALSE(q.Matches({0, 4, 2}));
  EXPECT_FALSE(q.Matches({0, 3, 1}));
}

TEST(QueryTest, ForEachQualifiedBucketEnumeratesExactlyRq) {
  const FieldSpec spec = Spec();
  auto q = PartialMatchQuery::Create(spec, {std::nullopt, 3, std::nullopt})
               .value();
  std::set<std::uint64_t> seen;
  ForEachQualifiedBucket(spec, q, [&](const BucketId& b) {
    EXPECT_TRUE(q.Matches(b));
    EXPECT_TRUE(seen.insert(LinearIndex(spec, b)).second);
    return true;
  });
  EXPECT_EQ(seen.size(), q.NumQualifiedBuckets(spec));
}

TEST(QueryTest, ForEachQualifiedBucketExactMatch) {
  const FieldSpec spec = Spec();
  auto q = PartialMatchQuery::Create(spec, {1, 2, 3}).value();
  std::uint64_t count = 0;
  ForEachQualifiedBucket(spec, q, [&](const BucketId& b) {
    EXPECT_EQ(b, (BucketId{1, 2, 3}));
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(QueryTest, ForEachQualifiedBucketEarlyStop) {
  const FieldSpec spec = Spec();
  PartialMatchQuery q(spec.num_fields());
  std::uint64_t count = 0;
  ForEachQualifiedBucket(spec, q, [&](const BucketId&) {
    return ++count < 5;
  });
  EXPECT_EQ(count, 5u);
}

TEST(QueryTest, ToString) {
  const FieldSpec spec = Spec();
  auto q = PartialMatchQuery::Create(spec, {std::nullopt, 3, 2}).value();
  EXPECT_EQ(q.ToString(), "<*, 3, 2>");
}

TEST(QueryTest, SharesBucketWithExamples) {
  const FieldSpec spec = Spec();
  auto a = PartialMatchQuery::Create(spec, {std::nullopt, 3, 2}).value();
  auto b = PartialMatchQuery::Create(spec, {1, 3, std::nullopt}).value();
  auto c = PartialMatchQuery::Create(spec, {1, 4, std::nullopt}).value();
  EXPECT_TRUE(a.SharesBucketWith(b));  // both hold <1, 3, 2>
  EXPECT_TRUE(b.SharesBucketWith(a));
  EXPECT_FALSE(a.SharesBucketWith(c));  // field 1 differs
  EXPECT_TRUE(a.SharesBucketWith(a));
  EXPECT_TRUE(PartialMatchQuery(3).SharesBucketWith(c));
  EXPECT_FALSE(PartialMatchQuery(2).SharesBucketWith(PartialMatchQuery(3)));
}

// The predicate against brute force: over random small specs (size-1
// fields included) and random queries (every field a wildcard, every
// field specified, and mixes), SharesBucketWith(a, b) must equal "the
// enumerated R(a) and R(b) have a bucket in common" for every pair.
TEST(QueryTest, SharesBucketWithMatchesEnumeratedIntersection) {
  Xoshiro256 rng(20261019);
  const std::uint64_t sizes[] = {1, 2, 4};
  std::uint64_t pairs = 0, sharing = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const unsigned n = 1 + static_cast<unsigned>(rng.NextBounded(4));
    std::vector<std::uint64_t> field_sizes(n);
    for (auto& size : field_sizes) size = sizes[rng.NextBounded(3)];
    const FieldSpec spec = FieldSpec::Create(field_sizes, 2).value();

    std::vector<PartialMatchQuery> queries;
    queries.emplace_back(n);  // every field a wildcard
    for (int k = 0; k < 10; ++k) {
      // k == 0: every field specified; otherwise a random mix.
      const double wildcard = k == 0 ? 0.0 : rng.NextDouble();
      std::vector<std::optional<std::uint64_t>> values(n);
      for (unsigned f = 0; f < n; ++f) {
        if (!rng.NextBool(wildcard)) {
          values[f] = rng.NextBounded(spec.field_size(f));
        }
      }
      queries.push_back(PartialMatchQuery::Create(spec, values).value());
    }

    for (const PartialMatchQuery& a : queries) {
      std::set<std::uint64_t> buckets_a;
      ForEachQualifiedBucket(spec, a, [&](const BucketId& bucket) {
        buckets_a.insert(LinearIndex(spec, bucket));
        return true;
      });
      for (const PartialMatchQuery& b : queries) {
        bool common = false;
        ForEachQualifiedBucket(spec, b, [&](const BucketId& bucket) {
          common = buckets_a.count(LinearIndex(spec, bucket)) > 0;
          return !common;
        });
        EXPECT_EQ(a.SharesBucketWith(b), common)
            << a.ToString() << " vs " << b.ToString();
        ++pairs;
        if (common) ++sharing;
      }
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(sharing, 0u);
  EXPECT_LT(sharing, pairs);
}

}  // namespace
}  // namespace fxdist
