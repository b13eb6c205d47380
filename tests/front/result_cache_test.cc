// ResultCache unit tests: hits, epoch invalidation, TTL, byte budget,
// and the hot-key memo — all with an injected clock and single-shard
// configs so every path is deterministic.

#include "front/result_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace fxdist {
namespace {

QueryKey KeyOf(int field, int value) {
  return QueryKey::Create(
             4, {{static_cast<unsigned>(field),
                  "i:" + std::to_string(value)}})
      .value();
}

QueryResult ResultOf(std::int64_t tag, std::size_t num_records = 1) {
  QueryResult result;
  for (std::size_t i = 0; i < num_records; ++i) {
    result.records.push_back({FieldValue{tag}, FieldValue{std::string("r")}});
  }
  result.stats.records_matched = result.records.size();
  return result;
}

TEST(ResultCacheTest, MissThenHitReturnsSameRecords) {
  ResultCache cache;
  const QueryKey key = KeyOf(0, 1);
  EXPECT_FALSE(cache.Lookup(key, /*epoch=*/5, /*now_ms=*/0).has_value());
  cache.Insert(key, ResultOf(7), /*epoch=*/5, /*now_ms=*/0);
  auto hit = cache.Lookup(key, 5, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->records, ResultOf(7).records);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EpochMismatchInvalidates) {
  ResultCache cache;
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, ResultOf(7), /*epoch=*/5, /*now_ms=*/0);
  // The backend mutated: same key, later epoch — the entry must die, not
  // serve the pre-mutation rows.
  EXPECT_FALSE(cache.Lookup(key, /*epoch=*/6, 0).has_value());
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.epoch_invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // And it is really gone, not resurrectable at the old epoch.
  EXPECT_FALSE(cache.Lookup(key, 5, 0).has_value());
}

TEST(ResultCacheTest, TtlExpiresEntries) {
  ResultCacheOptions options;
  options.ttl_ms = 100;
  ResultCache cache(options);
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, ResultOf(7), /*epoch=*/1, /*now_ms=*/1000);
  EXPECT_TRUE(cache.Lookup(key, 1, 1099).has_value());
  EXPECT_FALSE(cache.Lookup(key, 1, 1100).has_value());
  EXPECT_EQ(cache.Stats().ttl_expirations, 1u);
}

TEST(ResultCacheTest, ZeroTtlNeverExpires) {
  ResultCache cache;  // ttl_ms = 0
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, ResultOf(7), 1, 0);
  EXPECT_TRUE(cache.Lookup(key, 1, ~std::uint64_t{0}).has_value());
}

TEST(ResultCacheTest, ByteBudgetEvictsLru) {
  ResultCacheOptions options;
  options.num_shards = 1;
  // Room for roughly two small entries, not twenty.
  options.max_bytes = 2 * (KeyOf(0, 0).ApproxBytes() + 512);
  ResultCache cache(options);
  for (int i = 0; i < 20; ++i) {
    cache.Insert(KeyOf(0, i), ResultOf(i), 1, 0);
  }
  const ResultCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  // The newest entry survived; the oldest was evicted.
  EXPECT_TRUE(cache.Lookup(KeyOf(0, 19), 1, 0).has_value());
  EXPECT_FALSE(cache.Lookup(KeyOf(0, 0), 1, 0).has_value());
}

TEST(ResultCacheTest, LruOrderFollowsHits) {
  ResultCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 2 * (KeyOf(0, 0).ApproxBytes() + 512);
  ResultCache cache(options);
  cache.Insert(KeyOf(0, 1), ResultOf(1), 1, 0);
  cache.Insert(KeyOf(0, 2), ResultOf(2), 1, 0);
  // Touch 1 so 2 becomes the LRU tail, then insert a third entry.
  EXPECT_TRUE(cache.Lookup(KeyOf(0, 1), 1, 0).has_value());
  cache.Insert(KeyOf(0, 3), ResultOf(3), 1, 0);
  EXPECT_TRUE(cache.Lookup(KeyOf(0, 1), 1, 0).has_value());
  EXPECT_FALSE(cache.Lookup(KeyOf(0, 2), 1, 0).has_value());
}

TEST(ResultCacheTest, OversizedResultNotCached) {
  ResultCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 256;
  ResultCache cache(options);
  cache.Insert(KeyOf(0, 1), ResultOf(1, /*num_records=*/10000), 1, 0);
  EXPECT_FALSE(cache.Lookup(KeyOf(0, 1), 1, 0).has_value());
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ResultCacheTest, InsertReplacesExistingEntry) {
  ResultCache cache;
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, ResultOf(7), 1, 0);
  cache.Insert(key, ResultOf(8), 2, 0);
  EXPECT_EQ(cache.Stats().entries, 1u);
  auto hit = cache.Lookup(key, 2, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->records, ResultOf(8).records);
}

TEST(ResultCacheTest, HotMemoCountsRepeatHits) {
  ResultCache cache;
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, ResultOf(7), 1, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cache.Lookup(key, 1, 0).has_value());
  }
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 5u);
  // The first hit primes the memo; the rest ride it.
  EXPECT_GE(stats.hot_memo_hits, 4u);
}

TEST(ResultCacheTest, ClearDropsEntriesKeepsCounters) {
  ResultCache cache;
  cache.Insert(KeyOf(0, 1), ResultOf(7), 1, 0);
  ASSERT_TRUE(cache.Lookup(KeyOf(0, 1), 1, 0).has_value());
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_FALSE(cache.Lookup(KeyOf(0, 1), 1, 0).has_value());
}

QueryResult EmptyResult() {
  QueryResult result;
  result.stats.records_matched = 0;
  return result;
}

TEST(ResultCacheTest, NegativeResultsAreCachedAndServed) {
  ResultCache cache;
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, EmptyResult(), /*epoch=*/3, /*now_ms=*/0);
  auto hit = cache.Lookup(key, 3, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->records.empty());
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
}

TEST(ResultCacheTest, NegativeEntriesDieWithTheEpochLikeAnyOther) {
  ResultCache cache;
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, EmptyResult(), /*epoch=*/3, /*now_ms=*/0);
  // A mutation may have created the very record this key asks for: the
  // cached "nothing" must not survive it.
  EXPECT_FALSE(cache.Lookup(key, /*epoch=*/4, 0).has_value());
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.epoch_invalidations, 1u);
  EXPECT_EQ(stats.negative_entries, 0u);
  EXPECT_EQ(stats.negative_hits, 0u);
}

TEST(ResultCacheTest, NegativeCountersTrackReplacementAndClear) {
  ResultCache cache;
  const QueryKey key = KeyOf(0, 1);
  cache.Insert(key, EmptyResult(), 1, 0);
  EXPECT_EQ(cache.Stats().negative_entries, 1u);
  // Replacing the empty answer with rows flips the residency counter.
  cache.Insert(key, ResultOf(7), 1, 0);
  EXPECT_EQ(cache.Stats().negative_entries, 0u);
  EXPECT_EQ(cache.Stats().entries, 1u);
  cache.Insert(KeyOf(0, 2), EmptyResult(), 1, 0);
  EXPECT_EQ(cache.Stats().negative_entries, 1u);
  cache.Clear();
  EXPECT_EQ(cache.Stats().negative_entries, 0u);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

}  // namespace
}  // namespace fxdist
