// ResultCache: a sharded, byte-budgeted LRU of whole query results.
//
// The front door sees Zipf-shaped query streams: a handful of hot
// queries dominate.  Executing a hot query once and replaying the stored
// QueryResult is sound only if nothing that could change the answer
// happened in between — which is exactly what the StorageBackend
// mutation epoch certifies (sim/storage_backend.h MutationEpoch).  Every
// entry is stamped with the epoch the result was computed at; a lookup
// whose current epoch differs drops the entry (counted as an epoch
// invalidation) instead of serving stale rows.  Because the epoch is
// captured *before* the query executes, a mutation racing the execution
// can only make the entry look stale — the cache over-invalidates, never
// under.
//
// Keys are canonical QueryKeys (core/query_key.h): key equality implies
// the queries filter records bit-identically, so a hit returns exactly
// what re-executing would.  The key space is split across shards by the
// precomputed key hash — one mutex per shard, so concurrent front-door
// threads rarely contend — and each shard owns an equal slice of the
// byte budget, evicting from its own LRU tail.  Each shard also
// memoizes its most recently hit entry: a run of back-to-back lookups
// for one hot key (the Zipf head) skips the hash-map probe entirely.
//
// Entries can also carry a TTL (ttl_ms > 0): epoch invalidation covers
// mutations through *this* process's backend handle, while a TTL bounds
// staleness against out-of-band change the epoch cannot see.
//
// Negative results — queries that matched nothing — are cached like any
// other: an empty answer is certified by the same epoch the full ones
// are, it is the cheapest entry the cache can hold, and miss-heavy
// workloads (point probes for absent keys) are exactly the ones that
// re-ask.  Negative entries get their own hit and residency counters so
// a dashboard can tell "hot empty answers" from a cold cache.

#ifndef FXDIST_FRONT_RESULT_CACHE_H_
#define FXDIST_FRONT_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query_key.h"
#include "sim/storage_backend.h"

namespace fxdist {

struct ResultCacheOptions {
  /// Total byte budget across all shards (keys + records + overhead).
  /// An entry larger than its shard's slice is simply not cached.
  std::uint64_t max_bytes = 64ull << 20;
  /// Lock shards; clamped to >= 1.  Keys spread by their FNV hash.
  std::size_t num_shards = 16;
  /// Entry lifetime in milliseconds; 0 disables TTL expiry.
  std::uint64_t ttl_ms = 0;
};

/// Point-in-time counters (monotonic except entries/bytes).
struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;            ///< LRU byte-budget evictions
  std::uint64_t epoch_invalidations = 0;  ///< dropped: backend mutated
  std::uint64_t ttl_expirations = 0;      ///< dropped: entry outlived TTL
  std::uint64_t hot_memo_hits = 0;        ///< hits served by the memo slot
  std::uint64_t negative_hits = 0;        ///< hits whose answer was empty
  std::uint64_t entries = 0;              ///< resident entries now
  std::uint64_t bytes = 0;                ///< resident bytes now
  std::uint64_t negative_entries = 0;     ///< resident empty-answer entries
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns a copy of the cached result for `key` if one is resident,
  /// was computed at `epoch`, and (with TTL on) is younger than ttl_ms
  /// at `now_ms`.  A stale entry is erased and counted; every non-hit
  /// counts as a miss.
  std::optional<QueryResult> Lookup(const QueryKey& key,
                                    std::uint64_t epoch,
                                    std::uint64_t now_ms);

  /// Stores `result` for `key` as computed at `epoch`.  Replaces any
  /// previous entry for the key; evicts LRU entries until the shard is
  /// back under budget.  Oversized results are silently not cached.
  void Insert(const QueryKey& key, const QueryResult& result,
              std::uint64_t epoch, std::uint64_t now_ms);

  /// Drops every entry (budget and counters keep their history).
  void Clear();

  ResultCacheStats Stats() const;

 private:
  struct Entry {
    QueryKey key;
    QueryResult result;
    std::uint64_t epoch = 0;
    std::uint64_t inserted_ms = 0;
    std::uint64_t bytes = 0;
  };
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<QueryKey, std::list<Entry>::iterator, QueryKeyHash>
        index;
    /// Memo of the last hit (end() when invalid) — the Zipf-head fast
    /// path.  Must be re-set to end() whenever the list mutates.
    std::list<Entry>::iterator hot;
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t epoch_invalidations = 0;
    std::uint64_t ttl_expirations = 0;
    std::uint64_t hot_memo_hits = 0;
    std::uint64_t negative_hits = 0;
    std::uint64_t negative_entries = 0;
  };

  Shard& ShardFor(const QueryKey& key) {
    return *shards_[key.hash() % shards_.size()];
  }
  /// Erases `it` from `shard` (caller holds the shard mutex).
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it);
  static std::uint64_t EntryBytes(const QueryKey& key,
                                  const QueryResult& result);

  const ResultCacheOptions options_;
  const std::uint64_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fxdist

#endif  // FXDIST_FRONT_RESULT_CACHE_H_
