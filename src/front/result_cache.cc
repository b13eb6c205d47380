#include "front/result_cache.h"

#include <algorithm>
#include <utility>

namespace fxdist {

namespace {

std::uint64_t ApproxStatsBytes(const QueryStats& stats) {
  return stats.qualified_per_device.size() * sizeof(std::uint64_t) +
         stats.device_wall_ms.size() * sizeof(double) + sizeof(QueryStats);
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options)
    : options_([&options] {
        options.num_shards = std::max<std::size_t>(1, options.num_shards);
        return options;
      }()),
      shard_budget_(std::max<std::uint64_t>(
          1, options_.max_bytes / options_.num_shards)) {
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->hot = shards_.back()->lru.end();
  }
}

std::uint64_t ResultCache::EntryBytes(const QueryKey& key,
                                      const QueryResult& result) {
  std::uint64_t bytes = key.ApproxBytes() + ApproxStatsBytes(result.stats) +
                        sizeof(Entry);
  for (const Record& record : result.records) {
    bytes += ApproxRecordBytes(record);
  }
  return bytes;
}

void ResultCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  shard.bytes -= it->bytes;
  if (it->result.records.empty()) --shard.negative_entries;
  shard.index.erase(it->key);
  if (shard.hot == it) shard.hot = shard.lru.end();
  shard.lru.erase(it);
}

std::optional<QueryResult> ResultCache::Lookup(const QueryKey& key,
                                               std::uint64_t epoch,
                                               std::uint64_t now_ms) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);

  std::list<Entry>::iterator it;
  bool via_memo = false;
  if (shard.hot != shard.lru.end() && shard.hot->key == key) {
    it = shard.hot;
    via_memo = true;
  } else {
    auto found = shard.index.find(key);
    if (found == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    it = found->second;
  }

  if (it->epoch != epoch) {
    ++shard.epoch_invalidations;
    ++shard.misses;
    EraseLocked(shard, it);
    return std::nullopt;
  }
  if (options_.ttl_ms > 0 && now_ms - it->inserted_ms >= options_.ttl_ms) {
    ++shard.ttl_expirations;
    ++shard.misses;
    EraseLocked(shard, it);
    return std::nullopt;
  }

  ++shard.hits;
  if (via_memo) ++shard.hot_memo_hits;
  if (it->result.records.empty()) ++shard.negative_hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it);
  shard.hot = it;
  return it->result;
}

void ResultCache::Insert(const QueryKey& key, const QueryResult& result,
                         std::uint64_t epoch, std::uint64_t now_ms) {
  const bool negative = result.records.empty();
  const std::uint64_t bytes = EntryBytes(key, result);
  if (bytes > shard_budget_) return;  // would evict the whole shard

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto found = shard.index.find(key); found != shard.index.end()) {
    EraseLocked(shard, found->second);
  }
  while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    ++shard.evictions;
    EraseLocked(shard, std::prev(shard.lru.end()));
  }
  shard.lru.push_front(Entry{key, result, epoch, now_ms, bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  if (negative) ++shard.negative_entries;
  shard.hot = shard.lru.begin();
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->hot = shard->lru.end();
    shard->bytes = 0;
    shard->negative_entries = 0;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.epoch_invalidations += shard->epoch_invalidations;
    stats.ttl_expirations += shard->ttl_expirations;
    stats.hot_memo_hits += shard->hot_memo_hits;
    stats.negative_hits += shard->negative_hits;
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
    stats.negative_entries += shard->negative_entries;
  }
  return stats;
}

}  // namespace fxdist
