// Frontend: the multi-tenant front door in front of QueryEngine.
//
// Three concerns compose here, each deliberately *outside* the engine
// (the engine stays the result-preserving batch executor; everything
// that can change what work runs — or whether it runs at all — lives in
// this layer):
//
//  * Result cache — every query canonicalizes to a QueryKey; a resident
//    entry computed at the backend's current mutation epoch answers the
//    query without queueing.  The epoch for a miss is captured *before*
//    the batch executes, so a mutation racing the execution can only
//    over-invalidate (see front/result_cache.h).  Hits are exact: key
//    equality implies a bit-identical filter, so cached records equal
//    what re-execution would return.
//  * Admission control — per-client token buckets shed work that exceeds
//    a tenant's rate before it queues; shed queries resolve with
//    ResourceExhausted (front/admission.h).
//  * Two-priority QoS — interactive queries jump ahead of the batch
//    backlog: each dispatch round drains every pending interactive query
//    (up to 64 per round) and chews only 8 batch queries, so interactive
//    latency is bounded by one round's work instead of the whole
//    backlog.  With QoS off both classes share one FIFO (the baseline
//    the frontend bench compares against).  Past 65,536 queued queries
//    across both classes, Submit sheds.
//
// The dispatcher groups queue entries into QueryEngine::ExecuteBatch
// calls, so the engine's shared scans and duplicate collapse still apply
// across the queries of one round — the cache sits above the engine's
// own dedup, not instead of it.  The Frontend is the stack's one
// asynchronous path.  ExecuteBatch fails a batch as a whole, so Submit
// hashes every cache miss before it queues: a query that does not hash,
// or whose own bucket count exceeds the engine's enumeration budget,
// resolves its own future with the error and never joins a round.  The
// engine budgets a batch's summed bucket count, so a round closes
// before the query that would push that sum past the budget.
//
// The backend must not be mutated by other threads while a Submit is in
// flight (the StorageBackend contract); mutations *between* rounds are
// what the epoch machinery handles.

#ifndef FXDIST_FRONT_FRONTEND_H_
#define FXDIST_FRONT_FRONTEND_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "front/admission.h"
#include "front/result_cache.h"
#include "util/metrics.h"
#include "util/status.h"

namespace fxdist {

enum class QueryPriority {
  kInteractive,  ///< latency-sensitive: drained fully every round
  kBatch,        ///< throughput work: 8 per round beside interactive
};

struct FrontendOptions {
  /// Result cache shape; `cache_enabled` false bypasses it entirely.
  ResultCacheOptions cache;
  bool cache_enabled = true;
  /// Per-client admission (rate 0 admits everything).
  AdmissionOptions admission;
  /// Two-priority scheduling; false = one FIFO, arrival order.
  bool qos_enabled = true;
  /// Millisecond clock for cache TTL and admission refill; defaults to
  /// steady_clock.  Injected by tests.
  std::function<std::uint64_t()> now_ms;
};

/// Point-in-time frontend counters (see ResultCacheStats for the cache
/// block).  Deterministic except the latency histograms.
struct FrontendStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;       ///< futures resolved with a result
  std::uint64_t failed = 0;          ///< futures resolved with an error
  std::uint64_t cache_served = 0;    ///< answered without queueing
  std::uint64_t shed_admission = 0;  ///< rejected by the token bucket
  std::uint64_t shed_overflow = 0;   ///< rejected by queue capacity
  std::int64_t queue_depth = 0;      ///< both classes, now
  std::int64_t max_queue_depth = 0;
  ResultCacheStats cache;
  std::vector<AdmissionClientStats> clients;
  HistogramSnapshot interactive_latency;  ///< submit to resolve, us
  HistogramSnapshot batch_latency;        ///< submit to resolve, us

  double hit_rate() const {
    const std::uint64_t total = cache.hits + cache.misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache.hits) /
                            static_cast<double>(total);
  }
};

class Frontend {
 public:
  /// `engine` (and its backend) must outlive the frontend.
  explicit Frontend(QueryEngine& engine, FrontendOptions options = {});
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Admission, cache lookup, validation, then enqueue: the future
  /// resolves with the query's result (bit-identical to engine execution
  /// — possibly served from cache), ResourceExhausted when shed, or the
  /// backend's HashQuery error for a malformed query.
  std::future<Result<QueryResult>> Submit(const std::string& client_id,
                                          QueryPriority priority,
                                          ValueQuery query);

  /// Blocks until both queues are empty and no round is in flight.
  void Flush();

  FrontendStats Stats() const;

  const QueryEngine& engine() const { return engine_; }
  const FrontendOptions& options() const { return options_; }

 private:
  struct Pending {
    ValueQuery query;
    QueryKey key;
    /// |R(q)|: the buckets the engine's enumeration budget charges.
    std::uint64_t buckets = 0;
    QueryPriority priority = QueryPriority::kBatch;
    std::promise<Result<QueryResult>> promise;
    std::chrono::steady_clock::time_point admitted;
  };

  void DispatcherLoop();
  void RunRound(std::vector<Pending> round);
  void Resolve(Pending& pending, Result<QueryResult> result);
  std::uint64_t NowMs() const { return options_.now_ms(); }

  QueryEngine& engine_;
  const FrontendOptions options_;
  ResultCache cache_;
  AdmissionController admission_;

  Counter submitted_;
  Counter completed_;
  Counter failed_;
  Counter cache_served_;
  Counter shed_admission_;
  Counter shed_overflow_;
  Gauge queue_depth_;
  Gauge max_queue_depth_;
  LatencyHistogram interactive_latency_;
  LatencyHistogram batch_latency_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drained_cv_;
  std::deque<Pending> interactive_;  ///< the only queue when QoS is off
  std::deque<Pending> batch_;
  bool dispatching_ = false;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace fxdist

#endif  // FXDIST_FRONT_FRONTEND_H_
