#include "front/frontend.h"

#include <algorithm>
#include <utility>

#include "hashing/query_key.h"

namespace fxdist {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

std::uint64_t SteadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

Frontend::Frontend(QueryEngine& engine, FrontendOptions options)
    : engine_(engine), options_([&options] {
        options.batch_chunk = std::max<std::size_t>(1, options.batch_chunk);
        options.max_round = std::max<std::size_t>(1, options.max_round);
        options.max_queue = std::max<std::size_t>(1, options.max_queue);
        if (!options.now_ms) options.now_ms = SteadyNowMs;
        return options;
      }()),
      cache_(options_.cache), admission_(options_.admission) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

Frontend::~Frontend() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
}

void Frontend::Resolve(Pending& pending, Result<QueryResult> result) {
  const double micros = MicrosSince(pending.admitted);
  if (pending.priority == QueryPriority::kInteractive) {
    interactive_latency_.Record(micros);
  } else {
    batch_latency_.Record(micros);
  }
  if (result.ok()) {
    completed_.Increment();
  } else {
    failed_.Increment();
  }
  pending.promise.set_value(std::move(result));
}

std::future<Result<QueryResult>> Frontend::Submit(
    const std::string& client_id, QueryPriority priority, ValueQuery query) {
  Pending pending;
  pending.priority = priority;
  pending.admitted = Clock::now();
  std::future<Result<QueryResult>> future = pending.promise.get_future();
  submitted_.Increment();

  if (!admission_.Admit(client_id, NowMs())) {
    shed_admission_.Increment();
    Resolve(pending, Status::ResourceExhausted(
                         "shed: client \"" + client_id +
                         "\" exceeded its admission rate"));
    return future;
  }

  pending.key = CanonicalQueryKey(query);
  if (options_.cache_enabled) {
    // A hit bypasses the queue entirely: the entry's epoch matching the
    // backend's current epoch certifies no mutation has run since the
    // result was computed.
    if (auto cached = cache_.Lookup(
            pending.key, engine_.backend().MutationEpoch(), NowMs())) {
      cache_served_.Increment();
      Resolve(pending, *std::move(cached));
      return future;
    }
  }
  // A query that does not hash, or that alone enumerates more buckets
  // than the engine's budget, would fail ExecuteBatch for its whole
  // round; it fails here, alone.
  auto hashed = engine_.backend().HashQuery(query);
  if (!hashed.ok()) {
    Resolve(pending, hashed.status());
    return future;
  }
  pending.buckets = hashed->NumQualifiedBuckets(engine_.backend().spec());
  if (pending.buckets > engine_.options().enumeration_budget) {
    Resolve(pending, Status::InvalidArgument(
                         "query enumeration exceeds the engine budget"));
    return future;
  }
  pending.query = std::move(query);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (interactive_.size() + batch_.size() >= options_.max_queue) {
      shed_overflow_.Increment();
      Resolve(pending,
              Status::ResourceExhausted("shed: frontend queue is full"));
      return future;
    }
    // QoS off: one FIFO (the interactive deque), strict arrival order.
    if (options_.qos_enabled && priority == QueryPriority::kBatch) {
      batch_.push_back(std::move(pending));
    } else {
      interactive_.push_back(std::move(pending));
    }
    const auto depth =
        static_cast<std::int64_t>(interactive_.size() + batch_.size());
    queue_depth_.Set(depth);
    max_queue_depth_.UpdateMax(depth);
  }
  queue_cv_.notify_one();
  return future;
}

void Frontend::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    queue_cv_.wait(lock, [this] {
      return stop_ || !interactive_.empty() || !batch_.empty();
    });
    if (interactive_.empty() && batch_.empty()) {
      if (stop_) return;  // drained; shutting down
      continue;
    }
    // One round: every pending interactive query (up to max_round), then
    // batch work — only batch_chunk of it when interactive queries were
    // present, so a deep batch backlog delays the interactive class by
    // at most one round.  The engine budgets a batch's summed bucket
    // count, so a round also closes before the query that would push
    // that sum past the budget; it always takes at least one query.
    std::vector<Pending> round;
    round.reserve(std::min(options_.max_round,
                           interactive_.size() + batch_.size()));
    const std::uint64_t budget = engine_.options().enumeration_budget;
    std::uint64_t round_buckets = 0;
    // Moves up to `limit` queries of `queue` into the round; false once
    // the budget closed the round.
    const auto take = [&](std::deque<Pending>& queue, std::size_t limit) {
      for (std::size_t i = 0; i < limit && !queue.empty() &&
                              round.size() < options_.max_round;
           ++i) {
        const std::uint64_t buckets = queue.front().buckets;
        if (!round.empty() && buckets > budget - round_buckets) return false;
        round_buckets += buckets;
        round.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      return true;
    };
    const bool had_interactive = !interactive_.empty();
    if (take(interactive_, options_.max_round)) {
      take(batch_, had_interactive ? options_.batch_chunk
                                   : options_.max_round);
    }
    dispatching_ = true;
    queue_depth_.Set(
        static_cast<std::int64_t>(interactive_.size() + batch_.size()));
    lock.unlock();

    RunRound(std::move(round));

    lock.lock();
    dispatching_ = false;
    if (interactive_.empty() && batch_.empty()) drained_cv_.notify_all();
  }
}

void Frontend::RunRound(std::vector<Pending> round) {
  // Capture the epoch BEFORE executing: a mutation that lands between
  // capture and cache insert makes the new entries look stale (current
  // epoch moved on), which over-invalidates — never serves stale rows.
  const std::uint64_t epoch = engine_.backend().MutationEpoch();

  // A queued entry may have become answerable while it waited (an
  // earlier round cached its key).
  std::vector<ValueQuery> queries;
  std::vector<std::size_t> live;
  queries.reserve(round.size());
  live.reserve(round.size());
  for (std::size_t i = 0; i < round.size(); ++i) {
    if (options_.cache_enabled) {
      if (auto cached = cache_.Lookup(round[i].key, epoch, NowMs())) {
        cache_served_.Increment();
        Resolve(round[i], *std::move(cached));
        continue;
      }
    }
    queries.push_back(round[i].query);
    live.push_back(i);
  }
  if (queries.empty()) return;

  auto results = engine_.ExecuteBatch(queries);
  if (!results.ok()) {
    // Malformed or over-budget queries never reach a round (Submit
    // hashes and counts each one, and rounds close at the budget), so a
    // whole-batch failure is a backend fault; resolve each future with
    // the cause.
    for (std::size_t j = 0; j < live.size(); ++j) {
      Resolve(round[live[j]], results.status());
    }
    return;
  }
  for (std::size_t j = 0; j < live.size(); ++j) {
    Pending& pending = round[live[j]];
    if (options_.cache_enabled) {
      cache_.Insert(pending.key, (*results)[j], epoch, NowMs());
    }
    Resolve(pending, std::move((*results)[j]));
  }
}

void Frontend::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] {
    return interactive_.empty() && batch_.empty() && !dispatching_;
  });
}

FrontendStats Frontend::Stats() const {
  FrontendStats stats;
  stats.submitted = submitted_.Value();
  stats.completed = completed_.Value();
  stats.failed = failed_.Value();
  stats.cache_served = cache_served_.Value();
  stats.shed_admission = shed_admission_.Value();
  stats.shed_overflow = shed_overflow_.Value();
  stats.queue_depth = queue_depth_.Value();
  stats.max_queue_depth = max_queue_depth_.Value();
  stats.cache = cache_.Stats();
  stats.clients = admission_.Stats();
  stats.interactive_latency = interactive_latency_.Snapshot();
  stats.batch_latency = batch_latency_.Snapshot();
  return stats;
}

}  // namespace fxdist
