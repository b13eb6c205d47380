#include "front/frontend.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
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

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
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
  // A query that does not hash would fail ExecuteBatch for its whole
  // round; it fails here, alone.
  if (auto hashed = engine_.backend().HashQuery(query); !hashed.ok()) {
    Resolve(pending, hashed.status());
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
    // at most one round.
    std::vector<Pending> round;
    round.reserve(std::min(options_.max_round,
                           interactive_.size() + batch_.size()));
    const bool had_interactive = !interactive_.empty();
    while (!interactive_.empty() && round.size() < options_.max_round) {
      round.push_back(std::move(interactive_.front()));
      interactive_.pop_front();
    }
    const std::size_t batch_take =
        had_interactive ? options_.batch_chunk : options_.max_round;
    for (std::size_t i = 0;
         i < batch_take && !batch_.empty() && round.size() < options_.max_round;
         ++i) {
      round.push_back(std::move(batch_.front()));
      batch_.pop_front();
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
    // Malformed queries never reach a round (Submit hashes each one), so
    // a whole-batch failure is a blown enumeration budget or a backend
    // fault; resolve each future with the cause.
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

std::string FrontendStats::ToString() const {
  std::ostringstream os;
  os << "frontend   submitted " << submitted << "  completed " << completed
     << "  failed " << failed << "\n";
  os << "cache      served " << cache_served << "  hits " << cache.hits
     << "  misses " << cache.misses << "  hit-rate ";
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.1f%%", 100.0 * hit_rate());
  os << rate << "\n";
  os << "cache mem  entries " << cache.entries << "  bytes " << cache.bytes
     << "  evictions " << cache.evictions << "  epoch-inval "
     << cache.epoch_invalidations << "  ttl-expired "
     << cache.ttl_expirations << "  memo-hits " << cache.hot_memo_hits
     << "\n";
  os << "cache neg  hits " << cache.negative_hits << "  entries "
     << cache.negative_entries << "\n";
  os << "shed       admission " << shed_admission << "  overflow "
     << shed_overflow << "\n";
  os << "queue      depth " << queue_depth << "  max depth "
     << max_queue_depth << "\n";
  os << "inter lat. p50 "
     << FormatMicros(interactive_latency.PercentileMicros(0.50)) << "  p95 "
     << FormatMicros(interactive_latency.PercentileMicros(0.95)) << "  p99 "
     << FormatMicros(interactive_latency.PercentileMicros(0.99)) << "\n";
  os << "batch lat. p50 "
     << FormatMicros(batch_latency.PercentileMicros(0.50)) << "  p95 "
     << FormatMicros(batch_latency.PercentileMicros(0.95)) << "  p99 "
     << FormatMicros(batch_latency.PercentileMicros(0.99)) << "\n";
  for (const AdmissionClientStats& client : clients) {
    os << "client     " << client.client_id << "  admitted "
       << client.admitted << "  shed " << client.shed << "\n";
  }
  return os.str();
}

std::string FrontendStats::ToJson() const {
  std::ostringstream os;
  os << "{\"submitted\":" << submitted << ",\"completed\":" << completed
     << ",\"failed\":" << failed << ",\"cache_served\":" << cache_served
     << ",\"shed_admission\":" << shed_admission
     << ",\"shed_overflow\":" << shed_overflow
     << ",\"queue_depth\":" << queue_depth
     << ",\"max_queue_depth\":" << max_queue_depth;
  os << ",\"cache\":{\"hits\":" << cache.hits
     << ",\"misses\":" << cache.misses << ",\"hit_rate\":" << hit_rate()
     << ",\"evictions\":" << cache.evictions
     << ",\"epoch_invalidations\":" << cache.epoch_invalidations
     << ",\"ttl_expirations\":" << cache.ttl_expirations
     << ",\"hot_memo_hits\":" << cache.hot_memo_hits
     << ",\"negative_hits\":" << cache.negative_hits
     << ",\"entries\":" << cache.entries << ",\"bytes\":" << cache.bytes
     << ",\"negative_entries\":" << cache.negative_entries << "}";
  os << ",\"interactive_latency_us\":{\"p50\":"
     << interactive_latency.PercentileMicros(0.50)
     << ",\"p95\":" << interactive_latency.PercentileMicros(0.95)
     << ",\"p99\":" << interactive_latency.PercentileMicros(0.99) << "}";
  os << ",\"batch_latency_us\":{\"p50\":"
     << batch_latency.PercentileMicros(0.50)
     << ",\"p95\":" << batch_latency.PercentileMicros(0.95)
     << ",\"p99\":" << batch_latency.PercentileMicros(0.99) << "}";
  os << ",\"clients\":[";
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"client_id\":\"" << JsonEscape(clients[i].client_id)
       << "\",\"admitted\":" << clients[i].admitted
       << ",\"shed\":" << clients[i].shed << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace fxdist
