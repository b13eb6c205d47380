#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace fxdist {

namespace {

using Clock = std::chrono::steady_clock;

/// Attempts per task (across all workers) before the run aborts.
constexpr int kMaxTaskAttempts = 8;

/// splitmix64 finalizer — the per-task dedup token is a pure function
/// of (generator seed, first record), so a re-run of the same task
/// re-sends byte- and token-identical chunks wherever it executes.
std::uint64_t MixToken(std::uint64_t seed, std::uint64_t first_record) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (first_record + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

struct Coordinator::Task {
  enum class Kind { kIngest, kAnalyze };
  Kind kind = Kind::kAnalyze;

  // Ingest identity (pure function of the run's IngestSpec).
  std::uint64_t first_record = 0;
  std::uint64_t num_records = 0;
  std::uint64_t token = 0;
  int assigned = -1;  ///< worker this ingest task's records live on

  // Analyze identity.
  std::uint64_t mask = 0;
  std::uint64_t range_start = 0;
  std::uint64_t range_end = 0;

  // Scheduling state (guarded by Run::mutex).
  int attempts = 0;
  bool done = false;
  int owner = -1;  ///< current lease holder, -1 when free
  Clock::time_point lease_deadline{};
  RangePartial result;  ///< analyze result once done
};

struct Coordinator::Run {
  std::vector<Task> tasks;
  const IngestSpec* ingest = nullptr;  ///< null for sweeps

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<char> alive;
  std::vector<int> failures;  ///< consecutive, per worker
  std::size_t done_count = 0;
  std::size_t reassign_rr = 0;  ///< round-robin cursor for fencing
  std::uint64_t retries = 0;
  Status fatal;  ///< first unrecoverable error; aborts every thread
};

Result<std::unique_ptr<Coordinator>> Coordinator::Create(
    std::vector<std::unique_ptr<DistWorker>> workers,
    CoordinatorOptions options) {
  if (workers.empty()) {
    return Status::InvalidArgument("coordinator needs at least one worker");
  }
  options.records_per_task = std::max<std::uint64_t>(1, options.records_per_task);
  options.buckets_per_task = std::max<std::uint64_t>(1, options.buckets_per_task);
  // Every worker with a local placement plane must agree on the bucket
  // space, or the merged partials would be incomparable.
  const DeviceMap* reference = nullptr;
  for (const auto& worker : workers) {
    const DeviceMap* placement = worker->placement();
    if (placement == nullptr) continue;
    if (reference == nullptr) {
      reference = placement;
      continue;
    }
    if (placement->spec().field_sizes() != reference->spec().field_sizes() ||
        placement->spec().num_devices() != reference->spec().num_devices()) {
      return Status::FailedPrecondition(
          "worker '" + worker->name() +
          "' serves a different bucket space than the first worker — a "
          "mixed deployment cannot merge partial sweeps");
    }
  }
  return std::unique_ptr<Coordinator>(
      new Coordinator(std::move(workers), options, reference));
}

Result<IngestReport> Coordinator::BulkLoad(const IngestSpec& spec) {
  if (spec.total_records == 0) {
    return Status::InvalidArgument("BulkLoad of zero records");
  }
  if (!spec.distributions.empty() &&
      spec.distributions.size() != spec.schema.num_fields()) {
    return Status::InvalidArgument(
        "one field distribution per schema field required");
  }

  Run run;
  run.ingest = &spec;
  const std::uint64_t chunk = options_.records_per_task;
  for (std::uint64_t first = 0; first < spec.total_records; first += chunk) {
    Task task;
    task.kind = Task::Kind::kIngest;
    task.first_record = first;
    task.num_records = std::min(chunk, spec.total_records - first);
    task.token = MixToken(spec.seed, first);
    task.assigned =
        static_cast<int>((first / chunk) % workers_.size());
    run.tasks.push_back(task);
  }
  FXDIST_RETURN_NOT_OK(RunTasks(run));

  IngestReport report;
  report.records_sent = spec.total_records;
  report.tasks = run.tasks.size();
  report.retries = run.retries;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!run.alive[w]) {
      report.fenced_workers.push_back(workers_[w]->name());
      continue;
    }
    auto count = workers_[w]->NumRecords();
    FXDIST_RETURN_NOT_OK(count.status());
    report.records_per_worker.emplace_back(workers_[w]->name(), *count);
  }
  return report;
}

Result<SweepReport> Coordinator::Sweep() {
  if (reference_ == nullptr) {
    return Status::FailedPrecondition(
        "sweep needs at least one worker with a placement plane");
  }
  const FieldSpec& spec = reference_->spec();
  const unsigned n = spec.num_fields();
  if (n >= 20) {
    return Status::InvalidArgument(
        "sweep enumerates 2^n masks; n=" + std::to_string(n) +
        " is past the sane limit");
  }
  const std::uint64_t num_masks = std::uint64_t{1} << n;
  const std::uint64_t total = spec.TotalBuckets();
  const std::uint64_t chunk = options_.buckets_per_task;

  Run run;
  for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
    for (std::uint64_t start = 0; start < total; start += chunk) {
      Task task;
      task.kind = Task::Kind::kAnalyze;
      task.mask = mask;
      task.range_start = start;
      task.range_end = std::min(start + chunk, total);
      run.tasks.push_back(task);
    }
  }
  FXDIST_RETURN_NOT_OK(RunTasks(run));

  SweepReport report;
  report.tasks = run.tasks.size();
  report.retries = run.retries;
  report.masks.reserve(num_masks);
  for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
    RangePartial merged;
    for (const Task& task : run.tasks) {
      if (task.mask != mask) continue;
      FXDIST_RETURN_NOT_OK(MergeRangePartial(&merged, task.result));
    }
    auto stats = FinalizeMaskSweep(spec, mask, merged);
    FXDIST_RETURN_NOT_OK(stats.status());
    report.masks.push_back(*std::move(stats));
  }
  report.probability = SweepOptimality(spec, report.masks);
  report.score = SweepScore(spec, report.masks);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!run.alive[w]) report.fenced_workers.push_back(workers_[w]->name());
  }
  return report;
}

Status Coordinator::RunTasks(Run& run) {
  if (run.tasks.empty()) return Status::OK();
  run.alive.assign(workers_.size(), 1);
  run.failures.assign(workers_.size(), 0);

  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    threads.emplace_back([this, &run, w] { WorkerLoop(run, w); });
  }
  for (std::thread& thread : threads) thread.join();

  std::lock_guard<std::mutex> lock(run.mutex);
  FXDIST_RETURN_NOT_OK(run.fatal);
  if (run.done_count != run.tasks.size()) {
    return Status::Unavailable(
        "run stalled with " +
        std::to_string(run.tasks.size() - run.done_count) +
        " unfinished task(s) — every worker is lost");
  }
  return Status::OK();
}

void Coordinator::WorkerLoop(Run& run, std::size_t w) {
  const int me = static_cast<int>(w);
  std::unique_lock<std::mutex> lock(run.mutex);
  for (;;) {
    if (!run.fatal.ok() || run.done_count == run.tasks.size() ||
        !run.alive[w]) {
      run.cv.notify_all();
      return;
    }

    // Claim: a free task this worker may run (ingest: assigned here;
    // analyze: anyone), or one whose lease expired — an expired analyze
    // lease is *stolen* (first completion wins), an expired ingest lease
    // is only ever re-claimed by its assigned worker (cross-worker
    // takeover requires fencing first).
    const auto now = Clock::now();
    std::size_t pick = run.tasks.size();
    Clock::time_point next_deadline = now + std::chrono::milliseconds(50);
    for (std::size_t i = 0; i < run.tasks.size(); ++i) {
      Task& task = run.tasks[i];
      if (task.done) continue;
      if (task.kind == Task::Kind::kIngest && task.assigned != me) continue;
      if (task.owner == -1 || task.lease_deadline <= now) {
        if (task.owner == me) continue;  // impossible, but never self-steal
        pick = i;
        break;
      }
      next_deadline = std::min(next_deadline, task.lease_deadline);
    }
    if (pick == run.tasks.size()) {
      run.cv.wait_until(lock, next_deadline);
      continue;
    }

    Task& task = run.tasks[pick];
    ++task.attempts;
    if (task.attempts > kMaxTaskAttempts) {
      run.fatal = Status::Unavailable(
          "task exceeded " + std::to_string(kMaxTaskAttempts) + " attempts");
      run.cv.notify_all();
      return;
    }
    if (task.attempts > 1) ++run.retries;
    task.owner = me;
    task.lease_deadline =
        Clock::now() + std::chrono::milliseconds(std::max(1, options_.lease_ms));
    const Task claimed = task;  // immutable identity fields, copied so
                                // execution never races a fence's rewrite
    lock.unlock();

    auto result = ExecuteTask(run, w, claimed);

    lock.lock();
    Task& t = run.tasks[pick];
    if (result.ok()) {
      run.failures[w] = 0;
      // Discard if a fence removed this worker mid-flight (its ingest
      // work is off-deployment) or a steal finished the task first.
      if (run.alive[w] && !t.done) {
        t.done = true;
        t.result = *std::move(result);
        ++run.done_count;
      }
      if (t.owner == me) t.owner = -1;
      run.cv.notify_all();
      continue;
    }
    if (t.owner == me) t.owner = -1;
    if (++run.failures[w] >= options_.max_worker_failures) {
      // Fence: this worker leaves the deployment.  Its analyze leases
      // are already released above; every ingest task it was assigned —
      // done or not — moves to a survivor and re-runs, which is safe
      // exactly *because* the fenced worker's records are not part of
      // the merged deployment anymore.
      run.alive[w] = 0;
      std::vector<std::size_t> survivors;
      for (std::size_t v = 0; v < workers_.size(); ++v) {
        if (run.alive[v]) survivors.push_back(v);
      }
      if (survivors.empty()) {
        run.fatal = Status::Unavailable(
            "every worker is lost (last failure on '" + workers_[w]->name() +
            "': " + result.status().ToString() + ")");
        run.cv.notify_all();
        return;
      }
      for (Task& other : run.tasks) {
        if (other.kind != Task::Kind::kIngest || other.assigned != me) {
          continue;
        }
        other.assigned = static_cast<int>(
            survivors[run.reassign_rr++ % survivors.size()]);
        if (other.done) {
          other.done = false;
          --run.done_count;
        }
        if (other.owner == me) other.owner = -1;
      }
      run.cv.notify_all();
      return;
    }
    run.cv.notify_all();
  }
}

Result<RangePartial> Coordinator::ExecuteTask(Run& run, std::size_t w,
                                              const Task& task) {
  DistWorker& worker = *workers_[w];
  if (task.kind == Task::Kind::kIngest) {
    const IngestSpec& spec = *run.ingest;
    auto gen = spec.distributions.empty()
                   ? RecordGenerator::Uniform(spec.schema, spec.seed)
                   : RecordGenerator::Create(spec.schema, spec.distributions,
                                             spec.seed);
    FXDIST_RETURN_NOT_OK(gen.status());
    gen->Skip(task.first_record);
    FXDIST_RETURN_NOT_OK(worker.Ingest(
        gen->Take(static_cast<std::size_t>(task.num_records)), task.token));
    return RangePartial{};
  }
  return worker.Analyze(task.mask, task.range_start, task.range_end);
}

}  // namespace fxdist
