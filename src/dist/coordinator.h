// Distributed bulk-load / analysis coordinator (MapReduce-style).
//
// The serial tools cap deployments at what one process can generate and
// verify.  This plane partitions the two embarrassingly parallel jobs —
// record generation + ingest, and bucket-space response sweeps — across
// N shard-server workers over the wire protocol the shards already
// speak: ingest rides kInsertBatch (tagged with dedup tokens), sweeps
// ride kAnalyzeRange.
//
// Task model.  A BulkLoad over `total_records` becomes ceil(total /
// records_per_task) ingest tasks, task t owning records [t*chunk,
// ...) of the *serial* generator stream (RecordGenerator::Skip makes
// "seed S, records [a,b)" a pure function — any worker, any retry,
// same multiset).  A Sweep becomes one analyze task per (unspecified
// mask, bucket range) cell; each returns per-device qualified counts
// over its range, which merge by integer addition into exactly the
// serial checker's response vectors (see analysis/range_sweep.h).
//
// Scheduling.  One thread per worker pulls from a shared task table
// under a single mutex.  Claiming a task takes a lease
// (options.lease_ms); a task whose lease expired may be claimed again:
//
//  * analyze tasks are pure — any idle worker steals an expired lease,
//    first completion wins, later results are discarded;
//  * ingest tasks are sticky to their assigned worker — retrying there
//    is exactly-once (the server's dedup-token registry turns a re-send
//    of an already-applied chunk into an ack), while a *different*
//    worker may only take over after the original is fenced.
//
// Worker loss.  options.max_worker_failures consecutive task failures
// mark a worker lost and *fence* it: it leaves the deployment, its
// thread exits, and every ingest task it was assigned — completed or
// not — is reassigned to survivors.  Fencing is what keeps re-dispatch
// exactly-once across workers: the union of surviving workers' records
// contains each task's records exactly once no matter how far the lost
// worker got, because none of its records are part of the merged
// deployment (see DESIGN.md §16 for the full argument).
//
// Merge integrity.  FinalizeMaskSweep cross-checks every mask's merged
// qualified count against the closed form (product of unspecified field
// sizes); a lost or double-merged range cannot pass.  BulkLoad reports
// per-worker record counts so callers can gate the union against
// total_records.

#ifndef FXDIST_DIST_COORDINATOR_H_
#define FXDIST_DIST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/range_sweep.h"
#include "core/field_spec.h"
#include "hashing/multikey_hash.h"
#include "net/remote_backend.h"
#include "util/status.h"
#include "workload/record_gen.h"

namespace fxdist {

/// One worker the coordinator can dispatch to.  Implementations must be
/// callable from the coordinator's per-worker thread (one thread per
/// worker; no call overlaps another call *to the same worker*).
class DistWorker {
 public:
  virtual ~DistWorker() = default;

  virtual std::string name() const = 0;

  /// Applies `records` exactly once under retries of the same (records,
  /// token) pair — a re-send the server has already applied must ack
  /// without re-applying.
  virtual Status Ingest(const std::vector<Record>& records,
                        std::uint64_t token) = 0;

  /// Per-device qualified counts of `mask`'s representative query over
  /// linear buckets [start, end).  Pure; an error counts as a task
  /// failure like any other.
  virtual Result<RangePartial> Analyze(std::uint64_t mask,
                                       std::uint64_t start,
                                       std::uint64_t end) = 0;

  /// Records currently stored on this worker.
  virtual Result<std::uint64_t> NumRecords() const = 0;

  /// The worker's placement plane, when it has a local one (a remote
  /// worker's handshake twin).  Used to verify all workers share one
  /// bucket space and to size the sweep; may be null.
  virtual const DeviceMap* placement() const { return nullptr; }
};

/// DistWorker over a connected RemoteBackend: Ingest = tagged
/// kInsertBatch chunks, Analyze = kAnalyzeRange.
class RemoteDistWorker final : public DistWorker {
 public:
  RemoteDistWorker(std::string name, std::unique_ptr<RemoteBackend> backend)
      : name_(std::move(name)), backend_(std::move(backend)) {}

  std::string name() const override { return name_; }
  Status Ingest(const std::vector<Record>& records,
                std::uint64_t token) override {
    return backend_->InsertBatchTagged(records, token);
  }
  Result<RangePartial> Analyze(std::uint64_t mask, std::uint64_t start,
                               std::uint64_t end) override {
    return backend_->AnalyzeRange(mask, start, end);
  }
  Result<std::uint64_t> NumRecords() const override {
    FXDIST_RETURN_NOT_OK(backend_->Health());
    return backend_->num_records();
  }
  const DeviceMap* placement() const override {
    return &backend_->device_map();
  }

  RemoteBackend& backend() { return *backend_; }

 private:
  std::string name_;
  std::unique_ptr<RemoteBackend> backend_;
};

struct CoordinatorOptions {
  /// Records per ingest task (the unit of assignment and re-dispatch;
  /// the RemoteBackend below further chunks to kRecordsPerInsertFrame).
  std::uint64_t records_per_task = 32768;
  /// Linear buckets per analyze task.
  std::uint64_t buckets_per_task = 65536;
  /// Lease on a claimed task; past it the task may be claimed again
  /// (same worker for ingest, any worker for analyze).
  int lease_ms = 2000;
  /// Consecutive failures that mark a worker lost and fence it.
  int max_worker_failures = 2;
};

/// How records are generated for BulkLoad — the job is named by value,
/// so any worker can (re)produce any slice of it.
struct IngestSpec {
  Schema schema;
  /// One per field; empty selects uniform with default domains.
  std::vector<FieldDistribution> distributions;
  std::uint64_t seed = 42;
  std::uint64_t total_records = 0;
};

struct IngestReport {
  std::uint64_t records_sent = 0;  ///< == total_records on success
  std::uint64_t tasks = 0;
  /// Task executions beyond each task's first (straggler/failure
  /// re-dispatches and fence-driven re-runs).
  std::uint64_t retries = 0;
  std::vector<std::string> fenced_workers;
  /// Worker name -> records it holds after the load (fenced workers
  /// excluded; sums to records_sent when every survivor started empty).
  std::vector<std::pair<std::string, std::uint64_t>> records_per_worker;
};

struct SweepReport {
  /// One entry per unspecified-field mask, ascending by mask.
  std::vector<MaskSweepStats> masks;
  OptimalityProbability probability;  ///< the fig 1-4 number
  AllocationScore score;              ///< scheme_search's yardstick
  std::uint64_t tasks = 0;
  std::uint64_t retries = 0;
  std::vector<std::string> fenced_workers;
};

/// See file comment.  Workers are driven from one thread each; the
/// coordinator itself is single-use-at-a-time (no concurrent BulkLoad /
/// Sweep calls on one instance).
class Coordinator {
 public:
  /// Verifies every worker with a placement plane agrees on the bucket
  /// space (field sizes + device count) — a mixed deployment would merge
  /// incomparable partials.
  static Result<std::unique_ptr<Coordinator>> Create(
      std::vector<std::unique_ptr<DistWorker>> workers,
      CoordinatorOptions options = {});

  /// Generates and ingests spec.total_records across the workers.
  Result<IngestReport> BulkLoad(const IngestSpec& spec);

  /// Runs the full fig-1 sweep (every unspecified-field mask, whole
  /// bucket space) across the workers and merges the partials.
  Result<SweepReport> Sweep();

  std::size_t num_workers() const { return workers_.size(); }
  DistWorker& worker(std::size_t i) { return *workers_[i]; }

 private:
  struct Task;
  struct Run;

  Coordinator(std::vector<std::unique_ptr<DistWorker>> workers,
              CoordinatorOptions options, const DeviceMap* reference)
      : workers_(std::move(workers)),
        options_(options),
        reference_(reference) {}

  /// Executes `tasks` on the worker fleet (see file comment for the
  /// lease / steal / fence rules); on success every task is done.
  Status RunTasks(Run& run);
  /// Per-worker scheduler thread body.
  void WorkerLoop(Run& run, std::size_t w);
  /// Executes one claimed task on worker `w` (no locks held).
  Result<RangePartial> ExecuteTask(Run& run, std::size_t w, const Task& task);

  std::vector<std::unique_ptr<DistWorker>> workers_;
  const CoordinatorOptions options_;
  /// The first worker's placement plane that Create found, or null; it
  /// sizes the sweep.
  const DeviceMap* const reference_;
};

}  // namespace fxdist

#endif  // FXDIST_DIST_COORDINATOR_H_
