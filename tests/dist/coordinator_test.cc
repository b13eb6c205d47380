// Coordinator scheduling semantics, driven through stub workers so every
// failure mode is deterministic: partitioning and exactly-once ingest,
// dedup-token retries on indeterminate failures, fencing and re-dispatch
// of a lost worker's records, lease expiry and analyze-task stealing,
// the client-side kAnalyzeRange fallback, and merged-sweep integrity
// against the serial checker.  (The same plane over real TCP servers is
// gated end to end in bench/dist_matrix.)
//
// Suite names (CoordinatorTest / DistSweepTest / DistLeaseTest) are part
// of the CI contract: the TSan job runs them by that filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/optimality.h"
#include "core/query.h"
#include "dist/coordinator.h"
#include "sim/parallel_file.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

Schema TestSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 4},
                         {"f1", ValueType::kInt64, 4},
                         {"f2", ValueType::kInt64, 4}})
      .value();
}

/// In-memory DistWorker: real analysis kernel over a shared placement,
/// record store with the same dedup-token contract as ShardService, and
/// knobs for every failure mode the scheduler must survive.  The
/// coordinator drives each worker from one thread; tests only read the
/// mutable state after BulkLoad/Sweep returned (all threads joined), so
/// no locking is needed.
class StubWorker final : public DistWorker {
 public:
  StubWorker(std::string name, const DeviceMap* map)
      : name_(std::move(name)), map_(map) {}

  std::string name() const override { return name_; }

  Status Ingest(const std::vector<Record>& records,
                std::uint64_t token) override {
    ++ingest_calls;
    const bool fail =
        (fail_ingest_after >= 0 && ingest_calls > fail_ingest_after) ||
        fail_ingest_on.count(ingest_calls) > 0;
    if (fail && !apply_before_fail) {
      return Status::Unavailable("stub: ingest dropped");
    }
    // ShardService's dedup contract: an already-applied token acks
    // without re-applying.
    if (applied_tokens.insert(token).second) {
      applied.insert(applied.end(), records.begin(), records.end());
    }
    if (fail) return Status::Unavailable("stub: ack lost after apply");
    return Status::OK();
  }

  Result<RangePartial> Analyze(std::uint64_t mask, std::uint64_t start,
                               std::uint64_t end) override {
    ++analyze_calls;
    if (analyze_calls == 1) {
      analyze_started.store(true);
      if (await_analyze_of != nullptr) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!await_analyze_of->analyze_started.load() &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      std::this_thread::sleep_for(analyze_delay);
    }
    if (fail_analyze_after >= 0 && analyze_calls > fail_analyze_after) {
      return Status::Unavailable("stub: worker lost");
    }
    return AnalyzeBucketRange(*map_, mask, start, end);
  }

  Result<std::uint64_t> NumRecords() const override {
    return applied.size();
  }
  const DeviceMap* placement() const override { return map_; }

  // Knobs (set before the run) and observations (read after it).
  int fail_ingest_after = -1;   ///< calls before ingest starts failing
  std::set<int> fail_ingest_on;    ///< transient: fail these calls only
  bool apply_before_fail = false;  ///< indeterminate: apply, lose the ack
  int fail_analyze_after = -1;
  std::chrono::milliseconds analyze_delay{0};  ///< first call only
  /// First call only, before the delay: waits (at most 10 s) until this
  /// other worker has entered its first Analyze.
  const StubWorker* await_analyze_of = nullptr;
  /// Set when the first Analyze call starts (read by other workers).
  std::atomic<bool> analyze_started{false};
  int ingest_calls = 0;
  int analyze_calls = 0;
  std::vector<Record> applied;
  std::set<std::uint64_t> applied_tokens;

 private:
  std::string name_;
  const DeviceMap* map_;
};

/// A fleet of stubs sharing one real placement plane.
struct StubFleet {
  std::unique_ptr<ParallelFile> file;
  std::vector<StubWorker*> stubs;  ///< owned by `workers`
  std::vector<std::unique_ptr<DistWorker>> workers;
};

StubFleet MakeStubFleet(std::size_t n, std::uint64_t devices = 4) {
  StubFleet fleet;
  fleet.file = std::make_unique<ParallelFile>(
      ParallelFile::Create(TestSchema(), devices, "fx-iu2", 7).value());
  for (std::size_t i = 0; i < n; ++i) {
    auto stub = std::make_unique<StubWorker>("w" + std::to_string(i),
                                             &fleet.file->device_map());
    fleet.stubs.push_back(stub.get());
    fleet.workers.push_back(std::move(stub));
  }
  return fleet;
}

std::vector<Record> SortedUnion(const StubFleet& fleet,
                                const std::vector<char>& include) {
  std::vector<Record> all;
  for (std::size_t i = 0; i < fleet.stubs.size(); ++i) {
    if (include.empty() || include[i]) {
      const auto& applied = fleet.stubs[i]->applied;
      all.insert(all.end(), applied.begin(), applied.end());
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<Record> Oracle(const IngestSpec& spec) {
  auto gen = RecordGenerator::Uniform(spec.schema, spec.seed).value();
  std::vector<Record> records = gen.Take(spec.total_records);
  std::sort(records.begin(), records.end());
  return records;
}

IngestSpec SmallIngest(std::uint64_t total) {
  return IngestSpec{TestSchema(), {}, 42, total};
}

// ---------------------------------------------------------------------
// BulkLoad: partitioning, exactly-once, fencing.

TEST(CoordinatorTest, BulkLoadPartitionsEveryRecordExactlyOnce) {
  StubFleet fleet = MakeStubFleet(3);
  CoordinatorOptions options;
  options.records_per_task = 100;
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();
  const IngestSpec spec = SmallIngest(1000);

  auto report = coordinator->BulkLoad(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records_sent, 1000u);
  EXPECT_EQ(report->tasks, 10u);
  EXPECT_EQ(report->retries, 0u);
  EXPECT_TRUE(report->fenced_workers.empty());

  // The union across workers is the serial generator's multiset, and
  // every worker carries a share (round-robin task assignment).
  EXPECT_EQ(SortedUnion(fleet, {}), Oracle(spec));
  std::uint64_t from_report = 0;
  for (const auto& [name, count] : report->records_per_worker) {
    EXPECT_GT(count, 0u) << name;
    from_report += count;
  }
  EXPECT_EQ(from_report, 1000u);
}

TEST(CoordinatorTest, IndeterminateIngestRetriesViaDedupToken) {
  StubFleet fleet = MakeStubFleet(2);
  // Worker 0's second chunk applies but the ack is lost — exactly the
  // failure a blind resend would double-apply.  One transient failure
  // stays under the fence threshold, so the retry lands on the same
  // worker with the same token and the dedup registry eats it.
  fleet.stubs[0]->fail_ingest_on = {2};
  fleet.stubs[0]->apply_before_fail = true;
  StubWorker* flaky = fleet.stubs[0];
  CoordinatorOptions options;
  options.records_per_task = 100;
  options.max_worker_failures = 50;  // never fence in this test
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();
  const IngestSpec spec = SmallIngest(600);

  auto report = coordinator->BulkLoad(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->retries, 1u);
  EXPECT_TRUE(report->fenced_workers.empty());
  EXPECT_GT(flaky->ingest_calls, 3);  // its 3 tasks + at least one retry
  EXPECT_EQ(SortedUnion(fleet, {}), Oracle(spec));  // no dup, no loss
}

TEST(CoordinatorTest, LostWorkerIsFencedAndItsTasksReassigned) {
  StubFleet fleet = MakeStubFleet(3);
  // Worker 1 applies two chunks, then fails every call — including the
  // applies whose acks are lost.  Fencing must move *all* its tasks
  // (even the two that really applied) to survivors: its records are
  // off-deployment, so the re-runs cannot double-count.
  fleet.stubs[1]->fail_ingest_after = 2;
  fleet.stubs[1]->apply_before_fail = true;
  CoordinatorOptions options;
  options.records_per_task = 50;
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();
  const IngestSpec spec = SmallIngest(900);

  auto report = coordinator->BulkLoad(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fenced_workers, std::vector<std::string>{"w1"});
  EXPECT_GE(report->retries, 1u);

  // Survivors alone hold the full multiset.
  EXPECT_EQ(SortedUnion(fleet, {1, 0, 1}), Oracle(spec));
  // And the report counts only survivors.
  std::uint64_t from_report = 0;
  for (const auto& [name, count] : report->records_per_worker) {
    EXPECT_NE(name, "w1");
    from_report += count;
  }
  EXPECT_EQ(from_report, 900u);
}

TEST(CoordinatorTest, AbortsWhenEveryWorkerIsLost) {
  StubFleet fleet = MakeStubFleet(2);
  for (StubWorker* stub : fleet.stubs) stub->fail_ingest_after = 0;
  CoordinatorOptions options;
  options.records_per_task = 100;
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();

  auto report = coordinator->BulkLoad(SmallIngest(300));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
}

TEST(CoordinatorTest, CreateRejectsMismatchedPlacements) {
  StubFleet a = MakeStubFleet(1, 4);
  StubFleet b = MakeStubFleet(1, 8);  // different device count
  std::vector<std::unique_ptr<DistWorker>> workers;
  workers.push_back(std::move(a.workers[0]));
  workers.push_back(std::move(b.workers[0]));
  auto coordinator = Coordinator::Create(std::move(workers), {});
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// Sweep: merged integers equal the serial checker's; fallback path.

void ExpectSweepMatchesSerial(const DeviceMap& map,
                              const SweepReport& report) {
  const FieldSpec& spec = map.spec();
  ASSERT_EQ(report.masks.size(), std::size_t{1} << spec.num_fields());
  std::uint64_t optimal = 0;
  for (const MaskSweepStats& stats : report.masks) {
    auto query = PartialMatchQuery::FromUnspecifiedMaskZero(
                     spec, stats.unspecified_mask)
                     .value();
    const ResponseVector serial = ComputeResponseVector(map, query);
    EXPECT_EQ(stats.response.per_device, serial.per_device)
        << "mask=" << stats.unspecified_mask;
    EXPECT_EQ(stats.qualified, serial.Total());
    EXPECT_EQ(stats.bound, StrictOptimalBound(spec, query));
    EXPECT_EQ(stats.strict_optimal, serial.Max() <= stats.bound);
    if (stats.strict_optimal) ++optimal;
  }
  EXPECT_EQ(report.probability.optimal_masks, optimal);
}

TEST(DistSweepTest, MergedSweepMatchesSerialChecker) {
  StubFleet fleet = MakeStubFleet(2);
  const DeviceMap* map = &fleet.file->device_map();
  CoordinatorOptions options;
  options.buckets_per_task = 8;  // 64 buckets -> 8 ranges per mask
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();

  auto report = coordinator->Sweep();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->tasks, 8u * 8u);  // 8 masks x 8 ranges
  ExpectSweepMatchesSerial(*map, *report);
}

TEST(DistSweepTest, SweepSurvivesWorkerLossMidFlight) {
  StubFleet fleet = MakeStubFleet(3);
  const DeviceMap* map = &fleet.file->device_map();
  // w2 fails every range it touches.  The healthy workers stall briefly
  // on their first range so w2 is guaranteed to claim (and fail) enough
  // tasks to cross the fence threshold — without the stall, two fast
  // workers can drain the whole table before w2's thread ever runs.
  fleet.stubs[0]->analyze_delay = std::chrono::milliseconds(50);
  fleet.stubs[1]->analyze_delay = std::chrono::milliseconds(50);
  fleet.stubs[2]->fail_analyze_after = 0;
  CoordinatorOptions options;
  options.buckets_per_task = 4;
  options.lease_ms = 50;
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();

  auto report = coordinator->Sweep();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fenced_workers, std::vector<std::string>{"w2"});
  ExpectSweepMatchesSerial(*map, *report);
}

// ---------------------------------------------------------------------
// Leases: expired analyze leases are stolen; ingest stays sticky.

TEST(DistLeaseTest, ExpiredAnalyzeLeaseIsStolenFirstCompletionWins) {
  StubFleet fleet = MakeStubFleet(2);
  const DeviceMap* map = &fleet.file->device_map();
  // Worker 0 stalls far past its lease on its first range; worker 1
  // must steal it.  Worker 0's late result is then discarded — the
  // merged integers stay correct (no double merge of the stolen range).
  // Worker 1 starts only once worker 0 holds its first range, so it
  // cannot drain the table before worker 0's thread runs.
  fleet.stubs[0]->analyze_delay = std::chrono::milliseconds(400);
  fleet.stubs[1]->await_analyze_of = fleet.stubs[0];
  CoordinatorOptions options;
  options.buckets_per_task = 16;
  options.lease_ms = 50;
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();

  auto report = coordinator->Sweep();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->retries, 1u);  // the stolen range re-ran elsewhere
  EXPECT_TRUE(report->fenced_workers.empty());  // slow is not dead
  ExpectSweepMatchesSerial(*map, *report);
}

TEST(DistLeaseTest, SlowIngestStaysStickyAndIsNotDoubleApplied) {
  StubFleet fleet = MakeStubFleet(2);
  // Worker 0 is merely slow: each chunk outlives its lease.  Ingest
  // tasks are sticky, so no other worker may take over (without the
  // dedup context of the assigned server, a takeover would double-
  // apply); the run just waits the straggler out.
  CoordinatorOptions options;
  options.records_per_task = 100;
  options.lease_ms = 30;
  StubFleet* fleet_ptr = &fleet;
  fleet.stubs[0]->analyze_delay = std::chrono::milliseconds(0);
  // Reuse the ingest path with a sleep via a wrapper knob: simplest is a
  // delay on every ingest call through a subclass-free trick — attach
  // the delay to the stub directly.
  class SlowIngest final : public DistWorker {
   public:
    explicit SlowIngest(std::unique_ptr<DistWorker> inner)
        : inner_(std::move(inner)) {}
    std::string name() const override { return inner_->name(); }
    Status Ingest(const std::vector<Record>& records,
                  std::uint64_t token) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      return inner_->Ingest(records, token);
    }
    Result<RangePartial> Analyze(std::uint64_t mask, std::uint64_t start,
                                 std::uint64_t end) override {
      return inner_->Analyze(mask, start, end);
    }
    Result<std::uint64_t> NumRecords() const override {
      return inner_->NumRecords();
    }
    const DeviceMap* placement() const override {
      return inner_->placement();
    }

   private:
    std::unique_ptr<DistWorker> inner_;
  };
  fleet.workers[0] =
      std::make_unique<SlowIngest>(std::move(fleet.workers[0]));
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();
  const IngestSpec spec = SmallIngest(400);

  auto report = coordinator->BulkLoad(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->fenced_workers.empty());
  // Exactly once despite every lease on w0 expiring: sticky assignment
  // means the only re-claims are by w0 itself, and it was busy — so no
  // task ever ran twice.
  EXPECT_EQ(SortedUnion(*fleet_ptr, {}), Oracle(spec));
  EXPECT_EQ(fleet_ptr->stubs[0]->ingest_calls, 2);  // its 2 tasks, once
}

}  // namespace
}  // namespace fxdist
