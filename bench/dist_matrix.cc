// Dist matrix: the distributed bulk-load / analysis plane measured and
// gated end to end over real TCP loopback shard servers.
//
// Four rows, the first three hard gates (exit nonzero on failure, so CI
// runs this as a smoke test; `--quick` shrinks the workload to seconds):
//
//   1. merged sweep — a coordinator splits the full fig-1 sweep (every
//      unspecified-field mask x bucket ranges) across N workers via
//      kAnalyzeRange and merges the partials.  Every merged integer —
//      per-device counts, |R(q)|, bound, excess, strict-optimal verdict
//      — must equal the serial checker's (ComputeResponseVector over the
//      same placement), mask by mask.
//   2. kill a worker mid-sweep — one worker goes silent partway through
//      the sweep.  The coordinator must fence it, re-dispatch its leased
//      ranges to survivors, and the merged result must *still* be
//      bit-identical to the serial oracle: no lost range (the closed-form
//      qualified-count cross-check would trip) and no double merge.
//   3. kill a worker mid-ingest — a worker starts failing *after* the
//      server applied its chunk (ack lost — the indeterminate case).
//      The coordinator must fence it and re-run every task it was
//      assigned on survivors; the surviving deployment must hold exactly
//      total_records, no record lost or duplicated.
//   4. scaling — the same bulk load on 1 vs 4 workers; wall clock and
//      speedup reported.  Gated at >= 2x in full mode on machines with
//      >= 4 cores (the 1M-record build amortises fixed costs); on fewer
//      cores — where no overlap is physically possible — the row gates
//      the plane's overhead instead (parallel <= 2x serial wall clock).

#include <chrono>
#include <cstdint>
#include <thread>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/optimality.h"
#include "core/query.h"
#include "dist/coordinator.h"
#include "net/backend_spec.h"
#include "net/event_shard_server.h"
#include "net/remote_backend.h"
#include "util/table_printer.h"

using namespace fxdist;  // NOLINT(build/namespaces)

namespace {

struct RunConfig {
  std::uint64_t scale_records = 1000000;
  bool gate_speedup = true;
  bool quick = false;
};

/// An in-process fleet: N TCP shard servers over identical flat
/// backends (same blueprint — schema, devices, method, seed), plus one
/// connected RemoteDistWorker per server.  Servers/backends must stay
/// alive while the coordinator runs; workers move into the coordinator.
struct Fleet {
  std::vector<std::unique_ptr<StorageBackend>> backends;
  std::vector<std::unique_ptr<EventShardServer>> servers;
  std::vector<std::unique_ptr<DistWorker>> workers;
};

Fleet MakeFleet(const Schema& schema, std::uint64_t devices, std::size_t n) {
  Fleet fleet;
  for (std::size_t i = 0; i < n; ++i) {
    auto backend =
        MakeChildBackend("flat", schema, devices, "fx-iu2", 42, {}).value();
    auto server = EventShardServer::Start(*backend).value();
    auto remote =
        RemoteBackend::ConnectTcp("127.0.0.1:" +
                                  std::to_string(server->port()))
            .value();
    fleet.workers.push_back(std::make_unique<RemoteDistWorker>(
        "w" + std::to_string(i), std::move(remote)));
    fleet.backends.push_back(std::move(backend));
    fleet.servers.push_back(std::move(server));
  }
  return fleet;
}

Schema SmallSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 4},
                         {"f1", ValueType::kInt64, 4},
                         {"f2", ValueType::kInt64, 4},
                         {"f3", ValueType::kInt64, 8}})
      .value();
}

/// Wraps a worker and makes it go dark after `fail_after` calls of the
/// targeted kind.  kFailIngestAfterApply models the nastiest loss: the
/// inner call *succeeds* (server applied) but the ack never arrives.
class FlakyWorker final : public DistWorker {
 public:
  enum class Mode { kFailIngestAfterApply, kFailAnalyze };

  FlakyWorker(std::unique_ptr<DistWorker> inner, Mode mode, int fail_after)
      : inner_(std::move(inner)), mode_(mode), fail_after_(fail_after) {}

  std::string name() const override { return inner_->name(); }

  Status Ingest(const std::vector<Record>& records,
                std::uint64_t token) override {
    if (mode_ == Mode::kFailIngestAfterApply && ++calls_ > fail_after_) {
      (void)inner_->Ingest(records, token);  // applied; ack lost
      return Status::Unavailable("worker lost after apply");
    }
    return inner_->Ingest(records, token);
  }

  Result<RangePartial> Analyze(std::uint64_t mask, std::uint64_t start,
                               std::uint64_t end) override {
    if (mode_ == Mode::kFailAnalyze && ++calls_ > fail_after_) {
      return Status::Unavailable("worker lost mid-sweep");
    }
    return inner_->Analyze(mask, start, end);
  }

  Result<std::uint64_t> NumRecords() const override {
    return inner_->NumRecords();
  }
  const DeviceMap* placement() const override { return inner_->placement(); }

 private:
  std::unique_ptr<DistWorker> inner_;
  const Mode mode_;
  const int fail_after_;
  int calls_ = 0;  // coordinator drives each worker from one thread
};

/// Every merged integer equals the serial checker's, mask by mask.
bool SweepMatchesSerial(const DeviceMap& map, const SweepReport& report,
                        std::string* why) {
  const FieldSpec& spec = map.spec();
  const std::uint64_t num_masks = std::uint64_t{1} << spec.num_fields();
  if (report.masks.size() != num_masks) {
    *why = "mask count " + std::to_string(report.masks.size());
    return false;
  }
  std::uint64_t optimal = 0;
  for (const MaskSweepStats& stats : report.masks) {
    auto query =
        PartialMatchQuery::FromUnspecifiedMaskZero(spec,
                                                   stats.unspecified_mask);
    if (!query.ok()) {
      *why = query.status().ToString();
      return false;
    }
    const ResponseVector serial = ComputeResponseVector(map, *query);
    const std::uint64_t bound = StrictOptimalBound(spec, *query);
    if (serial.per_device != stats.response.per_device ||
        serial.Total() != stats.qualified || bound != stats.bound ||
        stats.strict_optimal != (serial.Max() <= bound)) {
      *why = "mask " + std::to_string(stats.unspecified_mask) + " diverges";
      return false;
    }
    if (stats.strict_optimal) ++optimal;
  }
  if (report.probability.optimal_masks != optimal ||
      report.probability.total_masks != num_masks) {
    *why = "optimality tally diverges";
    return false;
  }
  return true;
}

bool RowMergedSweep(TablePrinter& table, const RunConfig&) {
  const Schema schema = SmallSchema();
  Fleet fleet = MakeFleet(schema, 8, 3);
  CoordinatorOptions options;
  options.buckets_per_task = 32;  // 512 buckets -> 16 ranges x 16 masks
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();
  auto report = coordinator->Sweep();
  std::string why = report.ok() ? "" : report.status().ToString();
  const bool identical =
      report.ok() &&
      SweepMatchesSerial(*coordinator->worker(0).placement(), *report, &why);
  const bool row_ok = identical && report->fenced_workers.empty();
  table.AddRow({"merged sweep 3 workers",
                report.ok() ? std::to_string(report->tasks) + " tasks, " +
                                  std::to_string(report->retries) + " retries"
                            : why,
                identical ? "yes" : "NO", "-", row_ok ? "ok" : "FAIL"});
  return row_ok;
}

bool RowKillSweep(TablePrinter& table, const RunConfig&) {
  const Schema schema = SmallSchema();
  Fleet fleet = MakeFleet(schema, 8, 3);
  // Worker 1 answers a handful of ranges, then goes silent for good.
  fleet.workers[1] = std::make_unique<FlakyWorker>(
      std::move(fleet.workers[1]), FlakyWorker::Mode::kFailAnalyze, 5);
  CoordinatorOptions options;
  options.buckets_per_task = 32;
  options.lease_ms = 100;  // steal abandoned leases quickly
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();
  auto report = coordinator->Sweep();
  std::string why = report.ok() ? "" : report.status().ToString();
  const bool identical =
      report.ok() &&
      SweepMatchesSerial(*coordinator->worker(0).placement(), *report, &why);
  const bool fenced =
      report.ok() && report->fenced_workers == std::vector<std::string>{"w1"};
  const bool row_ok = identical && fenced && report->retries > 0;
  table.AddRow({"kill worker mid-sweep",
                report.ok() ? std::to_string(report->tasks) + " tasks, " +
                                  std::to_string(report->retries) + " retries"
                            : why,
                identical ? "yes" : "NO", fenced ? "yes" : "NO",
                row_ok ? "ok" : "FAIL"});
  return row_ok;
}

bool RowKillIngest(TablePrinter& table, const RunConfig&) {
  const Schema schema = SmallSchema();
  Fleet fleet = MakeFleet(schema, 8, 3);
  // Worker 1 applies two chunks, then every later apply loses its ack.
  fleet.workers[1] = std::make_unique<FlakyWorker>(
      std::move(fleet.workers[1]), FlakyWorker::Mode::kFailIngestAfterApply,
      2);
  CoordinatorOptions options;
  options.records_per_task = 500;
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), options).value();
  IngestSpec spec{schema, {}, 42, 6000};
  auto report = coordinator->BulkLoad(spec);
  std::uint64_t stored = 0;
  if (report.ok()) {
    for (const auto& [name, count] : report->records_per_worker) {
      stored += count;
    }
  }
  const bool fenced =
      report.ok() && report->fenced_workers == std::vector<std::string>{"w1"};
  const bool exact = report.ok() && stored == spec.total_records &&
                     report->records_sent == spec.total_records;
  const bool row_ok = fenced && exact && report->retries > 0;
  table.AddRow({"kill worker mid-ingest",
                report.ok() ? std::to_string(stored) + "/" +
                                  std::to_string(spec.total_records) +
                                  " records, " +
                                  std::to_string(report->retries) + " retries"
                            : report.status().ToString(),
                exact ? "yes" : "NO", fenced ? "yes" : "NO",
                row_ok ? "ok" : "FAIL"});
  return row_ok;
}

double TimedBulkLoad(const Schema& schema, std::size_t workers,
                     std::uint64_t records, bool* ok) {
  Fleet fleet = MakeFleet(schema, 8, workers);
  auto coordinator =
      Coordinator::Create(std::move(fleet.workers), {}).value();
  IngestSpec spec{schema, {}, 42, records};
  const auto t0 = std::chrono::steady_clock::now();
  auto report = coordinator->BulkLoad(spec);
  const auto t1 = std::chrono::steady_clock::now();
  *ok = report.ok() && report->records_sent == records &&
        report->fenced_workers.empty();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool RowScaling(TablePrinter& table, const RunConfig& config) {
  const Schema schema = Schema::Create({{"f0", ValueType::kInt64, 8},
                                        {"f1", ValueType::kInt64, 8},
                                        {"f2", ValueType::kInt64, 8}})
                            .value();
  bool ok1 = false;
  bool ok4 = false;
  const double serial =
      TimedBulkLoad(schema, 1, config.scale_records, &ok1);
  const double parallel =
      TimedBulkLoad(schema, 4, config.scale_records, &ok4);
  const double speedup = parallel > 0 ? serial / parallel : 0;
  // The >= 2x gate needs cores for the 4 worker threads + 4 servers to
  // actually overlap; on fewer the row still gates the plane's overhead
  // (fanning out must not cost more than 2x the serial wall clock).
  const unsigned cores = std::thread::hardware_concurrency();
  const bool gate_speedup = config.gate_speedup && cores >= 4;
  const bool row_ok = ok1 && ok4 &&
                      (gate_speedup ? speedup >= 2.0 : speedup >= 0.5);
  char detail[128];
  std::snprintf(detail, sizeof(detail), "%.2fs -> %.2fs (%.2fx, %u cores)",
                serial, parallel, speedup, cores);
  table.AddRow({"1 -> 4 workers, " + std::to_string(config.scale_records) +
                    " records",
                detail, ok1 && ok4 ? "yes" : "NO",
                gate_speedup ? ">=2x gated" : "overhead gated",
                row_ok ? "ok" : "FAIL"});
  return row_ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
      config.scale_records = 30000;
      config.gate_speedup = false;  // too small to amortise fixed costs
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  std::printf("Dist matrix: TCP loopback fleet%s\n\n",
              config.quick ? " [quick]" : "");
  TablePrinter table({"row", "detail", "identical", "fenced", "gate"});
  bool all_ok = true;
  all_ok = RowMergedSweep(table, config) && all_ok;
  all_ok = RowKillSweep(table, config) && all_ok;
  all_ok = RowKillIngest(table, config) && all_ok;
  all_ok = RowScaling(table, config) && all_ok;
  table.Print(std::cout);
  std::printf("\n%s\n", all_ok ? "all gates ok" : "GATE FAILURE");
  return all_ok ? 0 : 1;
}
