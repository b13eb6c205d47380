#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/query_engine.h"
#include "front/frontend.h"
#include "inputs.h"
#include "net/event_shard_server.h"
#include "net/mux_transport.h"
#include "net/remote_backend.h"
#include "net/socket_transport.h"
#include "oracle.h"
#include "sim/packed_backend.h"
#include "sim/parallel_file.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using fxdist::QueryResult;
using fxdist::Record;
using fxdist::ValueQuery;

/// Engine worker shards in every workload: two, so device fan-out runs,
/// and few enough that the threads busy at once fit four cores.
constexpr unsigned kEngineThreads = 2;
/// Rows handed to one InsertBatch / builder call during setup.
constexpr std::size_t kLoadChunk = 4096;
/// Every this many checked reads also gets the forward-map recount.
constexpr std::uint64_t kPlacementSampleEvery = 8;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

template <typename T>
T Must(fxdist::Result<T> result, const char* what) {
  if (!result.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             result.status().ToString());
  }
  return *std::move(result);
}

void Must(const fxdist::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

/// Runs `fn` as one timed section of the pass; returns its wall time.
template <typename Fn>
double Timed(Pass& pass, Fn&& fn) {
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  fn();
  const double ms = MillisSince(start);
  if (pass.measuring) {
    pass.cpu_s += ProcessCpuSeconds() - cpu0;
    pass.timed_s += ms / 1e3;
  }
  return ms;
}

std::vector<Record> ToRecords(const std::vector<Row>& rows, std::size_t begin,
                              std::size_t end) {
  std::vector<Record> records;
  records.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) records.push_back(ToRecord(rows[i]));
  return records;
}

/// Loads `rows` into `backend` in chunks, timing only the InsertBatch
/// calls; returns their summed seconds.
double LoadRows(fxdist::StorageBackend& backend, const std::vector<Row>& rows) {
  double seconds = 0.0;
  for (std::size_t begin = 0; begin < rows.size(); begin += kLoadChunk) {
    std::vector<Record> chunk =
        ToRecords(rows, begin, std::min(rows.size(), begin + kLoadChunk));
    const auto start = Clock::now();
    Must(backend.InsertBatch(std::move(chunk)), "loading records");
    seconds += SecondsSince(start);
  }
  return seconds;
}

/// Checks one read against the oracle and accounts it as a read.
class ReadChecker {
 public:
  ReadChecker(Pass& pass, const Oracle& oracle,
              const fxdist::StorageBackend& placement)
      : pass_(pass), oracle_(oracle), placement_(placement) {}

  /// `result` answered `q`; `latency_ms` is its submit-to-result time.
  void Read(const Query& q, const fxdist::Result<QueryResult>& result,
            double latency_ms, bool interactive) {
    ++pass_.attempted;
    if (!result.ok()) {
      ++pass_.failed;
      Note("read failed: " + result.status().ToString());
      return;
    }
    ++pass_.reads;
    if (pass_.measuring) {
      ++pass_.timed_reads;
      pass_.read_ms.push_back(latency_ms);
      if (interactive) pass_.lookup_ms.push_back(latency_ms);
    }
    pass_.sum_largest += result->stats.largest_response;
    pass_.sum_optimal += result->stats.optimal_bound;
    Check(q, *result);
  }

  /// Holds `result` to the oracle without counting it as a read.
  void Check(const Query& q, const QueryResult& result) {
    std::string error = CheckResult(oracle_, q, result);
    if (error.empty() && ++checked_ % kPlacementSampleEvery == 0) {
      error = CheckPlacement(placement_, q, result.stats);
    }
    if (!error.empty()) {
      pass_.errors.push_back(error);
      return;
    }
    if (!self_tested_ && !result.records.empty()) {
      self_tested_ = true;
      const std::string missed = CheckerSelfTest(oracle_, q, result);
      if (!missed.empty()) pass_.errors.push_back("checker self-test: " + missed);
    }
  }

  /// The checker must have rejected its corrupted copies at least once.
  void Finish() {
    if (!self_tested_) {
      pass_.errors.push_back("checker self-test never ran (no non-empty read)");
    }
  }

 private:
  void Note(const std::string& message) {
    if (notes_++ < 3) std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  }

  Pass& pass_;
  const Oracle& oracle_;
  const fxdist::StorageBackend& placement_;
  std::uint64_t checked_ = 0;
  bool self_tested_ = false;
  int notes_ = 0;
};

void RecordWrite(Pass& pass, const fxdist::Status& status, double ms,
                 std::size_t records) {
  ++pass.attempted;
  if (!status.ok()) {
    ++pass.failed;
    std::fprintf(stderr, "perfbench: write failed: %s\n",
                 status.ToString().c_str());
    return;
  }
  ++pass.writes;
  pass.records_written += records;
  if (pass.measuring) pass.write_ms.push_back(ms);
}

void ExpectRecords(Pass& pass, const char* what, std::uint64_t got,
                   std::uint64_t want) {
  if (got != want) {
    pass.errors.push_back(std::string(what) + " serves " +
                          std::to_string(got) + " records, " +
                          std::to_string(want) + " were loaded or written");
  }
}

void TakeEngineDelta(Pass& pass, const fxdist::StatsSnapshot& before,
                     const fxdist::StatsSnapshot& after) {
  pass.engine_requested =
      after.bucket_scans_requested - before.bucket_scans_requested;
  pass.engine_performed =
      after.bucket_scans_performed - before.bucket_scans_performed;
  pass.engine_duplicates =
      after.duplicates_collapsed - before.duplicates_collapsed;
  pass.engine_examined = after.records_examined - before.records_examined;
  pass.engine_matched = after.records_matched - before.records_matched;
  pass.engine_batch_ms =
      (after.batch_latency.sum_micros - before.batch_latency.sum_micros) /
      1e3;
}

fxdist::EngineOptions BenchEngineOptions() {
  fxdist::EngineOptions options;
  options.num_threads = kEngineThreads;
  return options;
}

std::size_t Steps(const RunOptions& options, double steps_per_second) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(steps_per_second * options.seconds)));
}

// ---------------------------------------------------------------------------
// front_zipf_rw: four tenants send waves of Zipf-popular templates through
// the Frontend (cache and QoS on) over the engine and a flat file; every
// few waves an InsertBatch moves the mutation epoch.

namespace front {
constexpr std::size_t kLoaded = 100000;
constexpr std::size_t kTemplates = 4096;
constexpr double kZipfTheta = 1.0;
constexpr std::size_t kWave = 64;
constexpr std::size_t kInteractiveEvery = 8;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kWriteEveryWaves = 4;
constexpr std::size_t kWriteRecords = 32;
constexpr std::uint64_t kMaxQualified = 256;
/// Seeds the templates' wildcard patterns, the same for every --seed.
constexpr std::uint64_t kShapeSeed = 0xf0;
constexpr double kWavesPerSecond = 110;
}  // namespace front

Pass RunFrontZipf(const RunOptions& options, Tracer& tracer) {
  using namespace front;  // NOLINT(build/namespaces)
  Pass pass;
  Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  Oracle oracle;
  std::vector<Row> loaded;
  for (std::size_t i = 0; i < kLoaded; ++i) loaded.push_back(RandomRow(rng));
  for (const Row& row : loaded) oracle.Add(row);
  // The templates' wildcard patterns come from one fixed sequence, so a
  // template of a given popularity qualifies as many buckets whatever
  // the seed and the hot set costs about the same in every run; their
  // values come from the seed's records.
  std::vector<Query> templates;
  std::unordered_set<Query, QueryHash> seen;
  Rng shapes(kShapeSeed);
  for (std::size_t i = 0; i < kTemplates; ++i) {
    const std::uint32_t wildcards = RandomWildcards(shapes, kMaxQualified);
    Query q;
    do {
      q = QueryFromRow(rng, loaded, wildcards);
    } while (!seen.insert(q).second);
    templates.push_back(q);
  }
  std::vector<ValueQuery> template_queries;
  for (const Query& q : templates) template_queries.push_back(ToValueQuery(q));
  const Zipf zipf(kTemplates, kZipfTheta);
  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) {
    tenants.push_back("tenant-" + std::to_string(t));
  }
  const fxdist::Schema schema = Must(BenchSchema(), "schema");

  fxdist::FrontendOptions front_options;
  // Admission runs its token bucket on every query but never sheds: a
  // shed depends on wall-clock refill and would make runs differ.
  front_options.admission.rate_per_sec = 1e12;
  front_options.admission.burst = 1e12;

  std::unique_ptr<fxdist::ParallelFile> file;
  std::unique_ptr<TracedBackend> backend;
  std::unique_ptr<fxdist::QueryEngine> engine;
  std::unique_ptr<fxdist::Frontend> frontend;
  for (int k = 0; k < options.setups; ++k) {
    frontend.reset();
    engine.reset();
    backend.reset();
    file.reset();
    auto start = Clock::now();
    file = std::make_unique<fxdist::ParallelFile>(
        Must(fxdist::ParallelFile::Create(schema, kDevices, kDistribution,
                                          kHashSeed),
             "creating the flat file"));
    double seconds = SecondsSince(start);
    seconds += LoadRows(*file, loaded);
    start = Clock::now();
    backend =
        std::make_unique<TracedBackend>(*file, tracer, Boundary::kLocalStorage);
    engine = std::make_unique<fxdist::QueryEngine>(*backend,
                                                   BenchEngineOptions());
    frontend = std::make_unique<fxdist::Frontend>(*engine, front_options);
    pass.setup_s.push_back(seconds + SecondsSince(start));
  }

  ReadChecker checker(pass, oracle, *file);
  const fxdist::StatsSnapshot engine_before = engine->Snapshot();
  const fxdist::FrontendStats front_before = frontend->Stats();
  const std::size_t waves = Steps(options, kWavesPerSecond);
  std::uint64_t markers = 0;
  bool gate_warned = false;
  for (std::size_t w = 0; w < waves; ++w) {
    pass.EnterStep(w, waves);
    if (w > 0 && w % kWriteEveryWaves == 0) {
      std::vector<Row> rows;
      for (std::size_t i = 0; i < kWriteRecords; ++i) {
        rows.push_back(RandomRow(rng));
      }
      std::vector<Record> records = ToRecords(rows, 0, rows.size());
      frontend->Flush();
      fxdist::Status status;
      const double ms = Timed(pass, [&] {
        Tracer::Scope root(tracer, "write.batch");
        status = backend->InsertBatch(std::move(records));
      });
      RecordWrite(pass, status, ms, rows.size());
      if (status.ok()) {
        for (const Row& row : rows) oracle.Add(row);
      }
    }

    std::vector<std::size_t> picks(kWave);
    for (std::size_t& pick : picks) pick = zipf.Sample(rng);
    // The wave opens with a marker query no earlier wave asked (a value
    // no row holds), so it always misses the cache and wakes the
    // dispatcher, which parks at the gate until the wave is queued.
    Query marker;
    marker.values[0] = -static_cast<std::int64_t>(w) - 1;
    const ValueQuery marker_query = ToValueQuery(marker);

    std::vector<std::future<fxdist::Result<QueryResult>>> futures(kWave);
    std::vector<std::optional<fxdist::Result<QueryResult>>> results(kWave);
    std::optional<fxdist::Result<QueryResult>> marker_result;
    std::vector<Clock::time_point> submitted(kWave);
    std::vector<double> latency(kWave, -1.0);
    auto interactive = [](std::size_t i) { return i % kInteractiveEvery == 0; };
    auto collect = [&](std::size_t i) {
      results[i].emplace(futures[i].get());
      if (latency[i] < 0) latency[i] = MillisSince(submitted[i]);
    };
    Timed(pass, [&] {
      Tracer::Scope root(tracer, "read.wave");
      backend->ArmGate();
      std::future<fxdist::Result<QueryResult>> marker_future;
      {
        Tracer::Scope span(tracer, "front.submit");
        marker_future = frontend->Submit(
            tenants[0], fxdist::QueryPriority::kBatch, marker_query);
      }
      const bool held = backend->WaitGateHeld(std::chrono::seconds(2));
      if (!held && !gate_warned) {
        gate_warned = true;
        std::fprintf(stderr,
                     "perfbench: the Frontend dispatcher did not reach the "
                     "gate; rounds are formed as the queue fills\n");
      }
      for (std::size_t i = 0; i < kWave; ++i) {
        submitted[i] = Clock::now();
        {
          Tracer::Scope span(tracer, "front.submit");
          futures[i] = frontend->Submit(
              tenants[i % kTenants],
              interactive(i) ? fxdist::QueryPriority::kInteractive
                             : fxdist::QueryPriority::kBatch,
              template_queries[picks[i]]);
        }
        // Cache hits resolve inside Submit.
        if (futures[i].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          latency[i] = MillisSince(submitted[i]);
        }
      }
      backend->ReleaseGate();
      marker_result.emplace(marker_future.get());
      // The dispatcher resolves interactive work first.
      for (std::size_t i = 0; i < kWave; ++i) {
        if (interactive(i)) collect(i);
      }
      for (std::size_t i = 0; i < kWave; ++i) {
        if (!interactive(i)) collect(i);
      }
    });

    ++pass.attempted;
    ++markers;
    if (!marker_result->ok()) {
      ++pass.failed;
    } else {
      checker.Check(marker, **marker_result);
    }
    for (std::size_t i = 0; i < kWave; ++i) {
      checker.Read(templates[picks[i]], *results[i], latency[i],
                   interactive(i));
    }
  }
  frontend->Flush();
  checker.Finish();

  TakeEngineDelta(pass, engine_before, engine->Snapshot());
  const fxdist::FrontendStats front_after = frontend->Stats();
  pass.front_queries = front_after.submitted - front_before.submitted - markers;
  pass.front_cache_served = front_after.cache_served - front_before.cache_served;
  pass.front_epoch_invalidations = front_after.cache.epoch_invalidations -
                                   front_before.cache.epoch_invalidations;
  if (front_after.shed_admission != front_before.shed_admission ||
      front_after.shed_overflow != front_before.shed_overflow ||
      front_after.failed != front_before.failed) {
    pass.errors.push_back("the Frontend shed or failed queries");
  }
  ExpectRecords(pass, "the flat file", file->num_records(),
                kLoaded + pass.records_written);
  pass.resident_bytes = file->ApproxMemoryBytes();
  pass.resident_records = file->num_records();
  return pass;
}

// ---------------------------------------------------------------------------
// packed_scan: distinct queries in engine batches over a packed file many
// times larger than its 16-block decode cache.  Single-query engine calls
// are the interactive class.  The packed file is immutable, so writes
// stream into the next generation's PackedBuilder, sealed and checked at
// the end.

namespace packed {
constexpr std::size_t kLoaded = 150000;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kLookups = 8;
constexpr std::size_t kWriteRecords = 256;
constexpr std::uint64_t kMaxQualified = 64;
/// Interactive lookups are the selective end of the mix.
constexpr std::uint64_t kLookupMaxQualified = 4;
constexpr double kStepsPerSecond = 14;
}  // namespace packed

Pass RunPackedScan(const RunOptions& options, Tracer& tracer) {
  using namespace packed;  // NOLINT(build/namespaces)
  Pass pass;
  Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 2);
  Oracle oracle;
  std::vector<Row> loaded;
  for (std::size_t i = 0; i < kLoaded; ++i) loaded.push_back(RandomRow(rng));
  for (const Row& row : loaded) oracle.Add(row);
  const fxdist::Schema schema = Must(BenchSchema(), "schema");
  const std::string path = options.scratch_dir + "/packed-" +
                           std::to_string(options.seed) + ".fxp";
  const std::string next_path = options.scratch_dir + "/packed-" +
                                std::to_string(options.seed) + "-next.fxp";

  std::unique_ptr<fxdist::PackedBackend> file;
  std::unique_ptr<TracedBackend> backend;
  std::unique_ptr<fxdist::QueryEngine> engine;
  std::optional<fxdist::PackedBuilder> next;
  for (int k = 0; k < options.setups; ++k) {
    next.reset();
    engine.reset();
    backend.reset();
    file.reset();
    auto start = Clock::now();
    fxdist::PackedBuilder builder =
        Must(fxdist::PackedBuilder::Create(schema, kDevices, kDistribution,
                                           kHashSeed, path),
             "creating the packed builder");
    double seconds = SecondsSince(start);
    for (std::size_t begin = 0; begin < loaded.size(); begin += kLoadChunk) {
      const std::vector<Record> chunk =
          ToRecords(loaded, begin, std::min(loaded.size(), begin + kLoadChunk));
      start = Clock::now();
      for (const Record& record : chunk) Must(builder.Add(record), "packing");
      seconds += SecondsSince(start);
    }
    start = Clock::now();
    Must(builder.Finish(), "sealing the packed file");
    file = Must(fxdist::PackedBackend::Open(path), "opening the packed file");
    backend =
        std::make_unique<TracedBackend>(*file, tracer, Boundary::kLocalStorage);
    engine = std::make_unique<fxdist::QueryEngine>(*backend,
                                                   BenchEngineOptions());
    next.emplace(Must(fxdist::PackedBuilder::Create(
                          schema, kDevices, kDistribution, kHashSeed, next_path),
                      "creating the next generation's builder"));
    pass.setup_s.push_back(seconds + SecondsSince(start));
  }

  ReadChecker checker(pass, oracle, *file);
  std::unordered_set<Query, QueryHash> seen;
  const fxdist::StatsSnapshot engine_before = engine->Snapshot();
  const std::size_t steps = Steps(options, kStepsPerSecond);
  for (std::size_t step = 0; step < steps; ++step) {
    pass.EnterStep(step, steps);
    std::vector<Query> batch;
    std::vector<ValueQuery> batch_queries;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(DistinctQuery(rng, loaded, kMaxQualified, seen));
      batch_queries.push_back(ToValueQuery(batch.back()));
    }
    std::optional<fxdist::Result<std::vector<QueryResult>>> results;
    const double batch_ms = Timed(pass, [&] {
      Tracer::Scope root(tracer, "read.batch");
      Tracer::Scope span(tracer, "engine.batch");
      results.emplace(engine->ExecuteBatch(batch_queries));
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (results->ok()) {
        checker.Read(batch[i], (**results)[i], batch_ms, false);
      } else {
        checker.Read(batch[i], results->status(), batch_ms, false);
      }
    }

    for (std::size_t j = 0; j < kLookups; ++j) {
      const Query q = DistinctQuery(rng, loaded, kLookupMaxQualified, seen);
      const std::vector<ValueQuery> single = {ToValueQuery(q)};
      std::optional<fxdist::Result<std::vector<QueryResult>>> result;
      const double ms = Timed(pass, [&] {
        Tracer::Scope root(tracer, "read.lookup");
        Tracer::Scope span(tracer, "engine.batch");
        result.emplace(engine->ExecuteBatch(single));
      });
      if (result->ok()) {
        checker.Read(q, (**result)[0], ms, true);
      } else {
        checker.Read(q, result->status(), ms, true);
      }
    }

    std::vector<Row> rows;
    for (std::size_t i = 0; i < kWriteRecords; ++i) {
      rows.push_back(RandomRow(rng));
    }
    const std::vector<Record> records = ToRecords(rows, 0, rows.size());
    fxdist::Status status;
    const double ms = Timed(pass, [&] {
      Tracer::Scope root(tracer, "write.batch");
      Tracer::Scope span(tracer, "sim.insert");
      span.set_count(records.size());
      for (const Record& record : records) {
        status = next->Add(record);
        if (!status.ok()) break;
      }
    });
    RecordWrite(pass, status, ms, rows.size());
  }
  checker.Finish();

  TakeEngineDelta(pass, engine_before, engine->Snapshot());
  ExpectRecords(pass, "the packed file", file->num_records(), kLoaded);
  pass.resident_bytes = file->ApproxMemoryBytes();
  pass.resident_records = file->num_records();

  engine.reset();
  backend.reset();
  file.reset();
  Must(next->Finish(), "sealing the next generation");
  next.reset();
  const auto sealed =
      Must(fxdist::PackedBackend::Open(next_path), "opening the next generation");
  ExpectRecords(pass, "the next generation", sealed->num_records(),
                pass.records_written);
  std::remove(path.c_str());
  std::remove(next_path.c_str());
  return pass;
}

// ---------------------------------------------------------------------------
// wire_rw: each step runs an engine batch over a pipelined v2
// RemoteBackend (kScanMany), a few single-query RemoteBackend::Execute
// lookups (kExecute) and one InsertBatch against an EventShardServer on
// loopback.

namespace wire {
constexpr std::size_t kLoaded = 40000;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kLookups = 12;
constexpr std::size_t kWriteRecords = 16;
constexpr std::uint64_t kMaxQualified = 512;
constexpr unsigned kServerWorkers = 2;
constexpr std::size_t kPipelineWindow = 32;
constexpr double kStepsPerSecond = 60;
}  // namespace wire

Pass RunWire(const RunOptions& options, Tracer& tracer) {
  using namespace wire;  // NOLINT(build/namespaces)
  Pass pass;
  Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 3);
  Oracle oracle;
  std::vector<Row> loaded;
  for (std::size_t i = 0; i < kLoaded; ++i) loaded.push_back(RandomRow(rng));
  for (const Row& row : loaded) oracle.Add(row);
  const fxdist::Schema schema = Must(BenchSchema(), "schema");

  std::unique_ptr<fxdist::ParallelFile> file;
  std::unique_ptr<TracedBackend> served;
  std::unique_ptr<fxdist::EventShardServer> server;
  std::unique_ptr<fxdist::RemoteBackend> remote;
  std::unique_ptr<TracedBackend> client;
  std::unique_ptr<fxdist::QueryEngine> engine;
  auto teardown = [&] {
    engine.reset();
    client.reset();
    remote.reset();
    if (server) server->Stop();
  };
  for (int k = 0; k < options.setups; ++k) {
    teardown();
    server.reset();
    served.reset();
    file.reset();
    auto start = Clock::now();
    file = std::make_unique<fxdist::ParallelFile>(
        Must(fxdist::ParallelFile::Create(schema, kDevices, kDistribution,
                                          kHashSeed),
             "creating the flat file"));
    double seconds = SecondsSince(start);
    seconds += LoadRows(*file, loaded);
    start = Clock::now();
    served = std::make_unique<TracedBackend>(*file, tracer,
                                             Boundary::kServedStorage);
    fxdist::EventShardServerOptions server_options;
    server_options.workers = kServerWorkers;
    server = Must(fxdist::EventShardServer::Start(*served, server_options),
                  "starting the shard server");
    auto channel = Must(
        fxdist::SocketFrameChannel::Connect("127.0.0.1", server->port()),
        "connecting to the shard server");
    fxdist::MuxTransportOptions mux_options;
    mux_options.window = kPipelineWindow;
    auto transport = std::make_unique<TracedTransport>(
        std::make_unique<fxdist::MuxTransport>(std::move(channel), mux_options),
        tracer);
    fxdist::RemoteBackendOptions remote_options;
    remote_options.client_id = "perfbench";
    remote = Must(
        fxdist::RemoteBackend::Connect(std::move(transport), remote_options),
        "handshaking with the shard server");
    client = std::make_unique<TracedBackend>(*remote, tracer,
                                             Boundary::kRemoteClient);
    engine = std::make_unique<fxdist::QueryEngine>(*client,
                                                   BenchEngineOptions());
    pass.setup_s.push_back(seconds + SecondsSince(start));
  }
  if (!remote->scan_many_enabled() || !remote->insert_batch_enabled()) {
    pass.errors.push_back("the server did not grant ScanMany and InsertBatch");
  }

  ReadChecker checker(pass, oracle, *file);
  std::unordered_set<Query, QueryHash> seen;
  const fxdist::StatsSnapshot engine_before = engine->Snapshot();
  const std::size_t steps = Steps(options, kStepsPerSecond);
  for (std::size_t step = 0; step < steps; ++step) {
    pass.EnterStep(step, steps);
    std::vector<Query> batch;
    std::vector<ValueQuery> batch_queries;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(DistinctQuery(rng, oracle.rows(), kMaxQualified, seen));
      batch_queries.push_back(ToValueQuery(batch.back()));
    }
    std::optional<fxdist::Result<std::vector<QueryResult>>> results;
    const double batch_ms = Timed(pass, [&] {
      Tracer::Scope root(tracer, "read.batch");
      Tracer::Scope span(tracer, "engine.batch");
      results.emplace(engine->ExecuteBatch(batch_queries));
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (results->ok()) {
        checker.Read(batch[i], (**results)[i], batch_ms, false);
      } else {
        checker.Read(batch[i], results->status(), batch_ms, false);
      }
    }

    for (std::size_t j = 0; j < kLookups; ++j) {
      const Query q = DistinctQuery(rng, oracle.rows(), kMaxQualified, seen);
      const ValueQuery query = ToValueQuery(q);
      std::optional<fxdist::Result<QueryResult>> result;
      const double ms = Timed(pass, [&] {
        Tracer::Scope root(tracer, "read.lookup");
        result.emplace(client->Execute(query));
      });
      checker.Read(q, *result, ms, true);
    }

    std::vector<Row> rows;
    for (std::size_t i = 0; i < kWriteRecords; ++i) {
      rows.push_back(RandomRow(rng));
    }
    std::vector<Record> records = ToRecords(rows, 0, rows.size());
    fxdist::Status status;
    const double ms = Timed(pass, [&] {
      Tracer::Scope root(tracer, "write.batch");
      status = client->InsertBatch(std::move(records));
    });
    RecordWrite(pass, status, ms, rows.size());
    if (status.ok()) {
      for (const Row& row : rows) oracle.Add(row);
    }
  }
  checker.Finish();

  TakeEngineDelta(pass, engine_before, engine->Snapshot());
  ExpectRecords(pass, "the remote shard", remote->num_records(),
                kLoaded + pass.records_written);
  ExpectRecords(pass, "the served flat file", file->num_records(),
                kLoaded + pass.records_written);
  pass.resident_bytes = file->ApproxMemoryBytes();
  pass.resident_records = file->num_records();
  teardown();
  const fxdist::EventServerStats stats = server->Stats();
  if (stats.protocol_errors != 0 || stats.dropped_replies != 0 ||
      stats.shed_connections != 0) {
    pass.errors.push_back(
        "the shard server reported protocol errors, dropped replies or shed "
        "connections");
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics.

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool StartsWith(const char* s, const char* prefix) {
  return std::string_view(s).starts_with(prefix);
}

/// Summed length of the union of `intervals`, clipped to [lo, hi].
std::uint64_t CoveredNs(std::vector<std::pair<std::uint64_t, std::uint64_t>>
                            intervals,
                        std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0, reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"front_zipf_rw", RunFrontZipf},
      {"packed_scan", RunPackedScan},
      {"wire_rw", RunWire},
  };
  return workloads;
}

std::vector<Metric> EndToEndMetrics(const Pass& pass) {
  return {
      {"qps",
       Ratio(static_cast<double>(pass.timed_reads), pass.timed_s), "1/s"},
      {"p50_ms", Percentile(pass.read_ms, 0.5), "ms"},
      {"interactive_p99_ms", Percentile(pass.lookup_ms, 0.99), "ms"},
      {"lookup_p50_ms", Percentile(pass.lookup_ms, 0.5), "ms"},
      {"write_p50_ms", Percentile(pass.write_ms, 0.5), "ms"},
      {"cpu_us_per_query",
       Ratio(pass.cpu_s * 1e6, static_cast<double>(pass.timed_reads)), "us"},
      {"setup_s", Percentile(pass.setup_s, 0.5), "s"},
      {"rss_peak_mb", PeakRssMb(), "MB"},
      {"response_ratio",
       Ratio(static_cast<double>(pass.sum_largest),
             static_cast<double>(pass.sum_optimal)),
       "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const Pass& untraced, const Pass& traced,
                                    const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::unordered_map<std::uint64_t, const Span*> roots;
  for (const Span& s : spans) {
    if (s.parent == 0) roots.emplace(s.id, &s);
  }
  auto under = [&roots](const Span& s, const char* kind) {
    const auto it = roots.find(s.request);
    return it != roots.end() && StartsWith(it->second->name, kind);
  };

  // Sums over the spans under read (or write) roots whose name starts
  // with one of `prefixes`.
  struct Sum {
    double ms = 0.0;
    double count = 0.0;  ///< summed Span::count
    double spans = 0.0;
  };
  auto sum = [&](const char* kind, std::initializer_list<const char*> prefixes) {
    Sum out;
    for (const Span& s : spans) {
      if (s.parent == 0 || !under(s, kind)) continue;
      for (const char* prefix : prefixes) {
        if (StartsWith(s.name, prefix)) {
          out.ms += s.ms();
          out.count += static_cast<double>(s.count);
          out.spans += 1.0;
          break;
        }
      }
    }
    return out;
  };

  // Self time of the engine: its batch time minus the part its child
  // spans (storage, hashing, wire) cover.  Where the client calls the
  // engine it brackets each call with an "engine.batch" span; under the
  // front door the dispatcher calls it, so the batch time comes from the
  // engine's own snapshot and the children are every storage span the
  // engine's threads recorded (they all run inside engine batches).
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  double engine_batch_ms = 0.0, engine_covered_ms = 0.0;
  bool explicit_batches = false;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "engine.batch") continue;
    explicit_batches = true;
    engine_batch_ms += s.ms();
    engine_covered_ms +=
        static_cast<double>(CoveredNs(children[s.id], s.start_ns, s.end_ns)) /
        1e6;
  }
  if (!explicit_batches) {
    engine_batch_ms = traced.engine_batch_ms;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> storage;
    for (const Span& s : spans) {
      if (s.parent != 0 && under(s, "read.") && StartsWith(s.name, "sim.")) {
        storage.emplace_back(s.start_ns, s.end_ns);
      }
    }
    engine_covered_ms =
        static_cast<double>(CoveredNs(storage, 0, ~std::uint64_t{0})) / 1e6;
  }

  // Coverage: the share of read latency that layer spans account for.
  double root_ms = 0.0, covered_ms = 0.0;
  {
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        by_request;
    for (const Span& s : spans) {
      if (s.parent != 0) by_request[s.request].emplace_back(s.start_ns, s.end_ns);
    }
    for (const auto& [id, root] : roots) {
      if (!StartsWith(root->name, "read.")) continue;
      root_ms += root->ms();
      covered_ms += static_cast<double>(CoveredNs(by_request[id],
                                                  root->start_ns,
                                                  root->end_ns)) /
                    1e6;
    }
    if (!explicit_batches) {
      // Under the front door the engine batches are not spans; they run
      // while the client waits, outside its submit spans, and contain
      // every storage span, so their time adds to the submit spans'.
      covered_ms = sum("read.", {"front."}).ms + engine_batch_ms;
    }
  }

  const double reads = static_cast<double>(traced.reads);
  const Sum scan = sum("read.", {"sim.scan", "net.server.scan"});
  const Sum examined = sum("read.", {"sim.scan", "net.server.scan",
                                     "sim.execute", "net.server.execute"});
  const Sum hash = sum("read.", {"sim.hash"});
  const Sum insert = sum("write.", {"sim.insert", "net.server.insert"});
  const Sum probes = sum("read.", {"sim.probe", "net.call.probe"});
  const Sum roundtrip = sum("read.", {"net.roundtrip"});
  const Sum call = sum("read.", {"net.call."});
  const Sum server = sum("read.", {"net.server."});
  const Sum write_call = sum("write.", {"net.call.insert"});

  return {
      {"front.hit_ratio",
       Ratio(static_cast<double>(traced.front_cache_served),
             static_cast<double>(traced.front_queries)),
       "ratio"},
      {"front.epoch_invalidations",
       static_cast<double>(traced.front_epoch_invalidations), "count"},
      {"engine.self_ms_per_query",
       Ratio(engine_batch_ms - engine_covered_ms, reads), "ms"},
      {"engine.sharing_factor",
       Ratio(static_cast<double>(traced.engine_requested),
             static_cast<double>(traced.engine_performed)),
       "ratio"},
      {"engine.duplicates_collapsed",
       static_cast<double>(traced.engine_duplicates), "count"},
      {"engine.examined_per_matched",
       Ratio(static_cast<double>(traced.engine_examined),
             static_cast<double>(traced.engine_matched)),
       "ratio"},
      {"sim.scan_ms_per_query", Ratio(scan.ms, reads), "ms"},
      {"sim.records_per_query", Ratio(examined.count, reads), "count"},
      {"sim.hash_us_per_query", Ratio(hash.ms * 1e3, reads), "us"},
      {"sim.insert_us_per_record", Ratio(insert.ms * 1e3, insert.count), "us"},
      {"sim.resident_bytes_per_record",
       Ratio(static_cast<double>(traced.resident_bytes),
             static_cast<double>(traced.resident_records)),
       "B"},
      {"sim.bucket_probes_per_query", Ratio(probes.spans, reads), "count"},
      {"net.frames_per_query", Ratio(roundtrip.spans, reads), "count"},
      {"net.bytes_per_query", Ratio(roundtrip.count, reads), "B"},
      {"net.call_ms_per_query", Ratio(call.ms, reads), "ms"},
      {"net.roundtrip_ms_per_query", Ratio(roundtrip.ms, reads), "ms"},
      {"net.server_ms_per_query", Ratio(server.ms, reads), "ms"},
      {"net.write_call_ms",
       Ratio(write_call.ms, static_cast<double>(traced.writes)), "ms"},
      {"trace.coverage", Ratio(covered_ms, root_ms), "ratio"},
      {"trace.overhead", Ratio(traced.timed_s, untraced.timed_s) - 1.0,
       "ratio"},
  };
}

}  // namespace perfbench
