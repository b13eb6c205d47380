// Connection scaling: the event-driven shard server walked up a client
// ladder to C1K, gated on graceful degradation rather than raw speed.
//
// Each rung fans `clients` concurrent connections into one
// EventShardServer, every connection running `waves` query round trips
// against a shared flat backend.  Ground truth is the serial execution
// of the same query stream on the same backend: the fan-in's summed
// matched count must equal the serially-computed expectation exactly,
// at every rung — the paper's distribution answers must not change
// shape under concurrency.
//
// Gates (exit nonzero on violation, so CI runs this as a smoke test):
//   * every reply arrives: replies == clients * waves, zero transport
//     errors, zero error replies, zero dropped/shed on the server;
//   * matched counts identical to serial ground truth at every rung;
//   * graceful degradation at the top rung: p99 stays bounded (no
//     accept-queue collapse, no starved connection).
//
// `--quick` shrinks records/waves but keeps the 1000-client top rung —
// that IS the point of the bench.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "net/event_shard_server.h"
#include "net/loadgen.h"
#include "sim/parallel_file.h"
#include "util/table_printer.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

using namespace fxdist;  // NOLINT(build/namespaces)

namespace {

struct RunConfig {
  std::uint64_t num_devices = 4;
  std::uint64_t num_records = 3000;
  std::size_t num_queries = 24;
  std::size_t waves = 4;
  std::size_t driver_threads = 16;
  unsigned workers = 8;
  std::uint64_t seed = 42;
  std::vector<std::size_t> ladder = {50, 200, 1000};
  double p99_bound_ms = 5000.0;
};

Schema BenchSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

std::unique_ptr<StorageBackend> MakeBackend(const RunConfig& config) {
  auto file = std::make_unique<ParallelFile>(
      ParallelFile::Create(BenchSchema(), config.num_devices, "fx-iu2",
                           config.seed)
          .value());
  auto gen = RecordGenerator::Uniform(BenchSchema(), config.seed + 1).value();
  for (const Record& record : gen.Take(config.num_records)) {
    if (auto st = file->Insert(record); !st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return file;
}

/// Serial ground truth: per-query matched tallies, once, off the wire.
std::vector<std::uint64_t> SerialTallies(StorageBackend& backend,
                                         const std::vector<ValueQuery>& qs) {
  std::vector<std::uint64_t> tallies;
  tallies.reserve(qs.size());
  for (const ValueQuery& q : qs) {
    auto result = backend.Execute(q);
    if (!result.ok()) {
      std::fprintf(stderr, "serial execute failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    tallies.push_back(result->stats.records_matched);
  }
  return tallies;
}

/// The fan-in assigns stream index w*clients+c to query (index % Q), so
/// the expected matched total is a pure function of clients*waves.
std::uint64_t ExpectedMatched(const std::vector<std::uint64_t>& tallies,
                              std::size_t streams) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < streams; ++s) {
    total += tallies[s % tallies.size()];
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.num_records = 1200;
      config.waves = 2;
      config.ladder = {50, 1000};
    }
  }

  auto backend = MakeBackend(config);
  std::vector<Record> records;
  backend->ForEachLiveRecord(
      [&](const Record& record) { records.push_back(record); });
  auto query_gen =
      QueryGenerator::Create(&records, 0.5, config.seed + 2).value();
  std::vector<ValueQuery> queries;
  while (queries.size() < config.num_queries) {
    queries.push_back(query_gen.Next());
  }
  const std::vector<std::uint64_t> tallies = SerialTallies(*backend, queries);

  const std::size_t top = *std::max_element(config.ladder.begin(),
                                            config.ladder.end());
  TryRaiseNoFileLimit(top * 2 + 512);

  std::printf("Connection scaling: %zu queries x %zu waves per client, "
              "M=%llu, %llu records, %u workers\n\n",
              config.num_queries, config.waves,
              static_cast<unsigned long long>(config.num_devices),
              static_cast<unsigned long long>(config.num_records),
              config.workers);
  TablePrinter table({"server", "clients", "qps", "p50 ms", "p99 ms",
                      "replies", "peak conns", "identical"});
  bool all_ok = true;

  for (const std::size_t clients : config.ladder) {
    EventShardServer::Options options;
    options.workers = config.workers;
    options.max_connections = std::max<std::size_t>(clients, 4096);
    auto server = EventShardServer::Start(*backend, options).value();

    FanInOptions fanin;
    fanin.port = server->port();
    fanin.clients = clients;
    fanin.threads = config.driver_threads;
    fanin.waves = config.waves;
    auto report = RunQueryFanIn(queries, fanin);
    if (!report.ok()) {
      std::fprintf(stderr, "fan-in failed at %zu clients: %s\n", clients,
                   report.status().ToString().c_str());
      return 1;
    }
    const EventServerStats stats = server->Stats();
    server->Stop();

    const std::uint64_t expected =
        ExpectedMatched(tallies, clients * config.waves);
    const bool complete = report->transport_errors == 0 &&
                          report->error_replies == 0 &&
                          report->replies == clients * config.waves &&
                          stats.dropped_replies == 0 &&
                          stats.shed_connections == 0;
    const bool identical = report->matched_total == expected;
    const bool p99_bounded = report->p99_ms <= config.p99_bound_ms;
    if (!complete) {
      std::fprintf(stderr,
                   "DEGRADED at %zu clients: %llu transport errors, %llu "
                   "error replies, %llu/%zu replies, %llu dropped, "
                   "%llu shed\n",
                   clients,
                   static_cast<unsigned long long>(report->transport_errors),
                   static_cast<unsigned long long>(report->error_replies),
                   static_cast<unsigned long long>(report->replies),
                   clients * config.waves,
                   static_cast<unsigned long long>(stats.dropped_replies),
                   static_cast<unsigned long long>(stats.shed_connections));
    }
    if (!p99_bounded) {
      std::fprintf(stderr, "DEGRADED at %zu clients: p99 %.1fms over the "
                   "%.0fms bound\n",
                   clients, report->p99_ms, config.p99_bound_ms);
    }
    all_ok = all_ok && complete && identical && p99_bounded;
    const double qps =
        report->elapsed_ms <= 0.0
            ? 0.0
            : static_cast<double>(report->replies) /
                  (report->elapsed_ms / 1e3);
    table.AddRow({"event", std::to_string(clients),
                  TablePrinter::Cell(qps, 0),
                  TablePrinter::Cell(report->p50_ms, 2),
                  TablePrinter::Cell(report->p99_ms, 2),
                  std::to_string(report->replies),
                  std::to_string(stats.max_concurrent),
                  identical ? "yes" : "NO"});
  }

  table.Print(std::cout);
  std::printf("\nevent-loop fan-in %s the serial ground truth\n",
              all_ok ? "matches" : "DIVERGES from");
  return all_ok ? 0 : 1;
}
