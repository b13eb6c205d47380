// Frontend matrix: the front door measured and gated end to end.
//
// One Zipf-popular query stream runs through the Frontend over a flat
// ParallelFile four ways, and every way is checked against the serial
// Execute oracle bit for bit:
//
//   1. cache off            — per-query records must equal the oracle's.
//   2. cache on, cold pass  — same gate; fills the cache.
//   3. cache on, warm pass  — same gate again, and the measured hit rate
//      must exceed 50% (a Zipf-head stream over a handful of templates
//      leaves the cache no excuse).
//   4. mutate-then-requery  — a record inserted to match a cached query
//      must appear in the re-queried result (the mutation epoch
//      invalidates the entry; serving the stale cached rows is the bug
//      this gate exists to catch).
//
// A fifth phase gates QoS: interactive p99 with a deep batch backlog and
// QoS on must stay within 2x the batch-free interactive p99 (plus a
// scheduling-slack allowance), i.e. priority scheduling actually bounds
// interactive latency instead of letting the backlog bury it.
//
// Exits nonzero on any gate failure, so CI can run it as a smoke test
// (`--quick` shrinks the workload to seconds).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "front/frontend.h"
#include "sim/parallel_file.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

using namespace fxdist;  // NOLINT(build/namespaces)

namespace {

struct RunConfig {
  std::uint64_t num_devices = 8;
  std::uint64_t num_records = 8000;
  std::size_t num_templates = 32;
  std::size_t num_queries = 2048;
  double zipf_theta = 1.1;
  std::uint64_t seed = 42;
  bool quick = false;
};

double Qps(std::size_t queries, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0
                        : static_cast<double>(queries) / (wall_ms / 1e3);
}

/// Runs `stream` through a fresh Frontend over `backend` and returns the
/// per-query results in submission order (aborts on any error — the
/// whole point is comparing results, so a failed query is fatal).
std::vector<QueryResult> RunStream(Frontend& frontend,
                                   const std::vector<ValueQuery>& stream,
                                   double* wall_ms) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    futures.push_back(frontend.Submit(
        "tenant-" + std::to_string(i % 4),
        i % 8 == 0 ? QueryPriority::kInteractive : QueryPriority::kBatch,
        stream[i]));
  }
  std::vector<QueryResult> results;
  results.reserve(stream.size());
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      std::fprintf(stderr, "frontend query failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    results.push_back(*std::move(result));
  }
  if (wall_ms != nullptr) {
    *wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  return results;
}

/// Records (and matched counts) equal, query by query.  Cache hits must
/// be indistinguishable from re-execution, so this is the strict form.
bool Identical(const std::vector<QueryResult>& got,
               const std::vector<QueryResult>& oracle) {
  if (got.size() != oracle.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].records != oracle[i].records ||
        got[i].stats.records_matched != oracle[i].stats.records_matched) {
      return false;
    }
  }
  return true;
}

/// Interactive p99 (us) through a fresh frontend; `with_batch` first
/// floods the batch class so interactive work contends with a backlog.
double InteractiveP99(StorageBackend& backend,
                      const std::vector<ValueQuery>& batch_work,
                      const std::vector<ValueQuery>& interactive_work,
                      bool qos, bool with_batch) {
  EngineOptions eopts;
  QueryEngine engine(backend, eopts);
  FrontendOptions fopts;
  fopts.cache_enabled = false;  // hits bypass the queue; measure the queue
  fopts.qos_enabled = qos;
  Frontend frontend(engine, fopts);
  std::vector<std::future<Result<QueryResult>>> futures;
  if (with_batch) {
    for (const ValueQuery& q : batch_work) {
      futures.push_back(frontend.Submit("batch", QueryPriority::kBatch, q));
    }
  }
  for (const ValueQuery& q : interactive_work) {
    futures.push_back(
        frontend.Submit("inter", QueryPriority::kInteractive, q));
  }
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      std::fprintf(stderr, "qos query failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
  }
  frontend.Flush();
  return frontend.Stats().interactive_latency.PercentileMicros(0.99);
}

bool RunMatrix(const RunConfig& config) {
  auto schema = Schema::Create({{"f0", ValueType::kInt64, 8},
                                {"f1", ValueType::kInt64, 8},
                                {"f2", ValueType::kInt64, 8}})
                    .value();
  FieldDistribution value_dist;
  value_dist.domain = 512;
  auto record_gen =
      RecordGenerator::Create(schema, {value_dist, value_dist, value_dist},
                              config.seed)
          .value();
  const std::vector<Record> records = record_gen.Take(config.num_records);
  ParallelFile file =
      ParallelFile::Create(schema, config.num_devices, "fx-iu2", config.seed)
          .value();
  for (const Record& r : records) {
    if (auto st = file.Insert(r); !st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }

  auto query_gen = QueryGenerator::Create(&records, 0.5, config.seed).value();
  std::vector<ValueQuery> templates;
  while (templates.size() < config.num_templates) {
    ValueQuery q = query_gen.Next();
    const bool specified = std::any_of(
        q.begin(), q.end(), [](const auto& f) { return f.has_value(); });
    if (specified) templates.push_back(std::move(q));
  }
  ZipfSampler popularity(config.num_templates, config.zipf_theta);
  Xoshiro256 rng(config.seed + 1);
  std::vector<ValueQuery> stream;
  stream.reserve(config.num_queries);
  for (std::size_t i = 0; i < config.num_queries; ++i) {
    stream.push_back(templates[popularity.Sample(&rng)]);
  }

  std::printf("Frontend matrix: %zu queries (%zu Zipf %.1f templates), "
              "M=%llu, %llu records%s\n\n",
              config.num_queries, config.num_templates, config.zipf_theta,
              static_cast<unsigned long long>(config.num_devices),
              static_cast<unsigned long long>(config.num_records),
              config.quick ? " [quick]" : "");

  // Oracle: one serial Execute per query, no frontend, no cache.
  std::vector<QueryResult> oracle;
  oracle.reserve(stream.size());
  for (const ValueQuery& q : stream) {
    oracle.push_back(file.Execute(q).value());
  }

  EngineOptions eopts;
  bool all_ok = true;
  TablePrinter table({"pass", "qps", "hit rate", "identical"});

  {
    QueryEngine engine(file, eopts);
    FrontendOptions fopts;
    fopts.cache_enabled = false;
    Frontend frontend(engine, fopts);
    double ms = 0.0;
    const auto got = RunStream(frontend, stream, &ms);
    const bool identical = Identical(got, oracle);
    all_ok = all_ok && identical;
    table.AddRow({"cache off", TablePrinter::Cell(Qps(stream.size(), ms), 0),
                  "-", identical ? "yes" : "NO"});
  }

  double hit_rate = 0.0;
  std::uint64_t epoch_invalidations = 0;
  {
    QueryEngine engine(file, eopts);
    Frontend frontend(engine, FrontendOptions{});
    double cold_ms = 0.0;
    const auto cold = RunStream(frontend, stream, &cold_ms);
    const bool cold_identical = Identical(cold, oracle);
    double warm_ms = 0.0;
    const auto warm = RunStream(frontend, stream, &warm_ms);
    const bool warm_identical = Identical(warm, oracle);
    hit_rate = frontend.Stats().hit_rate();
    all_ok = all_ok && cold_identical && warm_identical;
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f%%", 100.0 * hit_rate);
    table.AddRow({"cache cold",
                  TablePrinter::Cell(Qps(stream.size(), cold_ms), 0), "-",
                  cold_identical ? "yes" : "NO"});
    table.AddRow({"cache warm",
                  TablePrinter::Cell(Qps(stream.size(), warm_ms), 0), rate,
                  warm_identical ? "yes" : "NO"});

    // Mutate-then-requery: a record built to match stream[0] lands in
    // the file, so the epoch moves and the cached entry must die.  The
    // re-queried result must contain the new row — comparing against a
    // fresh serial Execute makes "served stale" an observable failure,
    // not a silent one.
    frontend.Flush();
    const ValueQuery& probe = stream.front();
    Record fresh;
    fresh.reserve(probe.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      fresh.push_back(probe[i].has_value() ? *probe[i]
                                           : records.front()[i]);
    }
    if (auto st = file.Insert(fresh); !st.ok()) {
      std::fprintf(stderr, "mutation insert failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    const QueryResult after_oracle = file.Execute(probe).value();
    auto requeried =
        frontend.Submit("tenant-0", QueryPriority::kInteractive, probe)
            .get();
    frontend.Flush();
    epoch_invalidations = frontend.Stats().cache.epoch_invalidations;
    const bool saw_mutation =
        requeried.ok() && requeried->records == after_oracle.records &&
        after_oracle.stats.records_matched ==
            oracle.front().stats.records_matched + 1 &&
        epoch_invalidations >= 1;
    all_ok = all_ok && saw_mutation;
    table.AddRow({"mutate+requery", "-", "-", saw_mutation ? "yes" : "NO"});
  }
  table.Print(std::cout);

  if (hit_rate <= 0.5) {
    std::printf("\nFAIL: warm hit rate %.1f%% <= 50%%\n", 100.0 * hit_rate);
    all_ok = false;
  } else {
    std::printf("\nwarm hit rate %.1f%% (> 50%% gate), %llu epoch "
                "invalidations\n",
                100.0 * hit_rate,
                static_cast<unsigned long long>(epoch_invalidations));
  }

  // QoS: interactive latency must survive a deep batch backlog.  The
  // slack term absorbs scheduler jitter on loaded CI machines; it only
  // risks a false pass, never a false failure of a healthy build.
  const double p99_free =
      InteractiveP99(file, stream, stream, /*qos=*/true,
                     /*with_batch=*/false);
  const double p99_qos =
      InteractiveP99(file, stream, stream, /*qos=*/true, /*with_batch=*/true);
  const double p99_fifo = InteractiveP99(file, stream, stream, /*qos=*/false,
                                         /*with_batch=*/true);
  const double slack_us = 25000.0;
  const bool qos_ok = p99_qos <= std::max(2.0 * p99_free, p99_free + slack_us);
  std::printf("interactive p99: batch-free %.0fus, qos-on %.0fus, "
              "fifo %.0fus  ->  %s\n",
              p99_free, p99_qos, p99_fifo, qos_ok ? "ok" : "FAIL");
  all_ok = all_ok && qos_ok;

  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
      config.num_records = 1500;
      config.num_queries = 512;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  return RunMatrix(config) ? 0 : 1;
}
