// Engine throughput: batched shared-scan execution vs one-query-at-a-time.
//
// A Zipf-popular query stream (hot queries repeat, neighbours overlap —
// the serving-workload shape Doerr et al. and Fukuyama evaluate against)
// runs twice over the same FX/AFX/Modulo/GDM files: once through the
// serial ParallelFile::Execute baseline and once through the QueryEngine
// in batches.  The engine's wins are structural — duplicate collapse and
// one pass per distinct qualified bucket — so the speedup holds even on a
// single core.  Results are checked to match the baseline bit-for-bit
// before any rate is reported.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "sim/parallel_file.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

using namespace fxdist;  // NOLINT(build/namespaces)

namespace {

struct RunConfig {
  std::uint64_t num_devices = 8;
  std::uint64_t num_records = 12000;
  std::size_t num_templates = 32;
  std::size_t num_queries = 2048;
  std::size_t batch_size = 256;
  double zipf_theta = 1.1;
  double specified_probability = 0.5;
  std::uint64_t seed = 42;
};

double Qps(std::size_t queries, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0
                        : static_cast<double>(queries) / (wall_ms / 1e3);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      config.num_records = 1500;
      config.num_queries = 256;
      config.batch_size = 64;
    }
  }
  auto schema = Schema::Create({{"f0", ValueType::kInt64, 8},
                                {"f1", ValueType::kInt64, 8},
                                {"f2", ValueType::kInt64, 8}})
                    .value();

  // One shared workload: Zipf-popular templates drawn from stored records.
  // Field domains are much larger than the hash directory (as for real
  // attributes), so specified fields are selective and results stay
  // proportionate to the query, not to the file.
  FieldDistribution value_dist;
  value_dist.domain = 512;
  auto record_gen =
      RecordGenerator::Create(schema, {value_dist, value_dist, value_dist},
                              config.seed)
          .value();
  const std::vector<Record> records = record_gen.Take(config.num_records);
  auto query_gen =
      QueryGenerator::Create(&records, config.specified_probability,
                             config.seed)
          .value();
  // Partial-match templates specify a nonempty key subset (the empty
  // query is a full file scan, not partial match retrieval).
  std::vector<ValueQuery> templates;
  templates.reserve(config.num_templates);
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

  std::printf("Engine throughput: %zu queries (%zu Zipf %.1f templates), "
              "batches of %zu, M=%llu, %llu records\n\n",
              config.num_queries, config.num_templates, config.zipf_theta,
              config.batch_size,
              static_cast<unsigned long long>(config.num_devices),
              static_cast<unsigned long long>(config.num_records));

  TablePrinter table({"method", "serial qps", "engine qps", "speedup",
                      "sharing", "dups/batch"});
  bool all_identical = true;
  for (const std::string& spec :
       {std::string("fx-iu2"), std::string("afx-iu2"),
        std::string("modulo"), std::string("gdm1")}) {
    auto file = ParallelFile::Create(schema, config.num_devices, spec,
                                     config.seed)
                    .value();
    for (const Record& r : records) {
      if (!file.Insert(r).ok()) std::abort();
    }

    // Untimed warm-up of both paths: fault in the file's pages and the
    // allocator's arenas so the first timed method is not charged for
    // them.
    for (std::size_t i = 0; i < 64; ++i) {
      (void)file.Execute(stream[i]).value();
    }
    {
      QueryEngine warm(file, EngineOptions{});
      std::vector<ValueQuery> first(stream.begin(),
                                    stream.begin() + config.batch_size);
      (void)warm.ExecuteBatch(first).value();
    }

    // Serial baseline: one query at a time, no pool.
    std::vector<QueryResult> serial;
    serial.reserve(stream.size());
    const double serial_start = NowMs();
    for (const ValueQuery& q : stream) {
      serial.push_back(file.Execute(q).value());
    }
    const double serial_ms = NowMs() - serial_start;

    // Engine: shared-scan batches.
    EngineOptions options;
    QueryEngine engine(file, options);
    std::vector<QueryResult> batched;
    batched.reserve(stream.size());
    const double engine_start = NowMs();
    for (std::size_t begin = 0; begin < stream.size();
         begin += config.batch_size) {
      const std::size_t end =
          std::min(stream.size(), begin + config.batch_size);
      std::vector<ValueQuery> batch(stream.begin() + begin,
                                    stream.begin() + end);
      auto results = engine.ExecuteBatch(batch);
      for (QueryResult& r : *results) batched.push_back(std::move(r));
    }
    const double engine_ms = NowMs() - engine_start;

    // Differential check before reporting any rate.
    bool identical = batched.size() == serial.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i) {
      identical = batched[i].records == serial[i].records &&
                  batched[i].stats.records_matched ==
                      serial[i].stats.records_matched &&
                  batched[i].stats.qualified_per_device ==
                      serial[i].stats.qualified_per_device &&
                  batched[i].stats.largest_response ==
                      serial[i].stats.largest_response;
    }
    all_identical = all_identical && identical;

    const StatsSnapshot snap = engine.Snapshot();
    const double speedup =
        engine_ms <= 0.0 ? 0.0 : serial_ms / engine_ms;
    table.AddRow(
        {file.method().name() + (identical ? "" : " (MISMATCH!)"),
         TablePrinter::Cell(Qps(stream.size(), serial_ms), 0),
         TablePrinter::Cell(Qps(stream.size(), engine_ms), 0),
         TablePrinter::Cell(speedup, 2),
         TablePrinter::Cell(snap.sharing_factor(), 2),
         TablePrinter::Cell(static_cast<double>(snap.duplicates_collapsed) /
                                static_cast<double>(snap.batches_executed),
                            1)});
  }
  table.Print(std::cout);
  std::printf("\nresults %s the serial baseline\n",
              all_identical ? "bit-identical to" : "DIVERGE from");
  return all_identical ? 0 : 1;
}
