// Backend matrix: the two planes this codebase splits measured head to
// head.
//
// Part A times the placement plane by itself — per-device response
// counting and whole-space device lookup through the virtual
// DistributionMethod path vs the cached DeviceMap (flat table +
// cost-based inverse) — and insists both produce identical answers
// before printing a rate.
//
// Part B runs one Zipf-popular query stream through the QueryEngine over
// each StorageBackend (flat ParallelFile, PagedParallelFile,
// DynamicParallelFile, and a PackedBackend built from the flat file)
// holding the same records, with every batched result checked
// bit-for-bit against that backend's own serial Execute.  The packed
// row's serial results are additionally checked against the flat row's
// (same placement plane, so stats and records must agree exactly), and
// its memory density must beat flat's by at least 5x records/MB.
//
// Exits nonzero on any divergence, so CI can run it as a smoke test
// (`--quick` shrinks the workload to seconds).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/optimality.h"
#include "core/device_map.h"
#include "core/registry.h"
#include "engine/query_engine.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/packed_backend.h"
#include "sim/paged_parallel_file.h"
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
  std::size_t num_queries = 1024;
  std::size_t batch_size = 128;
  std::size_t placement_reps = 200;
  double zipf_theta = 1.1;
  std::uint64_t seed = 42;
  /// --quick shrinks the workload below the point where record storage
  /// dominates the fixed per-bucket directories, so the packed density
  /// gate only applies at full scale.
  bool quick = false;
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Qps(std::size_t queries, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0
                        : static_cast<double>(queries) / (wall_ms / 1e3);
}

// ---------------------------------------------------------------------
// Part A: placement plane.  Virtual DeviceOf per bucket vs the cached
// map, on the sweeps analysis actually runs.
bool PlacementBench(const RunConfig& config) {
  const FieldSpec spec = FieldSpec::Create({16, 16, 16}, 16).value();
  auto method = MakeDistribution(spec, "fx-iu2").value();
  const DeviceMap map(*method);

  std::vector<PartialMatchQuery> queries;
  for (std::uint64_t mask = 1;
       mask < (std::uint64_t{1} << spec.num_fields()); ++mask) {
    queries.push_back(
        PartialMatchQuery::FromUnspecifiedMaskZero(spec, mask).value());
  }

  std::printf("Placement plane: %llu buckets, %zu query classes, "
              "%zu reps\n\n",
              static_cast<unsigned long long>(spec.TotalBuckets()),
              queries.size(), config.placement_reps);
  TablePrinter table(
      {"sweep", "virtual ms", "devicemap ms", "speedup", "identical"});
  bool all_identical = true;

  // Response counting: the inner loop of every optimality sweep.
  std::uint64_t sink_a = 0, sink_b = 0;
  const double virt_start = NowMs();
  for (std::size_t rep = 0; rep < config.placement_reps; ++rep) {
    for (const PartialMatchQuery& q : queries) {
      sink_a += ComputeResponseVector(*method, q).Max();
    }
  }
  const double virt_ms = NowMs() - virt_start;
  const double map_start = NowMs();
  for (std::size_t rep = 0; rep < config.placement_reps; ++rep) {
    for (const PartialMatchQuery& q : queries) {
      sink_b += ComputeResponseVector(map, q).Max();
    }
  }
  const double map_ms = NowMs() - map_start;
  bool identical = sink_a == sink_b;
  all_identical = all_identical && identical;
  table.AddRow({"response vectors", TablePrinter::Cell(virt_ms, 1),
                TablePrinter::Cell(map_ms, 1),
                TablePrinter::Cell(map_ms <= 0.0 ? 0.0 : virt_ms / map_ms,
                                   2),
                identical ? "yes" : "NO"});

  // Whole-space lookup: DeviceOf per bucket vs one batched gather.
  std::vector<std::uint64_t> ids(spec.TotalBuckets());
  for (std::uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::vector<std::uint32_t> devices(ids.size());
  std::uint64_t sum_virtual = 0, sum_map = 0;
  const double lookup_virt_start = NowMs();
  for (std::size_t rep = 0; rep < config.placement_reps; ++rep) {
    ForEachBucket(spec, [&](const BucketId& bucket) {
      sum_virtual += method->DeviceOf(bucket);
      return true;
    });
  }
  const double lookup_virt_ms = NowMs() - lookup_virt_start;
  const double lookup_map_start = NowMs();
  for (std::size_t rep = 0; rep < config.placement_reps; ++rep) {
    map.DeviceOfMany(ids.data(), ids.size(), devices.data());
    for (const std::uint32_t d : devices) sum_map += d;
  }
  const double lookup_map_ms = NowMs() - lookup_map_start;
  identical = sum_virtual == sum_map;
  all_identical = all_identical && identical;
  table.AddRow(
      {"device lookup", TablePrinter::Cell(lookup_virt_ms, 1),
       TablePrinter::Cell(lookup_map_ms, 1),
       TablePrinter::Cell(
           lookup_map_ms <= 0.0 ? 0.0 : lookup_virt_ms / lookup_map_ms, 2),
       identical ? "yes" : "NO"});
  table.Print(std::cout);
  return all_identical;
}

// ---------------------------------------------------------------------
// Part B: storage plane.  The same engine, the same stream, one row per
// backend.
std::unique_ptr<StorageBackend> MakeBackend(const std::string& kind,
                                            const Schema& schema,
                                            const RunConfig& config) {
  if (kind == "flat") {
    return std::make_unique<ParallelFile>(
        ParallelFile::Create(schema, config.num_devices, "fx-iu2",
                             config.seed)
            .value());
  }
  if (kind == "paged") {
    return std::make_unique<PagedParallelFile>(
        PagedParallelFile::Create(schema, config.num_devices, "fx-iu2", 8,
                                  config.seed)
            .value());
  }
  std::vector<DynamicFieldDecl> fields;
  for (unsigned i = 0; i < schema.num_fields(); ++i) {
    fields.push_back({schema.field(i).name, schema.field(i).type});
  }
  // A generous page capacity keeps the grown bucket space within the
  // engine's enumeration budget at full scale (splits still happen: the
  // directories double several times on the way up).
  return std::make_unique<DynamicParallelFile>(
      DynamicParallelFile::Create(std::move(fields), config.num_devices,
                                  64, PlanFamily::kIU2, config.seed)
          .value());
}

bool EngineBench(const RunConfig& config) {
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

  std::printf("\nStorage plane: %zu queries (%zu Zipf %.1f templates), "
              "batches of %zu, M=%llu, %llu records\n\n",
              config.num_queries, config.num_templates, config.zipf_theta,
              config.batch_size,
              static_cast<unsigned long long>(config.num_devices),
              static_cast<unsigned long long>(config.num_records));
  TablePrinter table({"backend", "serial qps", "engine qps", "speedup",
                      "recs/MB", "identical"});
  bool all_identical = true;
  // The flat row's serial results double as the packed row's oracle:
  // both backends share one placement plane, so every stat and every
  // record list must match bit for bit.
  std::vector<QueryResult> flat_serial;
  std::uint64_t flat_memory_bytes = 0;
  std::uint64_t packed_memory_bytes = 0;
  bool packed_identical_to_flat = true;
  for (const std::string kind : {"flat", "paged", "dynamic", "packed"}) {
    std::fprintf(stderr, "[backend_matrix] running %s\n", kind.c_str());
    std::unique_ptr<StorageBackend> backend;
    if (kind == "packed") {
      // Built from a freshly loaded flat file: insert, pack to disk,
      // reopen mapped.  The flat source dies here — only the packed
      // image serves the stream.
      auto source = MakeBackend("flat", schema, config);
      for (const Record& r : records) {
        if (auto st = source->Insert(r); !st.ok()) {
          std::fprintf(stderr, "insert failed on flat source: %s\n",
                       st.ToString().c_str());
          std::abort();
        }
      }
      const std::string pack_path = "/tmp/fxdist-backend-matrix.pack";
      if (auto written = PackBackend(*source, pack_path); !written.ok()) {
        std::fprintf(stderr, "pack failed: %s\n",
                     written.status().ToString().c_str());
        std::abort();
      }
      auto opened = PackedBackend::Open(pack_path);
      if (!opened.ok()) {
        std::fprintf(stderr, "packed open failed: %s\n",
                     opened.status().ToString().c_str());
        std::abort();
      }
      backend = *std::move(opened);
    } else {
      backend = MakeBackend(kind, schema, config);
      for (const Record& r : records) {
        if (auto st = backend->Insert(r); !st.ok()) {
          std::fprintf(stderr, "insert failed on %s: %s\n", kind.c_str(),
                       st.ToString().c_str());
          std::abort();
        }
      }
    }

    // The dynamic backend's grown directories can make |R(q)| large;
    // give the engine headroom so planning is what gets measured, not
    // the admission guard.
    EngineOptions options;
    options.enumeration_budget = std::uint64_t{1} << 27;

    // Untimed warm-up of both paths.
    for (std::size_t i = 0; i < std::min<std::size_t>(64, stream.size());
         ++i) {
      (void)backend->Execute(stream[i]).value();
    }
    {
      QueryEngine warm(*backend, options);
      std::vector<ValueQuery> first(
          stream.begin(),
          stream.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(config.batch_size, stream.size())));
      (void)warm.ExecuteBatch(first).value();
    }

    std::vector<QueryResult> serial;
    serial.reserve(stream.size());
    const double serial_start = NowMs();
    for (const ValueQuery& q : stream) {
      serial.push_back(backend->Execute(q).value());
    }
    const double serial_ms = NowMs() - serial_start;

    QueryEngine engine(*backend, options);
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
    if (kind == "flat") {
      flat_serial = std::move(serial);
      flat_memory_bytes = backend->ApproxMemoryBytes();
    } else if (kind == "packed") {
      packed_memory_bytes = backend->ApproxMemoryBytes();
      packed_identical_to_flat = flat_serial.size() == serial.size();
      for (std::size_t i = 0;
           packed_identical_to_flat && i < serial.size(); ++i) {
        packed_identical_to_flat =
            serial[i].records == flat_serial[i].records &&
            serial[i].stats.records_matched ==
                flat_serial[i].stats.records_matched &&
            serial[i].stats.records_examined ==
                flat_serial[i].stats.records_examined &&
            serial[i].stats.qualified_per_device ==
                flat_serial[i].stats.qualified_per_device &&
            serial[i].stats.largest_response ==
                flat_serial[i].stats.largest_response &&
            serial[i].stats.optimal_bound ==
                flat_serial[i].stats.optimal_bound;
      }
      identical = identical && packed_identical_to_flat;
    }
    all_identical = all_identical && identical;
    const std::uint64_t mem = backend->ApproxMemoryBytes();
    const double recs_per_mb =
        mem == 0 ? 0.0
                 : static_cast<double>(config.num_records) /
                       (static_cast<double>(mem) / (1024.0 * 1024.0));
    table.AddRow({kind, TablePrinter::Cell(Qps(stream.size(), serial_ms), 0),
                  TablePrinter::Cell(Qps(stream.size(), engine_ms), 0),
                  TablePrinter::Cell(
                      engine_ms <= 0.0 ? 0.0 : serial_ms / engine_ms, 2),
                  TablePrinter::Cell(recs_per_mb, 0),
                  identical ? "yes" : "NO"});
  }
  table.Print(std::cout);
  if (!packed_identical_to_flat) {
    std::fprintf(stderr,
                 "[backend_matrix] packed serial results DIVERGE from "
                 "flat serial results\n");
  }
  // The density gate the packed format exists for: a mapped packed file
  // must hold at least 5x more records per resident MB than the flat
  // in-memory file (measured after serving the whole stream, so every
  // touched page is charged).
  if (flat_memory_bytes > 0 && packed_memory_bytes > 0) {
    const double density_gain = static_cast<double>(flat_memory_bytes) /
                                static_cast<double>(packed_memory_bytes);
    std::printf("\npacked density: %.1fx more records per resident MB "
                "than flat (%llu vs %llu bytes)\n",
                density_gain,
                static_cast<unsigned long long>(packed_memory_bytes),
                static_cast<unsigned long long>(flat_memory_bytes));
    if (config.quick) {
      std::printf("(density gate skipped under --quick: the shrunken "
                  "record count does not dominate the fixed per-bucket "
                  "directories)\n");
    } else if (density_gain < 5.0) {
      std::fprintf(stderr,
                   "[backend_matrix] packed density gain %.2fx is below "
                   "the 5x gate\n",
                   density_gain);
      return false;
    }
  }
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.num_records = 1500;
      config.num_queries = 192;
      config.batch_size = 48;
      config.placement_reps = 10;
      config.quick = true;
    }
  }
  const bool placement_ok = PlacementBench(config);
  const bool engine_ok = EngineBench(config);
  std::printf("\nresults %s the virtual/serial baselines\n",
              placement_ok && engine_ok ? "bit-identical to"
                                        : "DIVERGE from");
  return placement_ok && engine_ok ? 0 : 1;
}
