// fxdistctl — the command-line front end to the fxdist library.
//
//   fxdistctl report      --fields 8,8,8 --devices 32 [--methods a,b,...]
//   fxdistctl layout      --fields 2,8 --devices 4 --method fx-basic
//   fxdistctl search-plan --fields 4,4,4,4 --devices 256
//   fxdistctl search-gdm  --fields 4,4 --devices 16 [--max-mult 63]
//   fxdistctl advise-bits --probs 0.9,0.5,0.2 --bits 12 [--devices 64]
//   fxdistctl queueing    --fields 8,8,8 --devices 16 --method fx-iu1
//                         --rate 1.0 [--queries 2000] [--spec-prob 0.5]
//   fxdistctl help
//
// Every subcommand prints a table; exit code 0 on success.  A flag the
// subcommand does not read prints the usage and exits 2.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/advisor.h"
#include "dist/coordinator.h"
#include "analysis/balance.h"
#include "analysis/bit_allocation.h"
#include "analysis/gdm_search.h"
#include "analysis/plan_search.h"
#include "analysis/report.h"
#include "analysis/scheme_search.h"
#include "core/fx.h"
#include "core/registry.h"
#include "net/backend_spec.h"
#include "net/event_shard_server.h"
#include "net/loadgen.h"
#include "sim/composite_backend.h"
#include "sim/migration.h"
#include "sim/packed_backend.h"
#include "sim/persistence.h"
#include "sim/parallel_file.h"
#include "sim/queueing.h"
#include "util/bitops.h"
#include "util/table_printer.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"
#include "workload/trace.h"

using namespace fxdist;  // NOLINT(build/namespaces)

namespace {

using Flags = std::map<std::string, std::string>;

int Usage() {
  std::cerr
      << "usage: fxdistctl <subcommand> [--flag value ...]\n"
         "subcommands:\n"
         "  report       method comparison on a file system\n"
         "               --fields F1,F2,... --devices M [--methods ...]\n"
         "  layout       bucket-by-bucket device table (small spaces)\n"
         "               --fields ... --devices M --method SPEC\n"
         "  search-plan  search FX transformation assignments\n"
         "               --fields ... --devices M\n"
         "  search-gdm   search GDM multipliers\n"
         "               --fields ... --devices M [--max-mult N]\n"
         "  advise-bits  directory sizing from query statistics\n"
         "               --probs p1,p2,... --bits B [--devices M]\n"
         "  queueing     response time under Poisson load\n"
         "               --fields ... --devices M --method SPEC --rate QPS\n"
         "               [--queries N] [--spec-prob P]\n"
         "  recommend    rank methods for a file system and workload\n"
         "               --fields ... --devices M [--spec-prob P]\n"
         "  shard-serve  serve a backend over the shard wire protocol\n"
         "               --fields ... --devices M [--method SPEC]\n"
         "               [--backend flat|paged|dynamic|replicated]\n"
         "               [--placement mirrored|chained] [--pagesize P]\n"
         "               [--port P] [--seed S] [--workers N] [--max-conns N]\n"
         "               (epoll server: thousands of connections on a\n"
         "                small worker pool, explicit backpressure)\n"
         "  bulkload     distributed record build across shard servers\n"
         "               --workers host:port,... | --local N\n"
         "               --fields ... --devices M --records N [--seed S]\n"
         "               [--method SPEC] [--task-records N] [--lease-ms L]\n"
         "  sweep        distributed fig-1 optimality sweep (kAnalyzeRange)\n"
         "               --workers host:port,... | --local N\n"
         "               (--local needs --fields ... --devices M\n"
         "                [--method SPEC]) [--task-buckets N] [--lease-ms L]\n"
         "  gen-trace    synthesize a reproducible workload trace\n"
         "               --schema name:type:size,... --out FILE\n"
         "               [--records N] [--queries N] [--spec-prob P]\n"
         "               [--seed S]\n"
         "  replay       run a trace against a parallel file\n"
         "               --schema ... --trace FILE --devices M\n"
         "               [--method SPEC]\n"
         "  build        build and save a seeded parallel file\n"
         "               --schema name:type:size,... --devices M --out SAVED\n"
         "               [--method SPEC] [--records N] [--seed S]\n"
         "  pack         convert a saved backend to a packed file\n"
         "               --in SAVED --out PACKED [--device D]\n"
         "  reshard      migrate a saved backend to a new device count\n"
         "               --in SAVED --devices M [--out SAVED]\n"
         "               [--scheme SPEC]  (default: searched vs FX)\n"
         "               [--chunk BUCKETS] [--attempts N]\n"
         "  help         this text\n";
  return 2;
}

Result<Schema> ParseSchema(const std::string& schema_string) {
  // "name:type:size,name:type:size,..."
  std::vector<FieldDecl> fields;
  std::stringstream ss(schema_string);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const std::size_t c1 = token.find(':');
    const std::size_t c2 = token.rfind(':');
    if (c1 == std::string::npos || c2 == c1) {
      return Status::InvalidArgument("bad schema field: " + token);
    }
    FieldDecl decl;
    decl.name = token.substr(0, c1);
    const std::string type = token.substr(c1 + 1, c2 - c1 - 1);
    if (type == "int64") {
      decl.type = ValueType::kInt64;
    } else if (type == "double") {
      decl.type = ValueType::kDouble;
    } else if (type == "string") {
      decl.type = ValueType::kString;
    } else {
      return Status::InvalidArgument("unknown type: " + type);
    }
    decl.directory_size =
        std::strtoull(token.c_str() + c2 + 1, nullptr, 10);
    fields.push_back(std::move(decl));
  }
  return Schema::Create(std::move(fields));
}

Flags ParseFlags(int argc, char** argv, int start) {
  Flags flags;
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    // A flag whose next token is another --flag (or absent) is a bare
    // boolean; presence is its value.
    if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      flags[key] = "";
    } else {
      flags[key] = argv[++i];
    }
  }
  return flags;
}

std::vector<std::uint64_t> ParseU64List(const std::string& list) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    out.push_back(std::strtoull(token.c_str(), nullptr, 10));
  }
  return out;
}

std::vector<double> ParseDoubleList(const std::string& list) {
  std::vector<double> out;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    out.push_back(std::strtod(token.c_str(), nullptr));
  }
  return out;
}

std::vector<std::string> ParseStringList(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(token);
  return out;
}

Result<FieldSpec> SpecFromFlags(const Flags& flags) {
  auto fields_it = flags.find("fields");
  auto devices_it = flags.find("devices");
  if (fields_it == flags.end() || devices_it == flags.end()) {
    return Status::InvalidArgument("--fields and --devices are required");
  }
  return FieldSpec::Create(
      ParseU64List(fields_it->second),
      std::strtoull(devices_it->second.c_str(), nullptr, 10));
}

int CmdReport(const Flags& flags) {
  auto spec = SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  std::vector<std::string> methods = {"fx-basic", "fx-iu1", "fx-iu2",
                                      "modulo",   "gdm1",   "gdm2",
                                      "gdm3",     "random", "spanning"};
  if (auto it = flags.find("methods"); it != flags.end()) {
    methods = ParseStringList(it->second);
  }
  auto reports = CompareMethods(*spec, methods);
  if (!reports.ok()) {
    std::cerr << reports.status().ToString() << "\n";
    return 1;
  }
  std::cout << "File system: " << spec->ToString() << "\n";
  TablePrinter table({"method", "optimal classes %", "avg largest (k=2)",
                      "addr cycles"});
  for (const MethodReport& r : *reports) {
    table.AddRow({r.method_name,
                  TablePrinter::Cell(100.0 * r.optimal_class_fraction, 1),
                  r.avg_largest_by_k.empty()
                      ? "-"
                      : TablePrinter::Cell(r.avg_largest_by_k[0], 2),
                  TablePrinter::Cell(r.address_cycles)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdLayout(const Flags& flags) {
  auto spec = SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  const auto method_it = flags.find("method");
  const std::string method_spec =
      method_it == flags.end() ? "fx-iu2" : method_it->second;
  auto method = MakeDistribution(*spec, method_spec);
  if (!method.ok()) {
    std::cerr << method.status().ToString() << "\n";
    return 1;
  }
  if (spec->TotalBuckets() > 4096) {
    std::cerr << "bucket space too large to print ("
              << spec->TotalBuckets() << ")\n";
    return 1;
  }
  std::cout << "Layout of " << (*method)->name() << " on "
            << spec->ToString() << "\n";
  ForEachBucket(*spec, [&](const BucketId& b) {
    std::cout << "  " << BucketToString(*spec, b) << " -> "
              << (*method)->DeviceOf(b) << "\n";
    return true;
  });
  return 0;
}

int CmdSearchPlan(const Flags& flags) {
  auto spec = SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  auto result = SearchTransformPlan(*spec);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << "File system:    " << spec->ToString() << "\n"
            << "Theory plan:    "
            << TransformPlan::Plan(*spec).ToString() << "  ("
            << 100.0 * result->theory_fraction << "% optimal classes)\n"
            << "Searched plan:  " << result->plan.ToString() << "  ("
            << 100.0 * result->optimal_mask_fraction
            << "% optimal classes)\n"
            << "Plans tried:    " << result->plans_evaluated << "\n";
  return 0;
}

int CmdSearchGdm(const Flags& flags) {
  auto spec = SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  GdmSearchOptions options;
  if (auto it = flags.find("max-mult"); it != flags.end()) {
    options.max_multiplier = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  auto result = SearchGdmMultipliers(*spec, options);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << "File system: " << spec->ToString() << "\nMultipliers:";
  for (std::uint64_t m : result->multipliers) std::cout << ' ' << m;
  std::cout << "\nOptimal classes: "
            << 100.0 * result->optimal_mask_fraction
            << "%\nMean overload:   " << result->mean_overload
            << "\nCandidates:      " << result->candidates_evaluated << "\n";
  return 0;
}

int CmdAdviseBits(const Flags& flags) {
  auto probs_it = flags.find("probs");
  auto bits_it = flags.find("bits");
  if (probs_it == flags.end() || bits_it == flags.end()) {
    std::cerr << "--probs and --bits are required\n";
    return 1;
  }
  const auto probs = ParseDoubleList(probs_it->second);
  const auto bits =
      static_cast<unsigned>(std::strtoul(bits_it->second.c_str(),
                                         nullptr, 10));
  auto alloc = AllocateFieldBits(probs, bits);
  if (!alloc.ok()) {
    std::cerr << alloc.status().ToString() << "\n";
    return 1;
  }
  TablePrinter table({"field", "P(specified)", "bits", "directory size"});
  for (std::size_t i = 0; i < probs.size(); ++i) {
    table.AddRow({std::to_string(i), TablePrinter::Cell(probs[i], 2),
                  std::to_string(alloc->bits[i]),
                  TablePrinter::Cell(std::uint64_t{1} << alloc->bits[i])});
  }
  table.Print(std::cout);
  std::cout << "E[|R(q)|] = " << alloc->expected_qualified << "\n";
  if (auto it = flags.find("devices"); it != flags.end()) {
    const std::uint64_t m = std::strtoull(it->second.c_str(), nullptr, 10);
    auto spec = FieldSpec::Create(alloc->FieldSizes(), m);
    if (spec.ok()) {
      std::cout << "FX plan for M=" << m << ": "
                << TransformPlan::Plan(*spec).ToString() << "\n";
    }
  }
  return 0;
}

int CmdQueueing(const Flags& flags) {
  auto spec = SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  const auto method_it = flags.find("method");
  auto method = MakeDistribution(
      *spec, method_it == flags.end() ? "fx-iu2" : method_it->second);
  if (!method.ok()) {
    std::cerr << method.status().ToString() << "\n";
    return 1;
  }
  QueueingConfig config;
  if (auto it = flags.find("rate"); it != flags.end()) {
    config.arrival_rate_qps = std::strtod(it->second.c_str(), nullptr);
  }
  if (auto it = flags.find("queries"); it != flags.end()) {
    config.num_queries = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  if (auto it = flags.find("spec-prob"); it != flags.end()) {
    config.specified_probability =
        std::strtod(it->second.c_str(), nullptr);
  }
  auto result = SimulateQueueing(**method, config);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << (*method)->name() << " on " << spec->ToString() << " at "
            << config.arrival_rate_qps << " qps:\n"
            << "  mean response  " << result->mean_response_ms << " ms\n"
            << "  p50 / p95      " << result->p50_response_ms << " / "
            << result->p95_response_ms << " ms\n"
            << "  throughput     " << result->throughput_qps << " qps\n"
            << "  device util    mean "
            << result->mean_device_utilization << ", max "
            << result->max_device_utilization << "\n";
  return 0;
}

int CmdRecommend(const Flags& flags) {
  auto spec = SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  double p = 0.5;
  if (auto it = flags.find("spec-prob"); it != flags.end()) {
    p = std::strtod(it->second.c_str(), nullptr);
  }
  auto rec = RecommendMethod(*spec, p);
  if (!rec.ok()) {
    std::cerr << rec.status().ToString() << "\n";
    return 1;
  }
  std::cout << "File system: " << spec->ToString()
            << "  P(field specified) = " << p << "\n";
  TablePrinter table({"rank", "method", "E[largest response]",
                      "P(optimal)", "addr cycles"});
  int rank = 1;
  for (const CandidateEvaluation& eval : rec->ranking) {
    table.AddRow({std::to_string(rank++), eval.method_spec,
                  TablePrinter::Cell(
                      eval.cost.expected_largest_response, 2),
                  TablePrinter::Cell(eval.cost.probability_optimal, 3),
                  TablePrinter::Cell(eval.address_cycles)});
  }
  table.Print(std::cout);
  std::cout << "Recommended: " << rec->recommended << "\n";
  return 0;
}

int CmdShardServe(const Flags& flags) {
  auto fields_it = flags.find("fields");
  auto devices_it = flags.find("devices");
  if (fields_it == flags.end() || devices_it == flags.end()) {
    std::cerr << "--fields and --devices are required\n";
    return 1;
  }
  auto get_u64 = [&](const char* key, std::uint64_t fallback) {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  };
  std::vector<FieldDecl> decls;
  for (std::uint64_t size : ParseU64List(fields_it->second)) {
    decls.push_back({"f" + std::to_string(decls.size()),
                     ValueType::kInt64, size});
  }
  auto schema = Schema::Create(std::move(decls));
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }
  const auto method_it = flags.find("method");
  const std::string method_spec =
      method_it == flags.end() ? "fx-iu2" : method_it->second;
  const std::uint64_t seed = get_u64("seed", 42);
  const std::uint64_t num_devices =
      std::strtoull(devices_it->second.c_str(), nullptr, 10);
  const auto backend_it = flags.find("backend");
  const std::string backend_kind =
      backend_it == flags.end() ? "flat" : backend_it->second;
  std::unique_ptr<StorageBackend> file;
  if (backend_kind == "replicated") {
    ReplicaPlacement placement = ReplicaPlacement::kMirrored;
    if (auto it = flags.find("placement"); it != flags.end()) {
      if (it->second == "chained") {
        placement = ReplicaPlacement::kChained;
      } else if (it->second != "mirrored") {
        std::cerr << "unknown --placement " << it->second
                  << " (expected mirrored or chained)\n";
        return 1;
      }
    }
    auto created = MakeReplicatedFlat(*schema, num_devices, method_spec,
                                      placement, seed);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    file = *std::move(created);
  } else {
    ChildBackendOptions child_options;
    if (auto it = flags.find("pagesize"); it != flags.end()) {
      const std::uint64_t page =
          std::strtoull(it->second.c_str(), nullptr, 10);
      child_options.page_size = page;
      child_options.page_capacity = page;
    }
    auto created = MakeChildBackend(backend_kind, *schema, num_devices,
                                    method_spec, seed, child_options);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    file = *std::move(created);
  }
  EventShardServer::Options server_options;
  server_options.port = static_cast<std::uint16_t>(get_u64("port", 0));
  server_options.workers = static_cast<unsigned>(get_u64("workers", 4));
  server_options.max_connections = get_u64("max-conns", 4096);
  TryRaiseNoFileLimit(server_options.max_connections + 256);
  auto server = EventShardServer::Start(*file, server_options);
  if (!server.ok()) {
    std::cerr << server.status().ToString() << "\n";
    return 1;
  }
  // Scripts scrape this line for the (possibly ephemeral) port, so it
  // must be flushed before the blocking Wait().
  std::cout << "serving " << file->backend_name() << " [" << backend_kind
            << "] on port " << (*server)->port() << " (event loop, "
            << server_options.workers << " workers, cap "
            << server_options.max_connections << " conns)" << std::endl;
  (*server)->Wait();
  return 0;
}

/// The worker fleet behind `bulkload` / `sweep`: remote servers from
/// --workers host:port,..., or an in-process --local N fleet (N TCP
/// shard servers on ephemeral ports — self-contained demos and smoke
/// tests; all placement flags must then be given so every server is
/// built from the same blueprint).
struct DistFleet {
  std::vector<std::unique_ptr<StorageBackend>> local_backends;
  std::vector<std::unique_ptr<EventShardServer>> local_servers;
  std::vector<std::unique_ptr<DistWorker>> workers;
};

Result<DistFleet> ConnectFleet(const Flags& flags) {
  DistFleet fleet;
  RemoteBackend::Options remote_options;
  if (auto it = flags.find("workers"); it != flags.end()) {
    for (const std::string& address : ParseStringList(it->second)) {
      auto backend = RemoteBackend::ConnectTcp(address, remote_options);
      if (!backend.ok()) {
        return Status::Unavailable("worker '" + address +
                                   "': " + backend.status().message());
      }
      fleet.workers.push_back(
          std::make_unique<RemoteDistWorker>(address, *std::move(backend)));
    }
    return fleet;
  }
  auto local_it = flags.find("local");
  if (local_it == flags.end()) {
    return Status::InvalidArgument(
        "--workers host:port,... or --local N is required");
  }
  const std::uint64_t n =
      std::strtoull(local_it->second.c_str(), nullptr, 10);
  if (n == 0) return Status::InvalidArgument("--local needs N >= 1");
  auto fields_it = flags.find("fields");
  auto devices_it = flags.find("devices");
  if (fields_it == flags.end() || devices_it == flags.end()) {
    return Status::InvalidArgument("--local needs --fields and --devices");
  }
  std::vector<FieldDecl> decls;
  for (std::uint64_t size : ParseU64List(fields_it->second)) {
    decls.push_back(
        {"f" + std::to_string(decls.size()), ValueType::kInt64, size});
  }
  auto schema = Schema::Create(std::move(decls));
  FXDIST_RETURN_NOT_OK(schema.status());
  const auto method_it = flags.find("method");
  const std::string method_spec =
      method_it == flags.end() ? "fx-iu2" : method_it->second;
  const std::uint64_t num_devices =
      std::strtoull(devices_it->second.c_str(), nullptr, 10);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto backend =
        MakeChildBackend("flat", *schema, num_devices, method_spec, 42, {});
    FXDIST_RETURN_NOT_OK(backend.status());
    auto server = EventShardServer::Start(**backend);
    FXDIST_RETURN_NOT_OK(server.status());
    const std::string address =
        "127.0.0.1:" + std::to_string((*server)->port());
    auto remote = RemoteBackend::ConnectTcp(address, remote_options);
    FXDIST_RETURN_NOT_OK(remote.status());
    fleet.workers.push_back(std::make_unique<RemoteDistWorker>(
        "local-" + std::to_string(i), *std::move(remote)));
    fleet.local_backends.push_back(*std::move(backend));
    fleet.local_servers.push_back(*std::move(server));
  }
  return fleet;
}

CoordinatorOptions CoordinatorOptionsFromFlags(const Flags& flags) {
  CoordinatorOptions options;
  auto get_u64 = [&](const char* key, std::uint64_t fallback) {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  };
  options.records_per_task = get_u64("task-records", options.records_per_task);
  options.buckets_per_task = get_u64("task-buckets", options.buckets_per_task);
  options.lease_ms = static_cast<int>(
      get_u64("lease-ms", static_cast<std::uint64_t>(options.lease_ms)));
  return options;
}

int CmdBulkLoad(const Flags& flags) {
  auto fields_it = flags.find("fields");
  auto records_it = flags.find("records");
  if (fields_it == flags.end() || records_it == flags.end()) {
    std::cerr << "--fields and --records are required\n";
    return 1;
  }
  auto fleet = ConnectFleet(flags);
  if (!fleet.ok()) {
    std::cerr << fleet.status().ToString() << "\n";
    return 1;
  }
  std::vector<FieldDecl> decls;
  for (std::uint64_t size : ParseU64List(fields_it->second)) {
    decls.push_back(
        {"f" + std::to_string(decls.size()), ValueType::kInt64, size});
  }
  auto schema = Schema::Create(std::move(decls));
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }
  IngestSpec spec{*std::move(schema), {}, 42, 0};
  spec.total_records = std::strtoull(records_it->second.c_str(), nullptr, 10);
  if (auto it = flags.find("seed"); it != flags.end()) {
    spec.seed = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  const std::size_t num_workers = fleet->workers.size();
  auto coordinator = Coordinator::Create(std::move(fleet->workers),
                                         CoordinatorOptionsFromFlags(flags));
  if (!coordinator.ok()) {
    std::cerr << coordinator.status().ToString() << "\n";
    return 1;
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto report = (*coordinator)->BulkLoad(spec);
  const auto t1 = std::chrono::steady_clock::now();
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::uint64_t stored = 0;
  std::cout << "bulkload: " << report->records_sent << " records, "
            << report->tasks << " tasks over " << num_workers
            << " workers in " << ms << " ms\n"
            << "  retries          " << report->retries << "\n";
  for (const auto& [name, count] : report->records_per_worker) {
    std::cout << "  " << name << "  " << count << " records\n";
    stored += count;
  }
  for (const std::string& name : report->fenced_workers) {
    std::cout << "  " << name << "  FENCED (excluded from deployment)\n";
  }
  std::cout << "  stored           " << stored << "\n";
  return stored == report->records_sent ? 0 : 1;
}

int CmdSweep(const Flags& flags) {
  auto fleet = ConnectFleet(flags);
  if (!fleet.ok()) {
    std::cerr << fleet.status().ToString() << "\n";
    return 1;
  }
  const std::size_t num_workers = fleet->workers.size();
  auto coordinator = Coordinator::Create(std::move(fleet->workers),
                                         CoordinatorOptionsFromFlags(flags));
  if (!coordinator.ok()) {
    std::cerr << coordinator.status().ToString() << "\n";
    return 1;
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto report = (*coordinator)->Sweep();
  const auto t1 = std::chrono::steady_clock::now();
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::cout << "sweep: " << report->masks.size() << " masks, "
            << report->tasks << " range tasks over " << num_workers
            << " workers in " << ms << " ms\n"
            << "  strict-optimal probability  " << report->probability.probability
            << " (" << report->probability.optimal_masks << "/"
            << report->probability.total_masks << " masks)\n"
            << "  worst excess over bound     " << report->score.worst_excess
            << "\n"
            << "  retries " << report->retries << "\n";
  for (const std::string& name : report->fenced_workers) {
    std::cout << "  " << name << "  FENCED\n";
  }
  return 0;
}

int CmdGenTrace(const Flags& flags) {
  auto schema_it = flags.find("schema");
  auto out_it = flags.find("out");
  if (schema_it == flags.end() || out_it == flags.end()) {
    std::cerr << "--schema and --out are required\n";
    return 1;
  }
  auto schema = ParseSchema(schema_it->second);
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }
  auto get_u64 = [&](const char* key, std::uint64_t fallback) {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  };
  auto get_double = [&](const char* key, double fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
  };
  const std::uint64_t seed = get_u64("seed", 42);
  WorkloadTrace trace;
  trace.num_fields = schema->num_fields();
  auto gen = RecordGenerator::Uniform(*schema, seed);
  if (!gen.ok()) {
    std::cerr << gen.status().ToString() << "\n";
    return 1;
  }
  trace.records = gen->Take(get_u64("records", 1000));
  auto qgen = QueryGenerator::Create(&trace.records,
                                     get_double("spec-prob", 0.5), seed);
  if (!qgen.ok()) {
    std::cerr << qgen.status().ToString() << "\n";
    return 1;
  }
  const std::uint64_t num_queries = get_u64("queries", 100);
  for (std::uint64_t i = 0; i < num_queries; ++i) {
    trace.queries.push_back(qgen->Next());
  }
  if (auto st = SaveTrace(trace, out_it->second); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << trace.records.size() << " records and "
            << trace.queries.size() << " queries to " << out_it->second
            << "\n";
  return 0;
}

int CmdReplay(const Flags& flags) {
  auto schema_it = flags.find("schema");
  auto trace_it = flags.find("trace");
  auto devices_it = flags.find("devices");
  if (schema_it == flags.end() || trace_it == flags.end() ||
      devices_it == flags.end()) {
    std::cerr << "--schema, --trace and --devices are required\n";
    return 1;
  }
  auto schema = ParseSchema(schema_it->second);
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }
  auto trace = LoadTrace(trace_it->second);
  if (!trace.ok()) {
    std::cerr << trace.status().ToString() << "\n";
    return 1;
  }
  if (trace->num_fields != schema->num_fields()) {
    std::cerr << "trace arity does not match the schema\n";
    return 1;
  }
  const auto method_it = flags.find("method");
  auto file = ParallelFile::Create(
      *schema, std::strtoull(devices_it->second.c_str(), nullptr, 10),
      method_it == flags.end() ? "fx-iu2" : method_it->second);
  if (!file.ok()) {
    std::cerr << file.status().ToString() << "\n";
    return 1;
  }
  for (const Record& r : trace->records) {
    if (auto st = file->Insert(r); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  double largest_sum = 0.0, speedup_sum = 0.0;
  std::uint64_t matched = 0;
  int optimal = 0;
  for (const ValueQuery& q : trace->queries) {
    auto result = file->Execute(q);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    largest_sum += static_cast<double>(result->stats.largest_response);
    speedup_sum += result->stats.disk_timing.speedup;
    matched += result->stats.records_matched;
    if (result->stats.strict_optimal) ++optimal;
  }
  const BalanceReport balance =
      AnalyzeBalance(file->RecordCountsPerDevice());
  const auto q = static_cast<double>(trace->queries.size());
  std::cout << file->method().name() << " on " << file->spec().ToString()
            << ":\n"
            << "  records             " << file->num_records() << "\n"
            << "  storage max/mean    " << balance.peak_over_mean << "\n"
            << "  queries             " << trace->queries.size() << "\n"
            << "  matches             " << matched << "\n"
            << "  avg largest resp.   " << largest_sum / q << "\n"
            << "  avg disk speedup    " << speedup_sum / q << "\n"
            << "  strict optimal      " << optimal << "/"
            << trace->queries.size() << "\n";
  return 0;
}

int CmdBuild(const Flags& flags) {
  auto schema_it = flags.find("schema");
  auto devices_it = flags.find("devices");
  auto out_it = flags.find("out");
  if (schema_it == flags.end() || devices_it == flags.end() ||
      out_it == flags.end()) {
    std::cerr << "--schema, --devices and --out are required\n";
    return 1;
  }
  auto schema = ParseSchema(schema_it->second);
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }
  auto get_u64 = [&](const char* key, std::uint64_t fallback) {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  };
  const std::uint64_t devices =
      std::strtoull(devices_it->second.c_str(), nullptr, 10);
  const std::uint64_t seed = get_u64("seed", 42);
  const std::string method =
      flags.count("method") ? flags.at("method") : "fx-iu2";
  auto file = ParallelFile::Create(*schema, devices, method, seed);
  if (!file.ok()) {
    std::cerr << file.status().ToString() << "\n";
    return 1;
  }
  auto gen = RecordGenerator::Uniform(*schema, seed);
  if (!gen.ok()) {
    std::cerr << gen.status().ToString() << "\n";
    return 1;
  }
  const std::uint64_t num_records = get_u64("records", 10000);
  for (Record& record : gen->Take(num_records)) {
    if (auto st = file->Insert(std::move(record)); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  if (auto st = SaveBackend(*file, out_it->second); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "built " << file->num_records() << " records on M="
            << devices << " (" << method << ") -> " << out_it->second
            << "\n";
  return 0;
}

int CmdPack(const Flags& flags) {
  auto in_it = flags.find("in");
  auto out_it = flags.find("out");
  if (in_it == flags.end() || out_it == flags.end()) {
    std::cerr << "--in and --out are required\n";
    return 1;
  }
  auto source = LoadBackend(in_it->second);
  if (!source.ok()) {
    std::cerr << source.status().ToString() << "\n";
    return 1;
  }
  std::optional<std::uint64_t> only_device;
  if (auto it = flags.find("device"); it != flags.end()) {
    only_device = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  auto written = PackBackend(**source, out_it->second, {}, only_device);
  if (!written.ok()) {
    std::cerr << written.status().ToString() << "\n";
    return 1;
  }
  // Reopen to report the validated result (and prove the file loads).
  auto packed = PackedBackend::Open(out_it->second);
  if (!packed.ok()) {
    std::cerr << "packed file fails to reopen: "
              << packed.status().ToString() << "\n";
    return 1;
  }
  const std::uint64_t source_bytes = (*source)->ApproxMemoryBytes();
  const std::uint64_t file_bytes = (*packed)->file_size();
  std::cout << "packed " << *written << " records from "
            << (*source)->backend_name() << " backend\n"
            << "  source resident : " << source_bytes << " bytes\n"
            << "  packed file     : " << file_bytes << " bytes\n";
  if (*written > 0 && file_bytes > 0) {
    std::cout << "  bytes/record    : "
              << TablePrinter::Cell(
                     static_cast<double>(file_bytes) /
                         static_cast<double>(*written), 2)
              << "\n"
              << "  compression     : "
              << TablePrinter::Cell(
                     static_cast<double>(source_bytes) /
                         static_cast<double>(file_bytes), 2)
              << "x vs resident\n";
  }
  return 0;
}

int CmdReshard(const Flags& flags) {
  auto in_it = flags.find("in");
  if (in_it == flags.end()) {
    std::cerr << "--in is required\n";
    return 1;
  }
  const std::string out_path =
      flags.count("out") ? flags.at("out") : in_it->second;

  auto loaded = LoadBackend(in_it->second);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }

  MigrationController::Options copts;
  if (auto it = flags.find("chunk"); it != flags.end()) {
    copts.chunk_buckets = std::strtoull(it->second.c_str(), nullptr, 10);
    if (copts.chunk_buckets == 0) {
      std::cerr << "--chunk must be positive\n";
      return 1;
    }
  }
  if (auto it = flags.find("attempts"); it != flags.end()) {
    copts.max_attempts = std::atoi(it->second.c_str());
    if (copts.max_attempts <= 0) {
      std::cerr << "--attempts must be positive\n";
      return 1;
    }
  }

  // A v4 file loads as a MigratingBackend with the saved migration
  // already resumed to its cursor; finish that one instead of starting
  // another (--devices/--scheme would describe a different target than
  // the one mid-copy).
  if (auto* resumed = dynamic_cast<MigratingBackend*>(loaded->get());
      resumed != nullptr && resumed->IsMigrating()) {
    loaded->release();
    std::unique_ptr<MigratingBackend> wrapper(resumed);
    const TopologyVersionInfo from = wrapper->Topology();
    const TopologyVersionInfo to = wrapper->PendingTopology();
    std::cout << "resuming saved migration at bucket cursor "
              << wrapper->CopyCursor() << "\n";
    while (!wrapper->CopyDone()) {
      if (auto copied = wrapper->CopyChunk(copts.chunk_buckets);
          !copied.ok()) {
        std::cerr << copied.status().ToString() << "\n";
        return 1;
      }
    }
    if (auto st = wrapper->Cutover(); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    if (auto st = SaveBackend(*wrapper, out_path); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "resharded " << wrapper->num_records() << " records: M="
              << from.num_devices << " (" << from.scheme << ") -> M="
              << to.num_devices << " (" << to.scheme << "), topology v"
              << wrapper->Topology().version << " -> " << out_path << "\n";
    return 0;
  }

  auto devices_it = flags.find("devices");
  if (devices_it == flags.end()) {
    std::cerr << "--devices is required\n";
    return 1;
  }
  const std::uint64_t new_devices =
      std::strtoull(devices_it->second.c_str(), nullptr, 10);
  if (new_devices == 0) {
    std::cerr << "--devices must be positive\n";
    return 1;
  }

  auto wrapped = MigratingBackend::Create(std::move(*loaded));
  if (!wrapped.ok()) {
    std::cerr << wrapped.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<MigratingBackend> wrapper = std::move(*wrapped);
  const TopologyVersionInfo from = wrapper->Topology();

  std::string scheme;
  if (auto it = flags.find("scheme"); it != flags.end()) {
    scheme = it->second;
  } else {
    // No explicit scheme: let the search hook decide whether FX is
    // still optimal at the new M or a searched table beats it.
    auto target_spec =
        FieldSpec::Create(wrapper->spec().field_sizes(), new_devices);
    if (!target_spec.ok()) {
      std::cerr << target_spec.status().ToString() << "\n";
      return 1;
    }
    auto chosen = ChooseReshardScheme(*target_spec);
    if (chosen.ok()) {
      scheme = *chosen;
    } else {
      // Bucket space too large for the exhaustive sweep: keep FX.
      std::cout << "scheme search skipped (" << chosen.status().message()
                << "); staying with fx\n";
      scheme = "fx";
    }
  }

  MigrationController controller(*wrapper, copts);
  const Status st = controller.Run([&] {
    return BuildRetargetedEmptyBackend(*wrapper, new_devices, scheme);
  });
  if (!st.ok()) {
    std::cerr << "migration failed after " << controller.attempts()
              << " attempt(s): " << st.ToString() << "\n";
    return 1;
  }
  if (auto save = SaveBackend(*wrapper, out_path); !save.ok()) {
    std::cerr << save.ToString() << "\n";
    return 1;
  }
  const TopologyVersionInfo to = wrapper->Topology();
  std::cout << "resharded " << wrapper->num_records() << " records: M="
            << from.num_devices << " (" << from.scheme << ") -> M="
            << to.num_devices << " (" << to.scheme << ")\n"
            << "  topology        v" << from.version << " -> v" << to.version
            << "\n"
            << "  attempts        " << controller.attempts() << "\n"
            << "  saved           " << out_path << "\n";
  return 0;
}

/// A subcommand and every flag it reads; main rejects any other flag, so
/// a misspelled or removed flag fails loudly instead of running with
/// defaults.
struct Subcommand {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;
};

const std::vector<Subcommand>& Subcommands() {
  // bulkload and sweep also accept every flag ConnectFleet and
  // CoordinatorOptionsFromFlags read.
  static const std::vector<Subcommand> kSubcommands = {
      {"report", CmdReport, {"fields", "devices", "methods"}},
      {"layout", CmdLayout, {"fields", "devices", "method"}},
      {"search-plan", CmdSearchPlan, {"fields", "devices"}},
      {"search-gdm", CmdSearchGdm, {"fields", "devices", "max-mult"}},
      {"advise-bits", CmdAdviseBits, {"probs", "bits", "devices"}},
      {"queueing",
       CmdQueueing,
       {"fields", "devices", "method", "rate", "queries", "spec-prob"}},
      {"recommend", CmdRecommend, {"fields", "devices", "spec-prob"}},
      {"shard-serve",
       CmdShardServe,
       {"fields", "devices", "method", "seed", "backend", "placement",
        "pagesize", "port", "workers", "max-conns"}},
      {"bulkload",
       CmdBulkLoad,
       {"records", "seed", "workers", "local", "fields", "devices", "method",
        "task-records", "task-buckets", "lease-ms"}},
      {"sweep",
       CmdSweep,
       {"workers", "local", "fields", "devices", "method", "task-records",
        "task-buckets", "lease-ms"}},
      {"gen-trace",
       CmdGenTrace,
       {"schema", "out", "records", "queries", "spec-prob", "seed"}},
      {"replay", CmdReplay, {"schema", "trace", "devices", "method"}},
      {"build",
       CmdBuild,
       {"schema", "devices", "out", "method", "records", "seed"}},
      {"pack", CmdPack, {"in", "out", "device"}},
      {"reshard",
       CmdReshard,
       {"in", "devices", "out", "scheme", "chunk", "attempts"}},
  };
  return kSubcommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    Usage();
    return 0;
  }
  const auto& subcommands = Subcommands();
  const auto sub = std::find_if(
      subcommands.begin(), subcommands.end(),
      [&cmd](const Subcommand& candidate) { return cmd == candidate.name; });
  if (sub == subcommands.end()) {
    std::cerr << "unknown subcommand: " << cmd << "\n";
    return Usage();
  }
  const Flags flags = ParseFlags(argc, argv, 2);
  for (const auto& entry : flags) {
    if (std::find(sub->flags.begin(), sub->flags.end(), entry.first) ==
        sub->flags.end()) {
      std::cerr << "unknown flag for " << cmd << ": --" << entry.first
                << "\n";
      return Usage();
    }
  }
  return sub->run(flags);
}
