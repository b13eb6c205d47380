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
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/advisor.h"
#include "dist/coordinator.h"
#include "engine/query_engine.h"
#include "analysis/balance.h"
#include "analysis/bit_allocation.h"
#include "analysis/gdm_search.h"
#include "analysis/plan_search.h"
#include "analysis/report.h"
#include "analysis/scheme_search.h"
#include "core/fx.h"
#include "core/registry.h"
#include "front/frontend.h"
#include "net/backend_spec.h"
#include "net/event_shard_server.h"
#include "net/loadgen.h"
#include "net/shard_server.h"
#include "sim/composite_backend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/migration.h"
#include "sim/packed_backend.h"
#include "sim/persistence.h"
#include "sim/paged_parallel_file.h"
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
         "  serve-bench  batch engine vs serial baseline + metrics\n"
         "               --fields ... --devices M [--method SPEC]\n"
         "               [--backend flat|paged|dynamic|sharded|replicated\n"
         "                |packed] [--packfile PATH]\n"
         "               [--remote host:port,...]  (RemoteBackend shards)\n"
         "               [--window W] [--wire v1|v2]  (remote pipelining)\n"
         "               [--placement mirrored|chained] [--fail D1,D2,...]\n"
         "               [--pagesize P] [--records N] [--queries N]\n"
         "               [--batch B] [--threads T] [--templates K]\n"
         "               [--zipf THETA] [--spec-prob P] [--domain D]\n"
         "               [--seed S] [--format text|json]\n"
         "               [--frontend] [--cache-mb MB] [--qos on|off]\n"
         "               [--tenants N] [--rate QPS]  (front door)\n"
         "               [--client-id ID]  (tenant id on the wire handshake)\n"
         "               [--clients N] [--waves W] [--client-threads T]\n"
         "               [--event-loop]  (socket fan-in phase)\n"
         "               [--trace-out FILE] [--trace-in FILE]\n"
         "  shard-serve  serve a backend over the shard wire protocol\n"
         "               --fields ... --devices M [--method SPEC]\n"
         "               [--backend flat|paged|dynamic|replicated]\n"
         "               [--placement mirrored|chained] [--pagesize P]\n"
         "               [--port P] [--connections N] [--seed S]\n"
         "               [--event-loop] [--workers N] [--max-conns N]\n"
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
    // boolean, e.g. --frontend; presence is its value.
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

int CmdServeBench(const Flags& flags) {
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
  auto get_double = [&](const char* key, double fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
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
  std::string backend_kind =
      backend_it == flags.end() ? "flat" : backend_it->second;
  std::unique_ptr<StorageBackend> file;
  // Kept non-null for --backend replicated so --fail can flip device
  // state after the load phase (degraded mode is read-only).
  ReplicatedBackend* replicated = nullptr;
  // --backend packed: load a flat file first, then pack + reopen after
  // the insert phase (a packed file is immutable).
  bool pack_after_load = false;
  if (auto remote_it = flags.find("remote"); remote_it != flags.end()) {
    if (backend_it != flags.end()) {
      std::cerr << "--remote picks the backend (sharded over remote "
                   "children); drop --backend\n";
      return 1;
    }
    std::vector<std::string> child_specs;
    for (const std::string& host_port :
         ParseStringList(remote_it->second)) {
      child_specs.push_back("remote:" + host_port);
    }
    ChildBackendOptions child_options;
    // --window 1 keeps the plain blocking connection; --wire v1 forces
    // the classic dialect (the pre-pipelining serial baseline).
    child_options.remote.pipeline_window = get_u64("window", 32);
    if (auto id_it = flags.find("client-id"); id_it != flags.end()) {
      child_options.remote.client_id = id_it->second;
    }
    if (auto wire_it = flags.find("wire"); wire_it != flags.end()) {
      if (wire_it->second == "v1") {
        child_options.remote.force_wire_v1 = true;
      } else if (wire_it->second != "v2") {
        std::cerr << "--wire takes v1 or v2\n";
        return 1;
      }
    }
    auto created = MakeShardedBackend(child_specs, *schema, num_devices,
                                      method_spec, seed, child_options);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    file = *std::move(created);
    backend_kind = "remote";
  } else if (backend_kind == "flat" || backend_kind == "packed") {
    auto created =
        ParallelFile::Create(*schema, num_devices, method_spec, seed);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    file = std::make_unique<ParallelFile>(*std::move(created));
    pack_after_load = backend_kind == "packed";
  } else if (backend_kind == "paged") {
    auto created = PagedParallelFile::Create(
        *schema, num_devices, method_spec, get_u64("pagesize", 8), seed);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    file = std::make_unique<PagedParallelFile>(*std::move(created));
  } else if (backend_kind == "dynamic") {
    // The dynamic backend re-plans its own FX distribution as the
    // directories grow; --method does not apply.
    std::vector<DynamicFieldDecl> dyn_fields;
    for (unsigned i = 0; i < schema->num_fields(); ++i) {
      dyn_fields.push_back({schema->field(i).name, schema->field(i).type});
    }
    auto created = DynamicParallelFile::Create(
        std::move(dyn_fields), num_devices, get_u64("pagesize", 16),
        PlanFamily::kIU2, seed);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    file = std::make_unique<DynamicParallelFile>(*std::move(created));
  } else if (backend_kind == "sharded") {
    std::vector<std::unique_ptr<StorageBackend>> children;
    for (std::uint64_t d = 0; d < num_devices; ++d) {
      auto child =
          ParallelFile::Create(*schema, num_devices, method_spec, seed);
      if (!child.ok()) {
        std::cerr << child.status().ToString() << "\n";
        return 1;
      }
      children.push_back(
          std::make_unique<ParallelFile>(*std::move(child)));
    }
    auto created = ShardedBackend::Create(std::move(children));
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    file = std::make_unique<ShardedBackend>(*std::move(created));
  } else if (backend_kind == "replicated") {
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
    replicated = created->get();
    file = *std::move(created);
  } else {
    std::cerr << "unknown --backend " << backend_kind
              << " (expected flat, paged, dynamic, sharded, replicated, "
                 "or packed)\n";
    return 1;
  }
  if (flags.count("fail") != 0 && replicated == nullptr) {
    std::cerr << "--fail requires --backend replicated\n";
    return 1;
  }
  if (flags.count("placement") != 0 && backend_kind != "replicated") {
    std::cerr << "--placement requires --backend replicated\n";
    return 1;
  }

  // Workload: either replayed from a recorded trace (--trace-in pins the
  // exact record and query streams) or drawn from the seeded generators.
  std::vector<Record> records;
  std::vector<ValueQuery> stream;
  const auto trace_in_it = flags.find("trace-in");
  if (trace_in_it != flags.end()) {
    auto trace = LoadTrace(trace_in_it->second);
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << "\n";
      return 1;
    }
    if (trace->num_fields != schema->num_fields()) {
      std::cerr << "trace arity " << trace->num_fields
                << " does not match --fields arity "
                << schema->num_fields() << "\n";
      return 1;
    }
    if (!trace->meta.empty()) {
      std::cerr << "replaying trace: " << trace->meta << "\n";
    }
    records = std::move(trace->records);
    stream = std::move(trace->queries);
  } else {
    // Field domains well above the directory size (--domain to
    // override): specified fields stay selective, as real attributes
    // would be.
    FieldDistribution serve_dist;
    serve_dist.domain = get_u64("domain", 512);
    auto gen = RecordGenerator::Create(
        *schema,
        std::vector<FieldDistribution>(schema->num_fields(), serve_dist),
        seed);
    if (!gen.ok()) {
      std::cerr << gen.status().ToString() << "\n";
      return 1;
    }
    records = gen->Take(get_u64("records", 12000));
  }
  for (const Record& r : records) {
    if (auto st = file->Insert(r); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  if (pack_after_load) {
    const auto packfile_it = flags.find("packfile");
    const std::string pack_path = packfile_it == flags.end()
                                      ? "/tmp/fxdist-serve-bench.pack"
                                      : packfile_it->second;
    if (auto packed = PackBackend(*file, pack_path); !packed.ok()) {
      std::cerr << packed.status().ToString() << "\n";
      return 1;
    }
    auto reopened = PackedBackend::Open(pack_path);
    if (!reopened.ok()) {
      std::cerr << reopened.status().ToString() << "\n";
      return 1;
    }
    file = *std::move(reopened);
  }
  // Device failures apply after the load: a replicated backend refuses
  // writes while degraded, so the bench loads healthy and then serves
  // the whole query stream with the failed devices re-routed.
  std::vector<std::uint64_t> failed;
  if (auto it = flags.find("fail"); it != flags.end()) {
    failed = ParseU64List(it->second);
    for (std::uint64_t d : failed) {
      if (auto st = replicated->MarkDown(d); !st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
    }
  }
  if (stream.empty()) {
    auto qgen = QueryGenerator::Create(&records,
                                       get_double("spec-prob", 0.5), seed);
    if (!qgen.ok()) {
      std::cerr << qgen.status().ToString() << "\n";
      return 1;
    }
    const std::uint64_t num_templates = std::max<std::uint64_t>(
        1, get_u64("templates", 32));
    std::vector<ValueQuery> templates;
    while (templates.size() < num_templates) {
      // A partial-match query names at least one field; fully
      // unspecified draws degenerate to full scans and are redrawn.
      ValueQuery q = qgen->Next();
      const bool specified = std::any_of(
          q.begin(), q.end(), [](const auto& f) { return f.has_value(); });
      if (specified) templates.push_back(std::move(q));
    }
    ZipfSampler popularity(num_templates, get_double("zipf", 1.1));
    Xoshiro256 rng(seed + 1);
    for (std::uint64_t i = 0; i < get_u64("queries", 2048); ++i) {
      stream.push_back(templates[popularity.Sample(&rng)]);
    }
  }
  const std::uint64_t num_queries = stream.size();
  if (auto trace_out_it = flags.find("trace-out");
      trace_out_it != flags.end()) {
    WorkloadTrace trace;
    trace.num_fields = static_cast<unsigned>(schema->num_fields());
    std::ostringstream meta;
    meta << "serve-bench seed=" << seed << " zipf=" << get_double("zipf", 1.1)
         << " spec-prob=" << get_double("spec-prob", 0.5)
         << " templates=" << get_u64("templates", 32)
         << " domain=" << get_u64("domain", 512);
    trace.meta = meta.str();
    trace.records = records;
    trace.queries = stream;
    if (auto st = SaveTrace(trace, trace_out_it->second); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }

  // Untimed warm-up of both paths so the timed sections are not charged
  // for first-touch page faults and allocator growth.
  const std::uint64_t warm_count = std::min<std::uint64_t>(64, stream.size());
  for (std::uint64_t i = 0; i < warm_count; ++i) {
    (void)file->Execute(stream[i]);
  }
  {
    QueryEngine warm(*file, EngineOptions{});
    std::vector<ValueQuery> first(stream.begin(),
                                  stream.begin() + warm_count);
    (void)warm.ExecuteBatch(first);
  }

  // Serial baseline: one query at a time, no pool.
  const auto serial_start = std::chrono::steady_clock::now();
  std::uint64_t serial_matched = 0;
  // Per-query tallies let the socket fan-in phase (--clients) compute
  // the exact expected total for its own stream-index multiset.
  std::vector<std::uint64_t> serial_per_query;
  serial_per_query.reserve(stream.size());
  for (const ValueQuery& q : stream) {
    auto result = file->Execute(q);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    serial_matched += result->stats.records_matched;
    serial_per_query.push_back(result->stats.records_matched);
  }
  const double serial_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - serial_start)
          .count();

  // Engine: the stream in --batch-sized ExecuteBatch chunks, each chunk
  // one unit of scan sharing and duplicate collapse.
  EngineOptions options;
  options.num_threads =
      static_cast<unsigned>(get_u64("threads", 0));
  const std::uint64_t batch_size =
      std::max<std::uint64_t>(1, get_u64("batch", 256));
  QueryEngine engine(*file, options);
  const auto engine_start = std::chrono::steady_clock::now();
  std::uint64_t engine_matched = 0;
  for (std::uint64_t begin = 0; begin < stream.size(); begin += batch_size) {
    const std::uint64_t end =
        std::min<std::uint64_t>(stream.size(), begin + batch_size);
    auto results = engine.ExecuteBatch(std::vector<ValueQuery>(
        stream.begin() + static_cast<std::ptrdiff_t>(begin),
        stream.begin() + static_cast<std::ptrdiff_t>(end)));
    if (!results.ok()) {
      std::cerr << results.status().ToString() << "\n";
      return 1;
    }
    for (const QueryResult& result : *results) {
      engine_matched += result.stats.records_matched;
    }
  }
  const double engine_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - engine_start)
          .count();

  // Front door (--frontend): admission + result cache + QoS over a
  // fresh engine.  Two passes replay the same stream — the cold pass
  // fills the cache, the warm pass hits it — and both must match the
  // serial baseline's match count (bench/frontend_matrix gates full
  // per-query digests).
  const bool run_frontend = flags.count("frontend") != 0;
  std::uint64_t front_cold_matched = 0;
  std::uint64_t front_warm_matched = 0;
  std::uint64_t front_shed = 0;
  double front_cold_ms = 0.0;
  double front_warm_ms = 0.0;
  std::string frontend_text;
  std::string frontend_json;
  if (run_frontend) {
    FrontendOptions front_options;
    front_options.cache.max_bytes = get_u64("cache-mb", 64) << 20;
    front_options.admission.rate_per_sec = get_double("rate", 0.0);
    if (auto it = flags.find("qos"); it != flags.end()) {
      if (it->second == "off") {
        front_options.qos_enabled = false;
      } else if (it->second != "on") {
        std::cerr << "--qos takes on or off\n";
        return 1;
      }
    }
    const std::uint64_t tenants =
        std::max<std::uint64_t>(1, get_u64("tenants", 4));
    QueryEngine front_engine(*file, options);
    Frontend frontend(front_engine, front_options);
    auto run_pass = [&](std::uint64_t* matched, double* ms) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::future<Result<QueryResult>>> pass;
      pass.reserve(stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i) {
        // Tenants round-robin; every 8th query is interactive so the
        // QoS path is exercised alongside the batch backlog.
        pass.push_back(frontend.Submit(
            "tenant-" + std::to_string(i % tenants),
            i % 8 == 0 ? QueryPriority::kInteractive : QueryPriority::kBatch,
            stream[i]));
      }
      for (auto& f : pass) {
        auto result = f.get();
        if (!result.ok()) {
          // Shed queries (ResourceExhausted) are the expected outcome of
          // a --rate cap, not a failure; they just don't count matches.
          if (result.status().code() == StatusCode::kResourceExhausted) {
            ++front_shed;
            continue;
          }
          std::cerr << result.status().ToString() << "\n";
          return false;
        }
        *matched += result->stats.records_matched;
      }
      *ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
      return true;
    };
    if (!run_pass(&front_cold_matched, &front_cold_ms) ||
        !run_pass(&front_warm_matched, &front_warm_ms)) {
      return 1;
    }
    frontend.Flush();
    const FrontendStats front_stats = frontend.Stats();
    frontend_text = front_stats.ToString();
    frontend_json = front_stats.ToJson();
  }

  // Socket fan-in (--clients): the same backend behind a real shard
  // server on loopback, hammered by N concurrent connections.  The
  // deterministic stream indexing (see net/loadgen.h) makes the total
  // matched count predictable from the serial per-query tallies, so
  // the event-driven and blocking servers gate against the same
  // expected number — bit-identity through the full socket path.
  const std::uint64_t fanin_clients = get_u64("clients", 0);
  const bool fanin_event = flags.count("event-loop") != 0;
  FanInReport fanin;
  EventServerStats fanin_server_stats;
  std::uint64_t fanin_expected = 0;
  std::uint64_t fanin_total = 0;
  if (fanin_clients > 0) {
    FanInOptions fanin_options;
    fanin_options.clients = fanin_clients;
    fanin_options.waves =
        std::max<std::uint64_t>(1, get_u64("waves", 4));
    fanin_options.threads = std::max<std::uint64_t>(
        1, get_u64("client-threads", 16));
    std::unique_ptr<EventShardServer> event_server;
    std::unique_ptr<ShardServer> blocking_server;
    if (fanin_event) {
      EventShardServer::Options server_options;
      server_options.workers =
          static_cast<unsigned>(get_u64("workers", 4));
      server_options.max_connections =
          std::max<std::uint64_t>(fanin_clients, 4096);
      TryRaiseNoFileLimit(fanin_clients * 2 + 512);
      auto started = EventShardServer::Start(*file, server_options);
      if (!started.ok()) {
        std::cerr << started.status().ToString() << "\n";
        return 1;
      }
      event_server = *std::move(started);
      fanin_options.port = event_server->port();
    } else {
      // The blocking server pins a pool thread per connection, so the
      // baseline needs a thread per client to serve them all at once.
      ShardServer::Options server_options;
      server_options.max_connections =
          static_cast<unsigned>(fanin_clients);
      TryRaiseNoFileLimit(fanin_clients * 2 + 512);
      auto started = ShardServer::Start(*file, server_options);
      if (!started.ok()) {
        std::cerr << started.status().ToString() << "\n";
        return 1;
      }
      blocking_server = *std::move(started);
      fanin_options.port = blocking_server->port();
    }
    auto ran = RunQueryFanIn(stream, fanin_options);
    if (!ran.ok()) {
      std::cerr << ran.status().ToString() << "\n";
      return 1;
    }
    fanin = *ran;
    fanin_total = fanin_clients * fanin_options.waves;
    for (std::uint64_t s = 0; s < fanin_total; ++s) {
      fanin_expected += serial_per_query[s % serial_per_query.size()];
    }
    if (event_server != nullptr) {
      fanin_server_stats = event_server->Stats();
      event_server->Stop();
    } else {
      blocking_server->Stop();
    }
  }

  const auto qps = [&](double ms) {
    return ms <= 0.0 ? 0.0
                     : static_cast<double>(num_queries) / (ms / 1e3);
  };
  const double speedup = engine_ms <= 0.0 ? 0.0 : serial_ms / engine_ms;
  const auto format_it = flags.find("format");
  std::ostringstream degraded_json;
  std::ostringstream degraded_text;
  if (replicated != nullptr) {
    degraded_json << ",\"placement\":\""
                  << (replicated->placement() == ReplicaPlacement::kMirrored
                          ? "mirrored"
                          : "chained")
                  << "\",\"failed\":[";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      degraded_json << (i > 0 ? "," : "") << failed[i];
    }
    degraded_json << "]";
    degraded_text << "placement       : "
                  << (replicated->placement() == ReplicaPlacement::kMirrored
                          ? "mirrored"
                          : "chained")
                  << (failed.empty() ? " (healthy)" : " (degraded, down:");
    for (std::uint64_t d : failed) degraded_text << ' ' << d;
    degraded_text << (failed.empty() ? "\n" : ")\n");
  }
  std::ostringstream fanin_json;
  std::ostringstream fanin_text;
  if (fanin_clients > 0) {
    const double fanin_qps =
        fanin.elapsed_ms <= 0.0
            ? 0.0
            : static_cast<double>(fanin.replies) /
                  (fanin.elapsed_ms / 1e3);
    fanin_json << ",\"fanin_mode\":\""
               << (fanin_event ? "event" : "blocking")
               << "\",\"fanin_clients\":" << fanin_clients
               << ",\"fanin_replies\":" << fanin.replies
               << ",\"fanin_transport_errors\":" << fanin.transport_errors
               << ",\"fanin_error_replies\":" << fanin.error_replies
               << ",\"fanin_matched\":" << fanin.matched_total
               << ",\"fanin_expected\":" << fanin_expected
               << ",\"fanin_qps\":" << fanin_qps
               << ",\"fanin_ms\":" << fanin.elapsed_ms
               << ",\"fanin_p50_ms\":" << fanin.p50_ms
               << ",\"fanin_p99_ms\":" << fanin.p99_ms;
    if (fanin_event) {
      fanin_json << ",\"fanin_shed\":"
                 << fanin_server_stats.shed_connections
                 << ",\"fanin_max_concurrent\":"
                 << fanin_server_stats.max_concurrent
                 << ",\"fanin_dropped_replies\":"
                 << fanin_server_stats.dropped_replies
                 << ",\"fanin_reads_paused\":"
                 << fanin_server_stats.reads_paused;
    }
    fanin_text << "fan-in ("
               << (fanin_event ? "event loop" : "blocking") << "): "
               << TablePrinter::Cell(fanin_qps, 0) << " qps  ("
               << TablePrinter::Cell(fanin.elapsed_ms, 1) << " ms, "
               << fanin_clients << " clients, " << fanin.replies
               << " replies, " << fanin.matched_total << " matches, p99 "
               << TablePrinter::Cell(fanin.p99_ms, 1) << " ms)\n";
    if (fanin_event) {
      fanin_text << "  server          : peak "
                 << fanin_server_stats.max_concurrent
                 << " conns, shed " << fanin_server_stats.shed_connections
                 << ", reads paused " << fanin_server_stats.reads_paused
                 << ", dropped replies "
                 << fanin_server_stats.dropped_replies << "\n";
    }
  }
  if (format_it != flags.end() && format_it->second == "json") {
    std::ostringstream front_json;
    if (run_frontend) {
      front_json << ",\"frontend_cold_qps\":" << qps(front_cold_ms)
                 << ",\"frontend_cold_ms\":" << front_cold_ms
                 << ",\"frontend_cold_matched\":" << front_cold_matched
                 << ",\"frontend_warm_qps\":" << qps(front_warm_ms)
                 << ",\"frontend_warm_ms\":" << front_warm_ms
                 << ",\"frontend_warm_matched\":" << front_warm_matched
                 << ",\"frontend\":" << frontend_json;
    }
    std::cout << "{\"backend\":\"" << backend_kind << "\",\"spec\":\""
              << file->spec().ToString() << "\",\"method\":\""
              << file->method().name() << "\"" << degraded_json.str()
              << ",\"queries\":" << num_queries
              << ",\"serial_qps\":" << qps(serial_ms)
              << ",\"serial_ms\":" << serial_ms
              << ",\"serial_matched\":" << serial_matched
              << ",\"engine_qps\":" << qps(engine_ms)
              << ",\"engine_ms\":" << engine_ms
              << ",\"engine_matched\":" << engine_matched
              << ",\"speedup\":" << speedup << front_json.str()
              << fanin_json.str()
              << ",\"stats\":" << engine.Snapshot().ToJson() << "}\n";
  } else if (format_it != flags.end() && format_it->second != "text") {
    std::cerr << "unknown --format " << format_it->second
              << " (expected text or json)\n";
    return 1;
  } else {
    std::cout << "QueryEngine [" << backend_kind << "] on "
              << file->spec().ToString() << " method "
              << file->method().name() << "\n"
              << degraded_text.str()
              << "serial baseline : "
              << TablePrinter::Cell(qps(serial_ms), 0) << " qps  ("
              << TablePrinter::Cell(serial_ms, 1) << " ms, "
              << serial_matched << " matches)\n"
              << "engine (batched): "
              << TablePrinter::Cell(qps(engine_ms), 0) << " qps  ("
              << TablePrinter::Cell(engine_ms, 1) << " ms, "
              << engine_matched << " matches)\n";
    if (run_frontend) {
      std::cout << "frontend (cold) : "
                << TablePrinter::Cell(qps(front_cold_ms), 0) << " qps  ("
                << TablePrinter::Cell(front_cold_ms, 1) << " ms, "
                << front_cold_matched << " matches)\n"
                << "frontend (warm) : "
                << TablePrinter::Cell(qps(front_warm_ms), 0) << " qps  ("
                << TablePrinter::Cell(front_warm_ms, 1) << " ms, "
                << front_warm_matched << " matches)\n";
    }
    std::cout << fanin_text.str()
              << "speedup         : " << TablePrinter::Cell(speedup, 2)
              << "x\n\n"
              << engine.Snapshot().ToString();
    if (run_frontend) std::cout << "\n" << frontend_text;
  }
  if (engine_matched != serial_matched) {
    std::cerr << "MISMATCH: engine and serial matched counts differ\n";
    return 1;
  }
  if (run_frontend && front_shed == 0 &&
      (front_cold_matched != serial_matched ||
       front_warm_matched != serial_matched)) {
    std::cerr << "MISMATCH: frontend and serial matched counts differ\n";
    return 1;
  }
  if (fanin_clients > 0) {
    if (fanin.transport_errors != 0 || fanin.error_replies != 0 ||
        fanin.replies != fanin_total) {
      std::cerr << "FAN-IN FAILURE: " << fanin.transport_errors
                << " transport errors, " << fanin.error_replies
                << " error replies, " << fanin.replies << "/"
                << fanin_total << " replies\n";
      return 1;
    }
    if (fanin.matched_total != fanin_expected) {
      std::cerr << "MISMATCH: fan-in and serial matched counts differ ("
                << fanin.matched_total << " vs " << fanin_expected
                << ")\n";
      return 1;
    }
  }
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
  if (flags.count("event-loop") != 0) {
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
  ShardServer::Options server_options;
  server_options.port = static_cast<std::uint16_t>(get_u64("port", 0));
  server_options.max_connections =
      static_cast<unsigned>(get_u64("connections", 8));
  auto server = ShardServer::Start(*file, server_options);
  if (!server.ok()) {
    std::cerr << server.status().ToString() << "\n";
    return 1;
  }
  // Scripts scrape this line for the (possibly ephemeral) port, so it
  // must be flushed before the blocking Wait().
  std::cout << "serving " << file->backend_name() << " [" << backend_kind
            << "] on port " << (*server)->port() << std::endl;
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
  std::vector<std::unique_ptr<ShardServer>> local_servers;
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
    auto server = ShardServer::Start(**backend);
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
            << "  retries " << report->retries << ", client-side fallbacks "
            << report->fallback_tasks << "\n";
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
      {"serve-bench",
       CmdServeBench,
       {"fields",    "devices",   "method",    "seed",      "backend",
        "packfile",  "remote",    "window",    "wire",      "client-id",
        "placement", "fail",      "pagesize",  "records",   "queries",
        "batch",     "threads",   "templates", "zipf",      "spec-prob",
        "domain",    "format",    "frontend",  "cache-mb",  "qos",
        "tenants",   "rate",      "clients",   "waves",     "client-threads",
        "workers",   "event-loop", "trace-out", "trace-in"}},
      {"shard-serve",
       CmdShardServe,
       {"fields", "devices", "method", "seed", "backend", "placement",
        "pagesize", "port", "connections", "event-loop", "workers",
        "max-conns"}},
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
