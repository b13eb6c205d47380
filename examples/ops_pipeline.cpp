// End-to-end operations pipeline: the whole library in one scenario.
//
// An ops team stores request logs keyed on (service, region, status,
// shard) and runs partial match queries ("all 500s in eu", "everything
// for service 17").  The pipeline:
//
//   1. size the field directories from query statistics  (advise-bits)
//   2. pick the distribution method                       (advisor)
//   3. build the parallel file and load data
//   4. run the query mix; report balance and optimality
//   5. expire old records (Delete) and re-check balance
//   6. snapshot to disk, reload, verify equivalence       (persistence)
//
//   $ ./build/examples/ops_pipeline

#include <cstdio>
#include <iostream>

#include "analysis/advisor.h"
#include "analysis/balance.h"
#include "analysis/bit_allocation.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"
#include "util/table_printer.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

using namespace fxdist;  // NOLINT(build/namespaces)

int main() {
  constexpr std::uint64_t kDevices = 32;

  // 1. Directory sizing: service is almost always specified, status
  //    often, region sometimes, shard rarely.
  const std::vector<double> probs = {0.9, 0.6, 0.4, 0.1};
  auto alloc = AllocateFieldBits(probs, /*total_bits=*/14).value();
  std::cout << "Advised directory bits:";
  for (unsigned b : alloc.bits) std::cout << ' ' << b;
  std::cout << "  (E[|R(q)|] = " << alloc.expected_qualified << ")\n";

  const auto sizes = alloc.FieldSizes();
  auto schema = Schema::Create({
                                   {"service", ValueType::kInt64, sizes[0]},
                                   {"status", ValueType::kInt64, sizes[1]},
                                   {"region", ValueType::kString, sizes[2]},
                                   {"shard", ValueType::kInt64, sizes[3]},
                               })
                    .value();

  // 2. Method choice for this spec + workload statistic.
  auto spec = schema.ToFieldSpec(kDevices).value();
  auto rec = RecommendMethod(spec, /*specified_probability=*/0.5).value();
  std::cout << "Recommended method: " << rec.recommended << " (of "
            << rec.ranking.size() << " candidates)\n\n";

  // 3. Build and load.
  auto file = ParallelFile::Create(schema, kDevices, rec.recommended)
                  .value();
  auto gen = RecordGenerator::Uniform(schema, /*seed=*/404).value();
  const std::vector<Record> logs = gen.Take(30000);
  for (const Record& r : logs) {
    if (auto st = file.Insert(r); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  const BalanceReport storage = AnalyzeBalance(file.RecordCountsPerDevice());
  std::cout << "Loaded " << file.num_records() << " records; storage "
            << "max/mean " << storage.peak_over_mean << "\n";

  // 4. Query mix.
  auto qgen = QueryGenerator::Create(&logs, 0.5, /*seed=*/99).value();
  int optimal = 0;
  double largest = 0, speedup = 0;
  constexpr int kQueries = 80;
  for (int i = 0; i < kQueries; ++i) {
    const auto stats = file.Execute(qgen.Next()).value().stats;
    if (stats.strict_optimal) ++optimal;
    largest += static_cast<double>(stats.largest_response);
    speedup += stats.disk_timing.speedup;
  }
  std::cout << "Query mix: " << optimal << "/" << kQueries
            << " strict optimal, avg largest response "
            << largest / kQueries << ", avg disk speedup "
            << speedup / kQueries << "x\n";

  // 5. Expire service 0's logs.
  ValueQuery expire(4);
  expire[0] = FieldValue{std::int64_t{0}};
  const std::uint64_t removed = file.Delete(expire).value();
  std::cout << "Expired " << removed << " records of service 0; "
            << file.num_records() << " remain\n";

  // 6. Snapshot round trip.
  const std::string path = "/tmp/fxdist_ops_pipeline.fxdist";
  if (auto st = SaveBackend(file, path); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  auto reloaded = LoadBackend(path).value();
  const bool same_counts =
      reloaded->RecordCountsPerDevice() == file.RecordCountsPerDevice();
  std::cout << "Snapshot reload: " << reloaded->num_records()
            << " records, placement "
            << (same_counts ? "identical" : "DIFFERENT!") << "\n";
  std::remove(path.c_str());
  return same_counts ? 0 : 1;
}
