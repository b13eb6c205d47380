// The thesis, made physical: declustering quality becomes *measured*
// per-device work balance — and therefore parallel response time.
//
// One file, three distribution methods, one query mix.  Each device's
// share of a query (inverse mapping + record filtering) is timed
// individually; the *critical path* — the slowest device — is what an
// M-core deployment would wait for, while the sum is the serial cost.
// Work speedup = sum / max, measured, core-count-independent.  FX's
// balanced responses give near-M speedup; Modulo's skew caps it at the
// pileup device, mirroring the paper's largest-response tables.

#include <algorithm>
#include <iostream>
#include <numeric>

#include "sim/parallel_file.h"
#include "util/table_printer.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

using namespace fxdist;  // NOLINT(build/namespaces)

int main() {
  auto schema = Schema::Create({
                                   {"a", ValueType::kInt64, 8},
                                   {"b", ValueType::kInt64, 8},
                                   {"c", ValueType::kInt64, 8},
                                   {"d", ValueType::kInt64, 8},
                               })
                    .value();
  constexpr std::uint64_t kDevices = 16;
  constexpr int kRecords = 200'000;
  constexpr int kQueries = 30;

  auto gen = RecordGenerator::Uniform(schema, 2025).value();
  const std::vector<Record> data = gen.Take(kRecords);
  auto qgen = QueryGenerator::Create(&data, 0.5, 99).value();
  std::vector<ValueQuery> mix;
  for (int i = 0; i < kQueries; ++i) {
    mix.push_back(qgen.NextWithUnspecified(3));
  }

  TablePrinter table({"method", "avg largest response", "serial ms/query",
                      "critical path ms/query", "work speedup (of 16)"});
  for (const char* dist : {"fx-iu1", "gdm1", "modulo"}) {
    auto file = ParallelFile::Create(schema, kDevices, dist).value();
    for (const Record& r : data) {
      if (auto st = file.Insert(r); !st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
    }
    double serial_ms = 0, critical_ms = 0, largest = 0;
    for (const ValueQuery& q : mix) {
      const auto result = file.Execute(q).value();
      const auto& per_device = result.stats.device_wall_ms;
      serial_ms += std::accumulate(per_device.begin(), per_device.end(), 0.0);
      critical_ms += *std::max_element(per_device.begin(), per_device.end());
      largest += static_cast<double>(result.stats.largest_response);
    }
    table.AddRow({file.method().name(),
                  TablePrinter::Cell(largest / kQueries, 1),
                  TablePrinter::Cell(serial_ms / kQueries, 3),
                  TablePrinter::Cell(critical_ms / kQueries, 3),
                  TablePrinter::Cell(serial_ms / critical_ms, 2)});
  }

  std::cout << "=== Measured per-device work balance (" << kRecords
            << " records, " << kDevices << " devices, " << kQueries
            << " queries, 3 wildcarded fields) ===\n";
  table.Print(std::cout);
  std::cout << "\nWork speedup = (sum of device times) / (slowest device): "
               "the parallel response an\nM-core deployment achieves.  "
               "Balanced FX approaches " << kDevices
            << "x; skew caps Modulo well below it.\n";
  return 0;
}
