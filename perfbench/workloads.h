// The three workloads and the metrics computed from what they measured.
//
// Each workload is fixed work: --seed fixes the inputs and --seconds
// fixes how many steps run, so every run of a workload and seed issues
// the same operations and every count repeats exactly; only times vary.
// Only calls into the program are timed.  Input generation, oracle
// upkeep and checks run between the timed sections.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  /// Times the program's build calls run; the last instance serves the
  /// timed phase and setup_s reports the median.
  int setups = 1;
  /// Where a workload may write scratch files (the packed files).
  std::string scratch_dir;
};

/// Share of a pass's steps run before timing starts: they fill caches
/// and fault in memory, and are checked and counted like the rest but
/// left out of every end-to-end rate and latency.
inline constexpr std::size_t kWarmupPercent = 5;

/// What one pass over a workload measured.
struct Pass {
  // -- End to end, over the timed steps after warm-up -------------------
  bool measuring = false;  ///< false while warm-up steps run
  void EnterStep(std::size_t step, std::size_t steps) {
    measuring = step >= steps * kWarmupPercent / 100;
  }
  double timed_s = 0.0;  ///< wall time inside timed sections
  double cpu_s = 0.0;    ///< process CPU time inside timed sections
  std::uint64_t timed_reads = 0;
  std::vector<double> read_ms;    ///< one per read query
  std::vector<double> lookup_ms;  ///< the interactive single-query class
  std::vector<double> write_ms;   ///< one per write batch

  /// Wall time of each setup's build calls.
  std::vector<double> setup_s;

  // -- Every step, warm-up included -------------------------------------
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t records_written = 0;
  std::uint64_t sum_largest = 0;
  std::uint64_t sum_optimal = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Oracle and invariant violations; any entry makes the run incorrect.
  std::vector<std::string> errors;

  // -- Per layer (snapshot deltas over every step) ----------------------
  std::uint64_t engine_requested = 0;
  std::uint64_t engine_performed = 0;
  std::uint64_t engine_duplicates = 0;
  std::uint64_t engine_examined = 0;
  std::uint64_t engine_matched = 0;
  double engine_batch_ms = 0.0;
  std::uint64_t front_queries = 0;  ///< workload queries, markers excluded
  std::uint64_t front_cache_served = 0;
  std::uint64_t front_epoch_invalidations = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t resident_records = 0;
};

using WorkloadFn = Pass (*)(const RunOptions&, Tracer&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

const std::vector<Workload>& Workloads();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> EndToEndMetrics(const Pass& pass);

/// `traced` ran with `tracer` on; `untraced` is the same work with it
/// off, for the tracing overhead.
std::vector<Metric> PerLayerMetrics(const Pass& untraced, const Pass& traced,
                                    const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
