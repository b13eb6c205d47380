// fxbench: one workload, one seed, one fixed amount of work.
//
//   fxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>]
//
// Prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1) as the last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// and exits 1 when any read disagrees with the benchmark's oracle or any
// invariant check fails.  A traced run first repeats the same work with
// tracing off, so its overhead is measured against an untraced pass; its
// spans are written to <out-dir>/spans-<workload>-<seed>.jsonl.

#include <sched.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Pass;

/// Setup repetitions in an untraced run; setup_s is their median.
constexpr int kSetups = 9;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "fxbench: %s\nusage: fxbench --workload <name> --seed <n> "
               "--seconds <1-60> --trace <0|1> [--out-dir <dir>]\n",
               message);
  std::exit(2);
}

std::uint64_t ParseUnsigned(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

/// Confines the process, and so every thread it starts later, to the
/// highest-numbered CPU it may run on.  On a shared multi-vCPU guest a
/// thread handing work to a thread on another, idle vCPU waits for the
/// host to wake that vCPU, and that wait varies from run to run by more
/// than the program's own cost; on one CPU every hand-off is a local
/// context switch.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  if (chosen < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

std::string Json(const std::vector<Metric>& metrics, const Pass& pass,
                 bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(pass.attempted);
  out += ", \"failed\": " + std::to_string(pass.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

bool ReportErrors(const Pass& pass) {
  for (std::size_t i = 0; i < pass.errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "fxbench: check failed: %s\n",
                 pass.errors[i].c_str());
  }
  if (pass.errors.size() > 10) {
    std::fprintf(stderr, "fxbench: ... %zu check failures in all\n",
                 pass.errors.size());
  }
  return pass.errors.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out_dir = ".bench_out";
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = ParseUnsigned("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = ParseUnsigned("--seconds", value);
    } else if (flag == "--trace") {
      trace = ParseUnsigned("--trace", value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const perfbench::Workload* workload = nullptr;
  for (const perfbench::Workload& w : perfbench::Workloads()) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown or missing --workload");
  if (!have_seed) Usage("missing --seed");
  if (seconds < 1 || seconds > 60) Usage("--seconds must be 1 to 60");
  if (trace > 1) Usage("--trace must be 0 or 1");
  if (mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Usage(("cannot create " + out_dir).c_str());
  }

  if (!PinToOneCpu()) {
    std::fprintf(stderr, "fxbench: could not pin the process to one CPU; "
                         "timings will spread more\n");
  }

  perfbench::RunOptions options;
  options.seed = seed;
  options.seconds = static_cast<unsigned>(seconds);
  options.scratch_dir = out_dir;
  try {
    if (trace == 0) {
      options.setups = kSetups;
      perfbench::Tracer tracer(false);
      tracer.SetClientThread();
      const Pass pass = workload->run(options, tracer);
      const bool correct = ReportErrors(pass);
      std::printf("%s\n",
                  Json(perfbench::EndToEndMetrics(pass), pass, correct).c_str());
      return correct ? 0 : 1;
    }
    perfbench::Tracer off(false);
    off.SetClientThread();
    const Pass untraced = workload->run(options, off);
    perfbench::Tracer on(true);
    on.SetClientThread();
    const Pass traced = workload->run(options, on);
    const bool correct = ReportErrors(untraced) && ReportErrors(traced);
    const std::string spans_path = out_dir + "/spans-" + workload_name + "-" +
                                   std::to_string(seed) + ".jsonl";
    if (!on.WriteJsonLines(spans_path)) {
      std::fprintf(stderr, "fxbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("%s\n", Json(perfbench::PerLayerMetrics(untraced, traced, on),
                             traced, correct)
                            .c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fxbench: %s\n", e.what());
    return 1;
  }
}
