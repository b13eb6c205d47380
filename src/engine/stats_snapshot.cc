#include "engine/stats_snapshot.h"

#include <cstdio>
#include <sstream>

namespace fxdist {

std::string StatsSnapshot::ToString() const {
  std::ostringstream os;
  char line[160];

  std::snprintf(line, sizeof(line),
                "queries    completed %llu  failed %llu\n",
                static_cast<unsigned long long>(queries_completed),
                static_cast<unsigned long long>(queries_failed));
  os << line;
  std::snprintf(line, sizeof(line),
                "batches    executed %llu  avg size %.2f  max size %llu  "
                "duplicates collapsed %llu  solo %llu\n",
                static_cast<unsigned long long>(batches_executed),
                avg_batch_size(),
                static_cast<unsigned long long>(max_batch_size),
                static_cast<unsigned long long>(duplicates_collapsed),
                static_cast<unsigned long long>(solo_queries));
  os << line;
  std::snprintf(line, sizeof(line),
                "scans      requested %llu  performed %llu  sharing %.2fx  "
                "scan-many %llu\n",
                static_cast<unsigned long long>(bucket_scans_requested),
                static_cast<unsigned long long>(bucket_scans_performed),
                sharing_factor(),
                static_cast<unsigned long long>(scan_many_calls));
  os << line;
  std::snprintf(line, sizeof(line),
                "records    examined %llu  matched %llu\n",
                static_cast<unsigned long long>(records_examined),
                static_cast<unsigned long long>(records_matched));
  os << line;
  std::snprintf(line, sizeof(line),
                "routing    routed %llu  rerouted %llu\n",
                static_cast<unsigned long long>(routed_queries),
                static_cast<unsigned long long>(degraded_reroutes));
  os << line;
  std::snprintf(line, sizeof(line),
                "topology   version %llu  migrating buckets %llu  "
                "batch retries %llu\n",
                static_cast<unsigned long long>(topology_version),
                static_cast<unsigned long long>(migrating_buckets),
                static_cast<unsigned long long>(topology_retries));
  os << line;
  os << "latency    p50 " << FormatMicros(query_latency.PercentileMicros(0.50))
     << "  p95 " << FormatMicros(query_latency.PercentileMicros(0.95))
     << "  p99 " << FormatMicros(query_latency.PercentileMicros(0.99))
     << "  mean " << FormatMicros(query_latency.mean_micros()) << "\n";
  os << "batch lat. p50 " << FormatMicros(batch_latency.PercentileMicros(0.50))
     << "  p95 " << FormatMicros(batch_latency.PercentileMicros(0.95))
     << "  p99 " << FormatMicros(batch_latency.PercentileMicros(0.99))
     << "\n";
  std::snprintf(line, sizeof(line), "uptime     %.2f ms\n", uptime_ms);
  os << line;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    std::snprintf(line, sizeof(line),
                  "device %-3zu scans %llu  examined %llu  routed %llu  "
                  "rerouted %llu  busy %.2f ms  util %.1f%%\n",
                  d,
                  static_cast<unsigned long long>(devices[d].bucket_scans),
                  static_cast<unsigned long long>(
                      devices[d].records_examined),
                  static_cast<unsigned long long>(devices[d].routed_queries),
                  static_cast<unsigned long long>(
                      devices[d].degraded_reroutes),
                  devices[d].busy_ms, 100.0 * devices[d].utilization);
    os << line;
  }
  return os.str();
}

std::string StatsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{";
  os << "\"queries_completed\":" << queries_completed
     << ",\"queries_failed\":" << queries_failed
     << ",\"batches_executed\":" << batches_executed
     << ",\"avg_batch_size\":" << avg_batch_size()
     << ",\"max_batch_size\":" << max_batch_size
     << ",\"duplicates_collapsed\":" << duplicates_collapsed
     << ",\"solo_queries\":" << solo_queries
     << ",\"bucket_scans_requested\":" << bucket_scans_requested
     << ",\"bucket_scans_performed\":" << bucket_scans_performed
     << ",\"sharing_factor\":" << sharing_factor()
     << ",\"scan_many_calls\":" << scan_many_calls
     << ",\"records_examined\":" << records_examined
     << ",\"records_matched\":" << records_matched
     << ",\"routed_queries\":" << routed_queries
     << ",\"degraded_reroutes\":" << degraded_reroutes
     << ",\"topology_version\":" << topology_version
     << ",\"migrating_buckets\":" << migrating_buckets
     << ",\"topology_retries\":" << topology_retries
     << ",\"uptime_ms\":" << uptime_ms;
  os << ",\"query_latency_us\":{\"p50\":"
     << query_latency.PercentileMicros(0.50)
     << ",\"p95\":" << query_latency.PercentileMicros(0.95)
     << ",\"p99\":" << query_latency.PercentileMicros(0.99)
     << ",\"mean\":" << query_latency.mean_micros() << "}";
  os << ",\"batch_latency_us\":{\"p50\":"
     << batch_latency.PercentileMicros(0.50)
     << ",\"p95\":" << batch_latency.PercentileMicros(0.95)
     << ",\"p99\":" << batch_latency.PercentileMicros(0.99) << "}";
  os << ",\"devices\":[";
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (d > 0) os << ",";
    os << "{\"device\":" << d
       << ",\"bucket_scans\":" << devices[d].bucket_scans
       << ",\"records_examined\":" << devices[d].records_examined
       << ",\"routed_queries\":" << devices[d].routed_queries
       << ",\"degraded_reroutes\":" << devices[d].degraded_reroutes
       << ",\"busy_ms\":" << devices[d].busy_ms
       << ",\"utilization\":" << devices[d].utilization << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace fxdist
