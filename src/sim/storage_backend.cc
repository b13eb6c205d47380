#include "sim/storage_backend.h"

#include <algorithm>
#include <variant>

#include "analysis/optimality.h"

namespace fxdist {

Status StorageBackend::InsertBatch(std::vector<Record> records) {
  for (Record& record : records) {
    FXDIST_RETURN_NOT_OK(Insert(std::move(record)));
  }
  return Status::OK();
}

bool StorageBackend::IsBucketLive(std::uint64_t device,
                                  std::uint64_t linear_bucket) const {
  bool live = false;
  ScanBucket(device, linear_bucket, [&live](const Record&) {
    live = true;
    return false;
  });
  return live;
}

void StorageBackend::ScanMany(
    const std::vector<BucketRef>& refs,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  // One callback object for the whole call: a fresh std::function per ref
  // would heap-allocate per bucket (the capture outgrows the inline
  // buffer).
  bool cancelled = false;
  std::size_t i = 0;
  const std::function<bool(const Record&)> visit =
      [&fn, &cancelled, &i](const Record& record) {
        if (!fn(i, record)) {
          cancelled = true;
          return false;
        }
        return true;
      };
  for (; i < refs.size() && !cancelled; ++i) {
    ScanBucket(refs[i].device, refs[i].linear_bucket, visit);
  }
}

Result<QueryResult> StorageBackend::Execute(const ValueQuery& query) const {
  if (!ScanPrefersFanout()) {
    return ExecuteSerial(*this, query,
                         [this](std::uint64_t device, std::uint64_t linear,
                                const auto& filter) {
                           ScanBucket(device, linear, std::cref(filter));
                         });
  }
  // Round-trip scans: the walk only collects the qualified buckets and
  // ONE ScanMany gathers them, each ref filtered by the query so a remote
  // child ships only the matches.  Distinct refs may be delivered
  // concurrently (a composite overlaps its remote children), so each
  // stages into its own slot and filter, and the assembly restores the
  // walk's order.
  std::vector<BucketRef> refs;
  auto result = ExecuteSerial(
      *this, query,
      [&refs](std::uint64_t device, std::uint64_t linear, const auto&) {
        refs.push_back({device, linear});
      });
  FXDIST_RETURN_NOT_OK(result.status());
  const auto start = std::chrono::steady_clock::now();
  const ValueQuery* const table[] = {&query};
  static constexpr std::uint32_t kOnlyQuery[] = {0};
  std::vector<ScanFilter> filters(refs.size(), {table, kOnlyQuery});
  for (std::size_t i = 0; i < refs.size(); ++i) refs[i].filter = &filters[i];
  std::vector<std::uint64_t> examined(refs.size(), 0);
  std::vector<std::vector<Record>> matched(refs.size());
  ScanMany(refs, [&query, &examined, &matched](std::size_t i,
                                              const Record& record) {
    ++examined[i];
    if (RecordMatchesValueQuery(query, record)) matched[i].push_back(record);
    return true;
  });
  QueryStats& stats = result->stats;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    stats.records_examined += examined[i] + filters[i].skipped;
    stats.records_matched += matched[i].size();
    for (Record& record : matched[i]) {
      result->records.push_back(std::move(record));
    }
  }
  // The walk timed only enumeration; the gather is not attributable to
  // devices.
  std::fill(stats.device_wall_ms.begin(), stats.device_wall_ms.end(), 0.0);
  stats.wall_ms += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  FXDIST_RETURN_NOT_OK(Health());
  return result;
}

void FinishQueryStats(const FieldSpec& spec, const PartialMatchQuery& query,
                      QueryStats* stats) {
  stats->total_qualified = 0;
  stats->largest_response = 0;
  for (std::uint64_t c : stats->qualified_per_device) {
    stats->total_qualified += c;
    stats->largest_response = std::max(stats->largest_response, c);
  }
  stats->optimal_bound = StrictOptimalBound(spec, query);
  stats->strict_optimal = stats->largest_response <= stats->optimal_bound;
  stats->disk_timing = DiskQueryTiming(stats->qualified_per_device);
}

std::vector<ValueType> StorageBackend::FieldTypes() const {
  std::vector<ValueType> types;
  bool probed = false;
  ForEachLiveRecord([&types, &probed](const Record& record) {
    if (probed) return;
    probed = true;
    types.reserve(record.size());
    for (const FieldValue& value : record) types.push_back(TypeOf(value));
  });
  return types;
}

std::uint64_t StorageBackend::ApproxMemoryBytes() const {
  std::uint64_t bytes = 0;
  ForEachLiveRecord(
      [&bytes](const Record& record) { bytes += ApproxRecordBytes(record); });
  return bytes;
}

std::uint64_t ApproxRecordBytes(const Record& record) {
  std::uint64_t bytes =
      sizeof(Record) + record.capacity() * sizeof(FieldValue);
  for (const FieldValue& value : record) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      // Count only heap allocations past the small-string buffer.
      if (s->capacity() > sizeof(std::string) - 1) bytes += s->capacity() + 1;
    }
  }
  return bytes;
}

bool ScanFilter::Matches(const Record& record) const {
  for (const std::uint32_t q : covering) {
    if (RecordMatchesValueQuery(*queries[q], record)) return true;
  }
  return false;
}

bool RecordMatchesValueQuery(const ValueQuery& query, const Record& record) {
  for (std::size_t f = 0; f < query.size(); ++f) {
    if (query[f].has_value() && record[f] != *query[f]) return false;
  }
  return true;
}

}  // namespace fxdist
