#include "oracle.h"

#include <algorithm>
#include <sstream>
#include <variant>

#include "core/query.h"

namespace perfbench {

namespace {

/// Answers kept before the memo starts over (distinct-query workloads
/// never repeat, so an unbounded memo would only grow).
constexpr std::size_t kMemoLimit = 4096;

}  // namespace

void Oracle::Add(const Row& row) {
  const auto id = static_cast<std::uint32_t>(rows_.size());
  rows_.push_back(row);
  for (unsigned f = 0; f < kFields; ++f) index_[f][row[f]].push_back(id);
  memo_.clear();
}

const std::vector<Row>& Oracle::Expected(const Query& q) const {
  if (const auto it = memo_.find(q); it != memo_.end()) return it->second;
  if (memo_.size() >= kMemoLimit) memo_.clear();
  return memo_.emplace(q, Match(q)).first->second;
}

std::vector<Row> Oracle::Match(const Query& q) const {
  // Walk the shortest posting list among the specified fields and filter
  // the rest by value.
  const std::vector<std::uint32_t>* shortest = nullptr;
  for (unsigned f = 0; f < kFields; ++f) {
    if (!q.specified(f)) continue;
    const auto it = index_[f].find(q.values[f]);
    if (it == index_[f].end()) return {};
    if (shortest == nullptr || it->second.size() < shortest->size()) {
      shortest = &it->second;
    }
  }
  std::vector<Row> out;
  auto matches = [&q](const Row& row) {
    for (unsigned f = 0; f < kFields; ++f) {
      if (q.specified(f) && row[f] != q.values[f]) return false;
    }
    return true;
  };
  if (shortest == nullptr) {
    out = rows_;
  } else {
    for (std::uint32_t id : *shortest) {
      if (matches(rows_[id])) out.push_back(rows_[id]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

std::string Describe(const Query& q) {
  std::ostringstream os;
  os << "<";
  for (unsigned f = 0; f < kFields; ++f) {
    if (f > 0) os << ",";
    if (q.specified(f)) {
      os << q.values[f];
    } else {
      os << "*";
    }
  }
  os << ">";
  return os.str();
}

}  // namespace

std::string CheckResult(const Oracle& oracle, const Query& q,
                        const fxdist::QueryResult& result) {
  std::vector<Row> got;
  got.reserve(result.records.size());
  for (const fxdist::Record& record : result.records) {
    if (record.size() != kFields) {
      return Describe(q) + ": a returned record has " +
             std::to_string(record.size()) + " fields";
    }
    Row row{};
    for (unsigned f = 0; f < kFields; ++f) {
      const auto* v = std::get_if<std::int64_t>(&record[f]);
      if (v == nullptr) return Describe(q) + ": a returned value is not int64";
      row[f] = *v;
    }
    got.push_back(row);
  }
  std::sort(got.begin(), got.end());
  const std::vector<Row>& want = oracle.Expected(q);
  if (got != want) {
    return Describe(q) + ": returned " + std::to_string(got.size()) +
           " records, the oracle matches " + std::to_string(want.size()) +
           (got.size() == want.size() ? " (different rows)" : "");
  }

  const fxdist::QueryStats& stats = result.stats;
  if (stats.records_matched != result.records.size()) {
    return Describe(q) + ": records_matched " +
           std::to_string(stats.records_matched) + " but " +
           std::to_string(result.records.size()) + " records returned";
  }
  if (stats.qualified_per_device.size() != kDevices) {
    return Describe(q) + ": qualified_per_device has " +
           std::to_string(stats.qualified_per_device.size()) + " devices";
  }
  std::uint64_t total = 0, largest = 0;
  for (std::uint64_t c : stats.qualified_per_device) {
    total += c;
    largest = std::max(largest, c);
  }
  const std::uint64_t qualified = QualifiedBuckets(q);
  if (total != qualified || stats.total_qualified != qualified) {
    return Describe(q) + ": qualified buckets sum to " +
           std::to_string(total) + " (total_qualified " +
           std::to_string(stats.total_qualified) + "), |R(q)| is " +
           std::to_string(qualified);
  }
  const std::uint64_t bound = (qualified + kDevices - 1) / kDevices;
  if (stats.optimal_bound != bound) {
    return Describe(q) + ": optimal_bound " +
           std::to_string(stats.optimal_bound) + ", ceil(|R(q)|/M) is " +
           std::to_string(bound);
  }
  if (stats.largest_response != largest) {
    return Describe(q) + ": largest_response " +
           std::to_string(stats.largest_response) +
           ", the largest per-device count is " + std::to_string(largest);
  }
  return "";
}

std::string CheckPlacement(const fxdist::StorageBackend& backend,
                           const Query& q, const fxdist::QueryStats& stats) {
  auto hashed = backend.HashQuery(ToValueQuery(q));
  if (!hashed.ok()) {
    return Describe(q) + ": HashQuery failed: " + hashed.status().ToString();
  }
  const fxdist::DeviceMap& map = backend.device_map();
  std::vector<std::uint64_t> recount(kDevices, 0);
  bool in_range = true;
  fxdist::ForEachQualifiedBucket(
      map.spec(), *hashed, [&](const fxdist::BucketId& bucket) {
        const std::uint64_t device = map.DeviceOf(bucket);
        if (device >= kDevices) {
          in_range = false;
          return false;
        }
        ++recount[device];
        return true;
      });
  if (!in_range) return Describe(q) + ": DeviceOf named a device >= M";
  if (recount != stats.qualified_per_device) {
    return Describe(q) +
           ": per-device counts differ from the forward-map recount";
  }
  return "";
}

std::string CheckerSelfTest(const Oracle& oracle, const Query& q,
                            const fxdist::QueryResult& good) {
  std::string failures;
  fxdist::QueryResult dropped = good;
  dropped.records.pop_back();
  dropped.stats.records_matched = dropped.records.size();
  if (CheckResult(oracle, q, dropped).empty()) {
    failures += "a result with one record dropped was accepted; ";
  }
  fxdist::QueryResult altered = good;
  ++altered.stats.qualified_per_device[0];
  if (CheckResult(oracle, q, altered).empty()) {
    failures += "a result with one per-device count altered was accepted; ";
  }
  return failures;
}

}  // namespace perfbench
