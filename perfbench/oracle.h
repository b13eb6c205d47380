// The benchmark's own oracle: every row it has loaded or written, indexed
// per field, and the checks every read is held to.
//
// The oracle never asks the program what a query should return.  It
// answers from its own per-field index, so a result served from the
// cache, a batched read, a single lookup and a remote reply are all
// compared with the same independent answer.  Placement is checked the
// other way round from how the program computes it: the engine and
// Execute enumerate each device's buckets through the inverse map, the
// recount here walks every qualified bucket through the forward map
// DeviceMap::DeviceOf.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "inputs.h"
#include "sim/storage_backend.h"

namespace perfbench {

class Oracle {
 public:
  void Add(const Row& row);

  const std::vector<Row>& rows() const { return rows_; }

  /// Every row that matches `q`, sorted.  Valid until the next call.
  const std::vector<Row>& Expected(const Query& q) const;

 private:
  std::vector<Row> Match(const Query& q) const;

  std::vector<Row> rows_;
  /// Answers since the last Add: the front door's popular templates
  /// repeat many times between writes.
  mutable std::unordered_map<Query, std::vector<Row>, QueryHash> memo_;
  /// Per field: value -> indices into rows_.
  std::array<std::unordered_map<std::int64_t, std::vector<std::uint32_t>>,
             kFields>
      index_;
};

/// Empty when `result` holds exactly the multiset of rows the oracle
/// matches for `q` and its stats satisfy the placement identities:
/// sum(qualified_per_device) = product of the unspecified field sizes,
/// optimal_bound = ceil(that / M), largest_response = max of the
/// per-device counts, records_matched = rows returned.  Otherwise a
/// description of the first disagreement.
std::string CheckResult(const Oracle& oracle, const Query& q,
                        const fxdist::QueryResult& result);

/// Empty when the per-device qualified counts in `stats` equal a recount
/// that enumerates every bucket of R(q) through `backend`'s forward map.
std::string CheckPlacement(const fxdist::StorageBackend& backend,
                           const Query& q, const fxdist::QueryStats& stats);

/// Feeds CheckResult two corrupted copies of a result it accepted — one
/// record dropped, one per-device count altered — and returns a
/// description of each corruption it failed to reject (empty: both were
/// rejected).  `good` must hold at least one record.
std::string CheckerSelfTest(const Oracle& oracle, const Query& q,
                            const fxdist::QueryResult& good);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
