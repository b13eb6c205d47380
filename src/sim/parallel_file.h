// ParallelFile: the end-to-end system — multi-key hashing on the way in,
// a declustering method choosing the device, per-device bucket storage,
// and partial match execution with per-device inverse mapping.
//
// This is the "two stage parallel processing" model of the paper's §1 with
// the distribution stage pluggable (FX / Modulo / GDM / custom).  It is
// the "flat" StorageBackend: each device keeps its buckets as in-memory
// record-index vectors.

#ifndef FXDIST_SIM_PARALLEL_FILE_H_
#define FXDIST_SIM_PARALLEL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/device_map.h"
#include "core/distribution.h"
#include "hashing/multikey_hash.h"
#include "sim/device.h"
#include "sim/storage_backend.h"
#include "sim/timing.h"
#include "util/status.h"

namespace fxdist {

class ParallelFile : public StorageBackend {
 public:
  /// `distribution` is a registry spec string ("fx-iu2", "modulo",
  /// "gdm1", ...); `seed` selects the hash family.
  static Result<ParallelFile> Create(const Schema& schema,
                                     std::uint64_t num_devices,
                                     const std::string& distribution,
                                     std::uint64_t seed = 0);

  /// Hashes and stores one record.
  Status Insert(Record record) override;

  /// Executes an application-level partial match query: wildcards are
  /// std::nullopt.  Specified fields are matched by *value equality* after
  /// the bucket-level candidates are fetched (hash collisions are
  /// filtered out).  ExecuteSerial over the device bucket vectors.
  Result<QueryResult> Execute(const ValueQuery& query) const override;

  /// Deletes every record matching the partial match query (same
  /// semantics as Execute's filter).  Returns the number removed.
  /// Storage for deleted records is reclaimed lazily (arena slots are
  /// tombstoned; device buckets drop the entries immediately).
  Result<std::uint64_t> Delete(const ValueQuery& query) override;

  /// Replaces every record matching `query` with `replacement`
  /// (delete + insert, not atomic: if the replacement fails validation
  /// the matched records are already gone).  Returns the number replaced.
  Result<std::uint64_t> Update(const ValueQuery& query,
                               const Record& replacement);

  /// Lifts a value-level query into the hashed domain (specified values
  /// hashed, wildcards kept).  Exposed so batch executors can plan shared
  /// scans over the same hashed signatures Execute uses.
  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return hash_.HashQuery(spec_, query);
  }

  Result<BucketId> HashRecord(const Record& record) const override {
    return hash_.HashRecord(record);
  }

  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;

  std::string backend_name() const override { return "flat"; }
  const FieldSpec& spec() const override { return spec_; }
  const DistributionMethod& method() const override { return *method_; }
  const DeviceMap& device_map() const override { return device_map_; }
  const Schema& schema() const { return hash_.schema(); }
  /// Live (non-deleted) records.
  std::uint64_t num_records() const override { return live_records_; }
  const Device& device(std::uint64_t i) const { return devices_[i]; }
  /// Record at an arena index handed out by Device buckets.  May be a
  /// tombstone (empty) if the record was deleted.
  const Record& record(RecordIndex idx) const { return records_[idx]; }

  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override;

  std::vector<ValueType> FieldTypes() const override {
    std::vector<ValueType> types;
    types.reserve(schema().num_fields());
    for (unsigned f = 0; f < schema().num_fields(); ++f) {
      types.push_back(schema().field(f).type);
    }
    return types;
  }

  /// Per-device record counts — storage balance diagnostics.
  std::vector<std::uint64_t> RecordCountsPerDevice() const override;

  /// Construction parameters, remembered for persistence.
  const std::string& distribution_spec() const { return distribution_spec_; }
  std::uint64_t hash_seed() const { return hash_seed_; }

  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

  /// Visits every live record (persistence / diagnostics).
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    for (const Record& r : records_) {
      if (!r.empty()) fn(static_cast<const Record&>(r));
    }
  }

 private:
  ParallelFile(FieldSpec spec, MultiKeyHash hash,
               std::unique_ptr<DistributionMethod> method);

  FieldSpec spec_;
  std::string distribution_spec_;
  std::uint64_t hash_seed_ = 0;
  MultiKeyHash hash_;
  std::unique_ptr<DistributionMethod> method_;
  DeviceMap device_map_;
  std::vector<Device> devices_;
  std::vector<Record> records_;
  std::uint64_t live_records_ = 0;
};

}  // namespace fxdist

#endif  // FXDIST_SIM_PARALLEL_FILE_H_
