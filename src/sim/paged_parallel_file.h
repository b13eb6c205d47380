// PagedParallelFile: the two-stage model with a disk-shaped second stage.
//
// Same distribution stage as ParallelFile (multi-key hash + pluggable
// declustering), but each device stores its buckets in a PageStore —
// fixed-capacity pages with overflow chains — and ExecutePaged accounts
// *pages read* per device, the unit a disk actually pays.  This closes
// the loop on the paper's two-stage model: stage 1 decides the device,
// stage 2 decides how many I/Os the device performs for its share.
//
// ExecutePaged is the one page-accounting path.  As the "paged"
// StorageBackend it answers Execute with the default ExecuteSerial over
// ScanBucket (bucket-count QueryStats, the same records, no page
// accounting), so the batch QueryEngine and persistence drive it like
// any other backend.

#ifndef FXDIST_SIM_PAGED_PARALLEL_FILE_H_
#define FXDIST_SIM_PAGED_PARALLEL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/device_map.h"
#include "core/distribution.h"
#include "hashing/multikey_hash.h"
#include "sim/page_store.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

struct PagedQueryStats {
  std::vector<std::uint64_t> pages_read_per_device;
  std::uint64_t total_pages_read = 0;
  std::uint64_t largest_pages_read = 0;  ///< gating device, in pages
  std::uint64_t records_examined = 0;
  std::uint64_t records_matched = 0;
};

struct PagedQueryResult {
  std::vector<Record> records;
  PagedQueryStats stats;
};

class PagedParallelFile : public StorageBackend {
 public:
  static Result<PagedParallelFile> Create(const Schema& schema,
                                          std::uint64_t num_devices,
                                          const std::string& distribution,
                                          std::size_t records_per_page,
                                          std::uint64_t seed = 0);

  Status Insert(Record record) override;

  /// Partial match with page-level accounting (what the disk pays).
  Result<PagedQueryResult> ExecutePaged(const ValueQuery& query) const;

  /// Deletes every record matching the query; pages that empty are
  /// recycled.  Returns the number removed.
  Result<std::uint64_t> Delete(const ValueQuery& query) override;

  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return hash_.HashQuery(spec_, query);
  }

  Result<BucketId> HashRecord(const Record& record) const override {
    return hash_.HashRecord(record);
  }

  std::string backend_name() const override { return "paged"; }
  const FieldSpec& spec() const override { return spec_; }
  const DistributionMethod& method() const override { return *method_; }
  const DeviceMap& device_map() const override { return device_map_; }
  const Schema& schema() const { return hash_.schema(); }
  std::uint64_t num_records() const override { return live_records_; }

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

  std::vector<std::uint64_t> RecordCountsPerDevice() const override;

  /// Construction parameters, remembered for persistence.
  const std::string& distribution_spec() const { return distribution_spec_; }
  std::uint64_t hash_seed() const { return hash_seed_; }
  std::size_t records_per_page() const { return records_per_page_; }

  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

  /// Pages in use on device d.
  std::uint64_t DevicePages(std::uint64_t device) const {
    return stores_[device].num_pages();
  }
  /// Mean page utilization across devices.
  double MeanUtilization() const;

 private:
  PagedParallelFile(FieldSpec spec, MultiKeyHash hash,
                    std::unique_ptr<DistributionMethod> method,
                    std::size_t records_per_page);

  FieldSpec spec_;
  std::string distribution_spec_;
  std::uint64_t hash_seed_ = 0;
  std::size_t records_per_page_ = 1;
  MultiKeyHash hash_;
  std::unique_ptr<DistributionMethod> method_;
  DeviceMap device_map_;
  std::vector<PageStore> stores_;
  std::vector<Record> records_;
  std::uint64_t live_records_ = 0;
};

}  // namespace fxdist

#endif  // FXDIST_SIM_PAGED_PARALLEL_FILE_H_
