// DynamicParallelFile: FX declustering over *growing* extendible-hash
// directories.
//
// The static ParallelFile fixes every field directory size up front.  Real
// dynamic-hashing files (the setting the paper assumes) grow: when a
// field's extendible directory doubles, the bucket space — and therefore
// the FieldSpec — changes, the transformation plan may change (a field can
// stop being "small"), and buckets move between devices.  This class owns
// that loop: per-field ExtendibleDirectory instances, automatic FX
// re-planning and full redistribution on every directory doubling.  The
// cached DeviceMap is rebuilt with the plan, so lookups stay O(1) between
// rebuilds.
//
// Redistribution is the honest cost of the scheme; num_rebuilds() and
// records_moved() expose it, and the growing_file example charts it.
//
// As the "dynamic" StorageBackend it answers the standard Execute/Scan
// contract; Delete is unimplemented (extendible directories only grow).

#ifndef FXDIST_SIM_DYNAMIC_PARALLEL_FILE_H_
#define FXDIST_SIM_DYNAMIC_PARALLEL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/device_map.h"
#include "core/fx.h"
#include "hashing/extendible.h"
#include "hashing/hash_functions.h"
#include "sim/device.h"
#include "sim/storage_backend.h"

namespace fxdist {

/// A field declaration without a directory size — the directory grows.
struct DynamicFieldDecl {
  std::string name;
  ValueType type = ValueType::kInt64;
};

class DynamicParallelFile : public StorageBackend {
 public:
  /// `page_capacity`: keys per extendible-hash page before it splits.
  /// `initial_depths` (empty, or one entry per field) pre-grows each
  /// field's directory to 2^depth cells, so the bucket space starts at a
  /// provisioned shape instead of all-ones.  Sharded composites rely on
  /// this: their placement plane is frozen at construction, so dynamic
  /// children must be provisioned large enough not to grow.
  static Result<DynamicParallelFile> Create(
      std::vector<DynamicFieldDecl> fields, std::uint64_t num_devices,
      std::size_t page_capacity, PlanFamily family = PlanFamily::kIU2,
      std::uint64_t seed = 0, std::vector<unsigned> initial_depths = {});

  /// Hashes, stores, and (on directory growth) redistributes.
  Status Insert(Record record) override;

  /// Partial match over the *current* directory state: ExecuteSerial
  /// over the device bucket vectors.
  Result<QueryResult> Execute(const ValueQuery& query) const override;

  /// Extendible directories only grow; deletion is not supported.
  Result<std::uint64_t> Delete(const ValueQuery& query) override;

  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override;

  Result<BucketId> HashRecord(const Record& record) const override;

  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;

  std::string backend_name() const override { return "dynamic"; }

  /// Current bucket-space shape (changes as directories double).
  const FieldSpec& spec() const override { return spec_; }
  const FXDistribution& method() const override { return *method_; }
  const DeviceMap& device_map() const override { return device_map_; }

  std::uint64_t num_records() const override { return records_.size(); }
  /// How many times a directory doubling forced a redistribution.
  std::uint64_t num_rebuilds() const { return rebuilds_; }
  /// Total record placements performed by those rebuilds.
  std::uint64_t records_moved() const { return records_moved_; }

  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override;

  std::vector<ValueType> FieldTypes() const override {
    std::vector<ValueType> types;
    types.reserve(fields_.size());
    for (const DynamicFieldDecl& field : fields_) types.push_back(field.type);
    return types;
  }

  std::vector<std::uint64_t> RecordCountsPerDevice() const override;

  /// Construction parameters, remembered for persistence.
  const std::vector<DynamicFieldDecl>& fields() const { return fields_; }
  PlanFamily family() const { return family_; }
  std::size_t page_capacity() const { return page_capacity_; }
  std::uint64_t hash_seed() const { return hash_seed_; }
  const std::vector<unsigned>& initial_depths() const {
    return initial_depths_;
  }

  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

 private:
  DynamicParallelFile(std::vector<DynamicFieldDecl> fields,
                      std::uint64_t num_devices, PlanFamily family,
                      const std::vector<unsigned>& initial_depths);

  /// Field-hash -> current bucket coordinate.
  std::uint64_t Coordinate(unsigned field, std::uint64_t hash) const {
    return hash & (spec_.field_size(field) - 1);
  }

  /// Recomputes spec_/method_/device_map_ from directory sizes and
  /// re-places all records.  Returns true if the spec actually changed.
  bool RebuildIfGrown();
  void PlaceRecord(RecordIndex index);

  std::vector<DynamicFieldDecl> fields_;
  std::uint64_t num_devices_;
  PlanFamily family_;
  std::size_t page_capacity_ = 0;
  std::uint64_t hash_seed_ = 0;
  std::vector<unsigned> initial_depths_;
  std::vector<std::shared_ptr<FieldHasher>> hashers_;  // 2^32-wide hashes
  std::vector<ExtendibleDirectory> dirs_;
  FieldSpec spec_;
  std::unique_ptr<FXDistribution> method_;
  DeviceMap device_map_;
  std::vector<Device> devices_;
  std::vector<Record> records_;
  std::vector<std::vector<std::uint64_t>> record_hashes_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t records_moved_ = 0;
};

}  // namespace fxdist

#endif  // FXDIST_SIM_DYNAMIC_PARALLEL_FILE_H_
