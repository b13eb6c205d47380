// Composite storage backends: the serving plane assembled from child
// StorageBackends instead of one monolithic file.
//
// ShardedBackend owns one child backend per device of the placement
// plane.  Every Insert routes through the cached DeviceMap to the owning
// child and every scan goes to the shard that owns the device, so the
// default Execute (ExecuteSerial over ScanBucket, or one ScanMany gather
// when a child is remote) returns QueryStats bit-identical to a
// monolithic backend over the same records.  The composite's placement
// plane is *frozen* at construction: children whose bucket space can
// change (dynamic files) must be provisioned large enough not to grow —
// a child that outgrows the plane poisons the composite: the offending
// Insert and every operation after it (reads included — the frozen
// plane's linear bucket ids no longer mean the same thing inside the
// grown child) fails with a clean FailedPrecondition instead of
// silently diverging.
//
// ReplicatedBackend pairs a primary placement with the paper-style
// complementary replica: the same file built under "rot<k>:<primary>"
// (core/rotation.h), k = M/2 for mirrored declustering, k = 1 for
// chained.  MarkDown/MarkUp flip runtime device state; while a device is
// down, every scan it owned is served from the replica's holder and the
// degraded QueryStats charge the serving device, matching the
// analysis/availability model (mirrored: the partner absorbs the whole
// orphaned share; chained: survivors shed decreasing fractions of their
// own primaries down the chain).  Degraded mode is read-only, and
// marking down both a device and its replica partner is refused — that
// would lose both copies of its buckets.

#ifndef FXDIST_SIM_COMPOSITE_BACKEND_H_
#define FXDIST_SIM_COMPOSITE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/availability.h"
#include "sim/storage_backend.h"

namespace fxdist {

class ShardedBackend : public StorageBackend {
 public:
  /// Takes one identically-constructed, empty child per device
  /// (children.size() must equal each child's num_devices()).  All
  /// children must agree on kind and bucket-space shape; child 0 doubles
  /// as the composite's placement plane.
  static Result<ShardedBackend> Create(
      std::vector<std::unique_ptr<StorageBackend>> children);

  std::string backend_name() const override { return "sharded"; }
  const FieldSpec& spec() const override { return children_.front()->spec(); }
  const DistributionMethod& method() const override {
    return children_.front()->method();
  }
  const DeviceMap& device_map() const override {
    return children_.front()->device_map();
  }
  std::uint64_t num_records() const override;

  Status Insert(Record record) override;
  /// Routes the batch in one pass: records are grouped by owning child
  /// (preserving arrival order within each group — same-bucket records
  /// land on the same child, so per-bucket scan order matches a loop of
  /// Insert) and each touched child gets one InsertBatch call.  A remote
  /// child turns its group into one frame per chunk.
  Status InsertBatch(std::vector<Record> records) override;
  Result<std::uint64_t> Delete(const ValueQuery& query) override;

  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return children_.front()->HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return children_.front()->HashRecord(record);
  }

  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override {
    children_[device]->ScanBucket(device, linear_bucket, fn);
  }
  /// Scatter-gather: the refs are grouped by owning child and each
  /// child gets its whole group as one ScanMany (a remote child turns
  /// that into one frame per chunk instead of one per bucket).  Groups
  /// for distinct children run concurrently, each bounded by that
  /// child's own deadline budget; `fn` must therefore tolerate
  /// concurrent calls for distinct ref indices.  `fn` returning false
  /// cancels the whole scatter: children not yet started are skipped and
  /// concurrently-delivering children stop at their next record.
  void ScanMany(
      const std::vector<BucketRef>& refs,
      const std::function<bool(std::size_t, const Record&)>& fn)
      const override;
  /// True when any child's gather blocks on the wire.
  bool ScanPrefersFanout() const override;
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override {
    return children_[device]->IsBucketLive(device, linear_bucket);
  }

  std::vector<std::uint64_t> RecordCountsPerDevice() const override;

  /// Sum of the children's epochs: every routed Insert/Delete bumps its
  /// owning child, so the aggregate is monotone and changes iff some
  /// child's state did.
  std::uint64_t MutationEpoch() const override {
    std::uint64_t sum = 0;
    for (const auto& child : children_) sum += child->MutationEpoch();
    return sum;
  }

  /// Poisoned state, or the first unhealthy child (a remote shard past
  /// its retry budget surfaces here as Unavailable).
  Status Health() const override;

  bool ScanRecordsAreStable() const override {
    for (const auto& child : children_) {
      if (!child->ScanRecordsAreStable()) return false;
    }
    return true;
  }
  std::vector<ValueType> FieldTypes() const override {
    return children_.front()->FieldTypes();
  }
  std::uint64_t ApproxMemoryBytes() const override {
    std::uint64_t bytes = 0;
    for (const auto& child : children_) bytes += child->ApproxMemoryBytes();
    return bytes;
  }

  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

  const std::string& child_kind() const { return child_kind_; }
  const StorageBackend& child(std::uint64_t device) const {
    return *children_[device];
  }

 private:
  explicit ShardedBackend(
      std::vector<std::unique_ptr<StorageBackend>> children);

  std::vector<std::unique_ptr<StorageBackend>> children_;
  std::string child_kind_;
  /// Bucket-space shape the plane was frozen at (see file comment).
  std::vector<std::uint64_t> frozen_sizes_;
  /// Non-empty once a child outgrew the plane; every operation repeats
  /// this FailedPrecondition from then on.
  std::string poisoned_;
};

class ReplicatedBackend : public StorageBackend {
 public:
  /// Device offset of the complementary replica: M/2 for mirrored
  /// declustering, 1 for chained.
  static std::uint64_t ReplicaOffset(ReplicaPlacement placement,
                                     std::uint64_t num_devices) {
    return placement == ReplicaPlacement::kMirrored ? num_devices / 2 : 1;
  }

  /// `replica` must be the same file as `primary` (kind, shape, seed)
  /// built under the rotated distribution "rot<offset>:<primary spec>";
  /// the rotation is verified against the device maps.  Both must be
  /// empty — records arrive through the composite's Insert, which writes
  /// both copies.  Children with mutable bucket spaces (dynamic) are
  /// rejected: growth re-plans placement per copy, uncoordinated.
  static Result<ReplicatedBackend> Create(
      std::unique_ptr<StorageBackend> primary,
      std::unique_ptr<StorageBackend> replica, ReplicaPlacement placement);

  /// Takes `device` out of service.  Refused (FailedPrecondition, no
  /// state change) if the device is already down or if losing it would
  /// leave some bucket with both copies down.
  Status MarkDown(std::uint64_t device);
  /// Returns `device` to service.
  Status MarkUp(std::uint64_t device);
  bool IsDown(std::uint64_t device) const {
    return device < down_.size() && down_[device] != 0;
  }
  std::uint64_t num_down() const { return num_down_; }
  ReplicaPlacement placement() const { return placement_; }
  std::uint64_t replica_offset() const { return offset_; }

  std::string backend_name() const override { return "replicated"; }
  const FieldSpec& spec() const override { return primary_->spec(); }
  const DistributionMethod& method() const override {
    return primary_->method();
  }
  const DeviceMap& device_map() const override {
    return primary_->device_map();
  }
  std::uint64_t num_records() const override {
    return primary_->num_records();
  }

  /// Writes both copies.  Refused while any device is down (degraded
  /// mode is read-only: the down copy would silently miss the write).
  Status Insert(Record record) override;
  /// Deletes from both copies.  Refused while any device is down.
  Result<std::uint64_t> Delete(const ValueQuery& query) override;

  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return primary_->HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return primary_->HashRecord(record);
  }

  /// Healthy: every bucket is served where the primary placed it.  With
  /// device f down, mirrored routing sends all of f's buckets to the
  /// partner (f + M/2) mod M; chained routing sends them to (f + 1) and
  /// rebalances down the chain: survivor f + k keeps the fraction
  /// k/(M-1) of its own primaries (its first ceil(k/(M-1) * n) buckets
  /// in ascending linear order) and serves the rest from its successor's
  /// replica — Hsiao & DeWitt's chained-declustering balance, and the
  /// bucket-level realization of AnalyzeDegradedMode's chained model.
  /// With several devices down (or no precomputed device table), chained
  /// routing falls back to the forced re-route only.
  std::uint64_t ServingDevice(std::uint64_t device,
                              std::uint64_t linear_bucket) const override;
  bool HasDegradedRouting() const override { return num_down_ > 0; }

  /// Serves from the copy ServingDevice names: the primary in place, or
  /// the replica's rotated holder.  Record order is identical either way
  /// (both copies replay the same insert order).
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override;
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;

  std::vector<std::uint64_t> RecordCountsPerDevice() const override {
    return primary_->RecordCountsPerDevice();
  }

  /// Children's epochs plus this composite's own counter, which
  /// MarkDown/MarkUp bump: a device-state flip changes degraded routing
  /// (and with it QueryStats accounting), so cached results computed
  /// before the flip must invalidate even though no record moved.
  std::uint64_t MutationEpoch() const override {
    return StorageBackend::MutationEpoch() + primary_->MutationEpoch() +
           replica_->MutationEpoch();
  }

  Status Health() const override {
    if (auto st = primary_->Health(); !st.ok()) return st;
    return replica_->Health();
  }

  bool ScanRecordsAreStable() const override {
    return primary_->ScanRecordsAreStable() &&
           replica_->ScanRecordsAreStable();
  }
  std::vector<ValueType> FieldTypes() const override {
    return primary_->FieldTypes();
  }
  std::uint64_t ApproxMemoryBytes() const override {
    return primary_->ApproxMemoryBytes() + replica_->ApproxMemoryBytes();
  }

  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override {
    primary_->ForEachLiveRecord(fn);
  }

  const StorageBackend& primary() const { return *primary_; }
  const StorageBackend& replica() const { return *replica_; }

 private:
  ReplicatedBackend(std::unique_ptr<StorageBackend> primary,
                    std::unique_ptr<StorageBackend> replica,
                    ReplicaPlacement placement, std::uint64_t offset);

  std::unique_ptr<StorageBackend> primary_;
  std::unique_ptr<StorageBackend> replica_;
  ReplicaPlacement placement_;
  std::uint64_t offset_;
  std::vector<char> down_;
  std::uint64_t num_down_ = 0;
  std::uint64_t single_down_ = 0;  ///< the failed device when num_down_ == 1
};

/// Convenience: a replicated pair of flat ParallelFiles — the primary
/// under `distribution`, the replica under its complementary rotation.
Result<std::unique_ptr<ReplicatedBackend>> MakeReplicatedFlat(
    const Schema& schema, std::uint64_t num_devices,
    const std::string& distribution, ReplicaPlacement placement,
    std::uint64_t seed = 0);

}  // namespace fxdist

#endif  // FXDIST_SIM_COMPOSITE_BACKEND_H_
