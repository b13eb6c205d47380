#include "sim/composite_backend.h"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/rotation.h"
#include "sim/parallel_file.h"

namespace fxdist {

namespace {

std::vector<std::uint64_t> SpecSizes(const FieldSpec& spec) {
  std::vector<std::uint64_t> sizes(spec.num_fields());
  for (unsigned i = 0; i < spec.num_fields(); ++i) {
    sizes[i] = spec.field_size(i);
  }
  return sizes;
}

std::string SizesToString(const std::vector<std::uint64_t>& sizes) {
  std::ostringstream out;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out << (i == 0 ? "" : "x") << sizes[i];
  }
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------
// ShardedBackend

ShardedBackend::ShardedBackend(
    std::vector<std::unique_ptr<StorageBackend>> children)
    : children_(std::move(children)),
      child_kind_(children_.front()->backend_name()),
      frozen_sizes_(SpecSizes(children_.front()->spec())) {}

Result<ShardedBackend> ShardedBackend::Create(
    std::vector<std::unique_ptr<StorageBackend>> children) {
  if (children.empty()) {
    return Status::InvalidArgument("sharded backend needs children");
  }
  for (const auto& child : children) {
    if (child == nullptr) {
      return Status::InvalidArgument("sharded child is null");
    }
  }
  const StorageBackend& first = *children.front();
  if (children.size() != first.num_devices()) {
    return Status::InvalidArgument(
        "sharded backend needs one child per device: " +
        std::to_string(children.size()) + " children for " +
        std::to_string(first.num_devices()) + " devices");
  }
  const std::vector<std::uint64_t> sizes = SpecSizes(first.spec());
  for (const auto& child : children) {
    if (child->backend_name() != first.backend_name()) {
      return Status::InvalidArgument("sharded children disagree on kind: " +
                                     child->backend_name() + " vs " +
                                     first.backend_name());
    }
    if (child->num_devices() != first.num_devices() ||
        SpecSizes(child->spec()) != sizes) {
      return Status::InvalidArgument(
          "sharded children disagree on bucket-space shape");
    }
    // Read-only children (packed shards) arrive full by design; mutable
    // children must start empty so every record routes through the
    // composite's Insert.
    if (child->num_records() != 0 && !child->IsReadOnly()) {
      return Status::InvalidArgument(
          "sharded children must start empty (records arrive through the "
          "composite's Insert)");
    }
  }
  return ShardedBackend(std::move(children));
}

std::uint64_t ShardedBackend::num_records() const {
  std::uint64_t total = 0;
  for (const auto& child : children_) total += child->num_records();
  return total;
}

Status ShardedBackend::Insert(Record record) {
  if (!poisoned_.empty()) return Status::FailedPrecondition(poisoned_);
  auto bucket = children_.front()->HashRecord(record);
  FXDIST_RETURN_NOT_OK(bucket.status());
  const std::uint64_t device = device_map().DeviceOf(*bucket);
  FXDIST_RETURN_NOT_OK(children_[device]->Insert(std::move(record)));
  // The composite's plane is frozen; a dynamic child whose directories
  // just doubled now disagrees with it — the frozen plane's linear ids
  // no longer name the same buckets inside that child, so any further
  // routing (reads included) would be silently wrong.  Poison the
  // composite and fail loudly instead.
  if (SpecSizes(children_[device]->spec()) != frozen_sizes_) {
    poisoned_ =
        "shard " + std::to_string(device) +
        " outgrew the frozen composite plane (bucket space " +
        SizesToString(SpecSizes(children_[device]->spec())) + " vs frozen " +
        SizesToString(frozen_sizes_) +
        "): re-shard with larger provisioned directories";
    return Status::FailedPrecondition(poisoned_);
  }
  return Status::OK();
}

Status ShardedBackend::InsertBatch(std::vector<Record> records) {
  if (!poisoned_.empty()) return Status::FailedPrecondition(poisoned_);
  std::vector<std::vector<Record>> by_child(children_.size());
  for (Record& record : records) {
    auto bucket = children_.front()->HashRecord(record);
    FXDIST_RETURN_NOT_OK(bucket.status());
    by_child[device_map().DeviceOf(*bucket)].push_back(std::move(record));
  }
  for (std::uint64_t device = 0; device < children_.size(); ++device) {
    if (by_child[device].empty()) continue;
    FXDIST_RETURN_NOT_OK(
        children_[device]->InsertBatch(std::move(by_child[device])));
    if (SpecSizes(children_[device]->spec()) != frozen_sizes_) {
      poisoned_ =
          "shard " + std::to_string(device) +
          " outgrew the frozen composite plane (bucket space " +
          SizesToString(SpecSizes(children_[device]->spec())) +
          " vs frozen " + SizesToString(frozen_sizes_) +
          "): re-shard with larger provisioned directories";
      return Status::FailedPrecondition(poisoned_);
    }
  }
  return Status::OK();
}

Result<std::uint64_t> ShardedBackend::Delete(const ValueQuery& query) {
  if (!poisoned_.empty()) return Status::FailedPrecondition(poisoned_);
  // Each shard holds a disjoint slice of the qualified buckets; the sum
  // of per-shard deletions is the composite count.
  std::uint64_t total = 0;
  for (auto& child : children_) {
    auto removed = child->Delete(query);
    FXDIST_RETURN_NOT_OK(removed.status());
    total += *removed;
  }
  return total;
}

void ShardedBackend::ScanMany(
    const std::vector<BucketRef>& refs,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  // All-local composites skip the scatter/gather machinery: the default
  // serial sweep over ScanBucket (which forwards to the owning child)
  // satisfies the delivery contract with no grouping allocations.
  if (!ScanPrefersFanout()) return StorageBackend::ScanMany(refs, fn);
  // Scatter: group refs by owning child, preserving each child's ref
  // order (the per-ref delivery order contract is per child, and the
  // grouping keeps it).
  std::vector<std::vector<std::size_t>> by_child(children_.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    by_child[refs[i].device].push_back(i);
  }
  // fn returning false cancels the whole scatter: the flag stops this
  // child's delivery at once and every other child's at its next record
  // (concurrently-delivering children cannot be stopped mid-call, only
  // between records — exactly the contract's allowance).
  std::atomic<bool> cancelled{false};
  const auto run_child = [this, &refs, &by_child, &fn,
                          &cancelled](std::uint64_t device) {
    if (cancelled.load(std::memory_order_relaxed)) return;
    const std::vector<std::size_t>& indices = by_child[device];
    std::vector<BucketRef> child_refs;
    child_refs.reserve(indices.size());
    for (std::size_t i : indices) child_refs.push_back(refs[i]);
    children_[device]->ScanMany(
        child_refs,
        [&fn, &indices, &cancelled](std::size_t j, const Record& record) {
          if (cancelled.load(std::memory_order_relaxed)) return false;
          if (!fn(indices[j], record)) {
            cancelled.store(true, std::memory_order_relaxed);
            return false;
          }
          return true;
        });
  };
  // Gather: children whose scans block on the wire are overlapped on
  // their own threads — each is bounded by its own deadline budget, so
  // one slow shard delays the gather by at most that budget instead of
  // serializing behind every other shard's wait.  Local children run
  // inline: their scans are pure CPU and a thread spawn costs more than
  // the scan it would overlap.
  std::vector<std::uint64_t> inline_children;
  std::vector<std::uint64_t> fanout_children;
  for (std::uint64_t d = 0; d < children_.size(); ++d) {
    if (by_child[d].empty()) continue;
    if (children_[d]->ScanPrefersFanout()) {
      fanout_children.push_back(d);
    } else {
      inline_children.push_back(d);
    }
  }
  // The first fanout child runs on this thread when there is no inline
  // work to overlap with (so a single remote child never pays a spawn).
  std::size_t first_threaded = inline_children.empty() ? 1 : 0;
  std::vector<std::thread> workers;
  if (fanout_children.size() > first_threaded) {
    workers.reserve(fanout_children.size() - first_threaded);
    for (std::size_t k = first_threaded; k < fanout_children.size(); ++k) {
      workers.emplace_back(
          [&run_child, device = fanout_children[k]] { run_child(device); });
    }
  }
  if (inline_children.empty() && !fanout_children.empty()) {
    run_child(fanout_children.front());
  }
  for (std::uint64_t d : inline_children) run_child(d);
  for (std::thread& worker : workers) worker.join();
}

bool ShardedBackend::ScanPrefersFanout() const {
  for (const auto& child : children_) {
    if (child->ScanPrefersFanout()) return true;
  }
  return false;
}

std::vector<std::uint64_t> ShardedBackend::RecordCountsPerDevice() const {
  std::vector<std::uint64_t> out(children_.size(), 0);
  for (std::uint64_t d = 0; d < children_.size(); ++d) {
    const std::vector<std::uint64_t> counts =
        children_[d]->RecordCountsPerDevice();
    for (std::uint64_t i = 0; i < counts.size(); ++i) out[i] += counts[i];
  }
  return out;
}

Status ShardedBackend::Health() const {
  if (!poisoned_.empty()) return Status::FailedPrecondition(poisoned_);
  for (const auto& child : children_) {
    FXDIST_RETURN_NOT_OK(child->Health());
  }
  return Status::OK();
}

void ShardedBackend::SaveParams(std::ostream& out) const {
  out << "child " << child_kind_ << '\n';
  children_.front()->SaveParams(out);
}

void ShardedBackend::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  // Each bucket lives wholly within one child, so visiting children in
  // device order preserves every bucket's internal scan order — which is
  // what LoadBackend's insert replay must reproduce.
  for (const auto& child : children_) child->ForEachLiveRecord(fn);
}

// ---------------------------------------------------------------------
// ReplicatedBackend

ReplicatedBackend::ReplicatedBackend(std::unique_ptr<StorageBackend> primary,
                                     std::unique_ptr<StorageBackend> replica,
                                     ReplicaPlacement placement,
                                     std::uint64_t offset)
    : primary_(std::move(primary)), replica_(std::move(replica)),
      placement_(placement), offset_(offset),
      down_(primary_->num_devices(), 0) {}

Result<ReplicatedBackend> ReplicatedBackend::Create(
    std::unique_ptr<StorageBackend> primary,
    std::unique_ptr<StorageBackend> replica, ReplicaPlacement placement) {
  if (primary == nullptr || replica == nullptr) {
    return Status::InvalidArgument("replicated backend needs both copies");
  }
  const std::uint64_t m = primary->num_devices();
  if (m < 2) {
    return Status::InvalidArgument("replication needs at least 2 devices");
  }
  if (primary->backend_name() == "dynamic" ||
      replica->backend_name() == "dynamic") {
    return Status::InvalidArgument(
        "replicated backend does not support dynamic children (growth "
        "re-plans placement per copy, uncoordinated)");
  }
  if (replica->backend_name() != primary->backend_name()) {
    return Status::InvalidArgument("replica kind differs from primary: " +
                                   replica->backend_name() + " vs " +
                                   primary->backend_name());
  }
  if (replica->num_devices() != m ||
      SpecSizes(replica->spec()) != SpecSizes(primary->spec())) {
    return Status::InvalidArgument(
        "replica bucket-space shape differs from primary");
  }
  if (primary->num_records() != 0 || replica->num_records() != 0) {
    return Status::InvalidArgument(
        "replicated copies must start empty (records arrive through the "
        "composite's Insert)");
  }
  const std::uint64_t offset = ReplicaOffset(placement, m);
  if (offset == 0) {
    return Status::InvalidArgument("replica offset is zero for M=" +
                                   std::to_string(m));
  }
  // The whole degraded-routing contract rests on the replica being the
  // +offset rotation of the primary; verify it bucket by bucket (or by
  // sample when the maps are too large to precompute).
  const DeviceMap& pmap = primary->device_map();
  const DeviceMap& rmap = replica->device_map();
  const std::uint64_t total = primary->spec().TotalBuckets();
  const std::uint64_t step =
      (pmap.precomputed() && rmap.precomputed())
          ? 1
          : std::max<std::uint64_t>(1, total / 4096);
  for (std::uint64_t b = 0; b < total; b += step) {
    if (rmap.DeviceOfLinear(b) != (pmap.DeviceOfLinear(b) + offset) % m) {
      return Status::InvalidArgument(
          "replica placement is not the +" + std::to_string(offset) +
          " rotation of the primary (bucket " + std::to_string(b) + ")");
    }
  }
  return ReplicatedBackend(std::move(primary), std::move(replica), placement,
                           offset);
}

Status ReplicatedBackend::MarkDown(std::uint64_t device) {
  const std::uint64_t m = num_devices();
  if (device >= m) {
    return Status::InvalidArgument("no such device: " +
                                   std::to_string(device));
  }
  if (down_[device] != 0) {
    return Status::FailedPrecondition("device " + std::to_string(device) +
                                      " is already down");
  }
  down_[device] = 1;
  ++num_down_;
  // Availability invariant: for every down device f, the holder of its
  // replica (f + offset) must be up, and f must not hold the only live
  // copy of another down device's buckets.
  for (std::uint64_t f = 0; f < m; ++f) {
    if (down_[f] != 0 && down_[(f + offset_) % m] != 0) {
      down_[device] = 0;
      --num_down_;
      return Status::FailedPrecondition(
          "marking device " + std::to_string(device) +
          " down would leave both copies of device " + std::to_string(f) +
          "'s buckets unreachable (replica holder " +
          std::to_string((f + offset_) % m) + " is down)");
    }
  }
  if (num_down_ == 1) single_down_ = device;
  // A state flip re-routes scans and changes QueryStats accounting, so
  // results cached before it must invalidate (see MutationEpoch).
  BumpMutationEpoch();
  return Status::OK();
}

Status ReplicatedBackend::MarkUp(std::uint64_t device) {
  if (device >= num_devices()) {
    return Status::InvalidArgument("no such device: " +
                                   std::to_string(device));
  }
  if (down_[device] == 0) {
    return Status::FailedPrecondition("device " + std::to_string(device) +
                                      " is not down");
  }
  down_[device] = 0;
  --num_down_;
  if (num_down_ == 1) {
    for (std::uint64_t d = 0; d < num_devices(); ++d) {
      if (down_[d] != 0) single_down_ = d;
    }
  }
  BumpMutationEpoch();
  return Status::OK();
}

Status ReplicatedBackend::Insert(Record record) {
  if (num_down_ > 0) {
    return Status::FailedPrecondition(
        "replicated backend is read-only while degraded (" +
        std::to_string(num_down_) + " device(s) down)");
  }
  Record copy = record;
  FXDIST_RETURN_NOT_OK(primary_->Insert(std::move(record)));
  return replica_->Insert(std::move(copy));
}

Result<std::uint64_t> ReplicatedBackend::Delete(const ValueQuery& query) {
  if (num_down_ > 0) {
    return Status::FailedPrecondition(
        "replicated backend is read-only while degraded (" +
        std::to_string(num_down_) + " device(s) down)");
  }
  auto removed = primary_->Delete(query);
  FXDIST_RETURN_NOT_OK(removed.status());
  auto replica_removed = replica_->Delete(query);
  FXDIST_RETURN_NOT_OK(replica_removed.status());
  if (*removed != *replica_removed) {
    return Status::Internal("replica delete count diverged: " +
                            std::to_string(*removed) + " vs " +
                            std::to_string(*replica_removed));
  }
  return *removed;
}

std::uint64_t ReplicatedBackend::ServingDevice(
    std::uint64_t device, std::uint64_t linear_bucket) const {
  if (num_down_ == 0) return device;
  const std::uint64_t m = num_devices();
  if (down_[device] != 0) return (device + offset_) % m;
  if (placement_ == ReplicaPlacement::kMirrored) return device;
  // Chained re-balancing: only well-defined for a single failure, and it
  // needs the per-device bucket index to rank this bucket.
  if (num_down_ != 1) return device;
  const DeviceMap& map = primary_->device_map();
  if (!map.precomputed()) return device;
  const std::uint64_t k = (device + m - single_down_) % m;
  if (k == m - 1) return device;  // the shed target would be the failed one
  const std::vector<std::uint64_t>& owned = map.BucketsOnDevice(device);
  const std::uint64_t keep =
      (k * owned.size() + (m - 2)) / (m - 1);  // ceil(k/(m-1) * n)
  const auto rank = static_cast<std::uint64_t>(
      std::lower_bound(owned.begin(), owned.end(), linear_bucket) -
      owned.begin());
  return rank < keep ? device : (device + 1) % m;
}

void ReplicatedBackend::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  if (ServingDevice(device, linear_bucket) == device) {
    primary_->ScanBucket(device, linear_bucket, fn);
  } else {
    // Any re-route — forced (device down) or chained shedding — lands on
    // the replica's holder of this bucket, (device + offset) mod M.
    replica_->ScanBucket((device + offset_) % num_devices(), linear_bucket,
                         fn);
  }
}

bool ReplicatedBackend::IsBucketLive(std::uint64_t device,
                                     std::uint64_t linear_bucket) const {
  if (ServingDevice(device, linear_bucket) == device) {
    return primary_->IsBucketLive(device, linear_bucket);
  }
  return replica_->IsBucketLive((device + offset_) % num_devices(),
                                linear_bucket);
}

void ReplicatedBackend::SaveParams(std::ostream& out) const {
  out << "placement "
      << (placement_ == ReplicaPlacement::kMirrored ? "mirrored" : "chained")
      << '\n';
  out << "down " << num_down_;
  for (std::uint64_t d = 0; d < num_devices(); ++d) {
    if (down_[d] != 0) out << ' ' << d;
  }
  out << '\n';
  out << "child " << primary_->backend_name() << '\n';
  primary_->SaveParams(out);
}

Result<std::unique_ptr<ReplicatedBackend>> MakeReplicatedFlat(
    const Schema& schema, std::uint64_t num_devices,
    const std::string& distribution, ReplicaPlacement placement,
    std::uint64_t seed) {
  auto primary = ParallelFile::Create(schema, num_devices, distribution, seed);
  FXDIST_RETURN_NOT_OK(primary.status());
  const std::uint64_t offset =
      ReplicatedBackend::ReplicaOffset(placement, num_devices);
  auto replica = ParallelFile::Create(
      schema, num_devices, "rot" + std::to_string(offset) + ":" + distribution,
      seed);
  FXDIST_RETURN_NOT_OK(replica.status());
  auto composed = ReplicatedBackend::Create(
      std::make_unique<ParallelFile>(*std::move(primary)),
      std::make_unique<ParallelFile>(*std::move(replica)), placement);
  FXDIST_RETURN_NOT_OK(composed.status());
  return std::make_unique<ReplicatedBackend>(*std::move(composed));
}

}  // namespace fxdist
