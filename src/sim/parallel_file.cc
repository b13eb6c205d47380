#include "sim/parallel_file.h"

#include <limits>
#include <ostream>

#include "core/registry.h"
#include "hashing/value_codec.h"

namespace fxdist {

ParallelFile::ParallelFile(FieldSpec spec, MultiKeyHash hash,
                           std::unique_ptr<DistributionMethod> method)
    : spec_(std::move(spec)), hash_(std::move(hash)),
      method_(std::move(method)), device_map_(*method_) {
  devices_.reserve(spec_.num_devices());
  for (std::uint64_t d = 0; d < spec_.num_devices(); ++d) {
    devices_.emplace_back(d);
  }
}

Result<ParallelFile> ParallelFile::Create(const Schema& schema,
                                          std::uint64_t num_devices,
                                          const std::string& distribution,
                                          std::uint64_t seed) {
  auto spec = schema.ToFieldSpec(num_devices);
  FXDIST_RETURN_NOT_OK(spec.status());
  auto hash = MultiKeyHash::Create(schema, seed);
  FXDIST_RETURN_NOT_OK(hash.status());
  auto method = MakeDistribution(*spec, distribution);
  FXDIST_RETURN_NOT_OK(method.status());
  ParallelFile file(*std::move(spec), *std::move(hash),
                    *std::move(method));
  file.distribution_spec_ = distribution;
  file.hash_seed_ = seed;
  return file;
}

Status ParallelFile::Insert(Record record) {
  auto bucket = hash_.HashRecord(record);
  FXDIST_RETURN_NOT_OK(bucket.status());
  if (records_.size() >
      static_cast<std::size_t>(std::numeric_limits<RecordIndex>::max())) {
    return Status::OutOfRange("record arena full");
  }
  const std::uint64_t device = device_map_.DeviceOf(*bucket);
  const auto index = static_cast<RecordIndex>(records_.size());
  records_.push_back(std::move(record));
  devices_[device].AddRecord(LinearIndex(spec_, *bucket), index);
  ++live_records_;
  BumpMutationEpoch();
  return Status::OK();
}

Result<std::uint64_t> ParallelFile::Delete(const ValueQuery& query) {
  auto hashed = hash_.HashQuery(spec_, query);
  FXDIST_RETURN_NOT_OK(hashed.status());
  // Collect (bucket, record) victims first; mutating a bucket while the
  // inverse mapping iterates it would invalidate the walk.
  std::vector<std::pair<std::uint64_t, std::pair<std::uint64_t,
                                                 RecordIndex>>> victims;
  for (std::uint64_t d = 0; d < spec_.num_devices(); ++d) {
    device_map_.ForEachQualifiedLinearOnDevice(
        *hashed, d, [&](std::uint64_t linear) {
          const std::vector<RecordIndex>* bucket_records =
              devices_[d].Records(linear);
          if (bucket_records == nullptr) return true;
          for (RecordIndex idx : *bucket_records) {
            if (RecordMatchesValueQuery(query, records_[idx])) {
              victims.push_back({d, {linear, idx}});
            }
          }
          return true;
        });
  }
  for (const auto& [device, entry] : victims) {
    const bool removed =
        devices_[device].RemoveRecord(entry.first, entry.second);
    FXDIST_DCHECK(removed);
    (void)removed;
    records_[entry.second].clear();  // tombstone
    --live_records_;
  }
  if (!victims.empty()) BumpMutationEpoch();
  return static_cast<std::uint64_t>(victims.size());
}

Result<std::uint64_t> ParallelFile::Update(const ValueQuery& query,
                                           const Record& replacement) {
  auto removed = Delete(query);
  FXDIST_RETURN_NOT_OK(removed.status());
  for (std::uint64_t i = 0; i < *removed; ++i) {
    FXDIST_RETURN_NOT_OK(Insert(replacement));
  }
  return *removed;
}

Result<QueryResult> ParallelFile::Execute(const ValueQuery& query) const {
  return ExecuteSerial(
      *this, query,
      [this](std::uint64_t device, std::uint64_t linear, const auto& filter) {
        const std::vector<RecordIndex>* bucket_records =
            devices_[device].Records(linear);
        if (bucket_records == nullptr) return;
        for (RecordIndex idx : *bucket_records) filter(records_[idx]);
      });
}

void ParallelFile::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  const std::vector<RecordIndex>* bucket_records =
      devices_[device].Records(linear_bucket);
  if (bucket_records == nullptr) return;
  for (RecordIndex idx : *bucket_records) {
    if (!fn(records_[idx])) return;
  }
}

bool ParallelFile::IsBucketLive(std::uint64_t device,
                                std::uint64_t linear_bucket) const {
  return devices_[device].Records(linear_bucket) != nullptr;
}

std::vector<std::uint64_t> ParallelFile::RecordCountsPerDevice() const {
  std::vector<std::uint64_t> out;
  out.reserve(devices_.size());
  for (const Device& d : devices_) out.push_back(d.num_records());
  return out;
}

void ParallelFile::SaveParams(std::ostream& out) const {
  out << "devices " << num_devices() << '\n';
  out << "distribution ";
  EncodeLengthPrefixed(out, distribution_spec_);
  out << '\n';
  out << "seed " << hash_seed_ << '\n';
  const Schema& file_schema = schema();
  out << "fields " << file_schema.num_fields() << '\n';
  for (unsigned i = 0; i < file_schema.num_fields(); ++i) {
    const FieldDecl& f = file_schema.field(i);
    out << "field ";
    EncodeLengthPrefixed(out, f.name);
    out << ' ' << ValueTypeTag(f.type) << ' ' << f.directory_size << '\n';
  }
}

void ParallelFile::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  ForEachRecord(fn);
}

}  // namespace fxdist
