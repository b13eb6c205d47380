#include "sim/dynamic_parallel_file.h"

#include <limits>
#include <ostream>

#include "hashing/value_codec.h"

namespace fxdist {

namespace {
// Full-width per-field hashes; directories take as many low bits as their
// global depth currently needs.
constexpr std::uint64_t kHashRange = std::uint64_t{1} << 32;
}  // namespace

namespace {
std::vector<std::uint64_t> InitialSizes(std::size_t num_fields,
                                        const std::vector<unsigned>& depths) {
  std::vector<std::uint64_t> sizes(num_fields, 1);
  for (std::size_t i = 0; i < depths.size(); ++i) {
    sizes[i] = std::uint64_t{1} << depths[i];
  }
  return sizes;
}
}  // namespace

DynamicParallelFile::DynamicParallelFile(
    std::vector<DynamicFieldDecl> fields, std::uint64_t num_devices,
    PlanFamily family, const std::vector<unsigned>& initial_depths)
    : fields_(std::move(fields)), num_devices_(num_devices), family_(family),
      spec_(FieldSpec::Create(InitialSizes(fields_.size(), initial_depths),
                              num_devices)
                .value()),
      method_(FXDistribution::Planned(spec_, family_)),
      device_map_(*method_) {
  devices_.reserve(num_devices_);
  for (std::uint64_t d = 0; d < num_devices_; ++d) devices_.emplace_back(d);
}

Result<DynamicParallelFile> DynamicParallelFile::Create(
    std::vector<DynamicFieldDecl> fields, std::uint64_t num_devices,
    std::size_t page_capacity, PlanFamily family, std::uint64_t seed,
    std::vector<unsigned> initial_depths) {
  if (fields.empty()) {
    return Status::InvalidArgument("need at least one field");
  }
  for (const auto& f : fields) {
    if (f.name.empty()) {
      return Status::InvalidArgument("field names must be non-empty");
    }
  }
  if ((num_devices & (num_devices - 1)) != 0 || num_devices == 0) {
    return Status::InvalidArgument("device count must be a power of two");
  }
  if (!initial_depths.empty() && initial_depths.size() != fields.size()) {
    return Status::InvalidArgument("initial depths arity mismatch");
  }
  if (initial_depths.empty()) initial_depths.assign(fields.size(), 0);
  DynamicParallelFile file(std::move(fields), num_devices, family,
                           initial_depths);
  file.page_capacity_ = page_capacity;
  file.hash_seed_ = seed;
  file.initial_depths_ = std::move(initial_depths);
  for (unsigned i = 0; i < file.fields_.size(); ++i) {
    auto hasher =
        MakeDefaultHasher(file.fields_[i].type, kHashRange, seed + i);
    FXDIST_RETURN_NOT_OK(hasher.status());
    file.hashers_.push_back(std::shared_ptr<FieldHasher>(std::move(*hasher)));
    auto dir = ExtendibleDirectory::Create(
        page_capacity, ExtendibleDirectory::kMaxDepth,
        file.initial_depths_[i]);
    FXDIST_RETURN_NOT_OK(dir.status());
    file.dirs_.push_back(*std::move(dir));
  }
  return file;
}

Status DynamicParallelFile::Insert(Record record) {
  if (record.size() != fields_.size()) {
    return Status::InvalidArgument("record arity mismatch");
  }
  if (records_.size() >
      static_cast<std::size_t>(std::numeric_limits<RecordIndex>::max())) {
    return Status::OutOfRange("record arena full");
  }
  std::vector<std::uint64_t> hashes(fields_.size());
  for (unsigned i = 0; i < fields_.size(); ++i) {
    auto h = hashers_[i]->Hash(record[i]);
    FXDIST_RETURN_NOT_OK(h.status());
    hashes[i] = *h;
  }
  // Feed the directories first: growth must be visible before placement.
  for (unsigned i = 0; i < fields_.size(); ++i) {
    dirs_[i].Insert(hashes[i]);
  }
  const auto index = static_cast<RecordIndex>(records_.size());
  records_.push_back(std::move(record));
  record_hashes_.push_back(std::move(hashes));
  if (!RebuildIfGrown()) {
    PlaceRecord(index);
  }
  // Growth re-plans placement inside the same Insert, so one bump covers
  // both the new record and any directory rebuild.
  BumpMutationEpoch();
  return Status::OK();
}

Result<std::uint64_t> DynamicParallelFile::Delete(const ValueQuery& query) {
  (void)query;
  return Status::Unimplemented(
      "dynamic backend does not support deletion (directories only grow)");
}

bool DynamicParallelFile::RebuildIfGrown() {
  std::vector<std::uint64_t> sizes(fields_.size());
  bool grown = false;
  for (unsigned i = 0; i < fields_.size(); ++i) {
    sizes[i] = dirs_[i].directory_size();
    if (sizes[i] != spec_.field_size(i)) grown = true;
  }
  if (!grown) return false;

  spec_ = FieldSpec::Create(std::move(sizes), num_devices_).value();
  method_ = FXDistribution::Planned(spec_, family_);
  device_map_ = DeviceMap(*method_);
  devices_.clear();
  for (std::uint64_t d = 0; d < num_devices_; ++d) devices_.emplace_back(d);
  for (RecordIndex r = 0; r < records_.size(); ++r) {
    PlaceRecord(r);
  }
  ++rebuilds_;
  records_moved_ += records_.size();
  return true;
}

void DynamicParallelFile::PlaceRecord(RecordIndex index) {
  BucketId bucket(fields_.size());
  for (unsigned i = 0; i < fields_.size(); ++i) {
    bucket[i] = Coordinate(i, record_hashes_[index][i]);
  }
  devices_[device_map_.DeviceOf(bucket)].AddRecord(LinearIndex(spec_, bucket),
                                                   index);
}

Result<BucketId> DynamicParallelFile::HashRecord(const Record& record) const {
  if (record.size() != fields_.size()) {
    return Status::InvalidArgument("record arity mismatch");
  }
  BucketId bucket(fields_.size());
  for (unsigned i = 0; i < fields_.size(); ++i) {
    auto h = hashers_[i]->Hash(record[i]);
    FXDIST_RETURN_NOT_OK(h.status());
    bucket[i] = Coordinate(i, *h);
  }
  return bucket;
}

bool DynamicParallelFile::IsBucketLive(std::uint64_t device,
                                       std::uint64_t linear_bucket) const {
  return devices_[device].Records(linear_bucket) != nullptr;
}

Result<PartialMatchQuery> DynamicParallelFile::HashQuery(
    const ValueQuery& query) const {
  if (query.size() != fields_.size()) {
    return Status::InvalidArgument("query arity mismatch");
  }
  std::vector<std::optional<std::uint64_t>> coords(fields_.size());
  for (unsigned i = 0; i < fields_.size(); ++i) {
    if (query[i].has_value()) {
      auto h = hashers_[i]->Hash(*query[i]);
      FXDIST_RETURN_NOT_OK(h.status());
      coords[i] = Coordinate(i, *h);
    }
  }
  return PartialMatchQuery::Create(spec_, std::move(coords));
}

Result<QueryResult> DynamicParallelFile::Execute(
    const ValueQuery& query) const {
  return ExecuteSerial(
      *this, query,
      [this](std::uint64_t device, std::uint64_t linear, const auto& filter) {
        const std::vector<RecordIndex>* bucket_records =
            devices_[device].Records(linear);
        if (bucket_records == nullptr) return;
        for (RecordIndex idx : *bucket_records) filter(records_[idx]);
      });
}

void DynamicParallelFile::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  const std::vector<RecordIndex>* bucket_records =
      devices_[device].Records(linear_bucket);
  if (bucket_records == nullptr) return;
  for (RecordIndex idx : *bucket_records) {
    if (!fn(records_[idx])) return;
  }
}

std::vector<std::uint64_t> DynamicParallelFile::RecordCountsPerDevice()
    const {
  std::vector<std::uint64_t> out;
  out.reserve(devices_.size());
  for (const Device& d : devices_) out.push_back(d.num_records());
  return out;
}

void DynamicParallelFile::SaveParams(std::ostream& out) const {
  out << "devices " << num_devices_ << '\n';
  out << "family " << (family_ == PlanFamily::kIU1 ? "iu1" : "iu2") << '\n';
  out << "pagecap " << page_capacity_ << '\n';
  out << "seed " << hash_seed_ << '\n';
  out << "fields " << fields_.size() << '\n';
  for (const DynamicFieldDecl& f : fields_) {
    out << "field ";
    EncodeLengthPrefixed(out, f.name);
    out << ' ' << ValueTypeTag(f.type) << '\n';
  }
  // Provisioned directory depths (v3+; v2 loaders never reach this line
  // because they stop at the field declarations).
  out << "depths";
  for (unsigned g : initial_depths_) out << ' ' << g;
  out << '\n';
}

void DynamicParallelFile::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  for (const Record& r : records_) fn(r);
}

}  // namespace fxdist
