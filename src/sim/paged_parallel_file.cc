#include "sim/paged_parallel_file.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "core/registry.h"
#include "hashing/value_codec.h"

namespace fxdist {

PagedParallelFile::PagedParallelFile(
    FieldSpec spec, MultiKeyHash hash,
    std::unique_ptr<DistributionMethod> method, std::size_t records_per_page)
    : spec_(std::move(spec)), records_per_page_(records_per_page),
      hash_(std::move(hash)), method_(std::move(method)),
      device_map_(*method_) {
  stores_.reserve(spec_.num_devices());
  for (std::uint64_t d = 0; d < spec_.num_devices(); ++d) {
    stores_.push_back(PageStore::Create(records_per_page).value());
  }
}

Result<PagedParallelFile> PagedParallelFile::Create(
    const Schema& schema, std::uint64_t num_devices,
    const std::string& distribution, std::size_t records_per_page,
    std::uint64_t seed) {
  if (records_per_page == 0) {
    return Status::InvalidArgument("records per page must be >= 1");
  }
  auto spec = schema.ToFieldSpec(num_devices);
  FXDIST_RETURN_NOT_OK(spec.status());
  auto hash = MultiKeyHash::Create(schema, seed);
  FXDIST_RETURN_NOT_OK(hash.status());
  auto method = MakeDistribution(*spec, distribution);
  FXDIST_RETURN_NOT_OK(method.status());
  PagedParallelFile file(*std::move(spec), *std::move(hash),
                         *std::move(method), records_per_page);
  file.distribution_spec_ = distribution;
  file.hash_seed_ = seed;
  return file;
}

Status PagedParallelFile::Insert(Record record) {
  auto bucket = hash_.HashRecord(record);
  FXDIST_RETURN_NOT_OK(bucket.status());
  if (records_.size() >
      static_cast<std::size_t>(std::numeric_limits<RecordIndex>::max())) {
    return Status::OutOfRange("record arena full");
  }
  const std::uint64_t device = device_map_.DeviceOf(*bucket);
  const auto index = static_cast<RecordIndex>(records_.size());
  records_.push_back(std::move(record));
  stores_[device].Add(LinearIndex(spec_, *bucket), index);
  ++live_records_;
  BumpMutationEpoch();
  return Status::OK();
}

Result<PagedQueryResult> PagedParallelFile::ExecutePaged(
    const ValueQuery& query) const {
  auto hashed = hash_.HashQuery(spec_, query);
  FXDIST_RETURN_NOT_OK(hashed.status());

  PagedQueryResult result;
  PagedQueryStats& stats = result.stats;
  stats.pages_read_per_device.assign(spec_.num_devices(), 0);

  for (std::uint64_t d = 0; d < spec_.num_devices(); ++d) {
    PageStore::ReadStats reads;
    device_map_.ForEachQualifiedLinearOnDevice(
        *hashed, d, [&](std::uint64_t linear) {
          stores_[d].Scan(
              linear,
              [&](RecordIndex idx) {
                ++stats.records_examined;
                const Record& record = records_[idx];
                if (RecordMatchesValueQuery(query, record)) {
                  ++stats.records_matched;
                  result.records.push_back(record);
                }
                return true;
              },
              &reads);
          return true;
        });
    stats.pages_read_per_device[d] = reads.pages_read;
    stats.total_pages_read += reads.pages_read;
    stats.largest_pages_read =
        std::max(stats.largest_pages_read, reads.pages_read);
  }
  return result;
}

Result<std::uint64_t> PagedParallelFile::Delete(const ValueQuery& query) {
  auto hashed = hash_.HashQuery(spec_, query);
  FXDIST_RETURN_NOT_OK(hashed.status());
  // Collect victims first; removing while a chain is being scanned would
  // invalidate the walk.
  std::vector<std::pair<std::uint64_t, std::pair<std::uint64_t,
                                                 RecordIndex>>> victims;
  for (std::uint64_t d = 0; d < spec_.num_devices(); ++d) {
    device_map_.ForEachQualifiedLinearOnDevice(
        *hashed, d, [&](std::uint64_t linear) {
          stores_[d].Scan(linear, [&](RecordIndex idx) {
            if (RecordMatchesValueQuery(query, records_[idx])) {
              victims.push_back({d, {linear, idx}});
            }
            return true;
          });
          return true;
        });
  }
  for (const auto& [device, entry] : victims) {
    const bool removed = stores_[device].Remove(entry.first, entry.second);
    FXDIST_DCHECK(removed);
    (void)removed;
    records_[entry.second].clear();  // tombstone
    --live_records_;
  }
  if (!victims.empty()) BumpMutationEpoch();
  return static_cast<std::uint64_t>(victims.size());
}

void PagedParallelFile::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  stores_[device].Scan(linear_bucket, [&](RecordIndex idx) {
    return fn(records_[idx]);
  });
}

std::vector<std::uint64_t> PagedParallelFile::RecordCountsPerDevice() const {
  std::vector<std::uint64_t> out;
  out.reserve(stores_.size());
  for (const PageStore& s : stores_) out.push_back(s.num_records());
  return out;
}

void PagedParallelFile::SaveParams(std::ostream& out) const {
  out << "devices " << num_devices() << '\n';
  out << "distribution ";
  EncodeLengthPrefixed(out, distribution_spec_);
  out << '\n';
  out << "seed " << hash_seed_ << '\n';
  out << "pagesize " << records_per_page_ << '\n';
  const Schema& file_schema = schema();
  out << "fields " << file_schema.num_fields() << '\n';
  for (unsigned i = 0; i < file_schema.num_fields(); ++i) {
    const FieldDecl& f = file_schema.field(i);
    out << "field ";
    EncodeLengthPrefixed(out, f.name);
    out << ' ' << ValueTypeTag(f.type) << ' ' << f.directory_size << '\n';
  }
}

void PagedParallelFile::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  for (const Record& r : records_) {
    if (!r.empty()) fn(r);
  }
}

double PagedParallelFile::MeanUtilization() const {
  if (stores_.empty()) return 0.0;
  double sum = 0.0;
  for (const PageStore& s : stores_) sum += s.Utilization();
  return sum / static_cast<double>(stores_.size());
}

}  // namespace fxdist
