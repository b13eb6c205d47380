#include "sim/storage_backend.h"

#include <variant>

namespace fxdist {

Status StorageBackend::InsertBatch(std::vector<Record> records) {
  for (Record& record : records) {
    FXDIST_RETURN_NOT_OK(Insert(std::move(record)));
  }
  return Status::OK();
}

bool StorageBackend::IsBucketLive(std::uint64_t device,
                                  std::uint64_t linear_bucket) const {
  bool live = false;
  ScanBucket(device, linear_bucket, [&live](const Record&) {
    live = true;
    return false;
  });
  return live;
}

void StorageBackend::ScanMany(
    const std::vector<BucketRef>& refs,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  // One callback object for the whole call: a fresh std::function per ref
  // would heap-allocate per bucket (the capture outgrows the inline
  // buffer).
  bool cancelled = false;
  std::size_t i = 0;
  const std::function<bool(const Record&)> visit =
      [&fn, &cancelled, &i](const Record& record) {
        if (!fn(i, record)) {
          cancelled = true;
          return false;
        }
        return true;
      };
  for (; i < refs.size() && !cancelled; ++i) {
    ScanBucket(refs[i].device, refs[i].linear_bucket, visit);
  }
}

std::vector<ValueType> StorageBackend::FieldTypes() const {
  std::vector<ValueType> types;
  bool probed = false;
  ForEachLiveRecord([&types, &probed](const Record& record) {
    if (probed) return;
    probed = true;
    types.reserve(record.size());
    for (const FieldValue& value : record) types.push_back(TypeOf(value));
  });
  return types;
}

std::uint64_t StorageBackend::ApproxMemoryBytes() const {
  std::uint64_t bytes = 0;
  ForEachLiveRecord(
      [&bytes](const Record& record) { bytes += ApproxRecordBytes(record); });
  return bytes;
}

std::uint64_t ApproxRecordBytes(const Record& record) {
  std::uint64_t bytes =
      sizeof(Record) + record.capacity() * sizeof(FieldValue);
  for (const FieldValue& value : record) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      // Count only heap allocations past the small-string buffer.
      if (s->capacity() > sizeof(std::string) - 1) bytes += s->capacity() + 1;
    }
  }
  return bytes;
}

bool RecordMatchesValueQuery(const ValueQuery& query, const Record& record) {
  for (std::size_t f = 0; f < query.size(); ++f) {
    if (query[f].has_value() && record[f] != *query[f]) return false;
  }
  return true;
}

}  // namespace fxdist
