#include "sim/packed_backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/bucket.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"

namespace fxdist {

// -- PackedBuilder ---------------------------------------------------------

struct PackedBuilder::Impl {
  /// Where one staged record goes and where its encoded bytes sit in the
  /// arena.  Arena offsets ascend with arrival, so sorting by (device,
  /// linear, begin) yields directory order with arrival order inside
  /// each bucket — the source's ScanBucket order.
  struct StagedRecord {
    std::uint64_t device = 0;
    std::uint64_t linear = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  std::string path;
  std::string blueprint;
  std::unique_ptr<StorageBackend> owned_router;
  const StorageBackend* router = nullptr;  ///< placement plane for Add
  std::optional<std::uint64_t> only_device;
  std::ofstream out;
  /// Bytes written so far, the placeholder header included.
  std::uint64_t write_off = 0;
  std::uint64_t num_records = 0;
  std::vector<std::uint64_t> device_records;
  std::vector<ValueType> field_types;
  std::string arena;  ///< every staged record's encoding, in arrival order
  std::vector<StagedRecord> staged;
  bool finished = false;

  Status OpenOutput(const std::string& file_path, std::uint64_t num_devices) {
    path = file_path;
    device_records.assign(num_devices, 0);
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::NotFound("cannot create packed file: " + path);
    }
    const std::string placeholder(packed::kHeaderSize, '\0');
    return WriteBytes(placeholder);
  }

  Status WriteBytes(std::string_view bytes) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::Internal("write failed: " + path);
    write_off += bytes.size();
    return Status::OK();
  }

  Status Add(const Record& record) {
    if (finished) {
      return Status::FailedPrecondition("packed builder already finished");
    }
    auto bucket = router->HashRecord(record);
    FXDIST_RETURN_NOT_OK(bucket.status());
    const std::uint64_t device = router->device_map().DeviceOf(*bucket);
    if (only_device.has_value() && device != *only_device) {
      return Status::OK();
    }
    StagedRecord& key = staged.emplace_back();
    key.device = device;
    key.linear = LinearIndex(router->spec(), *bucket);
    key.begin = arena.size();
    packed::EncodeRecord(arena, record);
    key.end = arena.size();
    ++device_records[device];
    ++num_records;
    return Status::OK();
  }

  Status Finish() {
    if (finished) {
      return Status::FailedPrecondition("packed builder already finished");
    }
    if (field_types.empty()) {
      return Status::InvalidArgument(
          "cannot pack without field types (empty schema)");
    }
    std::sort(staged.begin(), staged.end(),
              [](const StagedRecord& a, const StagedRecord& b) {
                return std::tie(a.device, a.linear, a.begin) <
                       std::tie(b.device, b.linear, b.begin);
              });

    packed::Directory directory;
    directory.device_records = device_records;
    directory.field_types = field_types;
    std::string block;
    for (std::size_t i = 0; i < staged.size();) {
      packed::BucketEntry entry;
      entry.device = staged[i].device;
      entry.linear = staged[i].linear;
      block.clear();
      for (; i < staged.size() && staged[i].device == entry.device &&
             staged[i].linear == entry.linear;
           ++i) {
        block.append(arena, staged[i].begin, staged[i].end - staged[i].begin);
        ++entry.count;
      }
      entry.offset = write_off;
      entry.clen = block.size();
      entry.checksum = packed::Checksum(block);
      FXDIST_RETURN_NOT_OK(WriteBytes(block));
      directory.buckets.push_back(entry);
    }
    std::string().swap(arena);
    std::vector<StagedRecord>().swap(staged);

    packed::Header header;
    header.num_devices = device_records.size();
    header.num_records = num_records;
    header.num_buckets = directory.buckets.size();

    const std::string directory_bytes = packed::EncodeDirectory(directory);
    header.directory_off = write_off;
    header.directory_len = directory_bytes.size();
    FXDIST_RETURN_NOT_OK(WriteBytes(directory_bytes));

    header.blueprint_off = write_off;
    header.blueprint_len = blueprint.size();
    FXDIST_RETURN_NOT_OK(WriteBytes(blueprint));

    header.file_size = write_off;
    out.seekp(0);
    const std::string header_bytes = packed::EncodeHeader(header);
    out.write(header_bytes.data(),
              static_cast<std::streamsize>(header_bytes.size()));
    out.flush();
    if (!out) return Status::Internal("write failed: " + path);
    out.close();
    finished = true;
    return Status::OK();
  }
};

PackedBuilder::PackedBuilder(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
PackedBuilder::PackedBuilder(PackedBuilder&&) noexcept = default;
PackedBuilder& PackedBuilder::operator=(PackedBuilder&&) noexcept = default;
PackedBuilder::~PackedBuilder() = default;

Result<PackedBuilder> PackedBuilder::Create(const Schema& schema,
                                            std::uint64_t num_devices,
                                            const std::string& distribution,
                                            std::uint64_t seed,
                                            const std::string& path) {
  auto router = ParallelFile::Create(schema, num_devices, distribution, seed);
  FXDIST_RETURN_NOT_OK(router.status());
  auto impl = std::make_unique<Impl>();
  impl->owned_router = std::make_unique<ParallelFile>(std::move(*router));
  impl->router = impl->owned_router.get();
  impl->blueprint = BackendBlueprintText(*impl->router);
  impl->field_types.reserve(schema.num_fields());
  for (unsigned i = 0; i < schema.num_fields(); ++i) {
    impl->field_types.push_back(schema.field(i).type);
  }
  FXDIST_RETURN_NOT_OK(impl->OpenOutput(path, num_devices));
  return PackedBuilder(std::move(impl));
}

Status PackedBuilder::Add(const Record& record) { return impl_->Add(record); }

Status PackedBuilder::Finish() { return impl_->Finish(); }

std::uint64_t PackedBuilder::records_added() const {
  return impl_->num_records;
}

Result<std::uint64_t> PackBackend(const StorageBackend& source,
                                  const std::string& path,
                                  std::optional<std::uint64_t> only_device) {
  if (only_device.has_value() && *only_device >= source.num_devices()) {
    return Status::InvalidArgument("only_device outside the source's range");
  }
  auto impl = std::make_unique<PackedBuilder::Impl>();
  impl->router = &source;
  impl->blueprint = BackendBlueprintText(source);
  impl->field_types = source.FieldTypes();
  impl->only_device = only_device;
  FXDIST_RETURN_NOT_OK(impl->OpenOutput(path, source.num_devices()));
  Status failed;
  const Status listed = ListEveryRecord(
      source, source.num_records(), [&impl, &failed](const Record& record) {
        if (!failed.ok()) return;
        failed = impl->Add(record);
      });
  FXDIST_RETURN_NOT_OK(failed);
  FXDIST_RETURN_NOT_OK(listed);
  FXDIST_RETURN_NOT_OK(impl->Finish());
  return impl->num_records;
}

// -- PackedBackend ---------------------------------------------------------

Result<std::unique_ptr<PackedBackend>> PackedBackend::Open(
    const std::string& path, PackedOptions options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open packed file: " + path);
  }
  struct ::stat info {};
  if (::fstat(fd, &info) != 0 || info.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat packed file: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(info.st_size);
  std::unique_ptr<PackedBackend> backend(new PackedBackend());
  backend->path_ = path;
  void* mapping = size == 0
                      ? MAP_FAILED
                      : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapping != MAP_FAILED) {
    backend->mapping_ = mapping;
    backend->data_ = static_cast<const char*>(mapping);
    backend->size_ = size;
  } else {
    // Filesystems without mmap support: degrade to a heap image.
    std::ifstream in(path, std::ios::binary);
    backend->owned_.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
      return Status::Internal("cannot read packed file: " + path);
    }
    backend->data_ = backend->owned_.data();
    backend->size_ = backend->owned_.size();
  }
  FXDIST_RETURN_NOT_OK(backend->Init(options));
  return backend;
}

Result<std::unique_ptr<PackedBackend>> PackedBackend::OpenFromBuffer(
    std::string bytes, PackedOptions options) {
  std::unique_ptr<PackedBackend> backend(new PackedBackend());
  backend->path_ = "<buffer>";
  backend->owned_ = std::move(bytes);
  backend->data_ = backend->owned_.data();
  backend->size_ = backend->owned_.size();
  FXDIST_RETURN_NOT_OK(backend->Init(options));
  return backend;
}

PackedBackend::~PackedBackend() {
  if (mapping_ != nullptr) ::munmap(mapping_, size_);
}

Status PackedBackend::Init(PackedOptions options) {
  auto header = packed::DecodeHeader(std::string_view(data_, size_));
  FXDIST_RETURN_NOT_OK(header.status());
  header_ = *header;

  auto directory = packed::DecodeDirectory(
      std::string_view(data_ + header_.directory_off, header_.directory_len),
      header_.file_size, header_.num_devices, header_.num_records,
      header_.num_buckets);
  FXDIST_RETURN_NOT_OK(directory.status());
  directory_ = std::move(*directory);

  const std::string blueprint(data_ + header_.blueprint_off,
                              header_.blueprint_len);
  auto twin = BuildBackendFromBlueprintText(blueprint);
  if (!twin.ok()) {
    return Status::DataLoss("packed blueprint does not build: " +
                            twin.status().ToString());
  }
  twin_ = std::move(*twin);
  if (twin_->num_devices() != header_.num_devices ||
      twin_->spec().num_fields() != directory_.field_types.size()) {
    return Status::DataLoss(
        "packed blueprint disagrees with the directory shape");
  }
  const std::uint64_t total_buckets = twin_->spec().TotalBuckets();
  for (const packed::BucketEntry& entry : directory_.buckets) {
    if (entry.linear >= total_buckets) {
      return Status::DataLoss(
          "packed directory bucket outside the blueprint's bucket space");
    }
  }

  if (options.verify_all_checksums) {
    std::vector<Record> records;
    for (const packed::BucketEntry& entry : directory_.buckets) {
      FXDIST_RETURN_NOT_OK(DecodeEntry(entry, &records));
    }
  }
  return Status::OK();
}

Status PackedBackend::Insert(Record record) {
  (void)record;
  return Status::FailedPrecondition(
      "packed backend is read-only; build a new file with PackedBuilder");
}

Result<std::uint64_t> PackedBackend::Delete(const ValueQuery& query) {
  (void)query;
  return Status::FailedPrecondition(
      "packed backend is read-only; build a new file with PackedBuilder");
}

Status PackedBackend::Health() const {
  if (!poisoned_.load()) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  return health_;
}

void PackedBackend::Poison(const Status& status) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (health_.ok()) {
    health_ = status;
    poisoned_.store(true);
  }
}

const packed::BucketEntry* PackedBackend::FindEntry(
    std::uint64_t device, std::uint64_t linear) const {
  const auto key = std::make_pair(device, linear);
  auto it = std::lower_bound(
      directory_.buckets.begin(), directory_.buckets.end(), key,
      [](const packed::BucketEntry& entry,
         const std::pair<std::uint64_t, std::uint64_t>& k) {
        return std::make_pair(entry.device, entry.linear) < k;
      });
  if (it == directory_.buckets.end() || it->device != device ||
      it->linear != linear) {
    return nullptr;
  }
  return &*it;
}

bool PackedBackend::IsBucketLive(std::uint64_t device,
                                 std::uint64_t linear_bucket) const {
  return FindEntry(device, linear_bucket) != nullptr;
}

Status PackedBackend::DecodeEntry(const packed::BucketEntry& entry,
                                  std::vector<Record>* records) const {
  const std::string_view bytes(data_ + entry.offset, entry.clen);
  if (packed::Checksum(bytes) != entry.checksum) {
    return Status::DataLoss("packed bucket block checksum mismatch (device " +
                            std::to_string(entry.device) + ", bucket " +
                            std::to_string(entry.linear) + ")");
  }
  return packed::DecodeRecordBlock(bytes, entry.count,
                                   directory_.field_types, records);
}

Status PackedBackend::ScanEntry(
    const packed::BucketEntry& entry,
    const std::function<bool(const Record&)>& fn) const {
  std::vector<Record> records;
  const Status decoded = DecodeEntry(entry, &records);
  if (!decoded.ok()) {
    Poison(decoded);
    return decoded;
  }
  for (const Record& record : records) {
    if (!fn(record)) break;
  }
  return Status::OK();
}

void PackedBackend::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  if (!Health().ok()) return;  // poisoned: visit nothing, like remote
  const packed::BucketEntry* entry = FindEntry(device, linear_bucket);
  if (entry == nullptr) return;
  (void)ScanEntry(*entry, fn);
}

void PackedBackend::SaveParams(std::ostream& out) const {
  out << "child " << twin_->backend_name() << '\n';
  twin_->SaveParams(out);
}

void PackedBackend::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  // Directory order: sequential over the mapping.
  for (const packed::BucketEntry& entry : directory_.buckets) {
    const Status scanned = ScanEntry(entry, [&fn](const Record& record) {
      fn(record);
      return true;
    });
    if (!scanned.ok()) return;
  }
}

namespace {

/// Pages of the mapping the kernel actually keeps resident — the true
/// cost of the lazily-faulted image.  Heap fallbacks pay for everything.
std::uint64_t ResidentImageBytes(const void* mapping, std::size_t size,
                                 const std::string& owned) {
  if (mapping == nullptr) return owned.size();
#if defined(__linux__)
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) {
    const std::size_t page_size = static_cast<std::size_t>(page);
    const std::size_t pages = (size + page_size - 1) / page_size;
    std::vector<unsigned char> resident(pages, 0);
    if (::mincore(const_cast<void*>(mapping), size, resident.data()) == 0) {
      std::uint64_t bytes = 0;
      for (unsigned char r : resident) {
        if ((r & 1u) != 0) bytes += page_size;
      }
      return bytes;
    }
  }
#endif
  return size;
}

}  // namespace

std::uint64_t PackedBackend::ApproxMemoryBytes() const {
  std::uint64_t bytes = sizeof(*this);
  bytes += directory_.buckets.capacity() * sizeof(packed::BucketEntry);
  bytes += directory_.device_records.capacity() * sizeof(std::uint64_t);
  bytes += directory_.field_types.capacity() * sizeof(ValueType);
  bytes += ResidentImageBytes(mapping_, size_, owned_);
  return bytes;
}

}  // namespace fxdist
