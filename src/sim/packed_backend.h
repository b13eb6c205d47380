// PackedBackend: an immutable StorageBackend over one bucket-major file
// (format in sim/packed_format.h).
//
// Where the flat/paged/dynamic backends keep every record resident, a
// packed file is mapped read-only and decoded lazily, one bucket block at
// a time, as ScanBucket/ScanMany touch it (Execute is the default
// ExecuteSerial over that ScanBucket decode) — the plocate shape
// applied to the paper's bucket space.  Placement is answered with zero
// decode work by an empty "twin" backend rebuilt from the blueprint
// embedded in the file (the same trick the remote handshake uses), so
// packed files drop into every plane that already speaks StorageBackend:
// the engine, sharded/replicated composites, and shard servers.
//
// Contract notes:
//  * Read-only: Insert/Delete return FailedPrecondition.  New data means
//    a new file (PackedBuilder / PackBackend).
//  * A scan checksums and decodes exactly the block of the bucket it
//    reads; nothing decoded is kept between scans, so there is no decode
//    cache to size and no lock on the scan path.
//  * ScanRecordsAreStable() is false: each scan materializes its bucket's
//    records afresh, so references handed to scan callbacks are valid
//    only during the callback.
//  * Any decode failure (checksum, varint overrun, truncation, a record
//    count the block does not hold) poisons Health() with DataLoss;
//    ScanBucket then visits nothing more and executors escalate, exactly
//    like a remote shard past its retry budget.

#ifndef FXDIST_SIM_PACKED_BACKEND_H_
#define FXDIST_SIM_PACKED_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/packed_format.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

struct PackedOptions {
  /// When opening: checksum and decode every bucket block up front
  /// instead of lazily on first touch — turns any payload corruption
  /// (including a directory count its block does not hold) into an Open
  /// error rather than a poisoned scan later.
  bool verify_all_checksums = false;
};

/// Collects records into a packed file.  The file is bucket-major while
/// records arrive in any order, so Add encodes each record and stages its
/// bytes in one in-memory arena together with a (device, linear bucket,
/// arrival) key; Finish sorts the keys and writes each bucket's block in
/// directory order, its records in arrival order.  Until Finish the
/// builder therefore holds the encoded payload plus a 32-byte key per
/// record — never decoded records.
class PackedBuilder {
 public:
  /// A builder routing records through a fresh flat placement plane
  /// (schema + distribution + seed), like ParallelFile::Create.  Creates
  /// the file at `path` right away.
  static Result<PackedBuilder> Create(const Schema& schema,
                                      std::uint64_t num_devices,
                                      const std::string& distribution,
                                      std::uint64_t seed,
                                      const std::string& path);

  PackedBuilder(PackedBuilder&&) noexcept;
  PackedBuilder& operator=(PackedBuilder&&) noexcept;
  ~PackedBuilder();

  /// Routes, encodes and stages one record.  Records not owned by the
  /// builder's device filter (see PackBackend's only_device) are skipped
  /// silently.
  Status Add(const Record& record);

  /// Writes the bucket blocks, directory and blueprint, seals the header
  /// and frees the staged records.  The builder is unusable afterwards.
  Status Finish();

  /// Records added so far (skipped ones excluded).
  std::uint64_t records_added() const;

 private:
  friend Result<std::uint64_t> PackBackend(
      const StorageBackend& source, const std::string& path,
      std::optional<std::uint64_t> only_device);
  struct Impl;
  explicit PackedBuilder(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Converts any existing backend: feeds source.ForEachLiveRecord through
/// a PackedBuilder routing by the source's own placement, into a packed
/// file at `path`.  With `only_device`, keeps just that device's records
/// (per-shard files for sharded serving).  Returns the number of records
/// written.
Result<std::uint64_t> PackBackend(
    const StorageBackend& source, const std::string& path,
    std::optional<std::uint64_t> only_device = std::nullopt);

class PackedBackend final : public StorageBackend {
 public:
  /// Maps `path` read-only (mmap; falls back to a heap read where
  /// mapping fails) and validates header + directory.
  static Result<std::unique_ptr<PackedBackend>> Open(
      const std::string& path, PackedOptions options = {});

  /// Same validation over an in-memory image — the fuzz/corruption
  /// entry point.
  static Result<std::unique_ptr<PackedBackend>> OpenFromBuffer(
      std::string bytes, PackedOptions options = {});

  ~PackedBackend() override;
  PackedBackend(const PackedBackend&) = delete;
  PackedBackend& operator=(const PackedBackend&) = delete;

  std::string backend_name() const override { return "packed"; }
  const FieldSpec& spec() const override { return twin_->spec(); }
  const DistributionMethod& method() const override {
    return twin_->method();
  }
  const DeviceMap& device_map() const override {
    return twin_->device_map();
  }
  std::uint64_t num_records() const override { return header_.num_records; }

  Status Insert(Record record) override;
  Result<std::uint64_t> Delete(const ValueQuery& query) override;

  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return twin_->HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return twin_->HashRecord(record);
  }

  Status Health() const override;
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override;
  bool ScanRecordsAreStable() const override { return false; }
  bool IsReadOnly() const override { return true; }

  std::vector<std::uint64_t> RecordCountsPerDevice() const override {
    return directory_.device_records;
  }
  std::vector<ValueType> FieldTypes() const override {
    return directory_.field_types;
  }

  /// Directory vectors + resident mapped pages (mincore) — what this
  /// process actually pays, not the file size.
  std::uint64_t ApproxMemoryBytes() const override;

  /// "child <kind>" + the twin's params: LoadBackend on a packed save
  /// "unpacks" back to the source kind.
  void SaveParams(std::ostream& out) const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

  /// Kind tag of the source backend the file was packed from.
  std::string source_kind() const { return twin_->backend_name(); }
  std::uint64_t file_size() const { return header_.file_size; }

 private:
  PackedBackend() = default;

  /// Validates the mapped image and builds the twin.
  Status Init(PackedOptions options);
  const packed::BucketEntry* FindEntry(std::uint64_t device,
                                       std::uint64_t linear) const;
  /// Checksums and decodes one bucket's block.
  Status DecodeEntry(const packed::BucketEntry& entry,
                     std::vector<Record>* records) const;
  /// Decodes and visits one bucket; any DataLoss poisons Health().
  Status ScanEntry(const packed::BucketEntry& entry,
                   const std::function<bool(const Record&)>& fn) const;
  void Poison(const Status& status) const;

  std::string path_;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  void* mapping_ = nullptr;  ///< non-null iff mmap-backed
  std::string owned_;        ///< heap image otherwise
  packed::Header header_;
  packed::Directory directory_;
  std::unique_ptr<StorageBackend> twin_;

  /// Set once, after health_ is: a healthy Health() reads only this.
  mutable std::atomic<bool> poisoned_{false};
  mutable std::mutex mutex_;  ///< guards health_
  mutable Status health_;
};

}  // namespace fxdist

#endif  // FXDIST_SIM_PACKED_BACKEND_H_
