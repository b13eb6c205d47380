// On-disk layout of the packed (immutable, mmap-able) backend.
//
// A packed file is one image of a whole backend, bucket-major, designed
// for lazy scanning through a read-only mapping (the plocate shape: a
// tiny fixed header, a directory of offset / length / checksum entries,
// and varint-compressed blocks that decode independently):
//
//   +--------------------------------------------------------------+
//   | header (80 bytes, fixed): magic "FXPK", version, file size,  |
//   |   counts, section offsets/lengths, FNV-1a-64 header checksum |
//   +--------------------------------------------------------------+
//   | bucket blocks: one per non-empty bucket, in (device, linear) |
//   |   order — the bucket's records, fields encoded back to back  |
//   |   (int64 zigzag varint, double raw 8B LE, string varint      |
//   |   length + bytes)                                            |
//   +--------------------------------------------------------------+
//   | directory: per-device record counts, field type tags, one    |
//   |   entry per bucket block (device, linear bucket, record      |
//   |   count, offset, length, checksum), section checksum         |
//   +--------------------------------------------------------------+
//   | blueprint: BackendBlueprintText of the source backend — how  |
//   |   the reader rebuilds the placement plane (sim/persistence.h)|
//   +--------------------------------------------------------------+
//
// The bucket is the unit of retrieval in the paper's cost model, so it
// is the unit of decode here: a scan checksums and decodes exactly the
// block of the bucket it reads.  Within a block, records keep the
// source's ScanBucket order, so decoding a bucket reproduces that order
// exactly.
//
// Every decode here faces possibly-corrupted bytes: all reads are
// bounds-checked against the mapped range and every mismatch — bad
// magic, truncation, checksum, varint running off a block, directory
// offset past EOF, a record count its block does not hold — fails with
// DataLoss, never a crash or over-read.

#ifndef FXDIST_SIM_PACKED_FORMAT_H_
#define FXDIST_SIM_PACKED_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hashing/value.h"
#include "util/status.h"

namespace fxdist {
namespace packed {

/// "FXPK" little-endian.
constexpr std::uint32_t kMagic = 0x4B505846;
/// Version 1 (arrival-ordered record blocks + posting lists) is not
/// read; re-pack such files from their source with `fxdistctl pack`.
constexpr std::uint32_t kVersion = 2;
/// Fixed header size in bytes (checksum included).
constexpr std::size_t kHeaderSize = 80;

/// FNV-1a 64 over `bytes` — the same function the wire protocol uses, so
/// one corrupted byte anywhere in a section flips its checksum.
std::uint64_t Checksum(std::string_view bytes);

// -- Primitive encoders -------------------------------------------------
void AppendU32(std::string& out, std::uint32_t v);
void AppendU64(std::string& out, std::uint64_t v);
/// LEB128 varint (7 bits per byte, at most 10 bytes).
void PutVarint(std::string& out, std::uint64_t v);
/// Zigzag-mapped varint for signed values.
void PutZigzag(std::string& out, std::int64_t v);

/// Bounds-checked cursor over an immutable byte range.  Every failure is
/// DataLoss: the bytes came from a file that claims to be well-formed.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::size_t remaining() const { return size_ - pos_; }

  Result<std::uint32_t> U32();
  Result<std::uint64_t> U64();
  /// Rejects varints longer than 10 bytes or running off the range.
  Result<std::uint64_t> Varint();
  Result<std::int64_t> Zigzag();
  Result<std::string_view> Bytes(std::size_t n);
  /// DataLoss unless the cursor consumed the range exactly.
  Status ExpectEnd() const;

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// -- Header --------------------------------------------------------------
struct Header {
  std::uint64_t file_size = 0;
  std::uint64_t num_devices = 0;
  std::uint64_t num_records = 0;
  std::uint64_t num_buckets = 0;  ///< non-empty buckets (bucket blocks)
  std::uint64_t directory_off = 0, directory_len = 0;
  std::uint64_t blueprint_off = 0, blueprint_len = 0;
};

/// Exactly kHeaderSize bytes, trailing checksum over the rest.
std::string EncodeHeader(const Header& header);

/// Validates magic, version, header checksum, the recorded file size
/// against the actual byte count (truncation), and that every section
/// range lies inside the file.
Result<Header> DecodeHeader(std::string_view file);

// -- Directory ------------------------------------------------------------
/// One non-empty bucket's block.
struct BucketEntry {
  std::uint64_t device = 0;
  std::uint64_t linear = 0;  ///< linear bucket index in the frozen spec
  std::uint64_t count = 0;   ///< records in the block (> 0)
  std::uint64_t offset = 0;  ///< file offset of the encoded block
  std::uint64_t clen = 0;    ///< encoded length in the file
  std::uint64_t checksum = 0;
};

struct Directory {
  std::vector<std::uint64_t> device_records;  ///< per-device record counts
  std::vector<ValueType> field_types;         ///< record decode schema
  std::vector<BucketEntry> buckets;  ///< ascending (device, linear)
};

std::string EncodeDirectory(const Directory& directory);

/// Decodes and cross-validates: section checksum, strictly ascending
/// (device, linear) order, per-entry count > 0, every block range inside
/// [kHeaderSize, file_size), device ids below num_devices, the per-device
/// counts summing to num_records, and each device's bucket counts summing
/// to its per-device count.  Whether a block really holds its entry's
/// count is checked when the block is decoded.
Result<Directory> DecodeDirectory(std::string_view bytes,
                                  std::uint64_t file_size,
                                  std::uint64_t num_devices,
                                  std::uint64_t num_records,
                                  std::uint64_t num_buckets);

// -- Bucket blocks ---------------------------------------------------------
void EncodeRecord(std::string& out, const Record& record);

/// Decodes exactly `count` records of `types` shape; a count the block
/// cannot hold, trailing bytes and string lengths past the block are
/// DataLoss.
Status DecodeRecordBlock(std::string_view bytes, std::uint64_t count,
                         const std::vector<ValueType>& types,
                         std::vector<Record>* out);

}  // namespace packed
}  // namespace fxdist

#endif  // FXDIST_SIM_PACKED_FORMAT_H_
