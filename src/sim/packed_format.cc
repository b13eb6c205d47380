#include "sim/packed_format.h"

#include <bit>
#include <cstring>

namespace fxdist {
namespace packed {

namespace {

constexpr std::size_t kMaxVarintBytes = 10;

std::uint64_t ZigzagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t ZigzagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

Status Truncated(const char* what) {
  return Status::DataLoss(std::string("packed file truncated reading ") +
                          what);
}

}  // namespace

std::uint64_t Checksum(std::string_view bytes) {
  // FNV-1a 64, matching net/wire's WireChecksum byte for byte.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

void AppendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutZigzag(std::string& out, std::int64_t v) {
  PutVarint(out, ZigzagEncode(v));
}

Result<std::uint32_t> ByteReader::U32() {
  if (remaining() < 4) return Truncated("u32");
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::U64() {
  if (remaining() < 8) return Truncated("u64");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::uint64_t> ByteReader::Varint() {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (pos_ + i >= size_) return Truncated("varint");
    const auto byte = static_cast<unsigned char>(data_[pos_ + i]);
    // Byte 10 carries the final bit of a 64-bit value; anything beyond
    // bit 63 is an overlong encoding of corrupt bytes.
    if (i == kMaxVarintBytes - 1 && (byte & 0xfe) != 0) {
      return Status::DataLoss("packed varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      pos_ += i + 1;
      return v;
    }
  }
  return Status::DataLoss("packed varint longer than 10 bytes");
}

Result<std::int64_t> ByteReader::Zigzag() {
  auto v = Varint();
  FXDIST_RETURN_NOT_OK(v.status());
  return ZigzagDecode(*v);
}

Result<std::string_view> ByteReader::Bytes(std::size_t n) {
  if (remaining() < n) return Truncated("bytes");
  std::string_view view(data_ + pos_, n);
  pos_ += n;
  return view;
}

Status ByteReader::ExpectEnd() const {
  if (pos_ != size_) {
    return Status::DataLoss("packed block has " +
                            std::to_string(size_ - pos_) +
                            " trailing bytes");
  }
  return Status::OK();
}

// -- Header ----------------------------------------------------------------

std::string EncodeHeader(const Header& header) {
  std::string out;
  out.reserve(kHeaderSize);
  AppendU32(out, kMagic);
  AppendU32(out, kVersion);
  AppendU64(out, header.file_size);
  AppendU64(out, header.num_devices);
  AppendU64(out, header.num_records);
  AppendU64(out, header.num_buckets);
  AppendU64(out, header.directory_off);
  AppendU64(out, header.directory_len);
  AppendU64(out, header.blueprint_off);
  AppendU64(out, header.blueprint_len);
  AppendU64(out, Checksum(std::string_view(out)));
  FXDIST_DCHECK(out.size() == kHeaderSize);
  return out;
}

Result<Header> DecodeHeader(std::string_view file) {
  if (file.size() < kHeaderSize) {
    return Status::DataLoss("packed file shorter than its header: " +
                            std::to_string(file.size()) + " bytes");
  }
  ByteReader reader(file.data(), kHeaderSize);
  auto magic = reader.U32();
  FXDIST_RETURN_NOT_OK(magic.status());
  if (*magic != kMagic) {
    return Status::DataLoss("not a packed backend file (bad magic)");
  }
  auto version = reader.U32();
  FXDIST_RETURN_NOT_OK(version.status());
  if (*version != kVersion) {
    return Status::DataLoss("unsupported packed format version " +
                            std::to_string(*version));
  }
  Header h;
  auto read_u64 = [&reader](std::uint64_t* out) -> Status {
    auto v = reader.U64();
    FXDIST_RETURN_NOT_OK(v.status());
    *out = *v;
    return Status::OK();
  };
  FXDIST_RETURN_NOT_OK(read_u64(&h.file_size));
  FXDIST_RETURN_NOT_OK(read_u64(&h.num_devices));
  FXDIST_RETURN_NOT_OK(read_u64(&h.num_records));
  FXDIST_RETURN_NOT_OK(read_u64(&h.num_buckets));
  FXDIST_RETURN_NOT_OK(read_u64(&h.directory_off));
  FXDIST_RETURN_NOT_OK(read_u64(&h.directory_len));
  FXDIST_RETURN_NOT_OK(read_u64(&h.blueprint_off));
  FXDIST_RETURN_NOT_OK(read_u64(&h.blueprint_len));
  auto stored_checksum = reader.U64();
  FXDIST_RETURN_NOT_OK(stored_checksum.status());
  if (*stored_checksum != Checksum(file.substr(0, kHeaderSize - 8))) {
    return Status::DataLoss("packed header checksum mismatch");
  }
  if (h.file_size != file.size()) {
    return Status::DataLoss(
        "packed file truncated: header says " +
        std::to_string(h.file_size) + " bytes, have " +
        std::to_string(file.size()));
  }
  if (h.num_devices == 0) {
    return Status::DataLoss("packed header names zero devices");
  }
  auto check_section = [&h](std::uint64_t off, std::uint64_t len,
                            const char* what) -> Status {
    if (off < kHeaderSize || off > h.file_size ||
        len > h.file_size - off) {
      return Status::DataLoss(std::string("packed ") + what +
                              " section out of file bounds");
    }
    return Status::OK();
  };
  FXDIST_RETURN_NOT_OK(
      check_section(h.directory_off, h.directory_len, "directory"));
  FXDIST_RETURN_NOT_OK(
      check_section(h.blueprint_off, h.blueprint_len, "blueprint"));
  return h;
}

// -- Directory ---------------------------------------------------------------

std::string EncodeDirectory(const Directory& directory) {
  std::string out;
  for (const std::uint64_t count : directory.device_records) {
    PutVarint(out, count);
  }
  PutVarint(out, directory.field_types.size());
  for (const ValueType type : directory.field_types) {
    out.push_back(static_cast<char>(type));
  }
  for (const BucketEntry& entry : directory.buckets) {
    PutVarint(out, entry.device);
    PutVarint(out, entry.linear);
    PutVarint(out, entry.count);
    PutVarint(out, entry.offset);
    PutVarint(out, entry.clen);
    AppendU64(out, entry.checksum);
  }
  AppendU64(out, Checksum(std::string_view(out)));
  return out;
}

Result<Directory> DecodeDirectory(std::string_view bytes,
                                  std::uint64_t file_size,
                                  std::uint64_t num_devices,
                                  std::uint64_t num_records,
                                  std::uint64_t num_buckets) {
  if (bytes.size() < 8) return Truncated("bucket directory");
  ByteReader tail(bytes.data() + bytes.size() - 8, 8);
  if (*tail.U64() != Checksum(bytes.substr(0, bytes.size() - 8))) {
    return Status::DataLoss("packed bucket directory checksum mismatch");
  }
  ByteReader reader(bytes.data(), bytes.size() - 8);
  Directory directory;
  // One varint, so at least one byte, per device.
  if (num_devices > reader.remaining()) {
    return Status::DataLoss("packed directory device count exceeds its "
                            "section");
  }
  directory.device_records.reserve(num_devices);
  std::uint64_t device_total = 0;
  for (std::uint64_t d = 0; d < num_devices; ++d) {
    auto count = reader.Varint();
    FXDIST_RETURN_NOT_OK(count.status());
    directory.device_records.push_back(*count);
    device_total += *count;
  }
  if (device_total != num_records) {
    return Status::DataLoss("packed per-device counts sum to " +
                            std::to_string(device_total) + ", header says " +
                            std::to_string(num_records));
  }
  auto num_fields = reader.Varint();
  FXDIST_RETURN_NOT_OK(num_fields.status());
  if (*num_fields == 0 || *num_fields > reader.remaining()) {
    return Status::DataLoss("packed directory field count out of range");
  }
  auto tags = reader.Bytes(static_cast<std::size_t>(*num_fields));
  FXDIST_RETURN_NOT_OK(tags.status());
  for (const char tag : *tags) {
    if (tag < 0 || tag > static_cast<char>(ValueType::kString)) {
      return Status::DataLoss("packed directory has an unknown field type "
                              "tag");
    }
    directory.field_types.push_back(static_cast<ValueType>(tag));
  }
  // Each entry is at least 5 varint bytes + an 8-byte checksum.
  if (num_buckets > reader.remaining() / 13) {
    return Status::DataLoss("packed directory bucket count exceeds its "
                            "section");
  }
  directory.buckets.reserve(static_cast<std::size_t>(num_buckets));
  std::vector<std::uint64_t> bucket_totals(num_devices, 0);
  for (std::uint64_t i = 0; i < num_buckets; ++i) {
    BucketEntry entry;
    auto field = [&reader](std::uint64_t* out) -> Status {
      auto v = reader.Varint();
      FXDIST_RETURN_NOT_OK(v.status());
      *out = *v;
      return Status::OK();
    };
    FXDIST_RETURN_NOT_OK(field(&entry.device));
    FXDIST_RETURN_NOT_OK(field(&entry.linear));
    FXDIST_RETURN_NOT_OK(field(&entry.count));
    FXDIST_RETURN_NOT_OK(field(&entry.offset));
    FXDIST_RETURN_NOT_OK(field(&entry.clen));
    auto checksum = reader.U64();
    FXDIST_RETURN_NOT_OK(checksum.status());
    entry.checksum = *checksum;
    if (entry.device >= num_devices) {
      return Status::DataLoss("packed directory entry names device " +
                              std::to_string(entry.device) + " of " +
                              std::to_string(num_devices));
    }
    if (entry.count == 0) {
      return Status::DataLoss("packed directory entry for an empty bucket");
    }
    if (entry.offset < kHeaderSize || entry.offset > file_size ||
        entry.clen > file_size - entry.offset) {
      return Status::DataLoss(
          "packed directory offset past EOF: bucket block at " +
          std::to_string(entry.offset) + "+" + std::to_string(entry.clen) +
          " in a " + std::to_string(file_size) + "-byte file");
    }
    if (!directory.buckets.empty()) {
      const BucketEntry& prev = directory.buckets.back();
      if (entry.device < prev.device ||
          (entry.device == prev.device && entry.linear <= prev.linear)) {
        return Status::DataLoss("packed directory entries out of "
                                "(device, bucket) order");
      }
    }
    bucket_totals[entry.device] += entry.count;
    directory.buckets.push_back(entry);
  }
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  if (bucket_totals != directory.device_records) {
    return Status::DataLoss("packed bucket counts disagree with the "
                            "per-device counts");
  }
  return directory;
}

// -- Bucket blocks -----------------------------------------------------------

void EncodeRecord(std::string& out, const Record& record) {
  for (const FieldValue& value : record) {
    switch (TypeOf(value)) {
      case ValueType::kInt64:
        PutZigzag(out, std::get<std::int64_t>(value));
        break;
      case ValueType::kDouble:
        AppendU64(out, std::bit_cast<std::uint64_t>(
                           std::get<double>(value)));
        break;
      case ValueType::kString: {
        const std::string& s = std::get<std::string>(value);
        PutVarint(out, s.size());
        out.append(s);
        break;
      }
    }
  }
}

Status DecodeRecordBlock(std::string_view bytes, std::uint64_t count,
                         const std::vector<ValueType>& types,
                         std::vector<Record>* out) {
  // Records have at least one field (the directory refuses an empty
  // schema) and every field encodes to at least one byte, so a count
  // larger than the block is a lie — refusing it keeps the reserve below
  // honest.
  if (count > bytes.size()) {
    return Status::DataLoss("packed block of " +
                            std::to_string(bytes.size()) +
                            " bytes cannot hold " + std::to_string(count) +
                            " records");
  }
  ByteReader reader(bytes);
  out->clear();
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t r = 0; r < count; ++r) {
    Record record;
    record.reserve(types.size());
    for (const ValueType type : types) {
      switch (type) {
        case ValueType::kInt64: {
          auto v = reader.Zigzag();
          FXDIST_RETURN_NOT_OK(v.status());
          record.emplace_back(*v);
          break;
        }
        case ValueType::kDouble: {
          auto v = reader.U64();
          FXDIST_RETURN_NOT_OK(v.status());
          record.emplace_back(std::bit_cast<double>(*v));
          break;
        }
        case ValueType::kString: {
          auto len = reader.Varint();
          FXDIST_RETURN_NOT_OK(len.status());
          if (*len > reader.remaining()) {
            return Status::DataLoss("packed string length runs past its "
                                    "record block");
          }
          auto view = reader.Bytes(static_cast<std::size_t>(*len));
          FXDIST_RETURN_NOT_OK(view.status());
          record.emplace_back(std::string(*view));
          break;
        }
      }
    }
    out->push_back(std::move(record));
  }
  return reader.ExpectEnd();
}

}  // namespace packed
}  // namespace fxdist
