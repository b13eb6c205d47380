#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "sim/packed_format.h"

namespace fxdist {

namespace {

void AppendU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
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

std::uint16_t LoadU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(b[0]) |
                                    static_cast<std::uint16_t>(b[1]) << 8);
}

std::uint32_t LoadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<std::uint32_t>(b[i]);
  return v;
}

std::uint64_t LoadU64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint64_t>(b[i]);
  return v;
}

constexpr std::uint8_t kFlagReply = 0x01;

/// Validates the magic and version of a complete header.
Status CheckHeader(std::string_view header) {
  if (header.size() < kWireHeaderSize) {
    return Status::DataLoss("wire header truncated");
  }
  if (LoadU32(header.data()) != kWireMagic) {
    return Status::InvalidArgument("bad wire magic");
  }
  const std::uint16_t version = LoadU16(header.data() + 4);
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire version mismatch: peer speaks v" +
                                   std::to_string(version) +
                                   ", this build v" +
                                   std::to_string(kWireVersion));
  }
  return Status::OK();
}

}  // namespace

Result<WireOp> ParseWireOp(std::uint8_t raw) {
  // 2, 5, 6 and 12 are the retired per-record insert, per-bucket scan,
  // liveness probe and unfiltered gather.
  if (raw == 1 || raw == 3 || raw == 4 || (raw >= 7 && raw <= 11) ||
      (raw >= 13 && raw <= 16) ||
      raw == static_cast<std::uint8_t>(WireOp::kError)) {
    return static_cast<WireOp>(raw);
  }
  return Status::InvalidArgument("unknown wire opcode " +
                                 std::to_string(static_cast<unsigned>(raw)));
}

const char* WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kHandshake: return "Handshake";
    case WireOp::kDelete: return "Delete";
    case WireOp::kExecute: return "Execute";
    case WireOp::kNumRecords: return "NumRecords";
    case WireOp::kRecordCounts: return "RecordCounts";
    case WireOp::kMarkDown: return "MarkDown";
    case WireOp::kMarkUp: return "MarkUp";
    case WireOp::kListRecords: return "ListRecords";
    case WireOp::kInsertBatch: return "InsertBatch";
    case WireOp::kTopology: return "Topology";
    case WireOp::kAnalyzeRange: return "AnalyzeRange";
    case WireOp::kScanMatch: return "ScanMatch";
    case WireOp::kError: return "Error";
  }
  return "?";
}

std::uint64_t WireChecksum(std::string_view bytes) {
  // FNV-1a 64.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string EncodeFrame(const WireFrame& frame) {
  FXDIST_DCHECK(frame.payload.size() <= kWireMaxPayloadCeiling);
  std::string out;
  out.reserve(kWireHeaderSize + frame.payload.size() + kWireChecksumSize);
  AppendU32(out, kWireMagic);
  AppendU16(out, kWireVersion);
  out.push_back(static_cast<char>(frame.op));
  out.push_back(static_cast<char>(frame.is_reply ? kFlagReply : 0));
  AppendU64(out, frame.correlation_id);
  AppendU32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  AppendU64(out, WireChecksum(out));
  return out;
}

Result<std::string> EncodeFrameBounded(const WireFrame& frame,
                                       std::uint32_t max_payload) {
  const std::uint64_t limit =
      std::min<std::uint64_t>(max_payload, kWireMaxPayloadCeiling);
  if (frame.payload.size() > limit) {
    return Status::InvalidArgument(
        std::string(WireOpName(frame.op)) + " payload of " +
        std::to_string(frame.payload.size()) +
        " bytes exceeds the frame limit of " + std::to_string(limit));
  }
  return EncodeFrame(frame);
}

Result<std::uint64_t> CorrelationIdFromHeader(std::string_view header) {
  FXDIST_RETURN_NOT_OK(CheckHeader(header));
  return LoadU64(header.data() + 8);
}

Result<std::size_t> FrameSizeFromHeader(std::string_view header,
                                        std::uint32_t max_payload) {
  FXDIST_RETURN_NOT_OK(CheckHeader(header));
  const std::uint32_t payload_len = LoadU32(header.data() + 16);
  const std::uint64_t limit =
      std::min<std::uint64_t>(max_payload, kWireMaxPayloadCeiling);
  if (payload_len > limit) {
    // DataLoss, not InvalidArgument: the length is read before the
    // checksum can vouch for it, so an over-limit value is treated as
    // corruption and never allocated for.
    return Status::DataLoss("wire payload length " +
                            std::to_string(payload_len) +
                            " exceeds the frame limit of " +
                            std::to_string(limit));
  }
  return kWireHeaderSize + payload_len + kWireChecksumSize;
}

Result<WireFrame> DecodeFrame(std::string_view bytes,
                              std::uint32_t max_payload) {
  auto total = FrameSizeFromHeader(bytes, max_payload);
  FXDIST_RETURN_NOT_OK(total.status());
  if (bytes.size() != *total) {
    return Status::DataLoss("wire frame size mismatch: have " +
                            std::to_string(bytes.size()) + " bytes, header " +
                            "announces " + std::to_string(*total));
  }
  const std::size_t body = *total - kWireChecksumSize;
  if (LoadU64(bytes.data() + body) != WireChecksum(bytes.substr(0, body))) {
    return Status::DataLoss("wire frame failed checksum");
  }
  auto op = ParseWireOp(static_cast<std::uint8_t>(bytes[6]));
  FXDIST_RETURN_NOT_OK(op.status());
  WireFrame frame;
  frame.op = *op;
  frame.is_reply = (static_cast<std::uint8_t>(bytes[7]) & kFlagReply) != 0;
  frame.correlation_id = LoadU64(bytes.data() + 8);
  frame.payload.assign(bytes.data() + kWireHeaderSize,
                       body - kWireHeaderSize);
  return frame;
}

// -- PayloadWriter -------------------------------------------------------

bool PayloadWriter::Len(std::size_t n, const char* what) {
  if (overflow_) return false;
  if (n > 0xffffffffull) {
    overflow_ = true;
    overflow_what_ = what;
    return false;
  }
  AppendU32(out_, static_cast<std::uint32_t>(n));
  return true;
}

Status PayloadWriter::CheckOk() const {
  if (!overflow_) return Status::OK();
  return Status::InvalidArgument("wire payload " + overflow_what_ +
                                 " length exceeds the 32-bit wire slot");
}

void PayloadWriter::U8(std::uint8_t v) {
  if (overflow_) return;
  out_.push_back(static_cast<char>(v));
}

void PayloadWriter::U32(std::uint32_t v) {
  if (overflow_) return;
  AppendU32(out_, v);
}

void PayloadWriter::U64(std::uint64_t v) {
  if (overflow_) return;
  AppendU64(out_, v);
}

void PayloadWriter::F64(double v) {
  if (overflow_) return;
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out_, bits);
}

void PayloadWriter::Str(std::string_view s) {
  // The length gate runs before the body is touched, so a poisoned write
  // never half-appends (and never dereferences) an oversized view.
  if (!Len(s.size(), "string")) return;
  out_.append(s);
}

void PayloadWriter::Varint(std::uint64_t v) {
  if (overflow_) return;
  packed::PutVarint(out_, v);
}

void PayloadWriter::Zigzag(std::int64_t v) {
  if (overflow_) return;
  packed::PutZigzag(out_, v);
}

void PayloadWriter::WriteStatus(const Status& status) {
  U8(static_cast<std::uint8_t>(status.code()));
  Str(status.message());
}

void PayloadWriter::WriteValue(const FieldValue& value) {
  U8(static_cast<std::uint8_t>(TypeOf(value)));
  switch (TypeOf(value)) {
    case ValueType::kInt64:
      U64(static_cast<std::uint64_t>(std::get<std::int64_t>(value)));
      break;
    case ValueType::kDouble:
      F64(std::get<double>(value));
      break;
    case ValueType::kString:
      Str(std::get<std::string>(value));
      break;
  }
}

void PayloadWriter::WriteRecord(const Record& record) {
  if (!Len(record.size(), "record arity")) return;
  for (const FieldValue& value : record) WriteValue(value);
}

void PayloadWriter::WriteRecords(const std::vector<Record>& records) {
  if (!Len(records.size(), "record count")) return;
  for (const Record& record : records) WriteRecord(record);
}

void PayloadWriter::WriteQuery(const ValueQuery& query) {
  if (!Len(query.size(), "query arity")) return;
  for (const auto& field : query) {
    U8(field.has_value() ? 1 : 0);
    if (field.has_value()) WriteValue(*field);
  }
}

void PayloadWriter::WriteStats(const QueryStats& stats) {
  if (!Len(stats.qualified_per_device.size(), "device count")) return;
  for (const std::uint64_t q : stats.qualified_per_device) U64(q);
  U64(stats.total_qualified);
  U64(stats.largest_response);
  U64(stats.optimal_bound);
  U8(stats.strict_optimal ? 1 : 0);
  U64(stats.records_examined);
  U64(stats.records_matched);
  F64(stats.disk_timing.parallel_ms);
  F64(stats.disk_timing.serial_ms);
  F64(stats.disk_timing.speedup);
  F64(stats.wall_ms);
  if (!Len(stats.device_wall_ms.size(), "device wall count")) return;
  for (const double w : stats.device_wall_ms) F64(w);
}

void PayloadWriter::WriteResult(const QueryResult& result) {
  WriteRecords(result.records);
  WriteStats(result.stats);
}

// -- PayloadReader -------------------------------------------------------

namespace {

Status Truncated(const char* what) {
  return Status::DataLoss(std::string("wire payload truncated reading ") +
                          what);
}

}  // namespace

Result<std::uint8_t> PayloadReader::U8() {
  if (remaining() < 1) return Truncated("u8");
  return static_cast<std::uint8_t>(payload_[pos_++]);
}

Result<std::uint32_t> PayloadReader::U32() {
  if (remaining() < 4) return Truncated("u32");
  const std::uint32_t v = LoadU32(payload_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> PayloadReader::U64() {
  if (remaining() < 8) return Truncated("u64");
  const std::uint64_t v = LoadU64(payload_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<double> PayloadReader::F64() {
  auto bits = U64();
  FXDIST_RETURN_NOT_OK(bits.status());
  double v = 0.0;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

Result<std::string> PayloadReader::Str() {
  auto len = U32();
  FXDIST_RETURN_NOT_OK(len.status());
  if (remaining() < *len) return Truncated("string body");
  std::string s(payload_.substr(pos_, *len));
  pos_ += *len;
  return s;
}

Result<std::uint64_t> PayloadReader::Varint() {
  packed::ByteReader bytes(payload_.substr(pos_));
  auto v = bytes.Varint();
  FXDIST_RETURN_NOT_OK(v.status());
  pos_ = payload_.size() - bytes.remaining();
  return v;
}

Result<std::int64_t> PayloadReader::Zigzag() {
  packed::ByteReader bytes(payload_.substr(pos_));
  auto v = bytes.Zigzag();
  FXDIST_RETURN_NOT_OK(v.status());
  pos_ = payload_.size() - bytes.remaining();
  return v;
}

Status PayloadReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::DataLoss("wire payload has " + std::to_string(remaining()) +
                            " trailing bytes");
  }
  return Status::OK();
}

Status PayloadReader::ReadStatusInto(Status* out) {
  auto code = U8();
  FXDIST_RETURN_NOT_OK(code.status());
  if (*code > static_cast<std::uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::DataLoss("wire status code out of range");
  }
  auto message = Str();
  FXDIST_RETURN_NOT_OK(message.status());
  if (*code == 0 && !message->empty()) {
    return Status::DataLoss("wire OK status carries a message");
  }
  *out = Status(static_cast<StatusCode>(*code), *std::move(message));
  return Status::OK();
}

Result<FieldValue> PayloadReader::ReadValue() {
  auto tag = U8();
  FXDIST_RETURN_NOT_OK(tag.status());
  // One named value and one return site, for the GCC 12 false warning
  // described in DecodeValue (hashing/value_codec.cc).
  FieldValue value;
  switch (*tag) {
    case static_cast<std::uint8_t>(ValueType::kInt64): {
      auto v = U64();
      FXDIST_RETURN_NOT_OK(v.status());
      value = static_cast<std::int64_t>(*v);
      break;
    }
    case static_cast<std::uint8_t>(ValueType::kDouble): {
      auto v = F64();
      FXDIST_RETURN_NOT_OK(v.status());
      value = *v;
      break;
    }
    case static_cast<std::uint8_t>(ValueType::kString): {
      auto v = Str();
      FXDIST_RETURN_NOT_OK(v.status());
      value = *std::move(v);
      break;
    }
    default:
      return Status::DataLoss("wire value has unknown type tag");
  }
  return value;
}

Result<Record> PayloadReader::ReadRecord() {
  auto count = U32();
  FXDIST_RETURN_NOT_OK(count.status());
  // Every value costs at least one tag byte.
  if (*count > remaining()) return Truncated("record values");
  Record record;
  record.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto value = ReadValue();
    FXDIST_RETURN_NOT_OK(value.status());
    record.push_back(*std::move(value));
  }
  return record;
}

Result<std::vector<Record>> PayloadReader::ReadRecords() {
  auto count = U32();
  FXDIST_RETURN_NOT_OK(count.status());
  // Every record costs at least its 4-byte arity.
  if (*count > remaining() / 4) return Truncated("record list");
  std::vector<Record> records;
  records.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto record = ReadRecord();
    FXDIST_RETURN_NOT_OK(record.status());
    records.push_back(*std::move(record));
  }
  return records;
}

Result<ValueQuery> PayloadReader::ReadQuery() {
  auto count = U32();
  FXDIST_RETURN_NOT_OK(count.status());
  if (*count > remaining()) return Truncated("query fields");
  ValueQuery query;
  query.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto present = U8();
    FXDIST_RETURN_NOT_OK(present.status());
    if (*present > 1) return Status::DataLoss("wire query flag out of range");
    if (*present == 0) {
      query.push_back(std::nullopt);
      continue;
    }
    auto value = ReadValue();
    FXDIST_RETURN_NOT_OK(value.status());
    query.push_back(*std::move(value));
  }
  return query;
}

Result<QueryStats> PayloadReader::ReadStats() {
  QueryStats stats;
  auto devices = U32();
  FXDIST_RETURN_NOT_OK(devices.status());
  if (*devices > remaining() / 8) return Truncated("qualified counts");
  stats.qualified_per_device.reserve(*devices);
  for (std::uint32_t i = 0; i < *devices; ++i) {
    auto q = U64();
    FXDIST_RETURN_NOT_OK(q.status());
    stats.qualified_per_device.push_back(*q);
  }
#define FXDIST_WIRE_READ(field, reader)     \
  do {                                      \
    auto _v = reader();                     \
    FXDIST_RETURN_NOT_OK(_v.status());      \
    field = *_v;                            \
  } while (false)
  FXDIST_WIRE_READ(stats.total_qualified, U64);
  FXDIST_WIRE_READ(stats.largest_response, U64);
  FXDIST_WIRE_READ(stats.optimal_bound, U64);
  auto strict = U8();
  FXDIST_RETURN_NOT_OK(strict.status());
  if (*strict > 1) return Status::DataLoss("wire bool out of range");
  stats.strict_optimal = *strict != 0;
  FXDIST_WIRE_READ(stats.records_examined, U64);
  FXDIST_WIRE_READ(stats.records_matched, U64);
  FXDIST_WIRE_READ(stats.disk_timing.parallel_ms, F64);
  FXDIST_WIRE_READ(stats.disk_timing.serial_ms, F64);
  FXDIST_WIRE_READ(stats.disk_timing.speedup, F64);
  FXDIST_WIRE_READ(stats.wall_ms, F64);
#undef FXDIST_WIRE_READ
  auto walls = U32();
  FXDIST_RETURN_NOT_OK(walls.status());
  if (*walls > remaining() / 8) return Truncated("device wall times");
  stats.device_wall_ms.reserve(*walls);
  for (std::uint32_t i = 0; i < *walls; ++i) {
    auto w = F64();
    FXDIST_RETURN_NOT_OK(w.status());
    stats.device_wall_ms.push_back(*w);
  }
  return stats;
}

Result<QueryResult> PayloadReader::ReadResult() {
  QueryResult result;
  auto records = ReadRecords();
  FXDIST_RETURN_NOT_OK(records.status());
  result.records = *std::move(records);
  auto stats = ReadStats();
  FXDIST_RETURN_NOT_OK(stats.status());
  result.stats = *std::move(stats);
  return result;
}

}  // namespace fxdist
