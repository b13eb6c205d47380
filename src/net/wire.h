// Framed wire protocol for remote StorageBackend access.
//
// One frame layout (wire version 2):
//
//   offset  size  field
//   0       4     magic   0x46585721 ("FXW!"), little-endian
//   4       2     version (2)
//   6       1     opcode  (WireOp)
//   7       1     flags   (bit 0: reply)
//   8       8     correlation id, little-endian (echoed verbatim in reply)
//   16      4     payload length, little-endian
//   20      n     payload
//   20+n    8     FNV-1a 64 checksum over header + payload, little-endian
//
// All integers on the wire are little-endian and written byte-by-byte, so
// the format is host-endianness independent.  A stream reader pulls the
// kWireHeaderSize-byte header and asks FrameSizeFromHeader for the full
// frame length.  DecodeFrame validates magic, version, opcode, length and
// checksum before returning; a frame that fails any check is rejected
// with DataLoss (corruption / over-limit length) or InvalidArgument
// (wrong protocol, or any version other than 2 — the retired version 1
// layout included) and never causes an over-read or an attacker-sized
// allocation.
//
// Payloads are op-specific and built with PayloadWriter / parsed with
// PayloadReader, a bounds-checked cursor whose every read can fail.
// Reply payloads always start with an encoded Status; body fields follow
// only when the status is OK.
//
// The scan op, kScanMatch (counts varint):
//
//   request  query count Q, Q queries (WriteQuery); ref count, then per
//            ref: device, zigzag delta of the linear bucket from the
//            previous ref's (the first from 0), covering count c and c
//            indices into the Q queries
//   reply    ref count, per ref skipped and delivered, then the
//            delivered records (WriteRecord) in ref order
//
// A ref with c > 0 delivers the records one of its covering queries
// matches and counts the rest as skipped; delivered + skipped is the
// bucket's record count.  A ref with c = 0 delivers every record and
// skips none: ScanBucket, migration copies and any ref whose covering
// queries the frame cannot carry.
//
// Payload size limits: kWireMaxPayload (4 MiB) is the per-frame cap
// every reader and writer uses.  The handshake still carries each side's
// limit, and a client refuses a server that advertises less.
// FrameSizeFromHeader enforces the cap from the header alone, before the
// payload is ever buffered; its `max_payload` parameter (clamped to
// kWireMaxPayloadCeiling, 64 MiB) lets tests pin that bound.

#ifndef FXDIST_NET_WIRE_H_
#define FXDIST_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hashing/multikey_hash.h"
#include "hashing/value.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

inline constexpr std::uint32_t kWireMagic = 0x46585721u;  // "FXW!"
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kWireHeaderSize = 20;
inline constexpr std::size_t kWireChecksumSize = 8;
/// Per-frame payload cap, enforced from the header before any
/// allocation.
inline constexpr std::uint32_t kWireMaxPayload = 4u << 20;
/// Absolute ceiling no `max_payload` argument can exceed.
inline constexpr std::uint32_t kWireMaxPayloadCeiling = 64u << 20;

/// Operations of the remote StorageBackend surface.  Values are part of
/// the wire format; append only.  Values 2, 5, 6 and 12 (the retired
/// per-record insert, per-bucket scan, liveness probe and unfiltered
/// gather) stay reserved and are rejected by ParseWireOp.
enum class WireOp : std::uint8_t {
  kHandshake = 1,     ///< limit + features (+ client id) -> blueprint text
  kDelete = 3,        ///< query -> removed count
  kExecute = 4,       ///< query -> QueryResult
  kNumRecords = 7,    ///< -> u64
  kRecordCounts = 8,  ///< -> per-device u64s
  kMarkDown = 9,      ///< device -> ()
  kMarkUp = 10,       ///< device -> ()
  kListRecords = 11,  ///< -> every live record (persistence hook)
  kInsertBatch = 13,  ///< records -> inserted count + shape
  kTopology = 14,     ///< -> version + migrating buckets + plane blueprint
  kAnalyzeRange = 15, ///< (mask, bucket range) -> per-device partial counts
  kScanMatch = 16,    ///< queries + refs -> counts + records per ref
  kError = 127,       ///< reply to an undecodable request: Status only
};

/// Feature bits exchanged in the handshake.  ShardService grants every
/// bit a client asks for, and RemoteBackend refuses a server that does
/// not grant all four.  ScanMany names no op any more; it stays in the
/// handshake so its bytes do not change.
inline constexpr std::uint32_t kWireFeatureScanMany = 1u << 0;
/// kInsertBatch: records in, count + shape + epoch out.
inline constexpr std::uint32_t kWireFeatureInsertBatch = 1u << 1;
/// kAnalyzeRange: bucket-range response sweeps, so a coordinator can fan
/// the fig-1..4 sweeps out.
inline constexpr std::uint32_t kWireFeatureAnalyzeRange = 1u << 2;
/// kScanMatch: the server filters scans and ships only the matching
/// records plus per-ref skip counts.
inline constexpr std::uint32_t kWireFeatureScanMatch = 1u << 3;

/// The opcode, or InvalidArgument for a byte outside the enum.
Result<WireOp> ParseWireOp(std::uint8_t raw);

/// Stable name for diagnostics ("Execute", "ScanMatch", ...).
const char* WireOpName(WireOp op);

/// One decoded frame.
struct WireFrame {
  WireOp op = WireOp::kHandshake;
  bool is_reply = false;
  std::string payload;
  std::uint64_t correlation_id = 0;
};

/// FNV-1a 64 over `bytes`.
std::uint64_t WireChecksum(std::string_view bytes);

/// Serializes header + payload + checksum.  The payload must not exceed
/// kWireMaxPayloadCeiling (DCHECK'd; oversized payloads indicate a caller
/// bug — fallible callers go through EncodeFrameBounded).
std::string EncodeFrame(const WireFrame& frame);

/// EncodeFrame with the limit enforced as a returned error instead of a
/// DCHECK: InvalidArgument when the payload exceeds `max_payload` (or the
/// absolute ceiling).  The choke point for anything that serializes
/// unbounded user data (record lists, scan results).
Result<std::string> EncodeFrameBounded(const WireFrame& frame,
                                       std::uint32_t max_payload);

/// The correlation id of a frame whose first kWireHeaderSize bytes are
/// `header`, after validating magic and version (DataLoss when fewer
/// bytes are given).  The one reader of the fixed id slot: the mux
/// matches replies with it and error replies echo it.
Result<std::uint64_t> CorrelationIdFromHeader(std::string_view header);

/// Total frame size (header + payload + checksum) announced by a complete
/// header, after validating magic, version and payload length against
/// `max_payload` — what a stream reader needs before the full frame has
/// arrived.  Over-limit lengths are DataLoss: the bytes are not trusted
/// enough to allocate for.
Result<std::size_t> FrameSizeFromHeader(
    std::string_view header, std::uint32_t max_payload = kWireMaxPayload);

/// Validates and decodes one complete frame.
Result<WireFrame> DecodeFrame(std::string_view bytes,
                              std::uint32_t max_payload = kWireMaxPayload);

/// Append-only payload builder.  Writes cannot fail mid-stream; instead a
/// length field that cannot be represented in its 32-bit wire slot
/// poisons the writer (sticky), every later write becomes a no-op, and
/// the encode choke points turn `ok() == false` into InvalidArgument.
/// Nothing oversized is ever half-appended.
class PayloadWriter {
 public:
  void U8(std::uint8_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void F64(double v);  ///< IEEE-754 bits, little-endian
  void Str(std::string_view s);
  /// LEB128 varint and its zigzag form (sim/packed_format's codec).
  void Varint(std::uint64_t v);
  void Zigzag(std::int64_t v);

  void WriteStatus(const Status& status);
  void WriteValue(const FieldValue& value);
  void WriteRecord(const Record& record);
  void WriteRecords(const std::vector<Record>& records);
  void WriteQuery(const ValueQuery& query);
  void WriteStats(const QueryStats& stats);
  void WriteResult(const QueryResult& result);

  /// False once any length field overflowed its wire slot.
  bool ok() const { return !overflow_; }
  /// OK, or the InvalidArgument describing the first overflow.
  Status CheckOk() const;

  const std::string& payload() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  /// Encodes a size_t into a u32 length slot; poisons on overflow and
  /// reports whether the caller may proceed with the variable part.
  bool Len(std::size_t n, const char* what);

  std::string out_;
  bool overflow_ = false;
  std::string overflow_what_;
};

/// Bounds-checked payload cursor.  Every read returns an error instead of
/// over-reading; element counts are sanity-checked against the remaining
/// byte budget before any allocation, so a corrupted count cannot force a
/// huge reserve.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : payload_(payload) {}

  Result<std::uint8_t> U8();
  Result<std::uint32_t> U32();
  Result<std::uint64_t> U64();
  Result<double> F64();
  Result<std::string> Str();
  /// DataLoss on a varint longer than 10 bytes or running off the end.
  Result<std::uint64_t> Varint();
  Result<std::int64_t> Zigzag();

  /// Parses an encoded status into `*out`.  The returned Status is the
  /// *parse* outcome, not the parsed value (Result<Status> would be
  /// ambiguous).
  Status ReadStatusInto(Status* out);
  Result<FieldValue> ReadValue();
  Result<Record> ReadRecord();
  Result<std::vector<Record>> ReadRecords();
  Result<ValueQuery> ReadQuery();
  Result<QueryStats> ReadStats();
  Result<QueryResult> ReadResult();

  std::size_t remaining() const { return payload_.size() - pos_; }
  bool AtEnd() const { return pos_ == payload_.size(); }
  /// DataLoss unless the whole payload was consumed (catches truncated
  /// writers and desynced readers alike).
  Status ExpectEnd() const;

 private:
  std::string_view payload_;
  std::size_t pos_ = 0;
};

}  // namespace fxdist

#endif  // FXDIST_NET_WIRE_H_
