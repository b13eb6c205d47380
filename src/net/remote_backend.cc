#include "net/remote_backend.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/mux_transport.h"
#include "net/socket_transport.h"
#include "sim/persistence.h"
#include "util/random.h"

namespace fxdist {

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::Connect(
    std::unique_ptr<Transport> transport, Options options) {
  std::unique_ptr<RemoteBackend> backend(
      new RemoteBackend(std::move(transport), std::move(options)));
  if (!backend->options_.force_wire_v1) {
    backend->wire_version_ = kWireVersionMux;
    PayloadWriter hello;
    hello.U64(kWireMaxPayload);
    hello.U32(kWireFeatureScanMany | kWireFeatureInsertBatch |
              kWireFeatureAnalyzeRange);
    // Optional trailing tenant id (only sent when set): current servers
    // read it when present; a pre-front-door v2 server rejects the
    // longer hello, which lands in the v1 fallback below — anonymous but
    // functional, the right degradation for an id only QoS-aware
    // servers use.
    if (!backend->options_.client_id.empty()) {
      hello.Str(backend->options_.client_id);
    }
    auto body = backend->Call(WireOp::kHandshake, hello.Take(),
                              /*idempotent=*/true, /*max_attempts_override=*/1);
    if (body.ok()) {
      FXDIST_RETURN_NOT_OK(backend->FinishHandshake(*body, /*v2=*/true));
      return backend;
    }
    // A v1 server rejects the v2 frame at the header: an InvalidArgument
    // error reply on a plain transport, or DataLoss through a mux whose
    // receiver finds an unsolicited v1 frame.  Fall back to the classic
    // dialect — a genuinely dead shard fails the v1 handshake too.
    std::lock_guard<std::mutex> lock(backend->mutex_);
    backend->terminal_.clear();
  }
  backend->wire_version_ = kWireVersion;
  backend->features_ = 0;
  backend->negotiated_max_payload_ = kWireMaxPayload;
  auto body = backend->Call(WireOp::kHandshake, "", /*idempotent=*/true);
  FXDIST_RETURN_NOT_OK(body.status());
  FXDIST_RETURN_NOT_OK(backend->FinishHandshake(*body, /*v2=*/false));
  return backend;
}

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::ConnectTcp(
    const std::string& host_port, Options options) {
  SocketTransportOptions socket_options;
  socket_options.io_timeout_ms = options.deadline_ms;
  if (options.pipeline_window > 1 && !options.force_wire_v1) {
    auto channel = SocketFrameChannel::ConnectSpec(host_port, socket_options);
    FXDIST_RETURN_NOT_OK(channel.status());
    MuxTransportOptions mux_options;
    mux_options.window = options.pipeline_window;
    mux_options.call_timeout_ms =
        static_cast<std::uint64_t>(std::max(1, options.deadline_ms));
    return Connect(std::make_unique<MuxTransport>(*std::move(channel),
                                                  mux_options),
                   std::move(options));
  }
  auto transport = SocketTransport::ConnectSpec(host_port, socket_options);
  FXDIST_RETURN_NOT_OK(transport.status());
  return Connect(*std::move(transport), std::move(options));
}

Status RemoteBackend::FinishHandshake(const std::string& body, bool v2) {
  PayloadReader reader(body);
  auto blueprint = reader.Str();
  FXDIST_RETURN_NOT_OK(blueprint.status());
  if (v2) {
    auto server_max = reader.U64();
    FXDIST_RETURN_NOT_OK(server_max.status());
    auto features = reader.U32();
    FXDIST_RETURN_NOT_OK(features.status());
    FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
    // Negotiated limit: what both sides accept.  A nonsensical server
    // advertisement is clamped into [64 KiB, ceiling] rather than
    // crippling the connection.
    const std::uint64_t floor = 64u << 10;
    const std::uint64_t server_limit =
        std::min<std::uint64_t>(std::max<std::uint64_t>(*server_max, floor),
                                kWireMaxPayloadCeiling);
    negotiated_max_payload_ = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kWireMaxPayload, server_limit));
    features_ = *features & (kWireFeatureScanMany | kWireFeatureInsertBatch |
                             kWireFeatureAnalyzeRange);
  } else {
    FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  }
  auto twin = BuildBackendFromBlueprintText(*blueprint);
  if (!twin.ok()) {
    return Status::Internal("remote blueprint rejected: " +
                            twin.status().message());
  }
  twin_ = *std::move(twin);
  twin_replicated_ = dynamic_cast<ReplicatedBackend*>(twin_.get());
  return Status::OK();
}

Result<std::string> RemoteBackend::Call(WireOp op, std::string payload,
                                        bool idempotent,
                                        int max_attempts_override) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!poisoned_.empty()) return Status::FailedPrecondition(poisoned_);
    if (!terminal_.empty()) return Status::Unavailable(terminal_);
  }

  WireFrame request;
  request.op = op;
  request.is_reply = false;
  request.payload = std::move(payload);
  request.version = wire_version_;

  const int max_attempts = max_attempts_override > 0
                               ? max_attempts_override
                               : std::max(1, options_.max_attempts);

  // Decorrelated-jitter backoff: each retry sleeps uniform(initial,
  // 3 * previous sleep), capped at backoff_max and at whatever is left
  // of the deadline budget — concurrent clients spread out instead of
  // retrying in lockstep, and the final sleep can never overshoot the
  // op deadline.  The RNG is seeded from options (plus the call
  // sequence number so calls decorrelate from each other), which is
  // what makes test schedules replayable.
  Xoshiro256 rng(options_.backoff_seed ^
                 (0x9e3779b97f4a7c15ull *
                  seq_.fetch_add(1, std::memory_order_relaxed)));
  std::uint64_t prev_sleep_ms =
      static_cast<std::uint64_t>(std::max(0, options_.backoff_initial_ms));
  std::int64_t budget_ms =
      static_cast<std::int64_t>(std::max(0, options_.deadline_ms));

  Status last;
  int attempts = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0 && options_.backoff_initial_ms > 0) {
      const auto base =
          static_cast<std::uint64_t>(options_.backoff_initial_ms);
      const std::uint64_t hi = std::max(base + 1, prev_sleep_ms * 3);
      std::uint64_t sleep_ms = base + rng.NextBounded(hi - base);
      sleep_ms = std::min<std::uint64_t>(
          sleep_ms,
          static_cast<std::uint64_t>(std::max(0, options_.backoff_max_ms)));
      sleep_ms = std::min<std::uint64_t>(
          sleep_ms,
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, budget_ms)));
      if (sleep_ms > 0) {
        if (options_.sleep_fn) {
          options_.sleep_fn(sleep_ms);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
        budget_ms -= static_cast<std::int64_t>(sleep_ms);
      }
      prev_sleep_ms = std::max<std::uint64_t>(sleep_ms, 1);
    }
    ++attempts;

    // A fresh correlation id per attempt: a late reply to an abandoned
    // attempt is dropped as stale instead of completing this one.
    if (wire_version_ == kWireVersionMux) {
      request.correlation_id = seq_.fetch_add(1, std::memory_order_relaxed);
    }
    auto request_bytes = EncodeFrameBounded(request, negotiated_max_payload_);
    if (!request_bytes.ok()) {
      // Oversized payload is a caller-level error, not a transport
      // failure: surface it without retrying or going terminal.
      return request_bytes.status();
    }

    Status failure;
    auto raw = transport_->RoundTrip(*request_bytes);
    if (!raw.ok()) {
      failure = raw.status();
    } else {
      auto reply = DecodeFrame(*raw, kWireMaxPayload);
      if (!reply.ok()) {
        failure = Status::DataLoss("reply rejected: " +
                                   reply.status().message());
      } else if (!reply->is_reply ||
                 (reply->op != op && reply->op != WireOp::kError)) {
        failure = Status::DataLoss(
            std::string("protocol desync: expected a ") + WireOpName(op) +
            " reply, got " + WireOpName(reply->op));
      } else if (reply->op != WireOp::kError &&
                 wire_version_ == kWireVersionMux &&
                 (reply->version != kWireVersionMux ||
                  reply->correlation_id != request.correlation_id)) {
        // kError replies are exempt: a v1 peer rejecting our dialect can
        // only answer with an uncorrelated v1 frame.
        failure = Status::DataLoss(
            "correlation id mismatch: request " +
            std::to_string(request.correlation_id) + ", reply " +
            std::to_string(reply->correlation_id));
      } else {
        PayloadReader reader(reply->payload);
        Status remote_status;
        const Status parse = reader.ReadStatusInto(&remote_status);
        if (!parse.ok()) {
          failure = Status::DataLoss("malformed reply payload: " +
                                     parse.message());
        } else if (!remote_status.ok()) {
          // The server executed the operation and said no.  That is an
          // application error, not a transport failure: surface it
          // as-is, never retry, never go terminal.
          return remote_status;
        } else {
          return std::string(reply->payload.substr(
              reply->payload.size() - reader.remaining()));
        }
      }
    }

    last = failure;
    const bool retryable =
        failure.code() == StatusCode::kUnavailable ||
        (idempotent && (failure.code() == StatusCode::kDeadlineExceeded ||
                        failure.code() == StatusCode::kDataLoss));
    if (!retryable) break;
  }

  // Out of budget (or a mutation hit an indeterminate failure): go
  // terminal so this shard now looks like a local dead child.
  std::lock_guard<std::mutex> lock(mutex_);
  if (terminal_.empty()) {
    terminal_ = "remote shard unavailable after " + std::to_string(attempts) +
                " attempt(s): " + last.ToString();
  }
  if (!idempotent && (last.code() == StatusCode::kDeadlineExceeded ||
                      last.code() == StatusCode::kDataLoss)) {
    // Indeterminate mutation outcome: the server may or may not have
    // applied it.  Surface the real code instead of masking it as
    // Unavailable (= "never delivered, safe to resend") so callers know
    // a blind re-send risks a duplicate side effect.
    return last;
  }
  return Status::Unavailable(terminal_);
}

std::uint64_t RemoteBackend::num_records() const {
  auto body = Call(WireOp::kNumRecords, "", /*idempotent=*/true);
  if (!body.ok()) return 0;
  PayloadReader reader(*body);
  auto count = reader.U64();
  if (!count.ok() || !reader.AtEnd()) return 0;
  return *count;
}

Status RemoteBackend::Insert(Record record) {
  PayloadWriter writer;
  writer.WriteRecord(record);
  auto body = Call(WireOp::kInsert, writer.Take(), /*idempotent=*/false);
  FXDIST_RETURN_NOT_OK(body.status());

  PayloadReader reader(*body);
  FXDIST_RETURN_NOT_OK(CheckShapeEcho(reader));
  FXDIST_RETURN_NOT_OK(ObserveServerEpoch(reader));
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  // The local count still bumps (old servers echo no epoch); the echo
  // observed above is what makes other writers' mutations visible.
  BumpMutationEpoch();
  return Status::OK();
}

Status RemoteBackend::ObserveServerEpoch(PayloadReader& reader) const {
  if (reader.AtEnd()) return Status::OK();  // pre-epoch server
  auto epoch = reader.U64();
  FXDIST_RETURN_NOT_OK(epoch.status());
  // Max-observed: replies may complete out of order on the mux, and the
  // counter must never run backwards.
  std::uint64_t seen = server_epoch_.load(std::memory_order_relaxed);
  while (seen < *epoch && !server_epoch_.compare_exchange_weak(
                              seen, *epoch, std::memory_order_acq_rel)) {
  }
  return Status::OK();
}

Status RemoteBackend::CheckShapeEcho(PayloadReader& reader) {
  // Every mutation reply echoes the remote's current bucket-space shape;
  // a remote dynamic child that grew past the blueprint the twin was
  // built from breaks the frozen placement plane — poison, exactly as
  // ShardedBackend does for a local child.
  auto arity = reader.U32();
  FXDIST_RETURN_NOT_OK(arity.status());
  std::vector<std::uint64_t> sizes;
  sizes.reserve(*arity);
  for (std::uint32_t i = 0; i < *arity; ++i) {
    auto size = reader.U64();
    FXDIST_RETURN_NOT_OK(size.status());
    sizes.push_back(*size);
  }
  if (sizes != twin_->spec().field_sizes()) {
    std::lock_guard<std::mutex> lock(mutex_);
    poisoned_ =
        "remote shard outgrew the frozen placement plane: its bucket "
        "space no longer matches the handshake blueprint";
    return Status::FailedPrecondition(poisoned_);
  }
  return Status::OK();
}

Status RemoteBackend::InsertBatch(std::vector<Record> records) {
  return InsertBatchImpl(std::move(records), nullptr);
}

Status RemoteBackend::InsertBatchTagged(std::vector<Record> records,
                                        std::uint64_t token) {
  if (wire_version_ != kWireVersionMux || !insert_batch_enabled()) {
    return Status::Unimplemented(
        "remote peer has no InsertBatch feature; tagged exactly-once "
        "ingest needs the server-side dedup registry");
  }
  return InsertBatchImpl(std::move(records), &token);
}

Status RemoteBackend::InsertBatchImpl(std::vector<Record> records,
                                      const std::uint64_t* token) {
  if (wire_version_ != kWireVersionMux || !insert_batch_enabled()) {
    // Pre-InsertBatch peer: the default per-record loop (one kInsert
    // round trip each).
    return StorageBackend::InsertBatch(std::move(records));
  }
  const std::size_t chunk =
      std::max<std::size_t>(1, options_.insert_batch_chunk);
  for (std::size_t start = 0; start < records.size(); start += chunk) {
    const std::size_t n = std::min(chunk, records.size() - start);
    PayloadWriter writer;
    writer.U32(static_cast<std::uint32_t>(n));
    for (std::size_t j = 0; j < n; ++j) {
      writer.WriteRecord(records[start + j]);
    }
    if (token != nullptr) {
      // Deterministic per-chunk token: same batch + same base token
      // always re-sends identical tagged chunks, so a coordinator
      // re-running a task cannot double-apply on the same server.
      writer.U64(*token ^ (0x9e3779b97f4a7c15ull * (start / chunk + 1)));
    }
    // A tagged chunk is effectively idempotent — the server's dedup
    // registry turns a re-send into an ack — so indeterminate failures
    // may be retried; an untagged chunk must not be.
    auto body = Call(WireOp::kInsertBatch, writer.Take(),
                     /*idempotent=*/token != nullptr);
    if (!body.ok()) {
      if (token == nullptr &&
          body.status().code() == StatusCode::kInvalidArgument) {
        // The chunk's request outgrew the negotiated frame limit (or a
        // record is genuinely bad — the per-record path reproduces that
        // error faithfully): insert this chunk record-by-record.  (The
        // tagged path never falls back: per-record kInsert has no dedup
        // marker, which would break exactly-once.)
        for (std::size_t j = 0; j < n; ++j) {
          FXDIST_RETURN_NOT_OK(Insert(std::move(records[start + j])));
        }
        continue;
      }
      return body.status();
    }
    PayloadReader reader(*body);
    auto count = reader.U64();
    FXDIST_RETURN_NOT_OK(count.status());
    if (*count != n) {
      return Status::DataLoss("InsertBatch reply acknowledges " +
                              std::to_string(*count) + " of " +
                              std::to_string(n) + " records");
    }
    FXDIST_RETURN_NOT_OK(CheckShapeEcho(reader));
    FXDIST_RETURN_NOT_OK(ObserveServerEpoch(reader));
    if (token != nullptr && !reader.AtEnd()) {
      // Trailing dup flag (present iff the request carried a token):
      // diagnostic only — a set flag means an earlier send of this
      // chunk already landed and the server acked without re-applying.
      FXDIST_RETURN_NOT_OK(reader.U8().status());
    }
    FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
    BumpMutationEpoch();
  }
  return Status::OK();
}

Result<RemoteBackend::TopologySnapshot> RemoteBackend::RemoteTopology()
    const {
  auto body = Call(WireOp::kTopology, "", /*idempotent=*/true);
  FXDIST_RETURN_NOT_OK(body.status());
  PayloadReader reader(*body);
  TopologySnapshot snapshot;
  auto version = reader.U64();
  FXDIST_RETURN_NOT_OK(version.status());
  snapshot.version = *version;
  auto migrating = reader.U64();
  FXDIST_RETURN_NOT_OK(migrating.status());
  snapshot.migrating_buckets = *migrating;
  auto blueprint = reader.Str();
  FXDIST_RETURN_NOT_OK(blueprint.status());
  snapshot.blueprint = *std::move(blueprint);
  // Trailing authoritative epoch (absent from old servers): the probe a
  // cache-holding client refreshes multi-writer staleness with.
  FXDIST_RETURN_NOT_OK(ObserveServerEpoch(reader));
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  return snapshot;
}

Result<std::uint64_t> RemoteBackend::Delete(const ValueQuery& query) {
  PayloadWriter writer;
  writer.WriteQuery(query);
  auto body = Call(WireOp::kDelete, writer.Take(), /*idempotent=*/false);
  FXDIST_RETURN_NOT_OK(body.status());
  PayloadReader reader(*body);
  auto removed = reader.U64();
  FXDIST_RETURN_NOT_OK(removed.status());
  FXDIST_RETURN_NOT_OK(ObserveServerEpoch(reader));
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  if (*removed > 0) BumpMutationEpoch();
  return *removed;
}

void RemoteBackend::ScanBucketRemote(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  PayloadWriter writer;
  writer.U64(device);
  writer.U64(linear_bucket);
  auto body = Call(WireOp::kScanBucket, writer.Take(), /*idempotent=*/true);
  if (!body.ok()) return;  // visits nothing; Health() reports the cause
  PayloadReader reader(*body);
  auto records = reader.ReadRecords();
  if (!records.ok() || !reader.AtEnd()) return;
  // References handed to `fn` die with this call: nothing is kept.
  for (const Record& record : *records) {
    if (!fn(record)) return;
  }
}

void RemoteBackend::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  ScanBucketRemote(device, linear_bucket, fn);
}

void RemoteBackend::ScanMany(
    const std::vector<BucketRef>& refs,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  if (wire_version_ != kWireVersionMux || !scan_many_enabled()) {
    // Pre-ScanMany peer: the default per-bucket gather (one kScanBucket
    // round trip per ref).
    StorageBackend::ScanMany(refs, fn);
    return;
  }
  const std::size_t chunk =
      std::max<std::size_t>(1, options_.scan_many_chunk);
  for (std::size_t start = 0; start < refs.size(); start += chunk) {
    const std::size_t n = std::min(chunk, refs.size() - start);
    PayloadWriter writer;
    writer.U64(n);
    for (std::size_t j = 0; j < n; ++j) {
      writer.U64(refs[start + j].device);
      writer.U64(refs[start + j].linear_bucket);
    }
    auto body = Call(WireOp::kScanMany, writer.Take(), /*idempotent=*/true);
    if (!body.ok()) {
      if (body.status().code() == StatusCode::kInvalidArgument) {
        // The chunk's reply (or request) outgrew the negotiated frame
        // limit: gather this chunk bucket-by-bucket instead.  fn
        // returning false cancels the rest of the scatter.
        bool cancelled = false;
        for (std::size_t j = 0; j < n && !cancelled; ++j) {
          const std::size_t i = start + j;
          ScanBucketRemote(refs[i].device, refs[i].linear_bucket,
                           [&fn, &cancelled, i](const Record& r) {
                             if (!fn(i, r)) {
                               cancelled = true;
                               return false;
                             }
                             return true;
                           });
        }
        if (cancelled) return;
        continue;
      }
      return;  // terminal / transport failure: Health() reports the cause
    }
    PayloadReader reader(*body);
    auto count = reader.U64();
    if (!count.ok() || *count != n) return;
    std::vector<std::vector<Record>> lists;
    lists.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      auto records = reader.ReadRecords();
      if (!records.ok()) return;
      lists.push_back(*std::move(records));
    }
    if (!reader.AtEnd()) return;
    // Deliver straight from the decoded reply, in ref order.
    for (std::size_t j = 0; j < n; ++j) {
      for (const Record& record : lists[j]) {
        // fn returning false cancels the whole scatter: abandon this
        // bucket, the rest of the chunk, and every later chunk.
        if (!fn(start + j, record)) return;
      }
    }
  }
}

Result<QueryResult> RemoteBackend::Execute(const ValueQuery& query) const {
  PayloadWriter writer;
  writer.WriteQuery(query);
  auto body = Call(WireOp::kExecute, writer.Take(), /*idempotent=*/true);
  FXDIST_RETURN_NOT_OK(body.status());
  PayloadReader reader(*body);
  auto result = reader.ReadResult();
  FXDIST_RETURN_NOT_OK(result.status());
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  return *std::move(result);
}

std::vector<std::uint64_t> RemoteBackend::RecordCountsPerDevice() const {
  const std::vector<std::uint64_t> zeros(num_devices(), 0);
  auto body = Call(WireOp::kRecordCounts, "", /*idempotent=*/true);
  if (!body.ok()) return zeros;
  PayloadReader reader(*body);
  auto arity = reader.U32();
  if (!arity.ok()) return zeros;
  std::vector<std::uint64_t> counts;
  counts.reserve(*arity);
  for (std::uint32_t i = 0; i < *arity; ++i) {
    auto count = reader.U64();
    if (!count.ok()) return zeros;
    counts.push_back(*count);
  }
  if (!reader.AtEnd()) return zeros;
  return counts;
}

void RemoteBackend::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  auto body = Call(WireOp::kListRecords, "", /*idempotent=*/true);
  if (!body.ok()) return;
  PayloadReader reader(*body);
  auto records = reader.ReadRecords();
  if (!records.ok() || !reader.AtEnd()) return;
  for (const Record& record : *records) fn(record);
}

Status RemoteBackend::MarkDown(std::uint64_t device) {
  PayloadWriter writer;
  writer.U64(device);
  auto body = Call(WireOp::kMarkDown, writer.Take(), /*idempotent=*/false);
  FXDIST_RETURN_NOT_OK(body.status());
  {
    PayloadReader reader(*body);
    FXDIST_RETURN_NOT_OK(ObserveServerEpoch(reader));
    FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  }
  if (twin_replicated_ == nullptr) {
    return Status::Internal("remote accepted MarkDown but the twin has no "
                            "replica plane");
  }
  // A device-state flip changes degraded routing and accounting, so it
  // invalidates cached results like any other mutation.
  BumpMutationEpoch();
  // Mirror onto the twin so ServingDevice routes like the server.
  return twin_replicated_->MarkDown(device);
}

Status RemoteBackend::MarkUp(std::uint64_t device) {
  PayloadWriter writer;
  writer.U64(device);
  auto body = Call(WireOp::kMarkUp, writer.Take(), /*idempotent=*/false);
  FXDIST_RETURN_NOT_OK(body.status());
  {
    PayloadReader reader(*body);
    FXDIST_RETURN_NOT_OK(ObserveServerEpoch(reader));
    FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  }
  if (twin_replicated_ == nullptr) {
    return Status::Internal("remote accepted MarkUp but the twin has no "
                            "replica plane");
  }
  BumpMutationEpoch();
  return twin_replicated_->MarkUp(device);
}

Result<RangePartial> RemoteBackend::AnalyzeRange(
    std::uint64_t unspecified_mask, std::uint64_t start,
    std::uint64_t end) const {
  if (wire_version_ != kWireVersionMux || !analyze_range_enabled()) {
    return Status::Unimplemented(
        "remote peer has no AnalyzeRange feature; run AnalyzeBucketRange "
        "on device_map() instead");
  }
  PayloadWriter writer;
  writer.U64(unspecified_mask);
  writer.U64(start);
  writer.U64(end);
  auto body = Call(WireOp::kAnalyzeRange, writer.Take(), /*idempotent=*/true);
  FXDIST_RETURN_NOT_OK(body.status());
  PayloadReader reader(*body);
  auto devices = reader.U32();
  FXDIST_RETURN_NOT_OK(devices.status());
  if (*devices > reader.remaining() / 8) {
    return Status::DataLoss("wire payload truncated reading range counts");
  }
  RangePartial partial;
  partial.per_device.reserve(*devices);
  for (std::uint32_t i = 0; i < *devices; ++i) {
    auto count = reader.U64();
    FXDIST_RETURN_NOT_OK(count.status());
    partial.per_device.push_back(*count);
  }
  auto qualified = reader.U64();
  FXDIST_RETURN_NOT_OK(qualified.status());
  partial.qualified = *qualified;
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  return partial;
}

Status RemoteBackend::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!poisoned_.empty()) return Status::FailedPrecondition(poisoned_);
  if (!terminal_.empty()) return Status::Unavailable(terminal_);
  return Status::OK();
}

}  // namespace fxdist
