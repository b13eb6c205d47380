#include "net/remote_backend.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "net/mux_transport.h"
#include "net/socket_transport.h"
#include "sim/persistence.h"
#include "util/random.h"

namespace fxdist {

namespace {

/// Scan callers filter every delivered record field by field over the
/// schema, so a scan reply record of any other arity is a corrupt reply.
Status CheckScanRecord(const Record& record, std::size_t arity) {
  if (record.size() != arity) {
    return Status::DataLoss("scan reply record has " +
                            std::to_string(record.size()) +
                            " fields, schema " + std::to_string(arity));
  }
  return Status::OK();
}

/// The covering queries `ref` goes out with: none (count 0, every record)
/// for an unfiltered ref or in a frame sent `unfiltered`.
std::span<const std::uint32_t> SentCovering(const BucketRef& ref,
                                            bool unfiltered) {
  if (unfiltered || ref.filter == nullptr) return {};
  return ref.filter->covering;
}

}  // namespace

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::Connect(
    std::unique_ptr<Transport> transport, Options options) {
  std::unique_ptr<RemoteBackend> backend(
      new RemoteBackend(std::move(transport), std::move(options)));
  PayloadWriter hello;
  hello.U64(kWireMaxPayload);
  hello.U32(kWireFeatureScanMany | kWireFeatureInsertBatch |
            kWireFeatureAnalyzeRange | kWireFeatureScanMatch);
  // Optional trailing tenant id, sent only when set.
  if (!backend->options_.client_id.empty()) {
    hello.Str(backend->options_.client_id);
  }
  auto body = backend->Call(WireOp::kHandshake, hello.Take(),
                            /*idempotent=*/true);
  FXDIST_RETURN_NOT_OK(body.status());
  FXDIST_RETURN_NOT_OK(backend->FinishHandshake(*body));
  return backend;
}

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::ConnectTcp(
    const std::string& host_port, Options options) {
  SocketTransportOptions socket_options;
  socket_options.io_timeout_ms = options.deadline_ms;
  if (options.pipeline_window > 1) {
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

Status RemoteBackend::FinishHandshake(const std::string& body) {
  PayloadReader reader(body);
  auto blueprint = reader.Str();
  FXDIST_RETURN_NOT_OK(blueprint.status());
  auto server_max = reader.U64();
  FXDIST_RETURN_NOT_OK(server_max.status());
  auto features = reader.U32();
  FXDIST_RETURN_NOT_OK(features.status());
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  // Scans go out as kScanMatch frames, writes as kInsertBatch frames and
  // sweeps as kAnalyzeRange frames, so a server that does not grant
  // every bit cannot serve this client.
  constexpr std::uint32_t kRequired =
      kWireFeatureScanMany | kWireFeatureInsertBatch |
      kWireFeatureAnalyzeRange | kWireFeatureScanMatch;
  if ((*features & kRequired) != kRequired) {
    return Status::FailedPrecondition(
        "remote shard does not grant the ScanMany, InsertBatch, "
        "AnalyzeRange and ScanMatch features every client needs");
  }
  // Negotiated limit: what both sides accept.  A nonsensical server
  // advertisement is clamped into [64 KiB, ceiling] rather than
  // crippling the connection.
  const std::uint64_t floor = 64u << 10;
  const std::uint64_t server_limit =
      std::min<std::uint64_t>(std::max<std::uint64_t>(*server_max, floor),
                              kWireMaxPayloadCeiling);
  negotiated_max_payload_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kWireMaxPayload, server_limit));
  features_ = *features & kRequired;
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
                                        bool idempotent) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!poisoned_.empty()) return Status::FailedPrecondition(poisoned_);
    if (!terminal_.empty()) return Status::Unavailable(terminal_);
  }

  WireFrame request;
  request.op = op;
  request.is_reply = false;
  request.payload = std::move(payload);

  const int max_attempts = std::max(1, options_.max_attempts);

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
    request.correlation_id = seq_.fetch_add(1, std::memory_order_relaxed);
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
                 reply->correlation_id != request.correlation_id) {
        // kError replies are exempt: a request the server could not
        // decode gets a best-effort echo of its correlation id.
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
          if (reply->op != WireOp::kError || op != WireOp::kScanMatch) {
            // The server executed the operation and said no.  That is an
            // application error, not a transport failure: surface it
            // as-is, never retry, never go terminal.
            return remote_status;
          }
          // A kError reply to a scan: the server never ran it (it could
          // not read the frame, or it shed or evicted the connection),
          // so nothing about the refs would repeat.  A scan has no
          // status to hand back, only the sticky ones, so it retries
          // like an undelivered request and goes terminal only once the
          // budget is spent.
          failure = Status::Unavailable("scan frame not served: " +
                                        remote_status.ToString());
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
  std::vector<Record> one;
  one.push_back(std::move(record));
  return InsertBatchImpl(std::move(one), nullptr);
}

Status RemoteBackend::ObserveServerEpoch(PayloadReader& reader) const {
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
  return InsertBatchImpl(std::move(records), &token);
}

Status RemoteBackend::InsertBatchImpl(std::vector<Record> records,
                                      const std::uint64_t* token) {
  constexpr std::size_t chunk = kRecordsPerInsertFrame;
  for (std::size_t start = 0; start < records.size(); start += chunk) {
    const std::size_t n = std::min(chunk, records.size() - start);
    // Deterministic per-chunk token: same batch + same base token always
    // re-sends identical tagged chunks, so a coordinator re-running a
    // task cannot double-apply on the same server.
    const std::uint64_t chunk_token =
        token == nullptr
            ? 0
            : *token ^ (0x9e3779b97f4a7c15ull * (start / chunk + 1));
    const Status sent = InsertFrame(records, start, n,
                                    token == nullptr ? nullptr : &chunk_token);
    if (sent.ok()) continue;
    if (token != nullptr || n == 1 ||
        sent.code() != StatusCode::kInvalidArgument) {
      return sent;
    }
    // The untagged chunk's request outgrew the negotiated frame limit
    // (or a record is genuinely bad — a one-record frame reproduces that
    // error faithfully): re-send it one record per frame.  A tagged
    // chunk never splits: its token names exactly this chunk, which is
    // what makes a re-send exactly-once.
    for (std::size_t j = 0; j < n; ++j) {
      FXDIST_RETURN_NOT_OK(InsertFrame(records, start + j, 1, nullptr));
    }
  }
  return Status::OK();
}

Status RemoteBackend::InsertFrame(const std::vector<Record>& records,
                                  std::size_t start, std::size_t n,
                                  const std::uint64_t* token) {
  PayloadWriter writer;
  writer.U32(static_cast<std::uint32_t>(n));
  for (std::size_t j = 0; j < n; ++j) writer.WriteRecord(records[start + j]);
  if (token != nullptr) writer.U64(*token);
  // A tagged chunk is effectively idempotent — the server's dedup
  // registry turns a re-send into an ack — so indeterminate failures may
  // be retried; an untagged chunk must not be.
  auto body = Call(WireOp::kInsertBatch, writer.Take(),
                   /*idempotent=*/token != nullptr);
  FXDIST_RETURN_NOT_OK(body.status());
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
  if (token != nullptr) {
    // Trailing dup flag (present iff the request carried a token):
    // diagnostic only — a set flag means an earlier send of this chunk
    // already landed and the server acked without re-applying.
    FXDIST_RETURN_NOT_OK(reader.U8().status());
  }
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  BumpMutationEpoch();
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
  // The authoritative epoch: the probe a cache-holding client refreshes
  // multi-writer staleness with.
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

void RemoteBackend::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  ScanMany({{device, linear_bucket}},
           [&fn](std::size_t, const Record& record) { return fn(record); });
}

void RemoteBackend::ScanMany(
    const std::vector<BucketRef>& refs,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  constexpr std::size_t chunk = kScanRefsPerFrame;
  for (std::size_t start = 0; start < refs.size(); start += chunk) {
    const std::size_t n = std::min(chunk, refs.size() - start);
    auto delivered = ScanFrame(refs, start, n, fn);
    if (delivered.ok()) {
      if (!*delivered) return;  // fn cancelled the whole scatter
      continue;
    }
    if (n > 1 && delivered.status().code() == StatusCode::kInvalidArgument) {
      // The chunk's reply (or request) outgrew the negotiated frame
      // limit: re-send it one ref per frame.
      for (std::size_t j = 0; j < n; ++j) {
        auto one = ScanFrame(refs, start + j, 1, fn);
        if (!one.ok()) {
          FailScan(one.status());
          return;
        }
        if (!*one) return;
      }
      continue;
    }
    FailScan(delivered.status());
    return;
  }
}

void RemoteBackend::FailScan(const Status& status) const {
  // The refs of a refused frame were never delivered.  ScanMany returns
  // void, so the client poisons itself and Health() reports the cause,
  // which fails the caller's post-gather check instead of letting it
  // return without those buckets' records.  A terminal or poisoned
  // client already reports its own cause.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!terminal_.empty() || !poisoned_.empty()) return;
  poisoned_ = "remote shard scan frame failed: " + status.ToString();
}

Result<bool> RemoteBackend::ScanFrame(
    const std::vector<BucketRef>& refs, std::size_t start, std::size_t n,
    const std::function<bool(std::size_t, const Record&)>& fn) const {
  bool unfiltered = false;
  auto request = ScanMatchRequest(refs, start, n, unfiltered);
  if (!request.ok() && n == 1) {
    // A lone ref whose covering queries alone outgrow the frame limit
    // goes out with covering count 0: its skip count stays 0, and the
    // caller filters what the server ships.
    unfiltered = true;
    request = ScanMatchRequest(refs, start, n, unfiltered);
  }
  FXDIST_RETURN_NOT_OK(request.status());
  auto body = Call(WireOp::kScanMatch, *std::move(request),
                   /*idempotent=*/true);
  FXDIST_RETURN_NOT_OK(body.status());

  PayloadReader reader(*body);
  auto count = reader.Varint();
  FXDIST_RETURN_NOT_OK(count.status());
  if (*count != n) return Status::DataLoss("ScanMatch reply count mismatch");
  std::vector<std::uint64_t> skipped(n), delivered(n);
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    auto skip = reader.Varint();
    FXDIST_RETURN_NOT_OK(skip.status());
    if (*skip != 0 && SentCovering(refs[start + j], unfiltered).empty()) {
      return Status::DataLoss(
          "ScanMatch reply skips records of a ref sent with no covering "
          "query");
    }
    auto sent = reader.Varint();
    FXDIST_RETURN_NOT_OK(sent.status());
    // Every record costs at least its 4-byte arity.
    if (*sent > reader.remaining() / 4) {
      return Status::DataLoss("wire payload truncated reading matches");
    }
    skipped[j] = *skip;
    delivered[j] = *sent;
    total += *sent;
  }
  if (total > reader.remaining() / 4) {
    return Status::DataLoss("wire payload truncated reading matches");
  }
  std::vector<Record> records;
  records.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    auto record = reader.ReadRecord();
    FXDIST_RETURN_NOT_OK(record.status());
    FXDIST_RETURN_NOT_OK(CheckScanRecord(*record, spec().num_fields()));
    records.push_back(*std::move(record));
  }
  FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
  // Only a decoded reply counts its skips, so a refused attempt re-sent
  // in one-ref frames never counts one twice.
  for (std::size_t j = 0; j < n; ++j) {
    if (skipped[j] != 0) refs[start + j].filter->skipped += skipped[j];
  }
  // Deliver straight from the decoded reply, in ref order; references
  // handed to `fn` die with this call.
  std::size_t next = 0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::uint64_t k = 0; k < delivered[j]; ++k) {
      if (!fn(start + j, records[next++])) return false;
    }
  }
  return true;
}

Result<std::string> RemoteBackend::ScanMatchRequest(
    const std::vector<BucketRef>& refs, std::size_t start, std::size_t n,
    bool unfiltered) const {
  // The frame's covering queries go out once, in first-use order, and
  // each ref names its own by index into that table.  The refs of one
  // gather share the caller's query table, so a slot per entry of that
  // table finds a query's frame index without hashing; a ref naming
  // another table starts the slots afresh, which at worst sends a query
  // twice.
  std::vector<const ValueQuery*> table;
  std::vector<std::uint32_t> indices;  // every ref's frame indices
  std::span<const ValueQuery* const> source;
  std::vector<std::uint32_t> slot;  // source entry -> frame index + 1
  for (std::size_t j = 0; j < n; ++j) {
    const BucketRef& ref = refs[start + j];
    const auto covering = SentCovering(ref, unfiltered);
    if (covering.empty()) continue;
    if (ref.filter->queries.data() != source.data() ||
        ref.filter->queries.size() != source.size()) {
      source = ref.filter->queries;
      slot.assign(source.size(), 0);
    }
    for (const std::uint32_t q : covering) {
      if (slot[q] == 0) {
        table.push_back(source[q]);
        slot[q] = static_cast<std::uint32_t>(table.size());
      }
      indices.push_back(slot[q] - 1);
    }
  }
  PayloadWriter writer;
  writer.Varint(table.size());
  for (const ValueQuery* query : table) writer.WriteQuery(*query);
  writer.Varint(n);
  std::uint64_t previous = 0;
  std::size_t next_index = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const BucketRef& ref = refs[start + j];
    writer.Varint(ref.device);
    writer.Zigzag(static_cast<std::int64_t>(ref.linear_bucket - previous));
    previous = ref.linear_bucket;
    const std::size_t covers = SentCovering(ref, unfiltered).size();
    writer.Varint(covers);
    for (std::size_t k = 0; k < covers; ++k) {
      writer.Varint(indices[next_index++]);
    }
  }
  FXDIST_RETURN_NOT_OK(writer.CheckOk());
  if (writer.payload().size() > negotiated_max_payload_) {
    return Status::InvalidArgument(
        "ScanMatch request of " + std::to_string(writer.payload().size()) +
        " bytes exceeds the frame payload limit");
  }
  return writer.Take();
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
