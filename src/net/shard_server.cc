#include "net/shard_server.h"

#include <algorithm>
#include <span>
#include <utility>

#include "analysis/range_sweep.h"
#include "sim/persistence.h"

namespace fxdist {

namespace {

/// writer.Take() with the satellite-2 overflow check applied: a payload
/// whose length field could not be represented never leaves the server
/// as a well-formed-but-wrong frame.
Result<std::string> Finish(PayloadWriter& writer) {
  FXDIST_RETURN_NOT_OK(writer.CheckOk());
  return writer.Take();
}

/// OutOfRange unless every ref names a device and bucket of `backend`.
Status CheckScanRefs(const StorageBackend& backend,
                     const std::vector<BucketRef>& refs) {
  for (const BucketRef& ref : refs) {
    if (ref.device >= backend.num_devices()) {
      return Status::OutOfRange("device " + std::to_string(ref.device) +
                                " out of range");
    }
    if (ref.linear_bucket >= backend.spec().TotalBuckets()) {
      return Status::OutOfRange("bucket " + std::to_string(ref.linear_bucket) +
                                " out of range");
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeShardReply(WireOp op, const Status& status,
                             const std::string& body,
                             std::uint64_t correlation_id) {
  PayloadWriter writer;
  writer.WriteStatus(status);
  WireFrame reply;
  reply.op = op;
  reply.is_reply = true;
  reply.payload = writer.Take();
  reply.payload.append(body);
  reply.correlation_id = correlation_id;
  return EncodeFrame(reply);
}

std::string EncodeShardErrorReplyFor(std::string_view request,
                                     const Status& status) {
  return EncodeShardReply(WireOp::kError, status, "",
                          CorrelationIdFromHeader(request).ValueOr(0));
}

ShardService::ShardService(StorageBackend& backend)
    : backend_(backend),
      replicated_(dynamic_cast<ReplicatedBackend*>(&backend)) {}

std::vector<std::string> ShardService::AnnouncedClients() const {
  std::lock_guard<std::mutex> lock(clients_mutex_);
  return announced_clients_;
}

std::string ShardService::HandleFrame(const std::string& request) {
  auto frame = DecodeFrame(request);
  if (!frame.ok()) {
    return EncodeShardErrorReplyFor(request, frame.status());
  }
  if (frame->is_reply || frame->op == WireOp::kError) {
    return EncodeShardErrorReplyFor(
        request,
        Status::InvalidArgument("request expected, got a reply frame"));
  }
  PayloadReader reader(frame->payload);
  auto body = Dispatch(frame->op, reader);
  if (!body.ok()) {
    return EncodeShardReply(frame->op, body.status(), "",
                            frame->correlation_id);
  }
  // A reply the negotiated frame limit cannot carry is refused here —
  // better an explicit error than an undecodable frame at the peer.
  if (body->size() > kWireMaxPayload - 16) {
    return EncodeShardReply(
        frame->op,
        Status::InvalidArgument(
            std::string(WireOpName(frame->op)) + " reply of " +
            std::to_string(body->size()) +
            " bytes exceeds the frame payload limit"),
        "", frame->correlation_id);
  }
  return EncodeShardReply(frame->op, Status::OK(), *body,
                          frame->correlation_id);
}

Result<std::string> ShardService::Dispatch(WireOp op, PayloadReader& reader) {
  PayloadWriter writer;
  switch (op) {
    case WireOp::kHandshake: {
      // The client announces its frame limit and feature wants; the
      // reply carries the blueprint plus this server's limit and the
      // features it will actually serve.
      auto client_max = reader.U64();
      FXDIST_RETURN_NOT_OK(client_max.status());
      auto features = reader.U32();
      FXDIST_RETURN_NOT_OK(features.status());
      // Optional trailing tenant id (absent from anonymous clients).
      if (!reader.AtEnd()) {
        auto client_id = reader.Str();
        FXDIST_RETURN_NOT_OK(client_id.status());
        FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
        if (!client_id->empty()) {
          std::lock_guard<std::mutex> clients_lock(clients_mutex_);
          if (std::find(announced_clients_.begin(), announced_clients_.end(),
                        *client_id) == announced_clients_.end()) {
            announced_clients_.push_back(*std::move(client_id));
          }
        }
      }
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      // The blueprint describes the *serving plane*: a migrating wrapper
      // hands out its active plane's construction (the "migrating" kind
      // itself is a persistence-v4 body, not a wire blueprint).
      writer.Str(BackendBlueprintText(backend_.ServingPlane()));
      writer.U64(kWireMaxPayload);
      writer.U32(*features & (kWireFeatureScanMany | kWireFeatureInsertBatch |
                              kWireFeatureAnalyzeRange |
                              kWireFeatureScanMatch));
      return Finish(writer);
    }
    case WireOp::kDelete: {
      auto query = reader.ReadQuery();
      FXDIST_RETURN_NOT_OK(query.status());
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::unique_lock<std::shared_mutex> lock(backend_mutex_);
      auto removed = backend_.Delete(*query);
      FXDIST_RETURN_NOT_OK(removed.status());
      writer.U64(*removed);
      writer.U64(backend_.MutationEpoch());
      return Finish(writer);
    }
    case WireOp::kExecute: {
      auto query = reader.ReadQuery();
      FXDIST_RETURN_NOT_OK(query.status());
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      auto result = backend_.Execute(*query);
      FXDIST_RETURN_NOT_OK(result.status());
      writer.WriteResult(*result);
      return Finish(writer);
    }
    case WireOp::kScanMatch: {
      // The gather: the frame's covering queries once, then per ref its
      // coordinate and the indices of the queries it covers.  The served
      // storage runs its plain ScanMany and visits every record (its own
      // scan counts do not change); a record goes back when its ref
      // covers no query or one of its covering queries matches it, and
      // the rest are counted.
      auto num_queries = reader.Varint();
      FXDIST_RETURN_NOT_OK(num_queries.status());
      // Every query costs at least its 4-byte arity.
      if (*num_queries > reader.remaining() / 4) {
        return Status::DataLoss("wire payload truncated reading queries");
      }
      std::vector<ValueQuery> queries;
      queries.reserve(*num_queries);
      for (std::uint64_t q = 0; q < *num_queries; ++q) {
        auto query = reader.ReadQuery();
        FXDIST_RETURN_NOT_OK(query.status());
        queries.push_back(*std::move(query));
      }
      auto count = reader.Varint();
      FXDIST_RETURN_NOT_OK(count.status());
      // Every ref costs at least three bytes: device, delta and count.
      if (*count > reader.remaining() / 3) {
        return Status::DataLoss("wire payload truncated reading bucket refs");
      }
      std::vector<BucketRef> refs;
      refs.reserve(*count);
      // Each ref's covering indices, back to back; ref i owns
      // [ends[i - 1], ends[i]).
      std::vector<std::uint32_t> covering;
      std::vector<std::size_t> ends;
      ends.reserve(*count);
      std::uint64_t linear = 0;
      for (std::uint64_t i = 0; i < *count; ++i) {
        auto device = reader.Varint();
        FXDIST_RETURN_NOT_OK(device.status());
        auto delta = reader.Zigzag();
        FXDIST_RETURN_NOT_OK(delta.status());
        auto covers = reader.Varint();
        FXDIST_RETURN_NOT_OK(covers.status());
        // Every index costs at least one byte.
        if (*covers > reader.remaining()) {
          return Status::DataLoss(
              "wire payload truncated reading covering queries");
        }
        for (std::uint64_t k = 0; k < *covers; ++k) {
          auto index = reader.Varint();
          FXDIST_RETURN_NOT_OK(index.status());
          if (*index >= queries.size()) {
            return Status::OutOfRange(
                "covering query " + std::to_string(*index) + " of " +
                std::to_string(queries.size()) + " out of range");
          }
          covering.push_back(static_cast<std::uint32_t>(*index));
        }
        ends.push_back(covering.size());
        linear += static_cast<std::uint64_t>(*delta);
        refs.push_back({*device, linear});
      }
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      FXDIST_RETURN_NOT_OK(CheckScanRefs(backend_, refs));
      // HashQuery refuses a query whose arity is not the schema's, which
      // the filter relies on: it reads record[f] for every field f of
      // the query.
      for (const ValueQuery& query : queries) {
        FXDIST_RETURN_NOT_OK(backend_.HashQuery(query).status());
      }
      std::vector<const ValueQuery*> table;
      table.reserve(queries.size());
      for (const ValueQuery& query : queries) table.push_back(&query);
      std::vector<ScanFilter> filters;
      filters.reserve(refs.size());
      for (std::size_t i = 0; i < refs.size(); ++i) {
        const std::size_t begin = i == 0 ? 0 : ends[i - 1];
        filters.push_back(
            {table, std::span(covering).subspan(begin, ends[i] - begin)});
      }
      std::vector<std::vector<Record>> matched(refs.size());
      backend_.ScanMany(refs, [&](std::size_t i, const Record& record) {
        ScanFilter& filter = filters[i];
        if (filter.covering.empty() || filter.Matches(record)) {
          matched[i].push_back(record);
        } else {
          ++filter.skipped;
        }
        return true;
      });
      writer.Varint(refs.size());
      for (std::size_t i = 0; i < refs.size(); ++i) {
        writer.Varint(filters[i].skipped);
        writer.Varint(matched[i].size());
      }
      for (const auto& records : matched) {
        for (const Record& record : records) writer.WriteRecord(record);
      }
      return Finish(writer);
    }
    case WireOp::kInsertBatch: {
      // The write op: a record list in, the count, the bucket-space
      // shape (the client's frozen-plane check: a dynamic backend that
      // grew no longer matches its twin) and the authoritative mutation
      // epoch out.
      auto records = reader.ReadRecords();
      FXDIST_RETURN_NOT_OK(records.status());
      // Optional trailing dedup token (absent from untagged senders): a
      // retried chunk with the same token acks the remembered count
      // instead of applying twice — the exactly-once marker under
      // indeterminate failures.
      bool tagged = false;
      std::uint64_t token = 0;
      if (!reader.AtEnd()) {
        auto t = reader.U64();
        FXDIST_RETURN_NOT_OK(t.status());
        FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
        tagged = true;
        token = *t;
      }
      const std::uint64_t count = records->size();
      std::unique_lock<std::shared_mutex> lock(backend_mutex_);
      bool duplicate = false;
      std::uint64_t applied = count;
      if (tagged) {
        auto it = applied_tokens_.find(token);
        if (it != applied_tokens_.end()) {
          duplicate = true;
          applied = it->second;
        }
      }
      if (!duplicate) {
        FXDIST_RETURN_NOT_OK(backend_.InsertBatch(*std::move(records)));
        if (tagged) {
          applied_tokens_.emplace(token, count);
          token_order_.push_back(token);
          if (token_order_.size() > kMaxRememberedTokens) {
            applied_tokens_.erase(token_order_.front());
            token_order_.pop_front();
          }
        }
      }
      writer.U64(applied);
      const auto& sizes = backend_.spec().field_sizes();
      writer.U32(static_cast<std::uint32_t>(sizes.size()));
      for (const std::uint64_t size : sizes) writer.U64(size);
      writer.U64(backend_.MutationEpoch());
      if (tagged) writer.U8(duplicate ? 1 : 0);
      return Finish(writer);
    }
    case WireOp::kTopology: {
      // Topology probe: active version, buckets an in-progress migration
      // has not copied yet, and the serving plane's blueprint — what a
      // control tool needs to watch a live reshard from outside.
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      writer.U64(backend_.TopologyVersion());
      writer.U64(backend_.BucketsInMigration());
      writer.Str(BackendBlueprintText(backend_.ServingPlane()));
      // The authoritative epoch: the cheap probe a cache refreshes
      // multi-writer staleness with.
      writer.U64(backend_.MutationEpoch());
      return Finish(writer);
    }
    case WireOp::kNumRecords: {
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      writer.U64(backend_.num_records());
      return Finish(writer);
    }
    case WireOp::kRecordCounts: {
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      const auto counts = backend_.RecordCountsPerDevice();
      writer.U32(static_cast<std::uint32_t>(counts.size()));
      for (const std::uint64_t count : counts) writer.U64(count);
      return Finish(writer);
    }
    case WireOp::kMarkDown:
    case WireOp::kMarkUp: {
      auto device = reader.U64();
      FXDIST_RETURN_NOT_OK(device.status());
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      if (replicated_ == nullptr) {
        return Status::Unimplemented("backend '" + backend_.backend_name() +
                                     "' has no replica plane");
      }
      std::unique_lock<std::shared_mutex> lock(backend_mutex_);
      FXDIST_RETURN_NOT_OK(op == WireOp::kMarkDown
                               ? replicated_->MarkDown(*device)
                               : replicated_->MarkUp(*device));
      writer.U64(backend_.MutationEpoch());
      return Finish(writer);
    }
    case WireOp::kListRecords: {
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      std::vector<Record> records;
      backend_.ForEachLiveRecord(
          [&](const Record& record) { records.push_back(record); });
      writer.WriteRecords(records);
      return Finish(writer);
    }
    case WireOp::kAnalyzeRange: {
      // Distributed sweep partial: (mask, [start, end)) in, per-device
      // qualified counts over the range out.
      auto mask = reader.U64();
      FXDIST_RETURN_NOT_OK(mask.status());
      auto start = reader.U64();
      FXDIST_RETURN_NOT_OK(start.status());
      auto end = reader.U64();
      FXDIST_RETURN_NOT_OK(end.status());
      FXDIST_RETURN_NOT_OK(reader.ExpectEnd());
      std::shared_lock<std::shared_mutex> lock(backend_mutex_);
      auto partial =
          AnalyzeBucketRange(backend_.device_map(), *mask, *start, *end);
      FXDIST_RETURN_NOT_OK(partial.status());
      writer.U32(static_cast<std::uint32_t>(partial->per_device.size()));
      for (const std::uint64_t count : partial->per_device) {
        writer.U64(count);
      }
      writer.U64(partial->qualified);
      return Finish(writer);
    }
    case WireOp::kError:
      break;  // rejected by HandleFrame
  }
  return Status::InvalidArgument("unhandled wire opcode");
}

}  // namespace fxdist
