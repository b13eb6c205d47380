// RemoteBackend: a StorageBackend whose storage lives behind a Transport.
//
// The handshake ships the server backend's construction blueprint
// (sim/persistence.h BackendBlueprintText); the client builds an *empty*
// placement-identical local twin from it.  Because all hashing and
// placement is deterministic in the blueprint, everything about *where*
// records go — spec(), method(), device_map(), HashQuery, HashRecord,
// ServingDevice — is answered by the twin with zero round trips, while
// everything about *what is stored* (Insert/Delete/Execute/ScanBucket/
// counts) goes over the wire.  This is what lets a ShardedBackend treat
// a remote shard exactly like a local child.
//
// Wire: the handshake exchanges the frame limit and feature bits, and a
// server that reads less than kWireMaxPayload per frame or does not
// grant ScanMany, InsertBatch, AnalyzeRange and ScanMatch fails Connect
// with FailedPrecondition.  Every request carries a fresh correlation id
// (new id per retry attempt, so a late reply to an abandoned attempt can
// never complete a newer one) and the reply must echo it; a mismatch is
// DataLoss.  Payloads are bounded by kWireMaxPayload on both sides.
// Reads cross the wire as one
// kScanMatch frame per kScanRefsPerFrame bucket refs, writes as one
// kInsertBatch frame per kRecordsPerInsertFrame records (Insert is a
// one-record kInsertBatch).  A filtered ref (an engine gather, a
// composite's Execute) goes out with its covering queries: the server
// evaluates them while it scans and ships only the matches plus the
// ref's skip count, which the client adds to the ref's filter.  An
// unfiltered ref (ScanBucket, migration copies) goes out with covering
// count 0 and gets every record back.  An untagged chunk the frame
// limit cannot carry is re-sent one element per frame; a lone filtered
// ref whose covering queries alone outgrow the limit goes out with
// count 0, and the error from any other one-element frame is final.
// Every reply carries each field the server writes: a mutation reply
// without its epoch, or a tagged kInsertBatch reply without its dup
// flag, is DataLoss.
//
// Failure semantics (the transport taxonomy, net/transport.h):
//   * Unavailable replies are retried for every operation (the request
//     was never delivered), with decorrelated-jitter backoff (seeded RNG
//     so tests are deterministic; total sleep is clamped to the
//     remaining deadline budget, so retries can never overshoot the op
//     deadline).
//   * DeadlineExceeded / DataLoss are indeterminate — the request may
//     have executed, as when the connection drops after it went out —
//     so only idempotent operations (reads, tagged inserts) retry;
//     a mutation that hits one fails immediately rather than risking a
//     duplicate side effect.
//   * Once the retry budget is exhausted (or a mutation hit an
//     indeterminate failure), the backend enters a sticky *terminal*
//     state: every operation returns Unavailable, ScanBucket visits
//     nothing, and Health() reports the cause — the same shape as a
//     local dead child, so ShardedBackend/ReplicatedBackend degraded
//     routing and the executors' Health escalation react identically.
//   * A remote whose bucket space grew past the frozen plane (dynamic
//     directory growth, detected via the shape echoed by every Insert
//     reply) poisons the client with a sticky FailedPrecondition,
//     mirroring ShardedBackend's own frozen-plane contract.
//   * A scan frame the server refuses, or whose reply does not decode,
//     even after the one-ref split, poisons the client the same way,
//     carrying the failure: ScanMany returns void, so only Health() can
//     tell a caller that those buckets were never delivered.  A kError
//     reply to a scan (the server could not read the frame, or it shed
//     or evicted the connection) says nothing about the refs: it is
//     retried like Unavailable and goes terminal only once the budget is
//     spent.  Every other op gets a kError reply's status back once.

#ifndef FXDIST_NET_REMOTE_BACKEND_H_
#define FXDIST_NET_REMOTE_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/range_sweep.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

struct RemoteBackendOptions {
  /// ConnectTcp's socket deadline and per-call timeout (in-process
  /// transports have no deadline to miss).  Also the budget retry
  /// backoff sleeping is clamped to.
  int deadline_ms = 5000;
  /// Total tries per operation, including the first.
  int max_attempts = 4;
  /// Backoff between tries: decorrelated jitter drawn from
  /// [initial, 3 * previous), capped at max and at the remaining
  /// deadline budget.  0 disables sleeping (deterministic tests).
  int backoff_initial_ms = 1;
  int backoff_max_ms = 100;
  /// Seed of the jitter RNG — injected so tests replay exact schedules.
  std::uint64_t backoff_seed = 0x5eedafedf00dull;
  /// Test hook: replaces this_thread::sleep_for when set.  Receives the
  /// chosen sleep in milliseconds.
  std::function<void(std::uint64_t)> sleep_fn;
  /// Tenant identity announced in the handshake (optional trailing
  /// field).  Empty means anonymous; servers use it for per-client
  /// admission/QoS accounting, never for placement.
  std::string client_id;
};

class RemoteBackend final : public StorageBackend {
 public:
  using Options = RemoteBackendOptions;

  /// Bucket refs per kScanMatch frame; a chunk whose request or reply
  /// outgrows the frame limit is re-sent one ref per frame.
  static constexpr std::size_t kScanRefsPerFrame = 512;
  /// Records per kInsertBatch frame; an untagged chunk whose request
  /// outgrows the frame limit is re-sent one record per frame.
  static constexpr std::size_t kRecordsPerInsertFrame = 512;

  /// Performs the handshake over `transport` and builds the local twin.
  /// FailedPrecondition when the server reads less than kWireMaxPayload
  /// per frame or does not grant ScanMany, InsertBatch, AnalyzeRange and
  /// ScanMatch.
  static Result<std::unique_ptr<RemoteBackend>> Connect(
      std::unique_ptr<Transport> transport, Options options = {});

  /// Dials "host:port", then Connect() over a MuxTransport (its default
  /// window, `deadline_ms` per call) on a SocketFrameChannel, so
  /// requests overlap on the wire.  InvalidArgument, without dialing,
  /// for a malformed address.
  static Result<std::unique_ptr<RemoteBackend>> ConnectTcp(
      const std::string& host_port, Options options = {});

  // -- Placement plane: answered locally by the twin -------------------
  std::string backend_name() const override { return twin_->backend_name(); }
  const FieldSpec& spec() const override { return twin_->spec(); }
  const DistributionMethod& method() const override {
    return twin_->method();
  }
  const DeviceMap& device_map() const override { return twin_->device_map(); }
  Result<PartialMatchQuery> HashQuery(
      const ValueQuery& query) const override {
    return twin_->HashQuery(query);
  }
  Result<BucketId> HashRecord(const Record& record) const override {
    return twin_->HashRecord(record);
  }
  std::uint64_t ServingDevice(std::uint64_t device,
                              std::uint64_t linear_bucket) const override {
    return twin_->ServingDevice(device, linear_bucket);
  }
  bool HasDegradedRouting() const override {
    return twin_->HasDegradedRouting();
  }
  std::vector<ValueType> FieldTypes() const override {
    return twin_->FieldTypes();
  }
  void SaveParams(std::ostream& out) const override {
    twin_->SaveParams(out);
  }

  // -- Storage plane: one round trip each ------------------------------
  std::uint64_t num_records() const override;
  /// One one-record kInsertBatch frame.
  Status Insert(Record record) override;
  /// One kInsertBatch frame per chunk (a migration copy crosses the wire
  /// as a handful of frames instead of one per record).
  Status InsertBatch(std::vector<Record> records) override;
  /// InsertBatch with a caller-chosen dedup token: the server remembers
  /// the token with the applied count, so a chunk whose ack was lost can
  /// be *re-sent safely* — a duplicate token acks without re-applying.
  /// That makes tagged chunks effectively idempotent, so indeterminate
  /// failures retry here instead of failing the batch.  Chunks derive
  /// per-chunk tokens from `token` deterministically; the same (records,
  /// token) always re-sends identical tagged chunks.  No per-record
  /// fallback: a chunk the frame limit cannot carry is an error.
  Status InsertBatchTagged(std::vector<Record> records, std::uint64_t token);
  Result<std::uint64_t> Delete(const ValueQuery& query) override;
  /// True without a round trip.  Liveness is only a planning hint, and a
  /// synchronous probe per qualified bucket costs far more than carrying
  /// the empty bucket in the batched scan gather.
  bool IsBucketLive(std::uint64_t /*device*/,
                    std::uint64_t /*linear_bucket*/) const override {
    return true;
  }
  /// A one-ref ScanMany: one kScanMatch frame whose ref covers no query.
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const Record&)>& fn) const override;
  /// One kScanMatch frame per chunk of refs: the server filters each
  /// filtered ref and reports its skip count, and delivers every record
  /// of an unfiltered one.  A frame refused after the one-ref split
  /// poisons the client.
  void ScanMany(
      const std::vector<BucketRef>& refs,
      const std::function<bool(std::size_t, const Record&)>& fn)
      const override;
  /// Every gather is a round trip: a composite parent should overlap
  /// this shard's scans with its siblings'.
  bool ScanPrefersFanout() const override { return true; }
  /// Scans deliver straight from the decoded reply, which dies with the
  /// call: nothing is kept between scans.
  bool ScanRecordsAreStable() const override { return false; }
  Result<QueryResult> Execute(const ValueQuery& query) const override;
  std::vector<std::uint64_t> RecordCountsPerDevice() const override;
  void ForEachLiveRecord(
      const std::function<void(const Record&)>& fn) const override;

  /// Forwarded to the remote replica plane (Unimplemented when the
  /// remote backend is not replicated); on success the twin's device
  /// state is updated too, so degraded routing matches the server.
  Status MarkDown(std::uint64_t device);
  Status MarkUp(std::uint64_t device);

  /// Terminal (Unavailable) or poisoned (FailedPrecondition) state.
  Status Health() const override;

  /// Mutations observed, merging two monotone counters: the local count
  /// the base class keeps (mutations issued through this handle) and the
  /// server's authoritative count echoed on every mutating reply and on
  /// the kTopology probe.  The max of the two is what cache invalidation
  /// needs: it bumps when *any* writer's mutation has been observed, so
  /// a shared remote shard does not serve stale hits forever.
  std::uint64_t MutationEpoch() const override {
    return std::max(StorageBackend::MutationEpoch(),
                    server_epoch_.load(std::memory_order_acquire));
  }

  /// Server-side bucket-range sweep (kAnalyzeRange): per-device
  /// qualified counts of `unspecified_mask`'s representative query over
  /// linear buckets [start, end).
  Result<RangePartial> AnalyzeRange(std::uint64_t unspecified_mask,
                                    std::uint64_t start,
                                    std::uint64_t end) const;

  /// Negotiated features.  Every bit is granted once Connect succeeds,
  /// so both read true; the benchmark still checks them.
  bool scan_many_enabled() const {
    return (features_ & kWireFeatureScanMany) != 0;
  }
  bool insert_batch_enabled() const {
    return (features_ & kWireFeatureInsertBatch) != 0;
  }

  /// What the server's topology plane reports right now (kTopology).
  struct TopologySnapshot {
    std::uint64_t version = 1;
    std::uint64_t migrating_buckets = 0;
    std::string blueprint;  ///< serving plane's construction text
  };
  Result<TopologySnapshot> RemoteTopology() const;

 private:
  RemoteBackend(std::unique_ptr<Transport> transport, Options options)
      : transport_(std::move(transport)), options_(std::move(options)) {}

  /// One operation: encode, round-trip with retries, decode the reply
  /// status, return the body.  `idempotent` selects the retry policy.
  Result<std::string> Call(WireOp op, std::string payload,
                           bool idempotent) const;
  /// Parses a handshake reply body, checks the server's frame limit and
  /// features, records the features, and builds the twin.
  Status FinishHandshake(const std::string& body);
  /// One kScanMatch frame over refs[start, start + n): adds each ref's
  /// skip count to its filter once the whole reply has decoded, then
  /// delivers the records in ref order.  False when `fn` cancelled, the
  /// call's error when nothing was delivered.  A lone ref whose covering
  /// queries do not fit goes out with count 0; InvalidArgument for a
  /// larger chunk that does not fit.
  Result<bool> ScanFrame(
      const std::vector<BucketRef>& refs, std::size_t start, std::size_t n,
      const std::function<bool(std::size_t, const Record&)>& fn) const;
  /// The kScanMatch request payload for refs[start, start + n), every
  /// ref with covering count 0 when `unfiltered`; InvalidArgument when
  /// it outgrows the frame limit.
  Result<std::string> ScanMatchRequest(const std::vector<BucketRef>& refs,
                                       std::size_t start, std::size_t n,
                                       bool unfiltered) const;
  /// Poisons the client with `status` unless it is already terminal or
  /// poisoned: a scan frame failed after the one-ref split, so its refs
  /// were never delivered.
  void FailScan(const Status& status) const;
  /// Parses the bucket-space shape every mutation reply echoes and
  /// poisons the client when the remote outgrew the frozen plane.
  Status CheckShapeEcho(PayloadReader& reader);
  /// Consumes the authoritative-epoch field (DataLoss when the reply
  /// lacks it) and folds it into server_epoch_ (max-observed).
  Status ObserveServerEpoch(PayloadReader& reader) const;
  /// Shared body of Insert / InsertBatch / InsertBatchTagged (tagged ==
  /// token != nullptr).
  Status InsertBatchImpl(std::vector<Record> records,
                         const std::uint64_t* token);
  /// One kInsertBatch frame carrying records[start, start + n), tagged
  /// with `token` when it is not null.
  Status InsertFrame(const std::vector<Record>& records, std::size_t start,
                     std::size_t n, const std::uint64_t* token);

  std::unique_ptr<Transport> transport_;
  const Options options_;
  std::unique_ptr<StorageBackend> twin_;
  ReplicatedBackend* twin_replicated_ = nullptr;

  /// Set during Connect, immutable afterwards.
  std::uint32_t features_ = 0;

  /// Correlation ids and jitter streams (monotonic per connection — the
  /// mux's stale-reply tracking relies on it).
  mutable std::atomic<std::uint64_t> seq_{1};

  /// Highest authoritative epoch any reply has echoed (0 until the
  /// server answers a mutation or topology probe).
  mutable std::atomic<std::uint64_t> server_epoch_{0};

  /// Guards the sticky failure state.  NOT held over round trips: the
  /// transport is internally synchronized, so many calls may be on the
  /// wire at once (that is the point of the mux).
  mutable std::mutex mutex_;
  mutable std::string terminal_;  ///< non-empty: every op is Unavailable
  mutable std::string poisoned_;  ///< non-empty: every op FailedPrecondition
};

}  // namespace fxdist

#endif  // FXDIST_NET_REMOTE_BACKEND_H_
