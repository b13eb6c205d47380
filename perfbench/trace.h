// Spans for the traced run, and the forwarding wrappers that record them
// at the program's layer boundaries.
//
// The wrappers sit where the benchmark hands the program a backend or a
// transport: around the StorageBackend given to the engine (and so to
// the front door above it), around the storage a shard server serves,
// and around the Transport a RemoteBackend is connected with.  With
// tracing off they only forward, so the untraced run pays one virtual
// call per boundary crossing and records nothing.
//
// A span is (name, start, end, parent, request id, count).  The client
// is one closed-loop thread: a span it opens with nothing else open is a
// root (one read or write operation) and names the request every span
// recorded until it closes belongs to, on any thread.  Spans on other
// threads nest under that thread's innermost open span, or under the
// client's innermost open span when the thread has none — an engine
// worker's scan lands under the engine batch the client is inside.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "sim/storage_backend.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  std::uint64_t request = 0;
  /// What the boundary moved: records scanned or inserted, bytes on the
  /// wire.  0 where the span moves nothing countable.
  std::uint64_t count = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Makes the calling thread the client (see the file comment).
  void SetClientThread() { client_ = std::this_thread::get_id(); }
  bool OnClientThread() const {
    return std::this_thread::get_id() == client_;
  }

  /// A span from construction to destruction; does nothing while
  /// tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_count(std::uint64_t count) { span_.count = count; }

   private:
    Tracer* tracer_ = nullptr;  ///< null while tracing is off
    Span span_;
    bool client_ = false;
    std::uint64_t saved_ = 0;  ///< the slot's value before this span
  };

  /// Every span closed so far, in closing order.  Call once the run's
  /// threads are quiet.
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; times in microseconds from the tracer's
  /// creation.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::uint64_t NowNs() const;
  void Record(const Span& span);

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::thread::id client_;
  std::atomic<std::uint64_t> next_id_{1};
  /// Innermost span the client thread has open (0: none).
  std::atomic<std::uint64_t> client_open_{0};
  /// Root the client thread has open (0: none).
  std::atomic<std::uint64_t> request_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Where a TracedBackend sits, which fixes its span names.
enum class Boundary {
  kLocalStorage,  ///< storage the engine reads in-process ("sim.*")
  kRemoteClient,  ///< a RemoteBackend handed to the engine ("net.call.*")
  kServedStorage  ///< the storage a shard server serves ("net.server.*")
};

/// Forwards every StorageBackend call to `inner`, recording spans at the
/// calls that do a layer's work.  It also carries the front-door gate:
/// while armed, the first MutationEpoch call made off the client thread
/// (the Frontend dispatcher opening a round) parks until the client
/// releases it, so a whole wave is queued before the dispatcher forms
/// its rounds and every run forms the same rounds.
class TracedBackend final : public fxdist::StorageBackend {
 public:
  TracedBackend(fxdist::StorageBackend& inner, Tracer& tracer,
                Boundary boundary);

  void ArmGate();
  /// Waits until a dispatcher thread is parked at the gate; false on
  /// timeout (the gate is then disarmed and nothing is parked).
  bool WaitGateHeld(std::chrono::milliseconds timeout);
  void ReleaseGate();

  std::uint64_t MutationEpoch() const override;
  std::string backend_name() const override { return inner_.backend_name(); }
  const fxdist::FieldSpec& spec() const override { return inner_.spec(); }
  const fxdist::DistributionMethod& method() const override {
    return inner_.method();
  }
  const fxdist::DeviceMap& device_map() const override {
    return inner_.device_map();
  }
  std::uint64_t num_records() const override;
  fxdist::Status Insert(fxdist::Record record) override;
  fxdist::Status InsertBatch(std::vector<fxdist::Record> records) override;
  fxdist::Result<std::uint64_t> Delete(
      const fxdist::ValueQuery& query) override {
    return inner_.Delete(query);
  }
  fxdist::Result<fxdist::PartialMatchQuery> HashQuery(
      const fxdist::ValueQuery& query) const override;
  fxdist::Result<fxdist::BucketId> HashRecord(
      const fxdist::Record& record) const override {
    return inner_.HashRecord(record);
  }
  std::uint64_t ServingDevice(std::uint64_t device,
                              std::uint64_t linear_bucket) const override {
    return inner_.ServingDevice(device, linear_bucket);
  }
  bool HasDegradedRouting() const override {
    return inner_.HasDegradedRouting();
  }
  fxdist::Status Health() const override { return inner_.Health(); }
  bool IsBucketLive(std::uint64_t device,
                    std::uint64_t linear_bucket) const override;
  void ScanBucket(
      std::uint64_t device, std::uint64_t linear_bucket,
      const std::function<bool(const fxdist::Record&)>& fn) const override;
  void ScanMany(const std::vector<fxdist::BucketRef>& refs,
                const std::function<bool(std::size_t, const fxdist::Record&)>&
                    fn) const override;
  bool ScanPrefersFanout() const override {
    return inner_.ScanPrefersFanout();
  }
  bool ScanRecordsAreStable() const override {
    return inner_.ScanRecordsAreStable();
  }
  bool IsReadOnly() const override { return inner_.IsReadOnly(); }
  std::uint64_t TopologyVersion() const override {
    return inner_.TopologyVersion();
  }
  std::uint64_t BucketsInMigration() const override {
    return inner_.BucketsInMigration();
  }
  const fxdist::StorageBackend& ServingPlane() const override {
    return inner_.ServingPlane();
  }
  std::vector<fxdist::ValueType> FieldTypes() const override {
    return inner_.FieldTypes();
  }
  std::uint64_t ApproxMemoryBytes() const override {
    return inner_.ApproxMemoryBytes();
  }
  fxdist::Result<fxdist::QueryResult> Execute(
      const fxdist::ValueQuery& query) const override;
  std::vector<std::uint64_t> RecordCountsPerDevice() const override {
    return inner_.RecordCountsPerDevice();
  }
  void SaveParams(std::ostream& out) const override {
    inner_.SaveParams(out);
  }
  void ForEachLiveRecord(
      const std::function<void(const fxdist::Record&)>& fn) const override {
    inner_.ForEachLiveRecord(fn);
  }

 private:
  struct Names {
    const char* scan;
    const char* execute;
    const char* insert;
    const char* probe;
    const char* hash;
    const char* count;  ///< nullptr: num_records is not a layer's work
  };
  static Names NamesFor(Boundary boundary);

  fxdist::StorageBackend& inner_;
  Tracer& tracer_;
  const Names names_;

  mutable std::mutex gate_mutex_;
  mutable std::condition_variable gate_cv_;
  mutable std::atomic<bool> gate_armed_{false};
  mutable bool gate_held_ = false;
  mutable bool gate_released_ = false;
};

/// Forwards RoundTrip, recording one "net.roundtrip" span per request
/// frame whose count is the request plus reply bytes.
class TracedTransport final : public fxdist::Transport {
 public:
  TracedTransport(std::unique_ptr<fxdist::Transport> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  fxdist::Result<std::string> RoundTrip(const std::string& request) override;

 private:
  std::unique_ptr<fxdist::Transport> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
