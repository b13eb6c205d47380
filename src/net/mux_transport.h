// Connection multiplexing for the shard transport.
//
// PR 4's Transport is strictly request/response: RoundTrip holds the
// connection for the whole exchange, so a batch of bucket scans pays one
// full round trip per bucket per shard — the ~17x serialization tax the
// shard_matrix bench measures.  MuxTransport keeps the blocking
// RoundTrip surface (RemoteBackend is unchanged above it) but runs many
// calls on one connection at once:
//
//   * every request frame carries a correlation id chosen by the
//     caller; MuxTransport sends it without waiting for earlier replies,
//   * a single receiver thread reads reply frames off the connection and
//     completes whichever waiter's correlation id they name — replies
//     may arrive in any order,
//   * at most `window` requests are in flight; callers past that block
//     until a slot frees (back-pressure, not an error, unless the wait
//     exhausts the call timeout).
//
// Ordering/association contract: correlation ids must come from an
// increasing per-connection sequence (RemoteBackend's attempt counter).
// A reply naming an id that is pending completes it; an id that was
// issued but abandoned (its waiter timed out) is dropped and counted in
// stale_replies(); an id that was never issued means the peer is
// desynced — every pending call fails with DataLoss and the connection
// is marked broken, as does a reply whose header is not a valid frame
// header (a peer speaking another wire version included).  When Recv
// fails (the connection dropped), every pending call fails with DataLoss
// carrying the channel's message, because a request already sent may
// have executed; a call whose own Send failed returns Send's verdict
// instead, and destroying the transport fails pending calls with
// Unavailable.  A broken connection heals lazily: the next RoundTrip
// with no calls pending asks the channel to Reset().
//
// The byte pipe itself is a FrameChannel — one-way Send plus blocking
// Recv — with a loopback implementation here and the TCP one in
// net/socket_transport.h.

#ifndef FXDIST_NET_MUX_TRANSPORT_H_
#define FXDIST_NET_MUX_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/transport.h"
#include "util/status.h"

namespace fxdist {

/// A full-duplex frame pipe: the transport-level substrate MuxTransport
/// multiplexes over.  Send may be called from many threads at once; Recv
/// has a single caller (the mux receiver thread).
class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  /// Ships one encoded frame.  Thread-safe.  Errors follow the transport
  /// taxonomy: Unavailable when the frame was never delivered, DataLoss /
  /// DeadlineExceeded when delivery is indeterminate.
  virtual Status Send(const std::string& frame) = 0;

  /// Blocks until the next reply frame arrives (or the channel dies).
  /// Single consumer.
  virtual Result<std::string> Recv() = 0;

  /// Drops broken connection state so the next Send may reconnect.
  virtual Status Reset() { return Status::OK(); }

  /// Permanently unblocks Recv (teardown).
  virtual void Shutdown() {}
};

/// In-process FrameChannel: Send runs the handler synchronously and
/// queues its reply for Recv.  Deterministic, no sockets — the pipelined
/// analogue of LoopbackTransport for differential tests and bench rows.
class LoopbackFrameChannel final : public FrameChannel {
 public:
  using Handler = std::function<std::string(const std::string&)>;

  explicit LoopbackFrameChannel(Handler handler)
      : handler_(std::move(handler)) {}

  Status Send(const std::string& frame) override;
  Result<std::string> Recv() override;
  void Shutdown() override;

 private:
  Handler handler_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> replies_;
  bool shutdown_ = false;
};

struct MuxTransportOptions {
  /// Max requests in flight on the connection; further callers block.
  std::size_t window = 32;
  /// Per-call budget: covers waiting for a window slot and waiting for
  /// the reply.  A call past it abandons its correlation id (a late
  /// reply is dropped as stale) and returns DeadlineExceeded.
  std::uint64_t call_timeout_ms = 5000;
};

/// A Transport that pipelines concurrent RoundTrips over one
/// FrameChannel.  See the file comment for the full contract.
class MuxTransport final : public Transport {
 public:
  using Options = MuxTransportOptions;

  explicit MuxTransport(std::unique_ptr<FrameChannel> channel,
                        Options options = {});
  ~MuxTransport() override;

  Result<std::string> RoundTrip(const std::string& request) override;

  /// High-water mark of concurrently pending requests.
  std::size_t max_in_flight() const;
  /// Replies that arrived after their waiter gave up (dropped).
  std::uint64_t stale_replies() const;

 private:
  struct PendingCall {
    bool done = false;
    Status status = Status::OK();
    std::string reply;
  };

  /// Fails every pending waiter with `error`.
  void FailAllLocked(const Status& error);
  /// Heals a broken connection if nothing is pending; returns false when
  /// the connection stays broken.
  bool TryReviveLocked();
  void ReceiveLoop();

  const std::unique_ptr<FrameChannel> channel_;
  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, PendingCall*> pending_;
  std::uint64_t max_cid_issued_ = 0;
  bool broken_ = false;
  bool shutdown_ = false;
  std::size_t max_in_flight_ = 0;
  std::uint64_t stale_replies_ = 0;
  std::thread receiver_;
};

}  // namespace fxdist

#endif  // FXDIST_NET_MUX_TRANSPORT_H_
