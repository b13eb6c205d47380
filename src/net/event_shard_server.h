// Event-driven shard server: thousands of connections, a handful of
// threads.  It is the one TCP server of the shard wire protocol.
//
// EventShardServer serves a ShardService over an EventLoop: one loop
// thread owns every socket and all per-connection state; a small worker
// pool runs only the actual query work, so connection capacity is not
// thread count.  Every reply is ShardService::HandleFrame's output for
// the request bytes, so a request answered over the socket gets exactly
// the bytes the in-process service returns — the differential tests
// gate that, and bench/connection_scaling gates fan-in results against
// the serial ground truth.
//
// Per-connection data path:
//
//   readable -> read to EAGAIN -> FrameReassembler -> ready_frames
//     -> dispatch up to `max_in_flight` to the worker pool
//     -> workers Post completions back to the loop
//     -> replies emitted in request order (a Serializer: completions
//        park in a min-heap keyed by per-connection sequence until
//        their turn) -> write buffer -> socket, EPOLLOUT when it blocks
//
// Backpressure is explicit, never emergent:
//   * The in-flight window is exact: frames past it park in
//     ready_frames and EPOLLIN interest is dropped while any are
//     parked, so a client that pipelines a thousand requests holds at
//     most `max_in_flight` worker slots and one read chunk of parked
//     frames; the rest backs up into its own TCP window.
//   * A write buffer over `max_write_buffer` also pauses reading AND
//     dispatch: a peer that sends but never reads stops being read,
//     and requests already parked stay parked, so its memory cost is
//     bounded by the watermark plus one window of replies.
//   * A connection over `max_connections` is shed at accept with a
//     kResourceExhausted error frame and an immediate close — clients
//     get a decodable reason instead of an accept-queue timeout.
//
// Deadlines target exactly the slow-loris shape: the read deadline is
// armed when a frame *starts* (reassembler goes mid-frame) and cleared
// only when it completes — per-byte progress does not reset it, so a
// peer dribbling one byte per second is evicted on schedule while
// costing only its own connection state, never a worker thread.  Idle
// connections between frames owe nothing and live indefinitely.
//
// A malformed frame header (bad magic, any version other than 2,
// over-limit length) poisons the connection's reassembler: the server
// answers with an error frame and closes after the write drains.  A
// checksum failure under an honest header stays a per-frame error
// inside HandleFrame — the connection survives.

#ifndef FXDIST_NET_EVENT_SHARD_SERVER_H_
#define FXDIST_NET_EVENT_SHARD_SERVER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/frame_reassembler.h"
#include "net/shard_server.h"
#include "sim/storage_backend.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fxdist {

struct EventShardServerOptions {
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port
  unsigned workers = 4;    ///< query worker pool size
  /// Accepted connections beyond this are shed with kResourceExhausted.
  std::size_t max_connections = 4096;
  /// Per-connection cap on requests dispatched but not yet answered.
  std::size_t max_in_flight = 32;
  /// Pause reading a connection whose unsent replies exceed this.
  std::size_t max_write_buffer = 4u << 20;
  /// A frame started must complete within this budget or the
  /// connection is evicted.  0 disables eviction.
  std::uint64_t read_deadline_ms = 5000;
  int listen_backlog = 1024;
  std::uint64_t tick_ms = 10;  ///< timer-wheel resolution
};

/// Counters a test or bench can assert on.  Monotonic except
/// cur_connections; a snapshot, consistent as of one loop pass.
struct EventServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed_connections = 0;   ///< over-cap, got the shed frame
  std::uint64_t deadline_evictions = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t replies_out = 0;
  std::uint64_t protocol_errors = 0;  ///< poisoned reassemblers
  std::uint64_t reads_paused = 0;     ///< unpaused->paused transitions
  /// Worker completions for connections already gone (peer vanished
  /// mid-request); their replies are accounted here, never sent.
  std::uint64_t dropped_replies = 0;
  std::uint64_t max_concurrent = 0;        ///< peak live connections
  std::uint64_t max_write_buffer_bytes = 0;  ///< peak single write buffer
  std::uint64_t cur_connections = 0;
};

class EventShardServer {
 public:
  using Options = EventShardServerOptions;

  /// Binds, listens and starts the loop + worker threads.  The backend
  /// must outlive the server.
  static Result<std::unique_ptr<EventShardServer>> Start(
      StorageBackend& backend, Options options = {});

  ~EventShardServer();

  EventShardServer(const EventShardServer&) = delete;
  EventShardServer& operator=(const EventShardServer&) = delete;

  /// The bound port (useful with Options::port == 0).
  std::uint16_t port() const { return port_; }

  EventServerStats Stats() const;

  std::vector<std::string> AnnouncedClients() const {
    return service_.AnnouncedClients();
  }

  /// Idempotent: closes the listener and every connection, drains the
  /// worker pool, stops and joins the loop.  In-flight queries finish
  /// executing; their replies are dropped (the sockets are gone).
  void Stop();
  /// Blocks until Stop() is called from another thread.
  void Wait();

 private:
  struct PendingReply {
    std::uint64_t seq = 0;
    std::string frame;
  };
  struct LaterSeq {
    bool operator()(const PendingReply& a, const PendingReply& b) const {
      return a.seq > b.seq;  // min-heap: earliest sequence on top
    }
  };

  /// All Conn state is loop-thread confined.
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    FrameReassembler reassembler;
    /// Complete frames not yet dispatched (parked by the window).
    std::deque<std::string> ready_frames;
    std::uint64_t next_seq = 0;  ///< sequence of the next dispatch
    std::uint64_t emit_seq = 0;  ///< sequence the peer gets next
    std::size_t in_flight = 0;   ///< dispatched, reply not yet emitted
    /// Out-of-order completions waiting for their turn (Serializer).
    std::priority_queue<PendingReply, std::vector<PendingReply>, LaterSeq>
        done;
    std::string write_buf;
    std::size_t write_pos = 0;
    std::uint64_t deadline_timer = 0;  ///< 0: not armed
    std::uint32_t interest = 0;        ///< current epoll interest set
    bool paused = false;     ///< EPOLLIN dropped (window/write pressure)
    bool closing = false;    ///< error queued; close once write drains
    bool peer_eof = false;   ///< read side done; flush then close
  };

  EventShardServer(StorageBackend& backend, Options options)
      : service_(backend), options_(options) {}

  // Everything below runs on the loop thread.
  void HandleAccept();
  void HandleIo(std::uint64_t conn_id, std::uint32_t events);
  void ReadFromPeer(Conn& conn);
  void DispatchReady(Conn& conn);
  /// Emits every completion whose turn has come into the write buffer.
  void EmitReady(Conn& conn);
  void FlushWrites(Conn& conn);
  /// Recomputes EPOLLIN/EPOLLOUT interest from the conn's state.
  void UpdateInterest(Conn& conn);
  void ArmOrClearDeadline(Conn& conn);
  void OnDeadline(std::uint64_t conn_id);
  /// Queues an error reply and closes once it drains.
  void PoisonConn(Conn& conn, const Status& status);
  void CloseConn(Conn& conn);
  /// Close-when-everything-drained check for EOF'd / closing conns.
  void MaybeFinish(Conn& conn);
  void OnWorkerDone(std::uint64_t conn_id, std::uint64_t seq,
                    std::string reply);

  ShardService service_;
  const Options options_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  /// Loop-thread only.  Keyed by monotonic id, not fd: a worker
  /// completion must never resolve to a recycled descriptor.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;

  mutable std::mutex stats_mutex_;
  EventServerStats stats_;

  std::mutex stop_mutex_;
  std::condition_variable stopped_cv_;
  bool stopping_ = false;
};

}  // namespace fxdist

#endif  // FXDIST_NET_EVENT_SHARD_SERVER_H_
