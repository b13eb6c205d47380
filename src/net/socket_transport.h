// Blocking TCP transport: one connection, one in-flight request — plus
// the TCP FrameChannel the multiplexer pipelines over.
//
// Timeouts are plain socket deadlines (SO_RCVTIMEO / SO_SNDTIMEO); the
// error taxonomy follows net/transport.h: connect failures and
// nothing-sent write failures map to Unavailable (the request never left
// this host), receive timeouts to DeadlineExceeded, and short reads /
// peer resets after the request went out to DataLoss.  Any failure
// closes the connection; the next RoundTrip reconnects, so a restarted
// shard server is picked up transparently within the retry budget.
//
// SocketFrameChannel is the same socket with the round-trip coupling
// removed: Send ships one frame, Recv blocks for the next inbound frame
// regardless of which request it answers.  Recv treats a receive timeout
// *between* frames as idle (keeps waiting — per-call deadlines belong to
// MuxTransport), and only a timeout mid-frame as an error.  Reset
// reconnects a dead channel; MuxTransport calls it once no requests are
// pending.
//
// Both classes cap inbound frames at a per-connection max payload
// (default kWireMaxPayload); RemoteBackend raises it to the
// handshake-negotiated limit via set_max_payload().  The cap is enforced
// from the frame header, before the payload is buffered.

#ifndef FXDIST_NET_SOCKET_TRANSPORT_H_
#define FXDIST_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/mux_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/status.h"

namespace fxdist {

// -- Shared socket plumbing ----------------------------------------------
// Small fd-level helpers used by the shard server, the fan-in load
// generator, and tests.  They live here so net/ has exactly one copy of
// the bind/listen/dial boilerplate.

/// Sets or clears O_NONBLOCK.
Status SetNonBlocking(int fd, bool enable = true);

/// Creates an INADDR_ANY TCP listening socket (SO_REUSEADDR, `backlog`
/// pending connections).  `*bound_port` receives the actual port, which
/// matters when `port` is 0 (ephemeral).
Result<int> CreateListenSocket(std::uint16_t port, int backlog,
                               std::uint16_t* bound_port);

/// Resolves and connects a blocking TCP stream with TCP_NODELAY and
/// send/receive deadlines applied — the dial step shared by the
/// transports and by net/loadgen.h clients.
Result<int> DialShardStream(const std::string& host, std::uint16_t port,
                            int io_timeout_ms);

struct SocketTransportOptions {
  /// Per-operation socket deadline (send and receive), milliseconds.
  int io_timeout_ms = 5000;
};

class SocketTransport final : public Transport {
 public:
  using Options = SocketTransportOptions;

  /// Resolves and connects eagerly so a bad address fails here, not on
  /// the first operation.
  static Result<std::unique_ptr<SocketTransport>> Connect(
      const std::string& host, std::uint16_t port, Options options = {});

  /// Parses "host:port" (the `remote:` child-spec body).
  static Result<std::unique_ptr<SocketTransport>> ConnectSpec(
      const std::string& host_port, Options options = {});

  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Raises/lowers the inbound frame cap (handshake negotiation).
  void set_max_payload(std::uint32_t max_payload) {
    max_payload_.store(max_payload, std::memory_order_relaxed);
  }

  Result<std::string> RoundTrip(const std::string& request) override;

 private:
  SocketTransport(std::string host, std::uint16_t port, Options options)
      : host_(std::move(host)), port_(port), options_(options) {}

  /// Connects fd_ if needed.  Caller holds mutex_.
  Status EnsureConnectedLocked();
  void CloseLocked();

  const std::string host_;
  const std::uint16_t port_;
  const Options options_;
  std::atomic<std::uint32_t> max_payload_{kWireMaxPayload};

  std::mutex mutex_;
  int fd_ = -1;
};

/// TCP FrameChannel for MuxTransport (see file comment).
class SocketFrameChannel final : public FrameChannel {
 public:
  using Options = SocketTransportOptions;

  static Result<std::unique_ptr<SocketFrameChannel>> Connect(
      const std::string& host, std::uint16_t port, Options options = {});

  /// Parses "host:port" (the `remote:` child-spec body).
  static Result<std::unique_ptr<SocketFrameChannel>> ConnectSpec(
      const std::string& host_port, Options options = {});

  ~SocketFrameChannel() override;

  SocketFrameChannel(const SocketFrameChannel&) = delete;
  SocketFrameChannel& operator=(const SocketFrameChannel&) = delete;

  void set_max_payload(std::uint32_t max_payload) {
    max_payload_.store(max_payload, std::memory_order_relaxed);
  }

  Status Send(const std::string& frame) override;
  Result<std::string> Recv() override;
  Status Reset() override;
  void Shutdown() override;

 private:
  SocketFrameChannel(std::string host, std::uint16_t port, Options options)
      : host_(std::move(host)), port_(port), options_(options) {}

  Status EnsureConnectedLocked();
  int CurrentFd();

  const std::string host_;
  const std::uint16_t port_;
  const Options options_;
  std::atomic<std::uint32_t> max_payload_{kWireMaxPayload};

  /// Guards fd_ open/close; I/O itself runs on a snapshot of the fd so
  /// Send and Recv overlap freely on the live connection.
  std::mutex state_mutex_;
  int fd_ = -1;
  bool shutdown_ = false;
};

}  // namespace fxdist

#endif  // FXDIST_NET_SOCKET_TRANSPORT_H_
