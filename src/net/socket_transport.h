// The TCP FrameChannel MuxTransport pipelines over, plus the fd-level
// socket helpers the shard server, the load generator and tests share.
//
// SocketFrameChannel is one connection: Send ships one frame, Recv
// blocks for the next inbound frame regardless of which request it
// answers.  Timeouts are plain socket deadlines (SO_RCVTIMEO /
// SO_SNDTIMEO).  Recv treats a receive timeout *between* frames as idle
// (keeps waiting — per-call deadlines belong to MuxTransport) and only a
// timeout mid-frame as an error.  The error taxonomy follows
// net/transport.h: connect failures and nothing-sent write failures map
// to Unavailable (the frame never left this host), and a write that
// dies part way to DataLoss or DeadlineExceeded.  Reset reconnects a
// dead channel; MuxTransport calls it once no requests are pending, so
// a restarted shard server is picked up within the retry budget.
//
// Inbound frames are capped at kWireMaxPayload, enforced from the frame
// header before the payload is buffered.

#ifndef FXDIST_NET_SOCKET_TRANSPORT_H_
#define FXDIST_NET_SOCKET_TRANSPORT_H_

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
/// send/receive deadlines applied — the dial step shared by
/// SocketFrameChannel and by net/loadgen.h clients.
Result<int> DialShardStream(const std::string& host, std::uint16_t port,
                            int io_timeout_ms);

struct SocketTransportOptions {
  /// Per-operation socket deadline (send and receive), milliseconds.
  int io_timeout_ms = 5000;
};

/// TCP FrameChannel for MuxTransport (see file comment).
class SocketFrameChannel final : public FrameChannel {
 public:
  using Options = SocketTransportOptions;

  static Result<std::unique_ptr<SocketFrameChannel>> Connect(
      const std::string& host, std::uint16_t port, Options options = {});

  /// Parses "host:port" (InvalidArgument, without dialing, when it is
  /// malformed or the port is 0 or above 65535), then Connect().
  static Result<std::unique_ptr<SocketFrameChannel>> ConnectSpec(
      const std::string& host_port, Options options = {});

  ~SocketFrameChannel() override;

  SocketFrameChannel(const SocketFrameChannel&) = delete;
  SocketFrameChannel& operator=(const SocketFrameChannel&) = delete;

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

  /// Guards fd_ open/close; I/O itself runs on a snapshot of the fd so
  /// Send and Recv overlap freely on the live connection.
  std::mutex state_mutex_;
  int fd_ = -1;
  bool shutdown_ = false;
};

}  // namespace fxdist

#endif  // FXDIST_NET_SOCKET_TRANSPORT_H_
