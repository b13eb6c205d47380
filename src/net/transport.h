// Transport: how an encoded request frame reaches a shard server and its
// reply frame comes back.
//
// The error taxonomy is the retry contract (see net/remote_backend.h):
//
//   Unavailable       the request was never delivered — retrying is safe
//                     for every operation, including mutations.
//   DeadlineExceeded  the request may have executed but no reply arrived
//                     in time — retry only idempotent operations.
//   DataLoss          the reply was truncated or corrupted in flight —
//                     the request may have executed; retry only
//                     idempotent operations.  (Checksum rejections are
//                     raised by the frame decoder, not the transport.)
//
// Implementations here: LoopbackTransport calls a handler in-process
// (deterministic tests, zero sockets) and FaultInjectingTransport wraps
// any transport to force each failure mode on demand.  Over TCP the one
// transport is MuxTransport (net/mux_transport.h) on a
// SocketFrameChannel (net/socket_transport.h).

#ifndef FXDIST_NET_TRANSPORT_H_
#define FXDIST_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.h"

namespace fxdist {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one encoded request frame and returns the raw reply bytes.
  /// Blocking; implementations are internally synchronized (callers may
  /// share one transport across threads).
  virtual Result<std::string> RoundTrip(const std::string& request) = 0;
};

/// Delivers requests to an in-process handler — typically
/// ShardService::HandleFrame — with no sockets and no copies beyond the
/// frames themselves.  Deterministic: used by the differential tests and
/// the loopback-remote bench rows.
class LoopbackTransport final : public Transport {
 public:
  using Handler = std::function<std::string(const std::string&)>;

  explicit LoopbackTransport(Handler handler) : handler_(std::move(handler)) {}

  Result<std::string> RoundTrip(const std::string& request) override {
    return handler_(request);
  }

 private:
  Handler handler_;
};

/// Which failure a FaultInjectingTransport forces.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  /// Request never delivered; RoundTrip returns Unavailable.
  kDrop,
  /// Request delivered (side effects happen) but the reply misses the
  /// deadline; RoundTrip returns DeadlineExceeded.
  kDelayPastDeadline,
  /// Request delivered; reply bytes flipped in flight.  RoundTrip
  /// succeeds — the client's frame checksum is what must catch it.
  kCorruptReply,
  /// Request delivered; connection dies mid-reply.  RoundTrip returns
  /// DataLoss.
  kDisconnectMidReply,
};

/// Decorator that forces transport failures.  InjectFault(kind, n) makes
/// the next `n` calls fail that way and then heals — the shape retry
/// logic must survive ("N failures then success").  Thread-safe.
class FaultInjectingTransport final : public Transport {
 public:
  explicit FaultInjectingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  /// The next `count` calls fail with `kind`; count < 0 means every call
  /// until the next InjectFault.
  void InjectFault(FaultKind kind, int count);

  std::uint64_t calls() const;      ///< RoundTrip invocations
  std::uint64_t faulted() const;    ///< calls that hit an injected fault
  std::uint64_t delivered() const;  ///< calls the inner transport saw

  Result<std::string> RoundTrip(const std::string& request) override;

 private:
  std::unique_ptr<Transport> inner_;
  mutable std::mutex mutex_;
  FaultKind kind_ = FaultKind::kNone;
  int fault_budget_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t faulted_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace fxdist

#endif  // FXDIST_NET_TRANSPORT_H_
