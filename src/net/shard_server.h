// Server side of the shard transport: one request frame in, one reply
// frame out.
//
// ShardService is the transport-independent core — it turns one request
// frame into one reply frame, with the locking the StorageBackend
// contract requires (the backend is externally synchronized, so the
// service holds a shared lock for reads and an exclusive lock for
// Insert/Delete/MarkDown/MarkUp).  EventShardServer
// (net/event_shard_server.h) puts it behind a TCP socket;
// LoopbackTransport and LoopbackFrameChannel call it directly for
// deterministic in-process tests.  Reply payloads always start with an
// encoded Status; an undecodable request gets a WireOp::kError reply.

#ifndef FXDIST_NET_SHARD_SERVER_H_
#define FXDIST_NET_SHARD_SERVER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "sim/composite_backend.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

/// Encodes one reply frame: Status first in the payload, then `body`
/// (empty on errors).
std::string EncodeShardReply(WireOp op, const Status& status,
                             const std::string& body,
                             std::uint64_t correlation_id = 0);

/// Error reply for a request that never decoded: best-effort echo of the
/// request's correlation id (a mux client needs the id to complete the
/// right waiter), 0 when the header is unreadable.  Also the shed frame
/// the event server sends a connection over the cap
/// (kResourceExhausted, empty request prefix).
std::string EncodeShardErrorReplyFor(std::string_view request,
                                     const Status& status);

class ShardService {
 public:
  /// The backend must outlive the service.  MarkDown/MarkUp are served
  /// only when the backend is a ReplicatedBackend (Unimplemented
  /// otherwise).
  explicit ShardService(StorageBackend& backend);

  /// One complete request frame in, one complete reply frame out.
  /// Thread-safe; never throws, never returns an unframed error.
  std::string HandleFrame(const std::string& request);

  /// Distinct tenant ids announced by handshakes so far, in first-seen
  /// order.  Anonymous clients (no trailing id) are not listed.
  std::vector<std::string> AnnouncedClients() const;

  /// Most recent distinct kInsertBatch dedup tokens remembered (FIFO
  /// eviction past this).  Sized so a coordinator's whole task graph
  /// fits with room to spare; a retry arriving after eviction is
  /// indistinguishable from a first send, which the client's bounded
  /// retry budget makes vanishingly unlikely.
  static constexpr std::size_t kMaxRememberedTokens = 65536;

 private:
  Result<std::string> Dispatch(WireOp op, PayloadReader& reader);

  StorageBackend& backend_;
  ReplicatedBackend* replicated_;  ///< backend_ downcast, or nullptr
  std::shared_mutex backend_mutex_;
  mutable std::mutex clients_mutex_;
  std::vector<std::string> announced_clients_;
  // Dedup registry for tagged kInsertBatch chunks: token -> applied
  // record count.  Guarded by the exclusive backend_mutex_ every
  // mutation already holds, so check-then-apply-then-remember is atomic
  // against concurrent writers.
  std::unordered_map<std::uint64_t, std::uint64_t> applied_tokens_;
  std::deque<std::uint64_t> token_order_;
};

}  // namespace fxdist

#endif  // FXDIST_NET_SHARD_SERVER_H_
