// Fan-in load generation against a shard server — the client half of
// the C10K story.
//
// RunQueryFanIn opens `clients` concurrent TCP connections (driven by
// `threads` OS threads, blocking I/O — the *server* under test is the
// event-driven part) and plays `waves` query round trips on each.  The
// query stream is deterministic: connection c's wave w executes
// queries[(w * clients + c) % queries.size()], so two runs with the
// same clients*waves total execute the same query multiset and any two
// correct servers must report the same matched_total — the bit-identity
// gate bench/connection_scaling and the differential tests lean on.
//
// ProbeConnection answers "did the server shed me?": it connects and
// waits briefly for an unsolicited frame.  A server over its connection
// cap sends a kResourceExhausted error frame at accept; a server that
// accepted sends nothing until spoken to.
//
// TryRaiseNoFileLimit lifts RLIMIT_NOFILE toward `want` — a thousand
// in-process loopback connections cost two fds each, which overruns the
// usual 1024 soft limit long before the test gets interesting.

#ifndef FXDIST_NET_LOADGEN_H_
#define FXDIST_NET_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

struct FanInOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t clients = 100;  ///< concurrent connections
  std::size_t threads = 8;    ///< driver threads (capped at `clients`)
  std::size_t waves = 4;      ///< round trips per connection
  int io_timeout_ms = 10000;  ///< per-operation socket deadline
};

struct FanInReport {
  std::uint64_t replies = 0;        ///< complete round trips
  std::uint64_t transport_errors = 0;  ///< dial/send/recv/decode failures
  std::uint64_t error_replies = 0;  ///< decodable replies carrying a
                                    ///< non-OK status
  std::uint64_t matched_total = 0;  ///< sum of records_matched
  std::uint64_t bytes_down = 0;     ///< reply bytes received
  double elapsed_ms = 0.0;          ///< whole fan-in wall clock
  double p50_ms = 0.0;              ///< per-round-trip latency quantiles
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Runs the fan-in.  Fails only on empty inputs; per-connection
/// failures are reported in the counters (a load test wants the tally,
/// not the first error).  A connection that fails abandons its
/// remaining waves, counting each as a transport error.
Result<FanInReport> RunQueryFanIn(const std::vector<ValueQuery>& queries,
                                  const FanInOptions& options);

/// Sends `request` (a complete encoded frame) on `fd` and reads exactly
/// one reply frame, raw.  Blocking; respects the fd's socket deadlines.
Result<std::string> RoundTripOnFd(int fd, const std::string& request);

/// Reads exactly one frame from `fd` without sending anything first.
Result<std::string> RecvFrameOnFd(int fd);

/// What a fresh connection was greeted with.
struct ProbeResult {
  bool got_frame = false;  ///< false: accepted silently (no greeting)
  WireOp op = WireOp::kError;
  Status frame_status;  ///< leading Status of the greeting frame
};

/// Connects and waits up to `wait_ms` for an unsolicited frame (the
/// shed path sends one; the accept path stays silent).
Result<ProbeResult> ProbeConnection(const std::string& host,
                                    std::uint16_t port, int wait_ms);

/// Best-effort bump of RLIMIT_NOFILE to at least `want` (capped at the
/// hard limit).  Returns the resulting soft limit.
std::uint64_t TryRaiseNoFileLimit(std::uint64_t want);

/// Encodes a kExecute request frame (correlation id 0) for `query` — the
/// loadgen's unit of work, exposed for tests that drive connections by
/// hand.
std::string EncodeExecuteFrame(const ValueQuery& query);

}  // namespace fxdist

#endif  // FXDIST_NET_LOADGEN_H_
