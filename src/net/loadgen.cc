#include "net/loadgen.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "net/socket_transport.h"

namespace fxdist {

namespace {

Status SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Unavailable(std::string("send: ") +
                                 (n < 0 ? std::strerror(errno) : "closed"));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Appends exactly `want` more bytes to `buf`.  A timeout before the
/// first byte of a read is DeadlineExceeded; EOF mid-frame is DataLoss.
Status RecvExact(int fd, std::string& buf, std::size_t want) {
  const std::size_t base = buf.size();
  buf.resize(base + want);
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(fd, buf.data() + base + got, want - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    buf.resize(base + got);
    if (n == 0) {
      return Status::DataLoss("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("receive timed out");
    }
    return Status::Unavailable(std::string("recv: ") + std::strerror(errno));
  }
  return Status::OK();
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t last = sorted.size() - 1;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(last) + 0.5);
  return sorted[std::min(idx, last)];
}

}  // namespace

Result<std::string> RecvFrameOnFd(int fd) {
  std::string frame;
  FXDIST_RETURN_NOT_OK(RecvExact(fd, frame, kWireHeaderSize));
  auto total = FrameSizeFromHeader(frame);
  FXDIST_RETURN_NOT_OK(total.status());
  FXDIST_RETURN_NOT_OK(RecvExact(fd, frame, *total - frame.size()));
  return frame;
}

Result<std::string> RoundTripOnFd(int fd, const std::string& request) {
  FXDIST_RETURN_NOT_OK(SendAll(fd, request));
  return RecvFrameOnFd(fd);
}

std::string EncodeExecuteFrame(const ValueQuery& query) {
  PayloadWriter writer;
  writer.WriteQuery(query);
  WireFrame frame;
  frame.op = WireOp::kExecute;
  frame.payload = writer.Take();
  return EncodeFrame(frame);
}

std::uint64_t TryRaiseNoFileLimit(std::uint64_t want) {
  struct rlimit lim;
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur != RLIM_INFINITY && lim.rlim_cur < want) {
    struct rlimit raised = lim;
    raised.rlim_cur =
        lim.rlim_max == RLIM_INFINITY
            ? want
            : std::min<rlim_t>(static_cast<rlim_t>(want), lim.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return lim.rlim_cur == RLIM_INFINITY
             ? ~std::uint64_t{0}
             : static_cast<std::uint64_t>(lim.rlim_cur);
}

Result<ProbeResult> ProbeConnection(const std::string& host,
                                    std::uint16_t port, int wait_ms) {
  auto fd = DialShardStream(host, port, wait_ms);
  FXDIST_RETURN_NOT_OK(fd.status());
  auto frame = RecvFrameOnFd(*fd);
  ::close(*fd);
  ProbeResult probe;
  if (!frame.ok()) {
    // Silence until the deadline — or an immediate close with nothing
    // said — means nobody shed us with a reason.
    if (frame.status().code() == StatusCode::kDeadlineExceeded ||
        frame.status().code() == StatusCode::kDataLoss) {
      return probe;
    }
    return frame.status();
  }
  auto decoded = DecodeFrame(*frame);
  FXDIST_RETURN_NOT_OK(decoded.status());
  probe.got_frame = true;
  probe.op = decoded->op;
  PayloadReader reader(decoded->payload);
  FXDIST_RETURN_NOT_OK(reader.ReadStatusInto(&probe.frame_status));
  return probe;
}

Result<FanInReport> RunQueryFanIn(const std::vector<ValueQuery>& queries,
                                  const FanInOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("fan-in needs at least one query");
  }
  if (options.clients == 0 || options.waves == 0) {
    return Status::InvalidArgument("fan-in needs clients >= 1, waves >= 1");
  }
  if (options.port == 0) {
    return Status::InvalidArgument("fan-in needs a port");
  }

  // Two fds per loopback connection (client + server end), plus slack
  // for the process's own files.
  TryRaiseNoFileLimit(options.clients * 2 + 256);

  // Pre-encode one frame per distinct query; connections share them.
  std::vector<std::string> encoded;
  encoded.reserve(queries.size());
  for (const ValueQuery& query : queries) {
    encoded.push_back(EncodeExecuteFrame(query));
  }

  const std::size_t num_threads =
      std::max<std::size_t>(1, std::min(options.threads, options.clients));

  struct ThreadTally {
    std::uint64_t replies = 0;
    std::uint64_t transport_errors = 0;
    std::uint64_t error_replies = 0;
    std::uint64_t matched_total = 0;
    std::uint64_t bytes_down = 0;
    std::vector<double> latencies_ms;
  };
  std::vector<ThreadTally> tallies(num_threads);
  // All connections dialed before any query flies and held open until
  // the last wave drains: `clients` really is the server's concurrent
  // connection count, not the driver thread count.  -1 marks a
  // connection that failed (at dial or mid-run) and sits out the rest.
  std::vector<int> fds(options.clients, -1);

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> dialers;
    dialers.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      dialers.emplace_back([&, t] {
        for (std::size_t c = t; c < options.clients; c += num_threads) {
          auto fd = DialShardStream(options.host, options.port,
                                    options.io_timeout_ms);
          if (fd.ok()) {
            fds[c] = *fd;
          } else {
            tallies[t].transport_errors += options.waves;
          }
        }
      });
    }
    for (std::thread& dialer : dialers) dialer.join();
  }

  std::vector<std::thread> drivers;
  drivers.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    drivers.emplace_back([&, t] {
      ThreadTally& tally = tallies[t];
      // Thread t drives connections t, t+T, t+2T, ... wave-major, so
      // every live connection advances through wave w before any moves
      // to wave w+1 on this thread.
      for (std::size_t w = 0; w < options.waves; ++w) {
        for (std::size_t c = t; c < options.clients; c += num_threads) {
          if (fds[c] < 0) continue;
          const std::size_t stream_index = w * options.clients + c;
          const std::string& request =
              encoded[stream_index % encoded.size()];
          const auto start = std::chrono::steady_clock::now();
          auto reply = RoundTripOnFd(fds[c], request);
          const auto end = std::chrono::steady_clock::now();
          bool conn_dead = false;
          if (!reply.ok()) {
            conn_dead = true;
          } else {
            tally.latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(end - start)
                    .count());
            tally.bytes_down += reply->size();
            auto frame = DecodeFrame(*reply);
            PayloadReader reader(frame.ok()
                                     ? std::string_view(frame->payload)
                                     : std::string_view());
            Status reply_status;
            if (!frame.ok() ||
                !reader.ReadStatusInto(&reply_status).ok()) {
              conn_dead = true;
            } else if (!reply_status.ok()) {
              ++tally.error_replies;
              ++tally.replies;
            } else if (auto result = reader.ReadResult(); !result.ok()) {
              conn_dead = true;
            } else {
              ++tally.replies;
              tally.matched_total += result->stats.records_matched;
            }
          }
          if (conn_dead) {
            tally.transport_errors += options.waves - w;
            ::close(fds[c]);
            fds[c] = -1;
          }
        }
      }
      for (std::size_t c = t; c < options.clients; c += num_threads) {
        if (fds[c] >= 0) {
          ::close(fds[c]);
          fds[c] = -1;
        }
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  const auto t1 = std::chrono::steady_clock::now();

  FanInReport report;
  report.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::vector<double> latencies;
  for (ThreadTally& tally : tallies) {
    report.replies += tally.replies;
    report.transport_errors += tally.transport_errors;
    report.error_replies += tally.error_replies;
    report.matched_total += tally.matched_total;
    report.bytes_down += tally.bytes_down;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.p50_ms = Quantile(latencies, 0.50);
  report.p99_ms = Quantile(latencies, 0.99);
  report.max_ms = latencies.empty() ? 0.0 : latencies.back();
  return report;
}

}  // namespace fxdist
