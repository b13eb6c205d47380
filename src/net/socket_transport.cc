#include "net/socket_transport.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "net/wire.h"

namespace fxdist {

namespace {

timeval TimeoutToTimeval(int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  return tv;
}

bool IsTimeoutErrno(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

Result<std::uint16_t> ParsePortSpec(const std::string& host_port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    return Status::InvalidArgument("bad remote address (want host:port): " +
                                   host_port);
  }
  char* end = nullptr;
  const unsigned long long port =
      std::strtoull(host_port.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    return Status::InvalidArgument("bad remote port in: " + host_port);
  }
  return static_cast<std::uint16_t>(port);
}

}  // namespace

Status SetNonBlocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::Internal(std::string("fcntl(F_GETFL): ") +
                            std::strerror(errno));
  }
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) != 0) {
    return Status::Internal(std::string("fcntl(F_SETFL): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Result<int> CreateListenSocket(std::uint16_t port, int backlog,
                               std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable("bind port " + std::to_string(port) + ": " +
                               std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(err));
  }
  if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
  return fd;
}

Result<int> DialShardStream(const std::string& host, std::uint16_t port,
                            int io_timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &found);
  if (rc != 0) {
    return Status::Unavailable("resolve " + host + ": " + ::gai_strerror(rc));
  }

  int fd = -1;
  int last_errno = 0;
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    const timeval tv = TimeoutToTimeval(io_timeout_ms);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    return Status::Unavailable("connect " + host + ":" + port_str + ": " +
                               std::strerror(last_errno));
  }
  return fd;
}

// -- SocketFrameChannel --------------------------------------------------

Result<std::unique_ptr<SocketFrameChannel>> SocketFrameChannel::Connect(
    const std::string& host, std::uint16_t port, Options options) {
  if (host.empty()) return Status::InvalidArgument("empty host");
  if (port == 0) return Status::InvalidArgument("port 0");
  std::unique_ptr<SocketFrameChannel> channel(
      new SocketFrameChannel(host, port, options));
  {
    std::lock_guard<std::mutex> lock(channel->state_mutex_);
    FXDIST_RETURN_NOT_OK(channel->EnsureConnectedLocked());
  }
  return channel;
}

Result<std::unique_ptr<SocketFrameChannel>> SocketFrameChannel::ConnectSpec(
    const std::string& host_port, Options options) {
  auto port = ParsePortSpec(host_port);
  FXDIST_RETURN_NOT_OK(port.status());
  return Connect(host_port.substr(0, host_port.rfind(':')), *port, options);
}

SocketFrameChannel::~SocketFrameChannel() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SocketFrameChannel::EnsureConnectedLocked() {
  if (shutdown_) return Status::Unavailable("frame channel shut down");
  if (fd_ >= 0) return Status::OK();
  auto fd = DialShardStream(host_, port_, options_.io_timeout_ms);
  FXDIST_RETURN_NOT_OK(fd.status());
  fd_ = *fd;
  return Status::OK();
}

int SocketFrameChannel::CurrentFd() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return fd_;
}

Status SocketFrameChannel::Send(const std::string& frame) {
  // Serialized under state_mutex_ so concurrent senders cannot
  // interleave bytes on the stream; Recv runs on an fd snapshot and
  // never blocks on this lock mid-frame.
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (shutdown_) return Status::Unavailable("frame channel shut down");
  if (fd_ < 0) return Status::Unavailable("frame channel not connected");
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      const int err = errno;
      const std::string detail =
          n == 0 ? "connection closed" : std::strerror(err);
      if (sent == 0 && !IsTimeoutErrno(err)) {
        return Status::Unavailable("send to " + host_ + ": " + detail);
      }
      if (IsTimeoutErrno(err)) {
        return Status::DeadlineExceeded("send to " + host_ + " timed out");
      }
      return Status::DataLoss("send to " + host_ + " died mid-request: " +
                              detail);
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Result<std::string> SocketFrameChannel::Recv() {
  const int fd = CurrentFd();
  if (fd < 0) return Status::Unavailable("frame channel not connected");

  std::string frame;
  // `idle_ok` marks the wait for a frame's first byte: a receive timeout
  // there means the connection is merely quiet, so keep waiting.  Once
  // any byte of a frame has arrived, a timeout is a real error.
  auto recv_exact = [&](std::size_t want, bool idle_ok) -> Status {
    const std::size_t base = frame.size();
    frame.resize(base + want);
    std::size_t got = 0;
    while (got < want) {
      const ssize_t n = ::recv(fd, frame.data() + base + got, want - got, 0);
      if (n == 0) {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (shutdown_) return Status::Unavailable("frame channel shut down");
        return base + got == 0
                   ? Status::Unavailable("connection to " + host_ +
                                         " closed by peer")
                   : Status::DataLoss("connection to " + host_ +
                                      " closed mid-frame");
      }
      if (n < 0) {
        const int err = errno;
        if (IsTimeoutErrno(err)) {
          if (idle_ok && base + got == 0) {
            std::lock_guard<std::mutex> lock(state_mutex_);
            if (shutdown_) {
              return Status::Unavailable("frame channel shut down");
            }
            continue;  // idle between frames
          }
          return Status::DeadlineExceeded("reply from " + host_ +
                                          " stalled mid-frame");
        }
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (shutdown_) return Status::Unavailable("frame channel shut down");
        return Status::DataLoss("recv from " + host_ + ": " +
                                std::strerror(err));
      }
      got += static_cast<std::size_t>(n);
    }
    return Status::OK();
  };

  FXDIST_RETURN_NOT_OK(recv_exact(kWireHeaderSize, /*idle_ok=*/true));
  auto total = FrameSizeFromHeader(frame);
  if (!total.ok()) {
    return Status::DataLoss("frame from " + host_ + " rejected: " +
                            total.status().message());
  }
  FXDIST_RETURN_NOT_OK(recv_exact(*total - frame.size(), /*idle_ok=*/false));
  return frame;
}

Status SocketFrameChannel::Reset() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (shutdown_) return Status::Unavailable("frame channel shut down");
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return EnsureConnectedLocked();
}

void SocketFrameChannel::Shutdown() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  shutdown_ = true;
  if (fd_ >= 0) {
    // Unblocks a Recv parked on the socket without racing the fd close.
    (void)::shutdown(fd_, SHUT_RDWR);
  }
}

}  // namespace fxdist
