#include "net/event_shard_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <utility>

#include "net/socket_transport.h"

namespace fxdist {

namespace {

/// Pending connections the listening socket queues before accept.
constexpr int kListenBacklog = 1024;

/// Unsent bytes queued on a connection.
std::size_t PendingWrite(const std::string& buf, std::size_t pos) {
  return buf.size() - pos;
}

}  // namespace

Result<std::unique_ptr<EventShardServer>> EventShardServer::Start(
    StorageBackend& backend, Options options) {
  std::unique_ptr<EventShardServer> server(
      new EventShardServer(backend, options));

  auto loop = EventLoop::Create(options.tick_ms);
  if (!loop.ok()) return loop.status();
  server->loop_ = *std::move(loop);

  std::uint16_t bound_port = 0;
  auto fd = CreateListenSocket(options.port, kListenBacklog, &bound_port);
  if (!fd.ok()) return fd.status();
  server->listen_fd_ = *fd;
  server->port_ = bound_port;
  FXDIST_RETURN_NOT_OK(SetNonBlocking(*fd));

  // Registered before the loop thread exists, which the EventLoop
  // threading contract explicitly allows.
  FXDIST_RETURN_NOT_OK(server->loop_->Add(
      *fd, EPOLLIN, /*edge_triggered=*/true,
      [raw = server.get()](std::uint32_t) { raw->HandleAccept(); }));

  server->pool_ =
      std::make_unique<ThreadPool>(std::max(1u, options.workers));
  server->loop_thread_ =
      std::thread([raw = server.get()] { raw->loop_->Run(); });
  return server;
}

EventShardServer::~EventShardServer() { Stop(); }

void EventShardServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (loop_thread_.joinable()) {
    // Tear down every socket on the loop thread, synchronously, so no
    // readiness callback can race the closes.  Worker completions still
    // in flight then resolve against an empty connection table and are
    // counted as dropped, never delivered to a recycled fd.
    std::promise<void> torn_down;
    loop_->Post([this, &torn_down] {
      if (listen_fd_ >= 0) {
        loop_->Remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& [id, conn] : conns_) {
        if (conn->deadline_timer != 0) {
          loop_->CancelTimer(conn->deadline_timer);
        }
        loop_->Remove(conn->fd);
        ::close(conn->fd);
      }
      conns_.clear();
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.cur_connections = 0;
      }
      torn_down.set_value();
    });
    torn_down.get_future().wait();
    pool_->Wait();
    loop_->Stop();
    loop_thread_.join();
  } else if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stopped_cv_.notify_all();
}

void EventShardServer::Wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stopped_cv_.wait(lock, [this] { return stopping_; });
}

EventServerStats EventShardServer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void EventShardServer::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // drained (EAGAIN) or listener gone
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (conns_.size() >= options_.max_connections) {
      // Shed with a decodable reason.  The frame is ~50 bytes into a
      // fresh socket buffer; a short write only truncates the courtesy.
      const std::string shed = EncodeShardErrorReplyFor(
          "", Status::ResourceExhausted(
                  "connection limit " +
                  std::to_string(options_.max_connections) + " reached"));
      (void)::send(fd, shed.data(), shed.size(), MSG_NOSIGNAL);
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.shed_connections;
      continue;
    }

    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->interest = EPOLLIN;
    const std::uint64_t id = conn->id;
    Status added = loop_->Add(
        fd, EPOLLIN, /*edge_triggered=*/true,
        [this, id](std::uint32_t events) { HandleIo(id, events); });
    if (!added.ok()) {
      ::close(fd);
      continue;
    }
    conns_[id] = std::move(conn);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted;
    stats_.cur_connections = conns_.size();
    stats_.max_concurrent = std::max<std::uint64_t>(stats_.max_concurrent,
                                                    conns_.size());
  }
}

void EventShardServer::HandleIo(std::uint64_t conn_id, std::uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;

  if (events & EPOLLOUT) {
    FlushWrites(conn);
    if (conns_.find(conn_id) == conns_.end()) return;
  }
  if (events & EPOLLIN) {
    ReadFromPeer(conn);
    if (conns_.find(conn_id) == conns_.end()) return;
  } else if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(conn);
    return;
  }

  DispatchReady(conn);
  FlushWrites(conn);
  if (conns_.find(conn_id) == conns_.end()) return;
  ArmOrClearDeadline(conn);
  UpdateInterest(conn);
  MaybeFinish(conn);
}

void EventShardServer::ReadFromPeer(Conn& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      std::vector<std::string> frames;
      Status fed = conn.reassembler.Feed(
          std::string_view(buf, static_cast<std::size_t>(n)), &frames);
      if (!frames.empty()) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.frames_in += frames.size();
        }
        for (auto& frame : frames) {
          conn.ready_frames.push_back(std::move(frame));
        }
      }
      DispatchReady(conn);
      if (!fed.ok()) {
        PoisonConn(conn, fed);
        return;
      }
      // Backpressure: frames the window can't take are parked; stop
      // pulling more off the socket and let TCP push back on the peer.
      if (!conn.ready_frames.empty() ||
          PendingWrite(conn.write_buf, conn.write_pos) >
              options_.max_write_buffer) {
        return;
      }
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      if (errno == EINTR) continue;
      return;  // drained
    }
    CloseConn(conn);
    return;
  }
}

void EventShardServer::DispatchReady(Conn& conn) {
  // The write watermark gates dispatch too: parked requests whose
  // replies nobody is reading stay parked, so per-connection memory is
  // bounded by watermark + one window of replies — not by how many
  // tiny requests fit in one read chunk.
  while (conn.in_flight < options_.max_in_flight &&
         !conn.ready_frames.empty() &&
         PendingWrite(conn.write_buf, conn.write_pos) <=
             options_.max_write_buffer) {
    std::string request = std::move(conn.ready_frames.front());
    conn.ready_frames.pop_front();
    const std::uint64_t seq = conn.next_seq++;
    ++conn.in_flight;
    const std::uint64_t id = conn.id;
    pool_->Submit([this, id, seq, request = std::move(request)] {
      std::string reply = service_.HandleFrame(request);
      loop_->Post([this, id, seq, reply = std::move(reply)]() mutable {
        OnWorkerDone(id, seq, std::move(reply));
      });
    });
  }
}

void EventShardServer::OnWorkerDone(std::uint64_t conn_id, std::uint64_t seq,
                                    std::string reply) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.dropped_replies;
    return;
  }
  Conn& conn = *it->second;
  conn.done.push(PendingReply{seq, std::move(reply)});
  EmitReady(conn);
  // Flush before dispatching so the watermark gate in DispatchReady
  // sees post-flush pressure; otherwise a connection whose window just
  // emptied could stall with parked frames and no future event.
  FlushWrites(conn);
  if (conns_.find(conn_id) == conns_.end()) return;
  DispatchReady(conn);
  UpdateInterest(conn);
  MaybeFinish(conn);
}

void EventShardServer::EmitReady(Conn& conn) {
  std::uint64_t emitted = 0;
  while (!conn.done.empty() && conn.done.top().seq == conn.emit_seq) {
    // top() is const-qualified but the element is ours to consume; the
    // cast lets the (possibly large) reply move instead of copy.
    auto& top = const_cast<PendingReply&>(conn.done.top());
    conn.write_buf.append(top.frame);
    conn.done.pop();
    ++conn.emit_seq;
    --conn.in_flight;
    ++emitted;
  }
  if (emitted > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.replies_out += emitted;
    stats_.max_write_buffer_bytes = std::max<std::uint64_t>(
        stats_.max_write_buffer_bytes,
        PendingWrite(conn.write_buf, conn.write_pos));
  }
}

void EventShardServer::FlushWrites(Conn& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_pos,
               conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  if (conn.write_pos == conn.write_buf.size()) {
    conn.write_buf.clear();
    conn.write_pos = 0;
  } else if (conn.write_pos > (1u << 20)) {
    // Keep a stuck peer's buffer from growing a dead prefix forever.
    conn.write_buf.erase(0, conn.write_pos);
    conn.write_pos = 0;
  }
}

void EventShardServer::UpdateInterest(Conn& conn) {
  const std::size_t pending = PendingWrite(conn.write_buf, conn.write_pos);
  const bool pressure_pause = !conn.ready_frames.empty() ||
                              pending > options_.max_write_buffer;
  const bool readable = !conn.closing && !conn.peer_eof &&
                        conn.reassembler.poisoned().ok() && !pressure_pause;
  std::uint32_t want = 0;
  if (readable) want |= EPOLLIN;
  if (pending > 0) want |= EPOLLOUT;

  const bool now_paused = pressure_pause && !conn.closing && !conn.peer_eof;
  if (now_paused && !conn.paused) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.reads_paused;
  }
  conn.paused = now_paused;

  if (want != conn.interest) {
    // MOD re-arms edge-triggered delivery, so re-enabling EPOLLIN
    // redelivers data that arrived while reads were paused.
    (void)loop_->Modify(conn.fd, want);
    conn.interest = want;
  }
}

void EventShardServer::ArmOrClearDeadline(Conn& conn) {
  if (options_.read_deadline_ms == 0) return;
  const bool want_timer = conn.reassembler.mid_frame();
  if (want_timer && conn.deadline_timer == 0) {
    const std::uint64_t id = conn.id;
    // Armed when the frame starts and NOT reset by per-byte progress:
    // a dribbling peer must finish its frame inside one budget total.
    conn.deadline_timer = loop_->AddTimer(
        options_.read_deadline_ms, [this, id] { OnDeadline(id); });
  } else if (!want_timer && conn.deadline_timer != 0) {
    loop_->CancelTimer(conn.deadline_timer);
    conn.deadline_timer = 0;
  }
}

void EventShardServer::OnDeadline(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  conn.deadline_timer = 0;
  if (conn.reassembler.mid_frame() && !conn.closing && !conn.peer_eof) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.deadline_evictions;
    }
    // Clean eviction: a best-effort reason frame, then the close.  No
    // flush-wait — a loris peer gets no more of our memory or time.
    const std::string reply = EncodeShardErrorReplyFor(
        conn.reassembler.buffered(),
        Status::DeadlineExceeded("frame not completed within " +
                                 std::to_string(options_.read_deadline_ms) +
                                 "ms"));
    (void)::send(conn.fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  }
  // For closing / draining connections this timer is the drain budget:
  // the peer didn't take its last bytes in time either way.
  CloseConn(conn);
}

void EventShardServer::PoisonConn(Conn& conn, const Status& status) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.protocol_errors;
  }
  // The stream is unframed beyond repair: answer (echoing whatever
  // version/correlation prefix survives in the buffer), flush, close.
  conn.write_buf.append(
      EncodeShardErrorReplyFor(conn.reassembler.buffered(), status));
  conn.closing = true;
  conn.ready_frames.clear();
}

void EventShardServer::MaybeFinish(Conn& conn) {
  const bool draining = conn.closing || conn.peer_eof;
  if (!draining) return;
  if (conn.in_flight == 0 && conn.ready_frames.empty() &&
      conn.done.empty() &&
      PendingWrite(conn.write_buf, conn.write_pos) == 0) {
    CloseConn(conn);
    return;
  }
  // Bound the drain: a closing peer that stops reading must not pin
  // this connection's memory forever.
  if (conn.deadline_timer == 0) {
    const std::uint64_t budget =
        options_.read_deadline_ms != 0 ? options_.read_deadline_ms : 5000;
    const std::uint64_t id = conn.id;
    conn.deadline_timer =
        loop_->AddTimer(budget, [this, id] { OnDeadline(id); });
  }
}

void EventShardServer::CloseConn(Conn& conn) {
  if (conn.deadline_timer != 0) {
    loop_->CancelTimer(conn.deadline_timer);
    conn.deadline_timer = 0;
  }
  loop_->Remove(conn.fd);
  ::close(conn.fd);
  const std::uint64_t id = conn.id;
  conns_.erase(id);  // `conn` is dangling from here on
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.cur_connections = conns_.size();
}

}  // namespace fxdist
