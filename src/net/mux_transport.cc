#include "net/mux_transport.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/wire.h"

namespace fxdist {

// -- LoopbackFrameChannel ------------------------------------------------

Status LoopbackFrameChannel::Send(const std::string& frame) {
  // The handler runs outside the lock, so concurrent Sends execute
  // concurrently — the in-process analogue of requests overlapping on
  // the wire.
  std::string reply = handler_(frame);
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return Status::Unavailable("loopback channel shut down");
  replies_.push_back(std::move(reply));
  ready_.notify_one();
  return Status::OK();
}

Result<std::string> LoopbackFrameChannel::Recv() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return shutdown_ || !replies_.empty(); });
  if (replies_.empty()) {
    return Status::Unavailable("loopback channel shut down");
  }
  std::string reply = std::move(replies_.front());
  replies_.pop_front();
  return reply;
}

void LoopbackFrameChannel::Shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
  ready_.notify_all();
}

// -- MuxTransport --------------------------------------------------------

MuxTransport::MuxTransport(std::unique_ptr<FrameChannel> channel,
                           Options options)
    : channel_(std::move(channel)), options_(options) {
  receiver_ = std::thread(&MuxTransport::ReceiveLoop, this);
}

MuxTransport::~MuxTransport() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    FailAllLocked(Status::Unavailable("mux transport shut down"));
    cv_.notify_all();
  }
  channel_->Shutdown();
  if (receiver_.joinable()) receiver_.join();
}

std::size_t MuxTransport::max_in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_in_flight_;
}

std::uint64_t MuxTransport::stale_replies() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stale_replies_;
}

void MuxTransport::FailAllLocked(const Status& error) {
  for (auto& [cid, call] : pending_) {
    call->status = error;
    call->done = true;
  }
  pending_.clear();
  cv_.notify_all();
}

bool MuxTransport::TryReviveLocked() {
  if (!pending_.empty()) return false;
  if (!channel_->Reset().ok()) return false;
  broken_ = false;
  cv_.notify_all();  // wake the receiver back onto Recv
  return true;
}

Result<std::string> MuxTransport::RoundTrip(const std::string& request) {
  auto request_cid = CorrelationIdFromHeader(request);
  FXDIST_RETURN_NOT_OK(request_cid.status());
  const std::uint64_t cid = *request_cid;
  std::unique_lock<std::mutex> lock(mutex_);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.call_timeout_ms);
  for (;;) {
    if (shutdown_) return Status::Unavailable("mux transport shut down");
    if (broken_ && !TryReviveLocked()) {
      return Status::Unavailable("mux connection broken");
    }
    if (pending_.size() < options_.window) break;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Status::DeadlineExceeded(
          "mux in-flight window stayed full past the call deadline");
    }
  }

  PendingCall call;
  pending_.emplace(cid, &call);
  max_cid_issued_ = std::max(max_cid_issued_, cid);
  max_in_flight_ = std::max(max_in_flight_, pending_.size());
  lock.unlock();
  const Status sent = channel_->Send(request);
  lock.lock();
  if (!sent.ok()) {
    // Delivered-or-not is the channel's verdict; just withdraw the call.
    if (pending_.erase(cid) > 0) cv_.notify_all();
    if (call.done && !call.status.ok()) return call.status;
    return sent;
  }
  while (!call.done) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        !call.done) {
      // Abandon: the id stays "issued", so a late reply is dropped as
      // stale instead of poisoning the connection.
      pending_.erase(cid);
      cv_.notify_all();
      return Status::DeadlineExceeded("mux call timed out after " +
                                      std::to_string(options_.call_timeout_ms) +
                                      "ms");
    }
  }
  FXDIST_RETURN_NOT_OK(call.status);
  return std::move(call.reply);
}

void MuxTransport::ReceiveLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!shutdown_) {
    if (broken_) {
      cv_.wait(lock);
      continue;
    }
    lock.unlock();
    auto raw = channel_->Recv();
    lock.lock();
    if (shutdown_) break;
    if (!raw.ok()) {
      FailAllLocked(raw.status());
      broken_ = true;
      continue;
    }
    auto reply_cid = CorrelationIdFromHeader(*raw);
    if (!reply_cid.ok()) {
      FailAllLocked(Status::DataLoss("mux received an unframed reply: " +
                                     reply_cid.status().message()));
      broken_ = true;
      continue;
    }
    const std::uint64_t cid = *reply_cid;
    auto it = pending_.find(cid);
    if (it != pending_.end()) {
      it->second->reply = *std::move(raw);
      it->second->done = true;
      pending_.erase(it);
      cv_.notify_all();
    } else if (cid <= max_cid_issued_) {
      // Issued but abandoned — its waiter already returned.
      ++stale_replies_;
    } else {
      FailAllLocked(
          Status::DataLoss("mux reply names a correlation id never issued"));
      broken_ = true;
    }
  }
}

}  // namespace fxdist
