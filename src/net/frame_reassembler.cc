#include "net/frame_reassembler.h"

#include <utility>

namespace fxdist {

Status FrameReassembler::Feed(std::string_view bytes,
                              std::vector<std::string>* out) {
  if (!poisoned_.ok()) return poisoned_;
  buffer_.append(bytes);
  for (;;) {
    if (buffer_.size() < kWireHeaderSize) return Status::OK();
    auto total = FrameSizeFromHeader(buffer_);
    if (!total.ok()) {
      poisoned_ = total.status();
      return poisoned_;
    }
    if (buffer_.size() < *total) return Status::OK();
    if (buffer_.size() == *total) {
      // Common case: the chunk ended exactly on a frame boundary — hand
      // the buffer over without copying the frame out of it.
      out->push_back(std::move(buffer_));
      buffer_.clear();
      return Status::OK();
    }
    out->push_back(buffer_.substr(0, *total));
    buffer_.erase(0, *total);
  }
}

}  // namespace fxdist
