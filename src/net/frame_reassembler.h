// Incremental wire-frame reassembly for readiness-driven readers.
//
// The blocking transports pull exactly one frame at a time with
// recv-exact loops; an event-driven reader instead gets arbitrary byte
// chunks whenever the socket is readable — half a header, three frames
// and a tail, one byte at a time from a slow peer.  FrameReassembler
// turns that stream back into complete frames without ever blocking:
//
//   * Feed() appends bytes and extracts every complete frame, using the
//     same header validation as the blocking readers
//     (FrameSizeFromHeader on the kWireHeaderSize-byte header), so an
//     announced length over the cap is rejected before any allocation
//     is sized from it.
//   * A malformed prefix (bad magic/version, over-limit length) poisons
//     the reassembler: Feed returns the error, keeps returning it, and
//     no further frames are extracted.  The stream is unframed beyond
//     repair at that point — the caller answers with an error frame and
//     closes.  Checksum validation stays in DecodeFrame: a corrupt
//     payload under an honest header is a per-frame failure the
//     connection survives.
//   * mid_frame() reports whether a partial frame is buffered — the
//     condition the event server arms its read deadline on (a peer that
//     starts a frame must finish it in time; an idle connection owes
//     nothing).
//
// Extracted frames are byte-identical to the fed input: whatever split
// points the network chose, the concatenation of outputs equals the
// concatenation of inputs (pinned by tests/net/frame_reassembly_test.cc
// across every split point and under bit-flip fuzz, in CI under ASan).

#ifndef FXDIST_NET_FRAME_REASSEMBLER_H_
#define FXDIST_NET_FRAME_REASSEMBLER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/status.h"

namespace fxdist {

class FrameReassembler {
 public:
  explicit FrameReassembler(std::uint32_t max_payload = kWireMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends `bytes` and moves every newly completed frame into `*out`
  /// (appended in stream order; `out` is not cleared).  On a malformed
  /// header the error is returned and sticky; frames completed by this
  /// very call before the bad prefix are still delivered.
  Status Feed(std::string_view bytes, std::vector<std::string>* out);

  /// True while a started-but-incomplete frame is buffered.
  bool mid_frame() const { return poisoned_.ok() && !buffer_.empty(); }

  /// Bytes currently buffered (partial frame, or the rejected prefix
  /// after poisoning — kept so the caller can echo the correlation id
  /// in its error reply).
  const std::string& buffered() const { return buffer_; }

  /// The sticky error, or OK.
  const Status& poisoned() const { return poisoned_; }

  /// Raises/lowers the per-frame payload cap (handshake negotiation).
  void set_max_payload(std::uint32_t max_payload) {
    max_payload_ = max_payload;
  }

 private:
  std::uint32_t max_payload_;
  std::string buffer_;
  Status poisoned_;
};

}  // namespace fxdist

#endif  // FXDIST_NET_FRAME_REASSEMBLER_H_
