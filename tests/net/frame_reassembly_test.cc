// Incremental reassembly properties: for ANY way the network splits a
// byte stream, FrameReassembler must extract exactly the frames that
// were sent, byte for byte — and for any way the bytes are damaged it
// must fail with a clean status, never a crash or over-read (CI runs
// this suite under AddressSanitizer).  Every split point of a golden
// multi-frame stream is tried exhaustively; the fuzz loop mirrors
// wire_codec_test's corpus idiom (seeded Xoshiro mutations of valid
// frames) against the *streaming* entry point instead of DecodeFrame.

#include "net/frame_reassembler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "util/random.h"

namespace fxdist {
namespace {

std::vector<std::string> GoldenFrames() {
  std::vector<std::string> frames;
  frames.push_back(EncodeFrame({WireOp::kHandshake, false, ""}));
  frames.push_back(EncodeFrame({WireOp::kExecute, false, "query bytes"}));
  frames.push_back(
      EncodeFrame({WireOp::kScanMatch, true, std::string(300, '\x5a')}));
  WireFrame mux;
  mux.op = WireOp::kExecute;
  mux.payload = "mux payload";
  mux.correlation_id = 0x1122334455667788ULL;
  frames.push_back(EncodeFrame(mux));
  frames.push_back(EncodeFrame({WireOp::kNumRecords, false, ""}));
  return frames;
}

std::string Concat(const std::vector<std::string>& frames) {
  std::string all;
  for (const std::string& frame : frames) all += frame;
  return all;
}

/// Feeds `stream` in two chunks split at `split` and returns the
/// extracted frames, asserting no error.
std::vector<std::string> FeedSplit(const std::string& stream,
                                   std::size_t split) {
  FrameReassembler reassembler;
  std::vector<std::string> out;
  Status st = reassembler.Feed(
      std::string_view(stream).substr(0, split), &out);
  EXPECT_TRUE(st.ok()) << "split " << split << ": " << st.ToString();
  st = reassembler.Feed(std::string_view(stream).substr(split), &out);
  EXPECT_TRUE(st.ok()) << "split " << split << ": " << st.ToString();
  return out;
}

TEST(FrameReassemblyTest, EverySplitPointYieldsIdenticalFrames) {
  const std::vector<std::string> golden = GoldenFrames();
  const std::string stream = Concat(golden);
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    const std::vector<std::string> out = FeedSplit(stream, split);
    ASSERT_EQ(out.size(), golden.size()) << "split " << split;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(out[i], golden[i]) << "split " << split << " frame " << i;
    }
  }
}

TEST(FrameReassemblyTest, OneByteAtATimeDribble) {
  const std::vector<std::string> golden = GoldenFrames();
  const std::string stream = Concat(golden);
  FrameReassembler reassembler;
  std::vector<std::string> out;
  for (const char byte : stream) {
    ASSERT_TRUE(reassembler.Feed(std::string_view(&byte, 1), &out).ok());
  }
  ASSERT_EQ(out.size(), golden.size());
  EXPECT_EQ(Concat(out), stream);
  EXPECT_FALSE(reassembler.mid_frame());
  EXPECT_TRUE(reassembler.buffered().empty());
}

TEST(FrameReassemblyTest, MidFrameTracksPartialFrames) {
  const std::string frame = EncodeFrame({WireOp::kExecute, false, "abcdef"});
  FrameReassembler reassembler;
  std::vector<std::string> out;
  EXPECT_FALSE(reassembler.mid_frame());  // idle owes nothing
  ASSERT_TRUE(
      reassembler.Feed(std::string_view(frame).substr(0, 5), &out).ok());
  EXPECT_TRUE(reassembler.mid_frame());  // the deadline-arming condition
  ASSERT_TRUE(
      reassembler.Feed(std::string_view(frame).substr(5), &out).ok());
  EXPECT_FALSE(reassembler.mid_frame());  // completed: deadline cleared
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], frame);
}

TEST(FrameReassemblyTest, MalformedHeaderPoisonsStickily) {
  const std::string good = EncodeFrame({WireOp::kExecute, false, "abc"});
  std::string bad = good;
  bad[0] ^= 0x01;  // magic
  FrameReassembler reassembler;
  std::vector<std::string> out;
  const Status first = reassembler.Feed(bad, &out);
  EXPECT_FALSE(first.ok());
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(reassembler.mid_frame());  // poisoned, not mid-frame
  // Sticky: even pristine bytes cannot revive the stream.
  const Status second = reassembler.Feed(good, &out);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.code(), first.code());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(reassembler.poisoned().code(), first.code());
}

TEST(FrameReassemblyTest, FramesBeforeBadPrefixAreStillDelivered) {
  const std::string good = EncodeFrame({WireOp::kExecute, false, "abc"});
  std::string stream = good;
  std::string bad = good;
  bad[4] = static_cast<char>(kWireVersion - 1);  // the retired version 1
  stream += bad;
  FrameReassembler reassembler;
  std::vector<std::string> out;
  EXPECT_FALSE(reassembler.Feed(stream, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], good);
}

TEST(FrameReassemblyTest, OverLimitLengthRejectedBeforeBuffering) {
  std::string frame = EncodeFrame({WireOp::kExecute, false, "abc"});
  frame[16] = '\xff';  // length field -> ~2 GiB
  frame[17] = '\xff';
  frame[18] = '\xff';
  frame[19] = '\x7f';
  FrameReassembler reassembler;
  std::vector<std::string> out;
  const Status st =
      reassembler.Feed(std::string_view(frame).substr(0, kWireHeaderSize),
                       &out);
  EXPECT_FALSE(st.ok());  // rejected from the header alone
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(FrameReassemblyTest, ChecksumDamageIsNotAStreamError) {
  // A corrupt payload under an honest header passes reassembly (the
  // stream stays framed) and fails only in DecodeFrame — the per-frame
  // error the connection survives.
  std::string frame = EncodeFrame({WireOp::kExecute, false, "abcdefgh"});
  frame[frame.size() - 1] ^= 0x40;  // checksum byte
  FrameReassembler reassembler;
  std::vector<std::string> out;
  ASSERT_TRUE(reassembler.Feed(frame, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  auto decoded = DecodeFrame(out[0]);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(FrameReassemblyFuzzTest, BitFlippedStreamsNeverCrash) {
  const std::vector<std::string> golden = GoldenFrames();
  const std::string stream = Concat(golden);
  Xoshiro256 rng(20260808);
  for (int round = 0; round < 400; ++round) {
    std::string mutant = stream;
    // 1-4 bit flips anywhere in the stream.
    const std::uint64_t flips = 1 + rng.NextBounded(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t pos = rng.NextBounded(mutant.size());
      mutant[pos] = static_cast<char>(
          static_cast<unsigned char>(mutant[pos]) ^
          (1u << rng.NextBounded(8)));
    }
    // Feed at a random split so damage can straddle chunk boundaries.
    FrameReassembler reassembler;
    std::vector<std::string> out;
    const std::uint64_t split = rng.NextBounded(mutant.size() + 1);
    Status st = reassembler.Feed(
        std::string_view(mutant).substr(0, split), &out);
    if (st.ok()) {
      st = reassembler.Feed(std::string_view(mutant).substr(split), &out);
    }
    // Either the whole stream reassembled (damage confined to payloads
    // or checksums) or it poisoned cleanly; both are fine — what is
    // checked is that every extracted frame is safely decodable-or-not
    // and the concatenation invariant holds for the consumed prefix.
    std::string consumed;
    for (const std::string& frame : out) {
      consumed += frame;
      (void)DecodeFrame(frame);  // must not crash / over-read
    }
    ASSERT_EQ(consumed,
              mutant.substr(0, consumed.size()))
        << "round " << round;
    if (!st.ok()) {
      std::vector<std::string> more;
      EXPECT_FALSE(reassembler.Feed(stream, &more).ok());  // sticky
      EXPECT_TRUE(more.empty());
    }
  }
}

TEST(FrameReassemblyFuzzTest, TruncatedStreamsStayMidFrameNotBroken) {
  const std::vector<std::string> golden = GoldenFrames();
  const std::string stream = Concat(golden);
  Xoshiro256 rng(987654);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t cut = rng.NextBounded(stream.size());
    FrameReassembler reassembler;
    std::vector<std::string> out;
    ASSERT_TRUE(
        reassembler
            .Feed(std::string_view(stream).substr(0, cut), &out)
            .ok());
    std::string consumed;
    for (const std::string& frame : out) consumed += frame;
    // Whatever completed is byte-identical; the tail is buffered.
    ASSERT_EQ(consumed, stream.substr(0, consumed.size()));
    EXPECT_EQ(consumed.size() + reassembler.buffered().size(), cut);
  }
}

}  // namespace
}  // namespace fxdist
