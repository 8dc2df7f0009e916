// Frame codec: length-prefixed streaming deframer + wire-message codec.
// Byzantine peers control every byte of the stream, so the properties under
// test are strictness ones: oversized declarations poison the reader before
// the body is buffered, truncations never yield a frame, and garbage wire
// kinds are rejected.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "net/frame.hpp"

namespace dl::net {
namespace {

Bytes frame_of(ByteView payload) {
  Bytes out;
  EXPECT_TRUE(append_frame(out, payload));
  return out;
}

TEST(Frame, RoundTripSingle) {
  const Bytes payload = random_bytes(1000, 1);
  const Bytes stream = frame_of(payload);
  ASSERT_EQ(stream.size(), payload.size() + kFrameHeaderBytes);

  FrameReader r;
  ASSERT_TRUE(r.feed(stream));
  Bytes got;
  ASSERT_TRUE(r.next(got));
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(r.next(got));
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(Frame, ByteAtATime) {
  const Bytes payload = random_bytes(257, 2);
  const Bytes stream = frame_of(payload);
  FrameReader r;
  Bytes got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_FALSE(r.next(got)) << "frame complete too early at byte " << i;
    ASSERT_TRUE(r.feed(ByteView(&stream[i], 1)));
  }
  ASSERT_TRUE(r.next(got));
  EXPECT_EQ(got, payload);
}

TEST(Frame, ManyFramesOneFeed) {
  Bytes stream;
  std::vector<Bytes> payloads;
  for (int i = 0; i < 50; ++i) {
    payloads.push_back(random_bytes(static_cast<std::size_t>(i * 13 % 200), 10 + static_cast<std::uint64_t>(i)));
    append_frame(stream, payloads.back());
  }
  FrameReader r;
  ASSERT_TRUE(r.feed(stream));
  Bytes got;
  for (const Bytes& want : payloads) {
    ASSERT_TRUE(r.next(got));
    EXPECT_EQ(got, want);
  }
  EXPECT_FALSE(r.next(got));
}

TEST(Frame, EmptyPayloadIsAValidFrame) {
  FrameReader r;
  ASSERT_TRUE(r.feed(frame_of({})));
  Bytes got{0xFF};
  ASSERT_TRUE(r.next(got));
  EXPECT_TRUE(got.empty());
}

TEST(Frame, OversizedDeclarationPoisonsBeforeBody) {
  // Header declares max+1: the reader must fail on feed, without waiting
  // for (or buffering) the body.
  FrameReader r(/*max_frame=*/1024);
  Bytes evil;
  append_frame(evil, random_bytes(2048, 3), /*max_frame=*/4096);
  EXPECT_FALSE(r.feed(evil));
  EXPECT_TRUE(r.failed());
  Bytes got;
  EXPECT_FALSE(r.next(got));
  // Poisoned stays poisoned.
  EXPECT_FALSE(r.feed(frame_of(random_bytes(8, 4))));
  r.reset();
  EXPECT_FALSE(r.failed());
  ASSERT_TRUE(r.feed(frame_of(random_bytes(8, 4))));
  EXPECT_TRUE(r.next(got));
}

TEST(Frame, ExactLimitAccepted) {
  FrameReader r(/*max_frame=*/512);
  const Bytes payload = random_bytes(512, 5);
  Bytes stream;
  ASSERT_TRUE(append_frame(stream, payload, 512));
  ASSERT_TRUE(r.feed(stream));
  Bytes got;
  ASSERT_TRUE(r.next(got));
  EXPECT_EQ(got, payload);
}

TEST(Frame, AppendFrameRejectsOversizedPayload) {
  Bytes out;
  EXPECT_FALSE(append_frame(out, random_bytes(100, 6), /*max_frame=*/99));
  EXPECT_TRUE(out.empty());
}

TEST(Frame, OversizedSecondFrameCaughtAtItsHeader) {
  FrameReader r(/*max_frame=*/1024);
  Bytes stream = frame_of(random_bytes(10, 7));
  append_frame(stream, random_bytes(2000, 8), /*max_frame=*/4096);
  // feed succeeds (head frame is fine) but the poisoned length is detected
  // once the first frame is consumed.
  r.feed(stream);
  Bytes got;
  ASSERT_TRUE(r.next(got));
  EXPECT_FALSE(r.next(got));
  EXPECT_TRUE(r.failed());
}

TEST(Wire, HelloRoundTrip) {
  const Bytes frame = encode_hello(3);
  FrameReader r;
  ASSERT_TRUE(r.feed(frame));
  Bytes payload;
  ASSERT_TRUE(r.next(payload));
  WireFrame wf;
  ASSERT_TRUE(decode_wire(payload, wf));
  EXPECT_EQ(wf.kind, WireKind::Hello);
  EXPECT_EQ(wf.hello_node, 3u);
}

TEST(Wire, HelloRejectsBadMagicVersionLength) {
  Bytes frame = encode_hello(3);
  WireFrame wf;
  {
    Bytes p(frame.begin() + kFrameHeaderBytes, frame.end());
    Bytes bad = p;
    bad[1] ^= 1;  // magic
    EXPECT_FALSE(decode_wire(bad, wf));
    bad = p;
    bad[5] ^= 1;  // version
    EXPECT_FALSE(decode_wire(bad, wf));
    bad = p;
    bad.push_back(0);  // trailing byte
    EXPECT_FALSE(decode_wire(bad, wf));
    bad.assign(p.begin(), p.end() - 1);  // truncated
    EXPECT_FALSE(decode_wire(bad, wf));
  }
}

TEST(Wire, DataPayloadView) {
  const Bytes env_bytes = random_bytes(77, 9);
  const Bytes frame = encode_data_frame(env_bytes);
  ASSERT_EQ(frame.size(), env_bytes.size() + kDataPayloadOffset);
  FrameReader r;
  r.feed(frame);
  Bytes payload;
  ASSERT_TRUE(r.next(payload));
  WireFrame wf;
  ASSERT_TRUE(decode_wire(payload, wf));
  EXPECT_EQ(wf.kind, WireKind::Data);
  EXPECT_TRUE(equal(wf.data, env_bytes));
}

TEST(Frame, NextViewIsZeroCopyAndDrainResets) {
  Bytes stream;
  const Bytes a = random_bytes(100, 21);
  const Bytes b = random_bytes(200, 22);
  append_frame(stream, a);
  append_frame(stream, b);
  FrameReader r;
  ASSERT_TRUE(r.feed(stream));

  ByteView v;
  ASSERT_TRUE(r.next_view(v));
  EXPECT_TRUE(equal(v, a));
  ASSERT_TRUE(r.next_view(v));
  EXPECT_TRUE(equal(v, b));
  // The view stays valid until the next feed/fill/reset even though the
  // reader just drained fully (it only rewinds its cursors).
  EXPECT_TRUE(equal(v, b));
  EXPECT_EQ(r.buffered_bytes(), 0u);
  EXPECT_FALSE(r.next_view(v));
}

TEST(Frame, FillFromReadsSocketsDirectly) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Bytes stream;
  std::vector<Bytes> payloads;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(random_bytes(500 + static_cast<std::size_t>(i) * 37,
                                    30 + static_cast<std::uint64_t>(i)));
    append_frame(stream, payloads.back());
  }
  // Write in two chunks so one frame straddles a fill_from boundary.
  const std::size_t half = stream.size() / 2;
  ASSERT_EQ(::send(fds[1], stream.data(), half, 0),
            static_cast<ssize_t>(half));

  FrameReader r;
  ASSERT_GT(r.fill_from(fds[0]), 0);
  std::size_t seen = 0;
  Bytes got;
  while (r.next(got)) EXPECT_EQ(got, payloads[seen++]);

  ASSERT_EQ(::send(fds[1], stream.data() + half, stream.size() - half, 0),
            static_cast<ssize_t>(stream.size() - half));
  ::close(fds[1]);
  while (seen < payloads.size()) {
    const ssize_t n = r.fill_from(fds[0]);
    ASSERT_GT(n, 0);
    while (r.next(got)) EXPECT_EQ(got, payloads[seen++]);
  }
  EXPECT_EQ(r.fill_from(fds[0]), 0);  // orderly EOF
  ::close(fds[0]);
}

// A connection before its handshake reads with a small limit; the reader
// must not buffer more than one frame of that limit however much is sent.
TEST(Frame, FillFromBuffersAtMostOneFrameOfItsLimit) {
  constexpr std::size_t kLimit = 4096;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Bytes stream;
  std::vector<Bytes> payloads = {random_bytes(kLimit, 41)};
  for (int i = 0; i < 40; ++i) {
    payloads.push_back(random_bytes(100, 42 + static_cast<std::uint64_t>(i)));
  }
  for (const Bytes& p : payloads) append_frame(stream, p);
  ASSERT_EQ(::send(fds[1], stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));
  ::close(fds[1]);

  FrameReader r(kLimit);
  std::size_t seen = 0;
  ByteView v;
  while (seen < payloads.size()) {
    ASSERT_GT(r.fill_from(fds[0]), 0);
    EXPECT_LE(r.buffered_bytes(), kLimit + kFrameHeaderBytes);
    while (r.next_view(v)) EXPECT_TRUE(equal(v, payloads[seen++]));
  }
  EXPECT_EQ(r.fill_from(fds[0]), 0);
  ::close(fds[0]);
}

TEST(Frame, FillFromRefusesPoisonedReader) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameReader r(/*max_frame=*/64);
  Bytes evil;
  append_frame(evil, random_bytes(100, 40), /*max_frame=*/4096);
  EXPECT_FALSE(r.feed(evil));
  errno = 0;
  EXPECT_EQ(r.fill_from(fds[0]), -1);
  EXPECT_EQ(errno, EPROTO);
  ::close(fds[0]);
  ::close(fds[1]);
}

// The in-place client-plane encoders must be byte-identical to the
// Bytes-returning ones they replaced on the gateway hot path.
TEST(Wire, InPlaceEncodersMatchByteForByte) {
  auto rope_bytes = [](const ByteRope& rope) {
    iovec iov[8];
    const std::size_t cnt = rope.fill_iovecs(iov, 8);
    Bytes out;
    for (std::size_t i = 0; i < cnt; ++i) {
      const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
      out.insert(out.end(), base, base + iov[i].iov_len);
    }
    return out;
  };

  ByteRope rope;
  encode_tx_ack_into(rope, 0x1122334455667788u, TxStatus::Accepted);
  EXPECT_EQ(rope_bytes(rope),
            encode_tx_ack(0x1122334455667788u, TxStatus::Accepted));
  EXPECT_EQ(rope.size(), kTxAckFrameBytes);

  rope.clear();
  StageLatencies stages{1, 2, 3, 4, 5};
  encode_tx_committed_into(rope, 7, 1234, 3, 987654, stages);
  EXPECT_EQ(rope_bytes(rope), encode_tx_committed(7, 1234, 3, 987654, stages));
  EXPECT_EQ(rope.size(), kTxCommittedFrameBytes);

  rope.clear();
  encode_goodbye_into(rope);
  EXPECT_EQ(rope_bytes(rope), encode_goodbye());
  EXPECT_EQ(rope.size(), kGoodbyeFrameBytes);
}

// The scatter-gather seam: header-slab bytes + raw body must equal the
// classic contiguous Data frame.
TEST(Wire, DataFrameHeaderMatchesContiguousEncoding) {
  Envelope env;
  env.kind = static_cast<MsgKind>(3);
  env.epoch = 0xDEADBEEFCAFEBABEu;
  env.instance = 17;
  env.body = random_bytes(333, 50);

  std::uint8_t header[kDataFrameHeaderBytes];
  ASSERT_EQ(encode_data_frame_header(env, header), kDataFrameHeaderBytes);
  Bytes gathered(header, header + kDataFrameHeaderBytes);
  gathered.insert(gathered.end(), env.body.begin(), env.body.end());

  EXPECT_EQ(gathered, encode_data_frame(env.encode()));
}

TEST(Wire, RejectsUnknownKindAndEmpty) {
  WireFrame wf;
  EXPECT_FALSE(decode_wire({}, wf));
  const Bytes junk{0x7F, 1, 2, 3};
  EXPECT_FALSE(decode_wire(junk, wf));
  const Bytes zero{0x00};
  EXPECT_FALSE(decode_wire(zero, wf));
}

}  // namespace
}  // namespace dl::net
