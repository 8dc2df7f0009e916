// Envelope codec and RetrievalManager unit tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/envelope.hpp"
#include "dl/retrieval.hpp"

namespace dl {
namespace {

TEST(Envelope, RoundTrip) {
  Envelope e;
  e.kind = MsgKind::VidReady;
  e.epoch = 0x123456789ABCDEFULL;
  e.instance = 42;
  e.body = bytes_of("payload");
  const Bytes wire = e.encode();
  auto back = EnvelopeView::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, e.kind);
  EXPECT_EQ(back->epoch, e.epoch);
  EXPECT_EQ(back->instance, e.instance);
  EXPECT_TRUE(equal(back->body, e.body));
  // The body is a view into the received bytes, not a copy.
  EXPECT_EQ(back->body.data(), wire.data() + Envelope::kHeaderBytes);
}

TEST(Envelope, EmptyBody) {
  Envelope e;
  e.kind = MsgKind::VidRequestChunk;
  const Bytes wire = e.encode();
  auto back = EnvelopeView::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->body.empty());
}

// encode_header() is the transport's scatter-gather seam: its kHeaderBytes
// output must equal the first kHeaderBytes of the contiguous encoding, so
// header-slab + body gathers are byte-identical on the wire.
TEST(Envelope, EncodeHeaderMatchesEncodePrefix) {
  Envelope e;
  e.kind = MsgKind::VidChunk;
  e.epoch = 0xFFEEDDCCBBAA9988ULL;
  e.instance = 0xDEADBEEF;
  e.body = bytes_of("some chunk body");

  std::uint8_t header[Envelope::kHeaderBytes];
  e.encode_header(header);
  const Bytes full = e.encode();
  ASSERT_EQ(full.size(), Envelope::kHeaderBytes + e.body.size());
  EXPECT_TRUE(std::equal(header, header + Envelope::kHeaderBytes,
                         full.begin()));
}

TEST(Envelope, MalformedRejected) {
  EXPECT_FALSE(EnvelopeView::decode({}).has_value());
  EXPECT_FALSE(EnvelopeView::decode(bytes_of("x")).has_value());
  Envelope e;
  e.kind = MsgKind::BaBval;
  e.body = bytes_of("abc");
  Bytes raw = e.encode();
  raw.pop_back();  // truncated
  EXPECT_FALSE(EnvelopeView::decode(raw).has_value());
  raw = e.encode();
  raw.push_back(0);  // trailing junk
  EXPECT_FALSE(EnvelopeView::decode(raw).has_value());
}

}  // namespace
}  // namespace dl

namespace dl::core {
namespace {

vid::ReturnChunkMsg make_chunk(const vid::Params& p, const Bytes& block, int idx) {
  auto msgs = vid::avid_m_disperse(p, block);
  return msgs[static_cast<std::size_t>(idx)];
}

TEST(RetrievalManager, LocalContentSkipsNetwork) {
  const vid::Params p{4, 1};
  RetrievalManager rm(p, 0);
  const BlockKey key{3, 0};
  rm.put_local(key, std::make_shared<const Bytes>(bytes_of("my block")));
  EXPECT_TRUE(rm.has(key));
  Outbox out;
  EXPECT_FALSE(rm.ensure_started(key, out));  // already available
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(to_string(rm.get(key)), "my block");
}

TEST(RetrievalManager, EnsureStartedIdempotent) {
  const vid::Params p{4, 1};
  RetrievalManager rm(p, 0);
  const BlockKey key{1, 2};
  Outbox out;
  EXPECT_TRUE(rm.ensure_started(key, out));
  EXPECT_EQ(out.size(), 1u);  // the RequestChunk broadcast
  EXPECT_TRUE(rm.in_flight(key));
  Outbox out2;
  EXPECT_FALSE(rm.ensure_started(key, out2));  // second call: no-op
  EXPECT_TRUE(out2.empty());
}

TEST(RetrievalManager, CompletesAfterKChunks) {
  const vid::Params p{4, 1};
  const Bytes block = random_bytes(500, 1);
  RetrievalManager rm(p, 0);
  const BlockKey key{0, 1};
  Outbox out;
  rm.ensure_started(key, out);
  // K = N - 2f = 2 chunks needed.
  EXPECT_FALSE(rm.feed_chunk(0, key, make_chunk(p, block, 0)));
  // The second chunk decodes the block in place.
  EXPECT_TRUE(rm.feed_chunk(1, key, make_chunk(p, block, 1)));
  EXPECT_TRUE(rm.has(key));
  EXPECT_FALSE(rm.is_bad(key));
  EXPECT_EQ(rm.get(key), block);
  EXPECT_EQ(rm.completed_retrievals(), 1u);
  // Late chunks are ignored (retrieval gone from the active set).
  EXPECT_FALSE(rm.feed_chunk(2, key, make_chunk(p, block, 2)));
}

TEST(RetrievalManager, ChunksForUnknownKeyIgnored) {
  const vid::Params p{4, 1};
  RetrievalManager rm(p, 0);
  EXPECT_FALSE(
      rm.feed_chunk(0, BlockKey{9, 9 % 4}, make_chunk(p, bytes_of("x"), 0)));
}

TEST(RetrievalManager, ReleaseFreesContentButStaysDone) {
  const vid::Params p{4, 1};
  RetrievalManager rm(p, 0);
  const BlockKey key{5, 3};
  rm.put_local(key, std::make_shared<const Bytes>(bytes_of("data")));
  rm.release(key);
  EXPECT_FALSE(rm.has(key));
  // Done-key memory prevents re-retrieval of delivered blocks.
  Outbox out;
  EXPECT_FALSE(rm.ensure_started(key, out));
}

TEST(BlockKeyOrdering, LexicographicByEpochThenProposer) {
  EXPECT_LT((BlockKey{1, 3}), (BlockKey{2, 0}));
  EXPECT_LT((BlockKey{2, 0}), (BlockKey{2, 1}));
  EXPECT_EQ((BlockKey{2, 1}), (BlockKey{2, 1}));
}

}  // namespace
}  // namespace dl::core
