// Full serialization round-trips: every protocol message type, wrapped in an
// Envelope, framed for the TCP transport, unframed, and decoded back must be
// the identity — byte-for-byte. This is the contract that lets the simulator
// backend and the TCP backend interoperate with the same protocol logic.
#include <gtest/gtest.h>

#include <algorithm>

#include "ba/binary_agreement.hpp"
#include "common/envelope.hpp"
#include "dl/block.hpp"
#include "dl/catchup.hpp"
#include "net/frame.hpp"
#include "vid/avid_fp.hpp"
#include "vid/avid_m.hpp"

namespace dl {
namespace {

struct Sample {
  const char* name;
  MsgKind kind;
  Bytes body;
};

// One valid body per protocol message kind (empty-bodied kinds included).
std::vector<Sample> all_samples() {
  std::vector<Sample> s;
  const vid::Params p{7, 2};
  const Bytes block_bytes = random_bytes(1234, 99);

  const auto chunks = vid::avid_m_disperse(p, block_bytes);
  s.push_back({"VidChunk", MsgKind::VidChunk, chunks[0].encode()});
  const Hash root = chunks[0].root;
  s.push_back({"VidGotChunk", MsgKind::VidGotChunk, vid::RootMsg{root}.encode()});
  s.push_back({"VidReady", MsgKind::VidReady, vid::RootMsg{root}.encode()});
  s.push_back({"VidRequestChunk", MsgKind::VidRequestChunk, {}});
  s.push_back({"VidReturnChunk", MsgKind::VidReturnChunk, chunks[3].encode()});
  s.push_back({"VidCancel", MsgKind::VidCancel, {}});

  s.push_back({"BaBval", MsgKind::BaBval, ba::BaRoundMsg{5, true}.encode()});
  s.push_back({"BaAux", MsgKind::BaAux, ba::BaRoundMsg{2, false}.encode()});
  s.push_back({"BaDone", MsgKind::BaDone, ba::BaDoneMsg{true}.encode()});

  const auto fp_chunks = vid::avid_fp_disperse(p, block_bytes);
  s.push_back({"FpChunk", MsgKind::FpChunk, fp_chunks[1].encode()});
  s.push_back({"FpEcho", MsgKind::FpEcho,
               vid::FpChecksumMsg{fp_chunks[1].checksum}.encode()});
  s.push_back({"FpReady", MsgKind::FpReady,
               vid::FpChecksumMsg{fp_chunks[2].checksum}.encode()});
  s.push_back({"FpRequestChunk", MsgKind::FpRequestChunk, {}});
  s.push_back({"FpReturnChunk", MsgKind::FpReturnChunk, fp_chunks[4].encode()});

  // A block payload as dispersed by a proposer (travels inside VidChunk
  // bodies, but its own codec must round-trip too).
  core::Block b;
  b.v_array = {3, 1, 4, 1, 5, 9, 2};
  for (int i = 0; i < 5; ++i) {
    core::Transaction tx;
    tx.submit_time = 0.25 * i;
    tx.origin = static_cast<std::uint32_t>(i);
    tx.payload = random_bytes(40 + static_cast<std::size_t>(i), static_cast<std::uint64_t>(i));
    b.txs.push_back(std::move(tx));
  }
  s.push_back({"Block-as-body", MsgKind::VidChunk, b.encode()});

  // Catch-up (crash-recovery bootstrap) kinds.
  s.push_back({"CatchUpRequest", MsgKind::CatchUpRequest,
               core::CatchUpRequestMsg{42, 64}.encode()});
  core::CatchUpChunkMsg cu;
  cu.round_from = 42;
  cu.at_epoch = 43;
  cu.block_count = 3;
  cu.block_index = 2;
  cu.block_epoch = 43;
  cu.proposer = 5;
  cu.chunk = chunks[4];
  s.push_back({"CatchUpChunk", MsgKind::CatchUpChunk, cu.encode()});
  core::CatchUpChunkMsg empty_epoch;  // zero-block epoch announcement
  empty_epoch.round_from = 42;
  empty_epoch.at_epoch = 44;
  s.push_back({"CatchUpChunk-empty", MsgKind::CatchUpChunk, empty_epoch.encode()});
  s.push_back({"CatchUpDone", MsgKind::CatchUpDone,
               core::CatchUpDoneMsg{42, 99}.encode()});
  return s;
}

// encode -> frame -> unframe -> decode == identity, fed in awkward chunks.
TEST(CodecRoundTrip, EveryMessageKindThroughFramedTransport) {
  std::uint64_t chunk_seed = 42;
  for (const Sample& sample : all_samples()) {
    SCOPED_TRACE(sample.name);
    Envelope env;
    env.kind = sample.kind;
    env.epoch = 123456789;
    env.instance = 6;
    env.body = sample.body;
    const Bytes env_bytes = env.encode();
    const Bytes frame = net::encode_data_frame(env_bytes);

    // Feed the frame in pseudo-random splits.
    net::FrameReader reader;
    std::size_t pos = 0;
    Bytes payload;
    bool have = false;
    while (pos < frame.size()) {
      chunk_seed = chunk_seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t step = 1 + static_cast<std::size_t>(chunk_seed % 97);
      const std::size_t len = std::min(step, frame.size() - pos);
      ASSERT_TRUE(reader.feed(ByteView(frame.data() + pos, len)));
      pos += len;
      have = reader.next(payload);
      ASSERT_EQ(have, pos == frame.size());
    }
    ASSERT_TRUE(have);

    net::WireFrame wf;
    ASSERT_TRUE(net::decode_wire(payload, wf));
    ASSERT_EQ(wf.kind, net::WireKind::Data);
    ASSERT_TRUE(equal(wf.data, env_bytes));

    const auto decoded = EnvelopeView::decode(wf.data);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, env.kind);
    EXPECT_EQ(decoded->epoch, env.epoch);
    EXPECT_EQ(decoded->instance, env.instance);
    EXPECT_TRUE(equal(decoded->body, env.body));
    const Envelope again{decoded->kind, decoded->epoch, decoded->instance,
                         Bytes(decoded->body.begin(), decoded->body.end())};
    EXPECT_EQ(again.encode(), env_bytes);
  }
}

// Typed-body identity: decode the body and re-encode; must reproduce the
// original bytes exactly.
TEST(CodecRoundTrip, TypedBodiesReEncodeIdentically) {
  const vid::Params p{7, 2};
  const Bytes block_bytes = random_bytes(900, 7);

  for (const auto& m : vid::avid_m_disperse(p, block_bytes)) {
    const Bytes wire = m.encode();
    vid::ChunkView out;
    ASSERT_TRUE(vid::ChunkView::decode(wire, out));
    EXPECT_EQ(vid::ChunkMsg::from(out).encode(), wire);
  }
  for (const auto& m : vid::avid_fp_disperse(p, block_bytes)) {
    vid::FpChunkMsg out;
    ASSERT_TRUE(vid::FpChunkMsg::decode(m.encode(), out));
    EXPECT_EQ(out.encode(), m.encode());
    vid::FpChecksumMsg cs{m.checksum};
    vid::FpChecksumMsg cs_out;
    ASSERT_TRUE(vid::FpChecksumMsg::decode(cs.encode(), cs_out));
    EXPECT_EQ(cs_out.encode(), cs.encode());
  }
  {
    vid::RootMsg m{sha256(block_bytes)}, out;
    ASSERT_TRUE(vid::RootMsg::decode(m.encode(), out));
    EXPECT_EQ(out.encode(), m.encode());
  }
  for (const bool v : {false, true}) {
    ba::BaRoundMsg m{31, v}, out;
    ASSERT_TRUE(ba::BaRoundMsg::decode(m.encode(), out));
    EXPECT_EQ(out.encode(), m.encode());
    ba::BaDoneMsg d{v}, d_out;
    ASSERT_TRUE(ba::BaDoneMsg::decode(d.encode(), d_out));
    EXPECT_EQ(d_out.encode(), d.encode());
  }
  {
    core::Block b;
    b.v_array = {1, 2, 3, 4, 5, 6, 7};
    core::Transaction tx;
    tx.submit_time = 1.5;
    tx.origin = 3;
    tx.payload = random_bytes(64, 8);
    b.txs.push_back(std::move(tx));
    const Bytes wire = b.encode();
    const auto out = core::BlockView::decode(wire, 7);
    ASSERT_TRUE(out.has_value());
    core::Block again;
    again.v_array = out->v_array;
    for (const core::TxView& t : out->txs) {
      again.txs.push_back(core::Transaction{
          t.submit_time, t.origin, Bytes(t.payload.begin(), t.payload.end())});
    }
    EXPECT_EQ(again.encode(), wire);
  }
  {
    core::CatchUpRequestMsg m{77, 32}, out;
    ASSERT_TRUE(core::CatchUpRequestMsg::decode(m.encode(), out));
    EXPECT_EQ(out.from_epoch, 77u);
    EXPECT_EQ(out.max_epochs, 32u);
    EXPECT_EQ(out.encode(), m.encode());
  }
  {
    core::CatchUpChunkMsg m, out;
    m.round_from = 7;
    m.at_epoch = 9;
    m.block_count = 2;
    m.block_index = 1;
    m.block_epoch = 9;
    m.proposer = 3;
    m.chunk = vid::avid_m_disperse(p, block_bytes)[0];
    ASSERT_TRUE(core::CatchUpChunkMsg::decode(m.encode(), out));
    EXPECT_EQ(out.at_epoch, 9u);
    EXPECT_EQ(out.block_count, 2u);
    EXPECT_EQ(out.chunk.encode(), m.chunk.encode());
    EXPECT_EQ(out.encode(), m.encode());
  }
  {
    core::CatchUpDoneMsg m{7, 123}, out;
    ASSERT_TRUE(core::CatchUpDoneMsg::decode(m.encode(), out));
    EXPECT_EQ(out.round_from, 7u);
    EXPECT_EQ(out.frontier, 123u);
    EXPECT_EQ(out.encode(), m.encode());
  }
}

// Client-plane wire kinds: encode → (split) frame stream → decode is the
// identity on every field, for every kind the ingress plane speaks.
TEST(CodecRoundTrip, ClientWireKindsThroughFramedTransport) {
  struct ClientSample {
    const char* name;
    Bytes frame;  // complete frame (header + payload)
    net::WireKind kind;
  };
  const Bytes payload = random_bytes(333, 5);
  std::vector<ClientSample> samples;
  samples.push_back({"ClientHello", net::encode_client_hello(0xFEEDFACE12345678ULL),
                     net::WireKind::ClientHello});
  samples.push_back({"SubmitTx", net::encode_submit_tx(77, payload),
                     net::WireKind::SubmitTx});
  samples.push_back({"SubmitTx-empty", net::encode_submit_tx(1, {}),
                     net::WireKind::SubmitTx});
  samples.push_back({"TxAck", net::encode_tx_ack(99, net::TxStatus::Duplicate),
                     net::WireKind::TxAck});
  net::StageLatencies stages;
  stages.ingress_us = 11;
  stages.disperse_us = 22;
  stages.ba_us = 33;
  stages.retrieve_us = 44;
  stages.notify_us = 55;
  samples.push_back(
      {"TxCommitted",
       net::encode_tx_committed(12345, 678, 3, 250'000, stages),
       net::WireKind::TxCommitted});
  samples.push_back({"Goodbye", net::encode_goodbye(), net::WireKind::Goodbye});

  // Concatenate and feed in awkward splits; every frame must reappear in
  // order with every field intact.
  Bytes stream;
  for (const auto& s : samples) append(stream, s.frame);
  net::FrameReader reader;
  std::uint64_t chunk_seed = 7;
  std::size_t pos = 0;
  std::size_t next_sample = 0;
  Bytes fr;
  while (pos < stream.size()) {
    chunk_seed = chunk_seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t step = 1 + static_cast<std::size_t>(chunk_seed % 13);
    const std::size_t len = std::min(step, stream.size() - pos);
    ASSERT_TRUE(reader.feed(ByteView(stream.data() + pos, len)));
    pos += len;
    while (reader.next(fr)) {
      ASSERT_LT(next_sample, samples.size());
      SCOPED_TRACE(samples[next_sample].name);
      net::WireFrame wf;
      ASSERT_TRUE(net::decode_wire(fr, wf));
      EXPECT_EQ(wf.kind, samples[next_sample].kind);
      ++next_sample;
    }
  }
  EXPECT_EQ(next_sample, samples.size());

  // Field-exact checks per kind.
  net::WireFrame wf;
  ASSERT_TRUE(net::decode_wire(
      ByteView(samples[0].frame).subspan(net::kFrameHeaderBytes), wf));
  EXPECT_EQ(wf.client_nonce, 0xFEEDFACE12345678ULL);
  ASSERT_TRUE(net::decode_wire(
      ByteView(samples[1].frame).subspan(net::kFrameHeaderBytes), wf));
  EXPECT_EQ(wf.client_seq, 77u);
  ASSERT_TRUE(equal(wf.data, payload));
  ASSERT_TRUE(net::decode_wire(
      ByteView(samples[2].frame).subspan(net::kFrameHeaderBytes), wf));
  EXPECT_EQ(wf.client_seq, 1u);
  EXPECT_TRUE(wf.data.empty());
  ASSERT_TRUE(net::decode_wire(
      ByteView(samples[3].frame).subspan(net::kFrameHeaderBytes), wf));
  EXPECT_EQ(wf.client_seq, 99u);
  EXPECT_EQ(wf.status, net::TxStatus::Duplicate);
  ASSERT_TRUE(net::decode_wire(
      ByteView(samples[4].frame).subspan(net::kFrameHeaderBytes), wf));
  EXPECT_EQ(wf.client_seq, 12345u);
  EXPECT_EQ(wf.epoch, 678u);
  EXPECT_EQ(wf.proposer, 3u);
  EXPECT_EQ(wf.latency_us, 250'000u);
  EXPECT_EQ(wf.stages.ingress_us, 11u);
  EXPECT_EQ(wf.stages.disperse_us, 22u);
  EXPECT_EQ(wf.stages.ba_us, 33u);
  EXPECT_EQ(wf.stages.retrieve_us, 44u);
  EXPECT_EQ(wf.stages.notify_us, 55u);
}

// Malformed client frames must decode to failure, not garbage: bad magic,
// wrong fixed sizes, out-of-range ack status.
TEST(CodecRoundTrip, MalformedClientFramesRejected) {
  net::WireFrame wf;
  // ClientHello with corrupted magic.
  Bytes hello = net::encode_client_hello(42);
  hello[net::kFrameHeaderBytes + 1] ^= 0xFF;
  EXPECT_FALSE(net::decode_wire(
      ByteView(hello).subspan(net::kFrameHeaderBytes), wf));
  // Truncated SubmitTx (seq cut short).
  const Bytes submit = net::encode_submit_tx(7, random_bytes(10, 1));
  EXPECT_FALSE(net::decode_wire(
      ByteView(submit).subspan(net::kFrameHeaderBytes, 5), wf));
  // TxAck with an undefined status byte.
  Bytes ack = net::encode_tx_ack(7, net::TxStatus::Accepted);
  ack.back() = net::kMaxTxStatus + 1;
  EXPECT_FALSE(net::decode_wire(
      ByteView(ack).subspan(net::kFrameHeaderBytes), wf));
  // TxCommitted with a trailing extra byte (fixed-length kind).
  Bytes committed = net::encode_tx_committed(1, 2, 3, 4);
  committed.push_back(0);
  EXPECT_FALSE(net::decode_wire(
      ByteView(committed).subspan(net::kFrameHeaderBytes), wf));
  // Goodbye with a body.
  Bytes goodbye = net::encode_goodbye();
  goodbye.push_back(0);
  EXPECT_FALSE(net::decode_wire(
      ByteView(goodbye).subspan(net::kFrameHeaderBytes), wf));
}

// A whole conversation's worth of frames through one reader preserves
// ordering and content.
TEST(CodecRoundTrip, BackToBackFramesKeepOrder) {
  const auto samples = all_samples();
  Bytes stream;
  for (const Sample& s : samples) {
    Envelope env;
    env.kind = s.kind;
    env.epoch = 1;
    env.instance = 0;
    env.body = s.body;
    append(stream, net::encode_data_frame(env.encode()));
  }
  net::FrameReader reader;
  ASSERT_TRUE(reader.feed(stream));
  for (const Sample& s : samples) {
    SCOPED_TRACE(s.name);
    Bytes payload;
    ASSERT_TRUE(reader.next(payload));
    net::WireFrame wf;
    ASSERT_TRUE(net::decode_wire(payload, wf));
    const auto decoded = EnvelopeView::decode(wf.data);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, s.kind);
    EXPECT_TRUE(equal(decoded->body, s.body));
  }
  Bytes leftover;
  EXPECT_FALSE(reader.next(leftover));
}

}  // namespace
}  // namespace dl
