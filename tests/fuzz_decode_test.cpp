// Decoder robustness: every wire decoder in the library must be total —
// random bytes, bit-flipped valid messages, and truncations must never
// crash, hang, or allocate absurdly; they either parse or return failure.
// (Byzantine peers control every one of these inputs.)
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "app/kv_state_machine.hpp"
#include "ba/binary_agreement.hpp"
#include "common/envelope.hpp"
#include "common/rng.hpp"
#include "crypto/fingerprint.hpp"
#include "dl/block.hpp"
#include "dl/catchup.hpp"
#include "merkle/merkle_tree.hpp"
#include "net/cluster_config.hpp"
#include "net/frame.hpp"
#include "storage/ledger_store.hpp"
#include "vid/avid_fp.hpp"
#include "vid/avid_m.hpp"

namespace dl {
namespace {

// Feeds `input` to every decoder; success criterion is simply "no crash".
void feed_all(ByteView input) {
  { auto v = EnvelopeView::decode(input); (void)v; }
  { vid::ChunkView m; (void)vid::ChunkView::decode(input, m); }
  { vid::RootMsg m; (void)vid::RootMsg::decode(input, m); }
  { vid::FpChunkMsg m; (void)vid::FpChunkMsg::decode(input, m); }
  { vid::FpChecksumMsg m; (void)vid::FpChecksumMsg::decode(input, m); }
  { MerkleProof p; (void)MerkleProof::decode(input, p); }
  { CrossChecksum c; (void)CrossChecksum::decode(input, c); }
  { ba::BaRoundMsg m; (void)ba::BaRoundMsg::decode(input, m); }
  { ba::BaDoneMsg m; (void)ba::BaDoneMsg::decode(input, m); }
  { auto b = core::BlockView::decode(input, 16); (void)b; }
  {
    const Bytes copy(input.begin(), input.end());
    auto v = core::BlockView::delivered_v_array(&copy, 16);
    (void)v;
  }
  { auto c = app::Command::decode(input); (void)c; }
  { net::WireFrame wf; (void)net::decode_wire(input, wf); }
  { core::CatchUpRequestMsg m; (void)core::CatchUpRequestMsg::decode(input, m); }
  { core::CatchUpChunkMsg m; (void)core::CatchUpChunkMsg::decode(input, m); }
  { core::CatchUpDoneMsg m; (void)core::CatchUpDoneMsg::decode(input, m); }
}

// Pushes `input` through the TCP transport path as a raw stream: deframe,
// wire-decode, envelope-decode. Must never crash or buffer unboundedly.
void feed_framed_stream(ByteView input, Rng& rng) {
  net::FrameReader reader(/*max_frame=*/1 << 16);
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::size_t step =
        1 + static_cast<std::size_t>(rng.next_below(1 + input.size() / 4));
    const std::size_t len = std::min(step, input.size() - pos);
    if (!reader.feed(input.subspan(pos, len))) break;  // poisoned: drop conn
    Bytes frame;
    while (reader.next(frame)) {
      net::WireFrame wf;
      if (!net::decode_wire(frame, wf)) continue;
      if (wf.kind == net::WireKind::Data) {
        auto env = EnvelopeView::decode(wf.data);
        (void)env;
      }
    }
    pos += len;
  }
}

TEST(FuzzDecode, RandomBytes) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const std::size_t len = static_cast<std::size_t>(rng.next_below(512));
    feed_all(random_bytes(len, seed));
  }
}

TEST(FuzzDecode, BitFlippedValidMessages) {
  // Start from real messages of each type and flip random bits.
  const vid::Params p{7, 2};
  const Bytes block = random_bytes(777, 1);
  std::vector<Bytes> corpus;
  for (const auto& m : vid::avid_m_disperse(p, block)) corpus.push_back(m.encode());
  for (const auto& m : vid::avid_fp_disperse(p, block)) corpus.push_back(m.encode());
  {
    core::Block b;
    b.v_array.assign(16, 3);
    core::Transaction tx;
    tx.payload = bytes_of("x");
    b.txs.push_back(tx);
    corpus.push_back(b.encode());
    Envelope env;
    env.kind = MsgKind::VidChunk;
    env.body = corpus[0];
    corpus.push_back(env.encode());
    corpus.push_back(ba::BaRoundMsg{3, true}.encode());
    corpus.push_back(app::Command{app::CommandKind::Put, "k", "v", ""}.encode());
    corpus.push_back(core::CatchUpRequestMsg{12, 64}.encode());
    core::CatchUpChunkMsg cu;
    cu.round_from = 12;
    cu.at_epoch = 13;
    cu.block_count = 2;
    cu.block_index = 1;
    cu.block_epoch = 13;
    cu.proposer = 4;
    cu.chunk = vid::avid_m_disperse(p, block)[2];
    corpus.push_back(cu.encode());
    corpus.push_back(core::CatchUpDoneMsg{12, 40}.encode());
  }
  Rng rng(42);
  for (const Bytes& base : corpus) {
    for (int trial = 0; trial < 50; ++trial) {
      Bytes mutated = base;
      const int flips = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
        mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      feed_all(mutated);
    }
  }
}

TEST(FuzzDecode, AllTruncations) {
  const vid::Params p{4, 1};
  const auto msgs = vid::avid_m_disperse(p, random_bytes(100, 2));
  const Bytes full = msgs[0].encode();
  for (std::size_t len = 0; len < full.size(); ++len) {
    feed_all(ByteView(full.data(), len));
  }
}

TEST(FuzzDecode, FramedTransportRandomStreams) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    const std::size_t len = static_cast<std::size_t>(rng.next_below(2048));
    feed_framed_stream(random_bytes(len, seed ^ 0xF4A3Eu), rng);
  }
}

TEST(FuzzDecode, FramedTransportMutatedValidStreams) {
  // A realistic stream (hello + several framed envelopes), then bit flips.
  Bytes stream = net::encode_hello(2);
  const vid::Params p{4, 1};
  const auto chunks = vid::avid_m_disperse(p, random_bytes(500, 11));
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    Envelope env;
    env.kind = MsgKind::VidChunk;
    env.epoch = i;
    env.instance = 2;
    env.body = chunks[i].encode();
    append(stream, net::encode_data_frame(env.encode()));
  }
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes mutated = stream;
    const int flips = 1 + static_cast<int>(rng.next_below(16));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    feed_framed_stream(mutated, rng);
  }
  // Truncations of the pristine stream.
  for (std::size_t len = 0; len < stream.size(); len += 7) {
    Rng r2(len);
    feed_framed_stream(ByteView(stream.data(), len), r2);
  }
}

TEST(FuzzDecode, ClientFramedStreamsMutatedAndTruncated) {
  // A realistic client-plane conversation: hello, pipelined submits, acks,
  // commits, goodbye. Mutated and truncated variants must never crash and
  // must at worst poison the stream (the gateway/client drops the
  // connection on the first bad frame).
  Bytes stream = net::encode_client_hello(0xABCDEF0123456789ULL);
  for (std::uint64_t i = 0; i < 6; ++i) {
    append(stream, net::encode_submit_tx(i, random_bytes(64 + i * 17, i)));
    append(stream, net::encode_tx_ack(i, net::TxStatus::Accepted));
    append(stream, net::encode_tx_committed(i, i / 2, static_cast<std::uint32_t>(i % 4),
                                            1000 * i));
  }
  append(stream, net::encode_goodbye());

  Rng rng(29);
  for (int trial = 0; trial < 150; ++trial) {
    Bytes mutated = stream;
    const int flips = 1 + static_cast<int>(rng.next_below(16));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    feed_framed_stream(mutated, rng);
  }
  for (std::size_t len = 0; len < stream.size(); len += 5) {
    Rng r2(len);
    feed_framed_stream(ByteView(stream.data(), len), r2);
  }
}

TEST(FuzzDecode, ProtocolAutomataSurviveGarbage) {
  // Random kind/bodies into live automata.
  vid::AvidMServer server({4, 1}, 0);
  ba::BinaryAgreement ba(4, 1, 0, [](std::uint32_t) { return true; });
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Bytes body = random_bytes(static_cast<std::size_t>(rng.next_below(128)), static_cast<std::uint64_t>(i));
    const auto kind = static_cast<MsgKind>(rng.next_below(40));
    const int from = static_cast<int>(rng.next_below(4));
    Outbox out;
    server.handle(from, kind, body, out);
    ba.handle(from, kind, body, out);
  }
  // Automata remain functional after the garbage storm.
  EXPECT_FALSE(server.complete());
  Outbox out;
  ba.input(true, out);
  EXPECT_TRUE(ba.has_input());
}

// LedgerStore::open is a decoder too: segment files are attacker-ish input
// after a crash (torn writes, bit rot). Opening any mutation of a valid
// store must never crash and must recover a sane (possibly shorter) prefix.
TEST(FuzzDecode, LedgerStoreOpenSurvivesMutatedSegments) {
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/dl_fuzz_store.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const fs::path root(tmpl);
  const std::string pristine = (root / "pristine").string();

  // Build a small multi-segment store with a committed prefix and a tail.
  const std::uint64_t kEpochs = 12;
  {
    storage::StoreOptions opt;
    opt.segment_bytes = 1024;  // force several segments
    opt.fsync = storage::FsyncPolicy::kNever;
    std::string err;
    auto store = storage::LedgerStore::open(pristine, opt, &err);
    ASSERT_NE(store, nullptr) << err;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      storage::BlockRecord rec;
      rec.at_epoch = e;
      rec.block_epoch = e;
      rec.proposer = static_cast<std::uint32_t>(e % 4);
      rec.content = random_bytes(200, e);
      store->append_block(rec);
      store->append_epoch_done(e);
      store->append_activity_frontier(e + 1);
    }
    storage::BlockRecord tail;  // uncommitted tail record
    tail.at_epoch = kEpochs;
    tail.block_epoch = kEpochs;
    tail.content = random_bytes(100, 77);
    store->append_block(tail);
    store->sync();
  }

  std::vector<fs::path> segs;
  for (const auto& ent : fs::directory_iterator(pristine)) segs.push_back(ent.path());
  std::sort(segs.begin(), segs.end());
  ASSERT_GT(segs.size(), 2u);

  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const fs::path victim = root / ("mut_" + std::to_string(trial));
    fs::create_directory(victim);
    for (const auto& s : segs) fs::copy_file(s, victim / s.filename());

    // Mutate one segment: bit flips, truncation, or garbage splice.
    const fs::path target = victim / segs[rng.next_below(segs.size())].filename();
    Bytes data;
    {
      std::ifstream in(target, std::ios::binary);
      data.assign(std::istreambuf_iterator<char>(in), {});
    }
    const auto mode = rng.next_below(3);
    if (mode == 0 && !data.empty()) {
      const int flips = 1 + static_cast<int>(rng.next_below(16));
      for (int i = 0; i < flips; ++i) {
        data[rng.next_below(data.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
    } else if (mode == 1) {
      data.resize(rng.next_below(data.size() + 1));
    } else {
      const Bytes junk = random_bytes(1 + rng.next_below(64),
                                      static_cast<std::uint64_t>(trial));
      const std::size_t at = rng.next_below(data.size() + 1);
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(),
                  junk.end());
    }
    {
      std::ofstream out(target, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size()));
    }

    std::string err;
    auto store = storage::LedgerStore::open(victim.string(), {}, &err);
    ASSERT_NE(store, nullptr) << "trial " << trial << ": " << err;
    // Whatever survived must be a sane prefix, and the store must be usable.
    EXPECT_LE(store->recovered().delivered_epochs, kEpochs);
    EXPECT_LE(store->committed_blocks(), kEpochs);
    std::uint64_t replayed = 0;
    store->for_each_committed([&](const storage::BlockRecord&) {
      ++replayed;
      return true;
    });
    EXPECT_EQ(replayed, store->committed_blocks());
    storage::BlockRecord rec;
    rec.at_epoch = store->delivered_frontier();
    rec.block_epoch = rec.at_epoch;
    rec.content = random_bytes(32, 5);
    store->append_block(rec);
    store->append_epoch_done(rec.at_epoch);
    store->sync();
    EXPECT_EQ(store->delivered_frontier(), rec.at_epoch + 1);
  }
  fs::remove_all(root);
}

// [[link]] sections are operator-written WAN shaping rules: parsing must be
// total (mutated or truncated configs either parse or fail with a
// diagnostic, never crash), and the documented rejection classes —
// malformed schedules, non-positive rates, conflicting rate specs,
// out-of-range ids — must all produce errors, not misconfigured shapers.
TEST(FuzzDecode, ClusterConfigLinkSectionsMutatedAndTruncated) {
  const std::string valid =
      "[cluster]\n"
      "n = 4\n"
      "f = 1\n"
      "[[node]]\nid = 0\nhost = \"127.0.0.1\"\nport = 9000\n"
      "[[node]]\nid = 1\nhost = \"127.0.0.1\"\nport = 9001\n"
      "[[node]]\nid = 2\nhost = \"127.0.0.1\"\nport = 9002\n"
      "[[node]]\nid = 3\nhost = \"127.0.0.1\"\nport = 9003\n"
      "[[link]]\n"
      "from = 0\n"
      "to = 1\n"
      "schedule = \"250000, 125000, 62500\"\n"
      "step_ms = 500\n"
      "delay_ms = 20\n"
      "jitter_ms = 5\n"
      "loss_ppm = 1000\n"
      "[[link]]\n"
      "rate = 1000000\n"
      "burst = 65536\n"
      "seed = 7\n";
  {
    std::string err;
    auto cfg = net::ClusterConfig::parse(valid, &err);
    ASSERT_TRUE(cfg.has_value()) << err;
    ASSERT_EQ(cfg->links.size(), 2u);
    EXPECT_EQ(cfg->links[0].schedule.rates.size(), 3u);
    EXPECT_EQ(cfg->match_link(0, 1), &cfg->links[0]);
    EXPECT_EQ(cfg->match_link(2, 3), &cfg->links[1]);
  }

  // Random edits: parse() either succeeds or reports a reason.
  Rng rng(0x11BB);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = valid;
    const int edits = 1 + static_cast<int>(rng.next_below(8));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t pos = rng.next_below(text.size());
      switch (rng.next_below(3)) {
        case 0:  // overwrite with an arbitrary byte
          text[pos] = static_cast<char>(rng.next_below(256));
          break;
        case 1:  // insert a printable-ish byte
          text.insert(pos, 1, static_cast<char>(32 + rng.next_below(96)));
          break;
        default:
          text.erase(pos, 1);
          break;
      }
    }
    std::string err;
    auto cfg = net::ClusterConfig::parse(text, &err);
    if (!cfg) {
      EXPECT_FALSE(err.empty());
    }
  }

  // Every truncation point.
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    std::string err;
    auto cfg = net::ClusterConfig::parse(valid.substr(0, len), &err);
    (void)cfg;
  }

  // Targeted rejection classes: each body yields a parse error.
  const std::string preamble = valid.substr(0, valid.find("[[link]]"));
  const char* bad_links[] = {
      "schedule = \"-5\"",               // negative rate entry
      "schedule = \"0\"",                // zero rate entry
      "schedule = \"250000,,62500\"",    // empty entry
      "schedule = \"nan\"",              // non-finite
      "schedule = \"1e99\"",             // beyond the rate ceiling
      "schedule = \"\"",                 // empty list
      "rate = 0",                        // constant rate must be positive
      "rate = -1",                       // negative integer
      "from = 9\nrate = 1000",           // id out of range
      "to = 9\nrate = 1000",             // id out of range
      "from = 2\nto = 2\nrate = 1000",   // self link
      "rate = 5\nschedule = \"5\"",      // conflicting rate specs
      "rate = 5\ntrace = \"x.trace\"",   // conflicting rate specs
      "step_ms = 100",                   // step without a schedule
      "step_ms = 0\nschedule = \"5\"",   // step out of range
      "delay_ms = 999999\nrate = 5",     // delay out of range
      "loss_ppm = 1000000\nrate = 5",    // loss must stay below 100%
      "",                                // rule shapes nothing
      "rate = 5\nrate = 5",              // duplicate key
  };
  for (const char* body : bad_links) {
    const std::string text = preamble + "[[link]]\n" + body + "\n";
    std::string err;
    auto cfg = net::ClusterConfig::parse(text, &err);
    EXPECT_FALSE(cfg.has_value()) << "accepted: " << body;
    EXPECT_FALSE(err.empty()) << body;
  }

  // Unresolvable trace references fail at load()/resolve time, with the
  // offending path named.
  {
    std::string err;
    auto cfg = net::ClusterConfig::parse(
        preamble + "[[link]]\ntrace = \"no_such_file.trace\"\n", &err);
    ASSERT_TRUE(cfg.has_value()) << err;
    EXPECT_FALSE(cfg->resolve_traces("/nonexistent_dir", &err));
    EXPECT_NE(err.find("no_such_file.trace"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace dl
