// AVID-M protocol properties (§3.1 of the paper): Termination, Agreement,
// Availability, Correctness — under random delivery schedules, crash faults,
// and Byzantine (equivocating / inconsistently-encoding) dispersers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "automaton_harness.hpp"
#include "common/rng.hpp"
#include "erasure/reed_solomon.hpp"
#include "merkle/merkle_tree.hpp"
#include "vid/avid_m.hpp"

// Counts the block-sized heap allocations of this test binary, so a test
// can bound what one retrieval allocates.
namespace {
std::size_t g_big_alloc_threshold = 0;  // 0: not counting
std::size_t g_big_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_big_alloc_threshold != 0 && n >= g_big_alloc_threshold) ++g_big_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined, so the compiler never pairs this free() with the new above.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dl::vid {
namespace {

using test::Router;

// A cluster of AVID-M servers plus per-node retrievers, wired to a Router.
struct Cluster {
  Params p;
  std::vector<AvidMServer> servers;
  std::vector<AvidMRetriever> retrievers;
  Router router;

  Cluster(int n, int f, std::uint64_t seed) : p{n, f}, router(n, seed) {
    for (int i = 0; i < n; ++i) {
      servers.emplace_back(p, i);
      retrievers.emplace_back(p, i);
    }
    router.set_handler([this](int from, int to, const Envelope& env) {
      Outbox out;
      if (env.kind == MsgKind::VidReturnChunk) {
        ChunkView m;
        if (ChunkView::decode(env.body, m)) {
          retrievers[static_cast<std::size_t>(to)].handle_return_chunk(from, m);
        }
        return;
      }
      servers[static_cast<std::size_t>(to)].handle(from, env.kind, env.body, out);
      router.push(to, out);
    });
  }

  // Client-side dispersal from node `who`.
  void disperse(int who, ByteView block) {
    auto chunks = avid_m_disperse(p, block);
    Outbox out;
    for (int i = 0; i < p.n; ++i) {
      OutMsg m;
      m.to = i;
      m.env.kind = MsgKind::VidChunk;
      m.env.body = chunks[static_cast<std::size_t>(i)].encode();
      out.push_back(std::move(m));
    }
    router.push(who, out);
  }

  void retrieve(int who) {
    Outbox out;
    retrievers[static_cast<std::size_t>(who)].begin(out);
    router.push(who, out);
  }

  int complete_count() const {
    int c = 0;
    for (const auto& s : servers) c += s.complete() ? 1 : 0;
    return c;
  }
};

struct AvidMParam {
  int n;
  int f;
  std::uint64_t seed;
};

class AvidMP : public ::testing::TestWithParam<AvidMParam> {};

TEST_P(AvidMP, TerminationAllCorrect) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  c.disperse(0, random_bytes(5000, seed));
  c.router.run();
  EXPECT_EQ(c.complete_count(), n);
}

TEST_P(AvidMP, TerminationWithCrashFaults) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  for (int i = 0; i < f; ++i) c.router.mute(n - 1 - i);  // f silent servers
  c.disperse(0, random_bytes(3000, seed));
  c.router.run();
  // All non-muted correct servers complete.
  for (int i = 0; i < n - f; ++i) {
    EXPECT_TRUE(c.servers[static_cast<std::size_t>(i)].complete()) << i;
  }
}

TEST_P(AvidMP, AvailabilityAndCorrectness) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  const Bytes block = random_bytes(7777, seed + 1);
  c.disperse(0, block);
  c.router.run();
  ASSERT_EQ(c.complete_count(), n);
  for (int i = 0; i < n; ++i) c.retrieve(i);
  c.router.run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(c.retrievers[static_cast<std::size_t>(i)].done()) << i;
    EXPECT_FALSE(c.retrievers[static_cast<std::size_t>(i)].bad_uploader());
    EXPECT_EQ(c.retrievers[static_cast<std::size_t>(i)].result(), block) << i;
  }
}

TEST_P(AvidMP, RetrievalWithFCrashedServers) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  const Bytes block = random_bytes(2500, seed + 2);
  c.disperse(0, block);
  c.router.run();
  // Crash f servers AFTER dispersal; retrieval must still work.
  for (int i = 0; i < f; ++i) c.router.mute(i);
  c.retrieve(n - 1);
  c.router.run();
  ASSERT_TRUE(c.retrievers[static_cast<std::size_t>(n - 1)].done());
  EXPECT_EQ(c.retrievers[static_cast<std::size_t>(n - 1)].result(), block);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AvidMP,
    ::testing::Values(AvidMParam{4, 1, 1}, AvidMParam{4, 1, 2},
                      AvidMParam{7, 2, 3}, AvidMParam{10, 3, 4},
                      AvidMParam{16, 5, 5}, AvidMParam{16, 5, 6},
                      AvidMParam{31, 10, 7}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "f" +
             std::to_string(info.param.f) + "s" + std::to_string(info.param.seed);
    });

// --- Byzantine disperser scenarios -----------------------------------------

// Builds chunk messages where the chunks are NOT a consistent Reed-Solomon
// codeword (each "chunk" is arbitrary), yet all carry valid Merkle proofs.
std::vector<ChunkMsg> inconsistent_disperse(const Params& p, std::uint64_t seed) {
  std::vector<Bytes> garbage;
  for (int i = 0; i < p.n; ++i) {
    garbage.push_back(random_bytes(128, seed + static_cast<std::uint64_t>(i)));
  }
  const MerkleTree tree(garbage);
  std::vector<ChunkMsg> out;
  for (int i = 0; i < p.n; ++i) {
    out.push_back(ChunkMsg{tree.root(), garbage[static_cast<std::size_t>(i)],
                           tree.prove(static_cast<std::uint32_t>(i))});
  }
  return out;
}

TEST(AvidMByzantine, InconsistentEncodingYieldsBadUploaderEverywhere) {
  // Correctness under a malicious disperser: every correct client must
  // retrieve the SAME result — the BAD_UPLOADER sentinel.
  const Params p{7, 2};
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Cluster c(p.n, p.f, seed);
    auto msgs = inconsistent_disperse(p, seed);
    for (int i = 0; i < p.n; ++i) {
      Envelope env;
      env.kind = MsgKind::VidChunk;
      env.body = msgs[static_cast<std::size_t>(i)].encode();
      c.router.inject(/*from=*/0, /*to=*/i, std::move(env));
    }
    c.router.run();
    EXPECT_EQ(c.complete_count(), p.n);  // dispersal completes regardless
    for (int i = 0; i < p.n; ++i) c.retrieve(i);
    c.router.run();
    for (int i = 0; i < p.n; ++i) {
      ASSERT_TRUE(c.retrievers[static_cast<std::size_t>(i)].done());
      EXPECT_TRUE(c.retrievers[static_cast<std::size_t>(i)].bad_uploader());
      EXPECT_EQ(to_string(c.retrievers[static_cast<std::size_t>(i)].result()),
                kBadUploader);
    }
  }
}

TEST(AvidMByzantine, EquivocatingRootsCannotBothComplete) {
  // Disperser sends chunks of block A to half the servers and block B to
  // the rest. At most one root can gather N-f GotChunks, so the instance
  // either completes on one root or not at all — never on two.
  const Params p{10, 3};
  Cluster c(p.n, p.f, 42);
  const auto a = avid_m_disperse(p, random_bytes(1000, 1));
  const auto b = avid_m_disperse(p, random_bytes(1000, 2));
  for (int i = 0; i < p.n; ++i) {
    Envelope env;
    env.kind = MsgKind::VidChunk;
    env.body = (i % 2 == 0 ? a : b)[static_cast<std::size_t>(i)].encode();
    c.router.inject(0, i, std::move(env));
  }
  c.router.run();
  std::set<std::string> roots;
  for (const auto& s : c.servers) {
    if (s.complete()) roots.insert(s.chunk_root().hex());
  }
  EXPECT_LE(roots.size(), 1u);
}

TEST(AvidMByzantine, AgreementOnRootAcrossServers) {
  const Params p{7, 2};
  Cluster c(p.n, p.f, 9);
  c.disperse(0, random_bytes(500, 3));
  c.router.run();
  ASSERT_EQ(c.complete_count(), p.n);
  for (int i = 1; i < p.n; ++i) {
    EXPECT_EQ(c.servers[static_cast<std::size_t>(i)].chunk_root(),
              c.servers[0].chunk_root());
  }
}

TEST(AvidMByzantine, ForgedGotChunkCannotForceCompletion) {
  // f Byzantine servers spam GotChunk/Ready for a root nobody dispersed;
  // correct servers must not complete.
  const Params p{4, 1};
  Cluster c(p.n, p.f, 11);
  const Hash fake = sha256(bytes_of("nonexistent"));
  for (int rep = 0; rep < 3; ++rep) {  // duplicates must be ignored too
    Envelope got;
    got.kind = MsgKind::VidGotChunk;
    got.body = RootMsg{fake}.encode();
    Envelope ready;
    ready.kind = MsgKind::VidReady;
    ready.body = RootMsg{fake}.encode();
    for (int to = 0; to < p.n; ++to) {
      c.router.inject(3, to, got);     // node 3 is Byzantine
      c.router.inject(3, to, ready);
    }
  }
  c.router.run();
  EXPECT_EQ(c.complete_count(), 0);
}

TEST(AvidMByzantine, WrongIndexChunkRejected) {
  // A chunk with a valid proof for position j must be rejected by server i.
  const Params p{4, 1};
  AvidMServer server(p, /*self=*/2);
  const auto msgs = avid_m_disperse(p, random_bytes(100, 4));
  Outbox out;
  server.handle_chunk(msgs[1], out);  // proof is for index 1, server is 2
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(server.has_chunk());
  server.handle_chunk(msgs[2], out);
  EXPECT_TRUE(server.has_chunk());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].env.kind, MsgKind::VidGotChunk);
}

TEST(AvidMByzantine, MalformedBodiesIgnored) {
  const Params p{4, 1};
  AvidMServer server(p, 0);
  Outbox out;
  EXPECT_FALSE(server.handle(1, MsgKind::VidChunk, bytes_of("garbage"), out));
  EXPECT_FALSE(server.handle(1, MsgKind::VidReady, bytes_of("x"), out));
  EXPECT_FALSE(server.handle(1, MsgKind::BaBval, {}, out));  // wrong kind
  EXPECT_TRUE(out.empty());
}

TEST(AvidM, RequestBeforeCompleteIsDeferred) {
  const Params p{4, 1};
  Cluster c(p.n, p.f, 13);
  // Retrieve FIRST, then disperse: requests must be parked and answered
  // after completion (Fig. 4 "defer responding").
  const Bytes block = random_bytes(900, 5);
  c.retrieve(3);
  c.router.run();
  EXPECT_FALSE(c.retrievers[3].done());
  c.disperse(0, block);
  c.router.run();
  ASSERT_TRUE(c.retrievers[3].done());
  EXPECT_EQ(c.retrievers[3].result(), block);
}

// --- chunk release ------------------------------------------------------

// Server 1 of an n=4 instance dispersed by node 0, holding its chunk of
// `block` and complete on that block's root.
struct ReleaseFixture {
  Params p{4, 1};
  std::vector<ChunkMsg> chunks = avid_m_disperse(p, random_bytes(3000, 7));
  AvidMServer server{p, /*self=*/1, /*proposer=*/0};

  ReleaseFixture() {
    Outbox out;
    server.handle_chunk(chunks[1], out);
    complete_on(chunks[0].root);
  }
  void complete_on(const Hash& root) {
    Outbox out;
    for (int from : {0, 2, 3}) server.handle_ready(from, RootMsg{root}, out);
  }
  Outbox request(int from) {
    Outbox out;
    server.handle_request_chunk(from, out);
    return out;
  }
};

TEST(AvidMRelease, ReleasesOnlyAfterEveryNonProposerRequested) {
  ReleaseFixture fx;
  ASSERT_TRUE(fx.server.complete());
  const std::size_t held = fx.chunks[1].chunk.size();
  EXPECT_EQ(fx.server.retained_bytes(), held);
  for (int from : {1, 2}) {
    EXPECT_EQ(fx.request(from).size(), 1u);
    EXPECT_FALSE(fx.server.released()) << "after request from " << from;
    EXPECT_EQ(fx.server.retained_bytes(), held);
  }
  EXPECT_EQ(fx.request(3).size(), 1u);
  EXPECT_TRUE(fx.server.released());
  EXPECT_FALSE(fx.server.has_chunk());
  EXPECT_EQ(fx.server.retained_bytes(), 0u);
}

TEST(AvidMRelease, LastRequesterStillGetsAValidChunk) {
  ReleaseFixture fx;
  fx.request(1);
  fx.request(2);
  const Outbox out = fx.request(3);  // the request that triggers release
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 3);
  EXPECT_EQ(out[0].env.kind, MsgKind::VidReturnChunk);
  ChunkView m;
  ASSERT_TRUE(ChunkView::decode(out[0].env.body, m));
  EXPECT_EQ(m.root, fx.chunks[0].root);
  EXPECT_EQ(Bytes(m.chunk.begin(), m.chunk.end()), fx.chunks[1].chunk);
  EXPECT_TRUE(merkle_verify(m.root, m.chunk, m.proof));
  EXPECT_TRUE(fx.server.released());
}

TEST(AvidMRelease, ReleasedServerSendsNothing) {
  ReleaseFixture fx;
  for (int from : {1, 2, 3}) fx.request(from);
  ASSERT_TRUE(fx.server.released());
  // The proposer never fetches its own block; after release even it gets
  // no reply (and no reply with an empty chunk).
  EXPECT_TRUE(fx.request(0).empty());
  for (int from : {1, 2, 3}) EXPECT_TRUE(fx.request(from).empty());
  // Dispersal traffic is inert too: a re-sent chunk is not stored again.
  Outbox out;
  fx.server.handle_chunk(fx.chunks[1], out);
  fx.server.handle_got_chunk(0, RootMsg{fx.chunks[0].root}, out);
  fx.server.handle_ready(1, RootMsg{fx.chunks[0].root}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(fx.server.has_chunk());
  EXPECT_EQ(fx.server.retained_bytes(), 0u);
}

TEST(AvidMRelease, ServerOnAnotherRootAlsoReleases) {
  // The instance completed on a root other than this server's chunk (an
  // equivocating disperser): the chunk can never be served, so once every
  // non-proposer has asked it is dropped all the same.
  const Params p{4, 1};
  const auto mine = avid_m_disperse(p, random_bytes(1000, 8));
  const auto agreed = avid_m_disperse(p, random_bytes(1000, 9));
  AvidMServer server(p, /*self=*/1, /*proposer=*/0);
  Outbox out;
  server.handle_chunk(mine[1], out);
  out.clear();
  for (int from : {0, 2, 3}) server.handle_ready(from, RootMsg{agreed[0].root}, out);
  ASSERT_TRUE(server.complete());
  ASSERT_NE(server.chunk_root(), mine[1].root);
  out.clear();
  for (int from : {1, 2}) {
    server.handle_request_chunk(from, out);
    EXPECT_FALSE(server.released());
  }
  server.handle_request_chunk(3, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(server.released());
  EXPECT_EQ(server.retained_bytes(), 0u);
}

TEST(AvidMRelease, RequestsBeforeTheChunkArrivesCountOnceServed) {
  // Requests parked while the server lacks its chunk are answered when the
  // chunk lands, and only then is the chunk released.
  ReleaseFixture fx;
  AvidMServer late(fx.p, /*self=*/1, /*proposer=*/0);
  Outbox out;
  for (int from : {0, 2, 3}) late.handle_ready(from, RootMsg{fx.chunks[0].root}, out);
  ASSERT_TRUE(late.complete());
  out.clear();  // our own Ready
  for (int from : {1, 2, 3}) late.handle_request_chunk(from, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(late.released());
  late.handle_chunk(fx.chunks[1], out);
  int served = 0;
  for (const OutMsg& m : out) served += m.env.kind == MsgKind::VidReturnChunk;
  EXPECT_EQ(served, 3);
  EXPECT_TRUE(late.released());
}

TEST(AvidM, DisperseChunkCount) {
  const Params p{16, 5};
  const auto msgs = avid_m_disperse(p, random_bytes(10000, 6));
  ASSERT_EQ(msgs.size(), 16u);
  // All chunks share one root and verify at their index.
  for (int i = 0; i < p.n; ++i) {
    EXPECT_EQ(msgs[static_cast<std::size_t>(i)].root, msgs[0].root);
    EXPECT_TRUE(merkle_verify(msgs[0].root, msgs[static_cast<std::size_t>(i)].chunk,
                              msgs[static_cast<std::size_t>(i)].proof));
  }
  // Chunk size ~ |B| / (N-2f) + header.
  EXPECT_EQ(msgs[0].chunk.size(), (10000u + 4 + 5) / 6);
}

// --- retrieval work --------------------------------------------------------

// Chunk messages for `block`, with chunk `bad` (if >= 0) altered and the
// Merkle tree rebuilt over the altered set: every chunk verifies, but the
// set is not a Reed-Solomon codeword.
std::vector<ChunkMsg> disperse_with_bad_chunk(const Params& p, ByteView block,
                                              int bad) {
  const ReedSolomon rs(p.data_shards(), p.n);
  std::vector<Bytes> chunks = rs.encode(block);
  if (bad >= 0) chunks[static_cast<std::size_t>(bad)][7] ^= 0x5A;
  const MerkleTree tree(chunks);
  std::vector<ChunkMsg> out;
  for (int i = 0; i < p.n; ++i) {
    out.push_back(ChunkMsg{tree.root(), chunks[static_cast<std::size_t>(i)],
                           tree.prove(static_cast<std::uint32_t>(i))});
  }
  return out;
}

// Feeds the chunks at `indices` to a fresh retriever and returns it.
AvidMRetriever retrieve_from(const Params& p, const std::vector<ChunkMsg>& msgs,
                             const std::vector<int>& indices) {
  AvidMRetriever r(p, 0);
  for (const int i : indices) {
    r.handle_return_chunk(i, msgs[static_cast<std::size_t>(i)]);
  }
  return r;
}

// SHA-256 compressions of a tagged hash over `n` bytes.
std::uint64_t tagged_compressions(std::size_t n) { return (n + 1 + 9 + 63) / 64; }

TEST(AvidMDecode, HashesOnlyTheRecreatedLeaves) {
  const Params p{7, 2};  // K = 3
  const Bytes block = random_bytes(90'000, 31);
  const auto msgs = avid_m_disperse(p, block);
  const std::size_t chunk = msgs[0].chunk.size();

  std::uint64_t before = sha256_compressions();
  (void)MerkleTree::from_leaf_hashes(std::vector<Hash>(7));
  const std::uint64_t inner = sha256_compressions() - before;

  // Data and parity chunks received, in either order.
  for (const std::vector<int>& got :
       {std::vector<int>{0, 1, 2}, {1, 4, 6}, {6, 5, 3}}) {
    // What accepting the received chunks costs: a leaf hash and a proof
    // check each. The retrieval spends this before it decodes.
    std::uint64_t accepting = 0;
    for (const int i : got) {
      const ChunkMsg& m = msgs[static_cast<std::size_t>(i)];
      before = sha256_compressions();
      ASSERT_TRUE(merkle_verify_hash(m.root, merkle_leaf_hash(m.chunk), m.proof));
      accepting += sha256_compressions() - before;
    }
    AvidMRetriever r(p, 0);
    before = sha256_compressions();
    for (std::size_t j = 0; j + 1 < got.size(); ++j) {
      ASSERT_FALSE(r.handle_return_chunk(got[j], msgs[static_cast<std::size_t>(got[j])]));
    }
    ASSERT_TRUE(r.handle_return_chunk(got.back(), msgs[static_cast<std::size_t>(got.back())]));
    const std::uint64_t used = sha256_compressions() - before - accepting;
    ASSERT_FALSE(r.bad_uploader());
    EXPECT_EQ(r.result(), block);
    // The N-K re-created leaves and the inner nodes; the K received leaves
    // were hashed once, when their proofs were checked.
    EXPECT_EQ(used, 4 * tagged_compressions(chunk) + inner);
  }
}

TEST(AvidMDecode, NonCodewordIsBadUploaderWhereverTheBadChunkSits) {
  const Params p{7, 2};
  const Bytes block = random_bytes(20'000, 32);
  const std::vector<std::vector<int>> subsets = {
      {0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {0, 3, 6}, {1, 5, 6}};
  for (const auto& got : subsets) {
    const AvidMRetriever good =
        retrieve_from(p, disperse_with_bad_chunk(p, block, -1), got);
    ASSERT_TRUE(good.done());
    EXPECT_FALSE(good.bad_uploader());
    for (int bad = 0; bad < p.n; ++bad) {
      // `bad` is received (decode reads it) or re-created (decode never
      // sees it); either way the re-encoded root differs.
      const AvidMRetriever r =
          retrieve_from(p, disperse_with_bad_chunk(p, block, bad), got);
      ASSERT_TRUE(r.done());
      EXPECT_TRUE(r.bad_uploader()) << "bad chunk " << bad;
      EXPECT_EQ(to_string(r.result()), kBadUploader);
    }
  }
}

// The retriever hashes the chunks it received only once, so it must still
// reject a received chunk set that decodes but does not re-encode to
// itself. Here the disperser codes a padded block whose padding byte is
// not zero, and sends those chunks at indices 1 and 2 but the correctly
// padded block's chunks at 0 and 3. Decoding {1, 2} gives the block, and
// re-creating 0 and 3 matches the root; only the padding check catches
// it. Every subset must give the same verdict.
TEST(AvidMDecode, EverySubsetRejectsChunksWithNonZeroPadding) {
  const Params p{4, 1};  // K = 2
  const ReedSolomon rs(p.data_shards(), p.n);
  const Bytes block = random_bytes(1001, 34);  // 1005 padded bytes: 1 of padding
  const std::size_t stripe = rs.chunk_size(block.size());
  Bytes padded(2 * stripe, 0);
  for (int i = 0; i < 4; ++i) {
    padded[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(block.size() >> (8 * i));
  }
  std::copy(block.begin(), block.end(), padded.begin() + 4);
  padded.back() = 0x01;
  const std::vector<Bytes> odd = rs.encode_shards(
      {Bytes(padded.begin(), padded.begin() + static_cast<std::ptrdiff_t>(stripe)),
       Bytes(padded.begin() + static_cast<std::ptrdiff_t>(stripe), padded.end())});
  std::vector<Bytes> chunks = rs.encode(block);
  chunks[1] = odd[1];
  chunks[2] = odd[2];
  const MerkleTree tree(chunks);
  std::vector<ChunkMsg> msgs;
  for (int i = 0; i < p.n; ++i) {
    msgs.push_back(ChunkMsg{tree.root(), chunks[static_cast<std::size_t>(i)],
                            tree.prove(static_cast<std::uint32_t>(i))});
  }
  for (int a = 0; a < p.n; ++a) {
    for (int b = a + 1; b < p.n; ++b) {
      const AvidMRetriever r = retrieve_from(p, msgs, {a, b});
      ASSERT_TRUE(r.done());
      EXPECT_TRUE(r.bad_uploader()) << "chunks " << a << " and " << b;
    }
  }
}

TEST(AvidMDecode, RetrievingAMegabyteBlockMakesFewBlockSizedAllocations) {
  const Params p{4, 1};  // K = 2
  const Bytes block = random_bytes(1 << 20, 33);
  const std::vector<Bytes> bodies = avid_m_disperse_bodies(p, block);
  std::vector<ChunkView> views(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ASSERT_TRUE(ChunkView::decode(bodies[i], views[i]));
  }
  // Half a chunk: no smaller buffer grows with the block.
  g_big_alloc_threshold = views[0].chunk.size() / 2;
  g_big_allocs = 0;
  AvidMRetriever r(p, 0);
  r.handle_return_chunk(3, views[3]);  // parity
  r.handle_return_chunk(0, views[0]);  // data
  const std::size_t allocs = g_big_allocs;
  g_big_alloc_threshold = 0;
  ASSERT_TRUE(r.done());
  ASSERT_FALSE(r.bad_uploader());
  EXPECT_EQ(r.result(), block);
  // One copy of each accepted chunk and the decoded block; the decode
  // itself and the re-encode check allocate nothing block-sized.
  EXPECT_LE(allocs, 3u);
}

TEST(AvidM, EmptyBlockDispersal) {
  const Params p{4, 1};
  Cluster c(p.n, p.f, 21);
  c.disperse(0, {});
  c.router.run();
  EXPECT_EQ(c.complete_count(), p.n);
  c.retrieve(1);
  c.router.run();
  ASSERT_TRUE(c.retrievers[1].done());
  EXPECT_TRUE(c.retrievers[1].result().empty());
  EXPECT_FALSE(c.retrievers[1].bad_uploader());
}

}  // namespace
}  // namespace dl::vid
