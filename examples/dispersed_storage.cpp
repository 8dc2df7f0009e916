// AVID-M as a standalone primitive: verifiable dispersed storage.
//
// A client Disperses a document across 10 servers (f = 3). Any reader can
// later Retrieve it — even with 3 servers down — and a malicious uploader
// who disperses an inconsistently-encoded document is detected by every
// reader identically (BAD_UPLOADER).
//
// This is the §2.2 use case (VID as erasure-coded BFT storage) without the
// consensus layer on top.
#include <cstdio>
#include <vector>

#include "automationless_router.hpp"
#include "vid/avid_m.hpp"

using namespace dl;
using namespace dl::vid;

int main() {
  const Params p{10, 3};

  // In-process message fabric for the 10 servers.
  example::Router router(p.n);
  std::vector<AvidMServer> servers;
  for (int i = 0; i < p.n; ++i) servers.emplace_back(p, i);
  std::vector<AvidMRetriever> readers;
  for (int i = 0; i < p.n; ++i) readers.emplace_back(p, i);

  router.on_deliver = [&](int from, int to, const Envelope& env) {
    Outbox out;
    if (env.kind == MsgKind::VidReturnChunk) {
      ChunkView m;
      if (ChunkView::decode(env.body, m)) {
        readers[static_cast<std::size_t>(to)].handle_return_chunk(from, m);
      }
      return;
    }
    servers[static_cast<std::size_t>(to)].handle(from, env.kind, env.body, out);
    router.push(to, out);
  };

  // 1. Disperse a document.
  const Bytes document = bytes_of(
      "Article 7. The consortium shall settle all obligations within two "
      "business days of confirmation on the shared ledger. [...]");
  std::printf("dispersing %zu-byte document across %d servers (f=%d)...\n",
              document.size(), p.n, p.f);
  auto chunks = avid_m_disperse(p, document);
  Outbox dispersal;
  for (int i = 0; i < p.n; ++i) {
    OutMsg m;
    m.to = i;
    m.env.kind = MsgKind::VidChunk;
    m.env.body = chunks[static_cast<std::size_t>(i)].encode();
    dispersal.push_back(std::move(m));
  }
  router.push(/*from=*/0, dispersal);
  router.run();
  int complete = 0;
  for (const auto& s : servers) complete += s.complete() ? 1 : 0;
  std::printf("dispersal complete at %d/%d servers; per-server chunk = %zu bytes "
              "(%.1f%% of the document)\n",
              complete, p.n, chunks[0].chunk.size(),
              100.0 * static_cast<double>(chunks[0].chunk.size()) /
                  static_cast<double>(document.size()));

  // 2. Three servers go down; a reader still reconstructs the document.
  router.mute(7);
  router.mute(8);
  router.mute(9);
  Outbox req;
  readers[1].begin(req);
  router.push(1, req);
  router.run();
  std::printf("reader at server 1 (with servers 7-9 down): %s\n",
              readers[1].done() && equal(readers[1].result(), document)
                  ? "document reconstructed, byte-identical"
                  : "FAILED");

  // 3. A malicious uploader disperses inconsistent chunks into a second
  //    instance: the reader detects it.
  std::vector<AvidMServer> servers2;
  std::vector<AvidMRetriever> readers2;
  for (int i = 0; i < p.n; ++i) {
    servers2.emplace_back(p, i);
    readers2.emplace_back(p, i);
  }
  example::Router router2(p.n);
  router2.on_deliver = [&](int from, int to, const Envelope& env) {
    Outbox out;
    if (env.kind == MsgKind::VidReturnChunk) {
      ChunkView m;
      if (ChunkView::decode(env.body, m)) {
        readers2[static_cast<std::size_t>(to)].handle_return_chunk(from, m);
      }
      return;
    }
    servers2[static_cast<std::size_t>(to)].handle(from, env.kind, env.body, out);
    router2.push(to, out);
  };
  // Garbage chunks under a perfectly valid Merkle tree.
  std::vector<Bytes> garbage;
  for (int i = 0; i < p.n; ++i) garbage.push_back(random_bytes(64, static_cast<std::uint64_t>(i)));
  const MerkleTree tree(garbage);
  Outbox evil;
  for (int i = 0; i < p.n; ++i) {
    OutMsg m;
    m.to = i;
    m.env.kind = MsgKind::VidChunk;
    m.env.body = ChunkMsg{tree.root(), garbage[static_cast<std::size_t>(i)],
                          tree.prove(static_cast<std::uint32_t>(i))}
                     .encode();
    evil.push_back(std::move(m));
  }
  router2.push(0, evil);
  router2.run();
  Outbox req2;
  readers2[4].begin(req2);
  router2.push(4, req2);
  router2.run();
  std::printf("malicious uploader detected: reader got \"%s\"\n",
              to_string(readers2[4].result()).c_str());
  return 0;
}
