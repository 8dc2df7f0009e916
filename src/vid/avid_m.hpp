// AVID-M — the paper's contribution (§3): asynchronous verifiable
// information dispersal with Merkle-tree commitments.
//
// Three roles, all pure automata (no I/O): they consume decoded messages and
// append outgoing messages to an Outbox, so the same code runs under unit
// tests and the network simulator.
//
//   avid_m_disperse()  — client side of Disperse(B): encode, build the
//                        Merkle tree, emit one Chunk message per server.
//   AvidMServer        — server side (Fig. 3) plus the Retrieve handler
//                        (Fig. 4 bottom): counts GotChunk/Ready, Completes,
//                        stores its chunk, and serves ReturnChunk (deferring
//                        while incomplete, as the paper requires). Once
//                        every node that may fetch the chunk has asked, it
//                        releases the chunk and turns inert.
//   AvidMRetriever     — client side of Retrieve (Fig. 4 top): collects
//                        ReturnChunks, decodes from any N−2f chunks with the
//                        same root, then RE-ENCODES and checks the root —
//                        the key AVID-M idea (encoding verified at retrieval,
//                        not dispersal). On mismatch returns BAD_UPLOADER.
//
// The caller assigns epoch/instance ids when wrapping bodies in Envelopes.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/envelope.hpp"
#include "erasure/reed_solomon.hpp"
#include "vid/messages.hpp"

namespace dl::vid {

// The fixed error string returned when the disperser equivocated (§3.3).
inline constexpr std::string_view kBadUploader = "BAD_UPLOADER";

struct Params {
  int n = 0;
  int f = 0;
  int data_shards() const { return n - 2 * f; }
};

// Client-side Disperse(B): produces the per-server Chunk bodies
// (index i of the result goes to server i).
std::vector<ChunkMsg> avid_m_disperse(const Params& p, ByteView block);

class AvidMServer {
 public:
  // `proposer` is the instance's disperser. It holds the block itself and
  // never fetches it, so the chunk is released once every OTHER node has
  // requested it. -1 (no known proposer) waits for all N requests.
  AvidMServer(Params p, int self, int proposer = -1);

  // Dispersal handlers (Fig. 3). `out` receives broadcasts/sends whose
  // envelope the caller completes with epoch/instance ids.
  void handle_chunk(const ChunkMsg& m, Outbox& out);
  void handle_got_chunk(int from, const RootMsg& m, Outbox& out);
  void handle_ready(int from, const RootMsg& m, Outbox& out);

  // Retrieval handler (Fig. 4): answer or defer.
  void handle_request_chunk(int from, Outbox& out);

  // One-stop decoder: routes an envelope body by kind. Unknown/malformed
  // bodies are ignored (Byzantine noise). Returns true if the message was
  // consumed.
  bool handle(int from, MsgKind kind, ByteView body, Outbox& out);

  bool complete() const { return complete_; }
  // Root agreed at completion (valid once complete()).
  const Hash& chunk_root() const { return chunk_root_; }
  bool has_chunk() const { return my_chunk_.has_value(); }

  // Release: the server is complete, holds a chunk, and has answered every
  // node that may fetch it (a chunk under a root other than the agreed one
  // is never served, so its requests count as answered too). request_seen_
  // dedups requests, so no later serve is possible; the chunk is dropped
  // and every handler becomes a no-op. A late request from the proposer
  // goes unanswered.
  bool released() const { return released_; }
  // Chunk bytes held for peers that have not fetched them yet.
  std::size_t retained_bytes() const {
    return my_chunk_.has_value() ? my_chunk_->chunk.size() : 0;
  }

 private:
  void maybe_send_ready(const Hash& r, Outbox& out);
  void serve(int requester, Outbox& out);
  void maybe_release();

  Params p_;
  int self_;
  int proposer_;
  int requests_needed_;  // distinct requesters before release

  std::optional<ChunkMsg> my_chunk_;  // MyChunk/MyProof/MyRoot
  std::map<Hash, int> share_count_;   // ShareCount[r]
  std::map<Hash, int> ready_count_;   // ReadyCount[r]
  std::vector<bool> got_chunk_seen_;  // per-sender dedup
  std::vector<bool> ready_seen_;
  bool sent_got_chunk_ = false;
  bool sent_ready_ = false;
  bool complete_ = false;
  Hash chunk_root_;
  std::vector<int> deferred_requests_;
  std::vector<bool> request_seen_;
  int requests_counted_ = 0;  // distinct requesters other than the proposer
  bool released_ = false;
};

// A decode attempt detached from retriever state: every input is owned by
// value, so avid_m_run_decode() may run on a worker thread while the
// retriever lives on (and keeps rejecting chunks) on the home loop.
struct DecodeJob {
  Params p;
  Hash root;
  std::vector<Bytes> slots;  // indexed by server id; empty = missing
};

struct DecodeResult {
  Bytes block;  // the block bytes, or bytes(kBadUploader)
  bool bad_uploader = false;
};

// Decode from the collected chunks, then RE-ENCODE and check the Merkle
// root — the AVID-M verification (Fig. 4, steps 2-4). Pure function.
DecodeResult avid_m_run_decode(const DecodeJob& job);

class AvidMRetriever {
 public:
  AvidMRetriever(Params p, int self);

  // Emits the RequestChunk broadcast.
  void begin(Outbox& out);

  // Feeds one ReturnChunk; ignores invalid proofs and duplicate senders.
  // Decodes inline once N−2f chunks share a root (single-threaded path).
  void handle_return_chunk(int from, const ReturnChunkMsg& m);

  // Split pipeline for offloaded decoding:
  //   offer_chunk()      — buffer a verified chunk; true once enough chunks
  //                        share a root (the retriever then stops accepting
  //                        chunks until complete()).
  //   make_decode_job()  — value snapshot of the decode inputs.
  //   complete()         — install the outcome; done() becomes true.
  bool offer_chunk(int from, const ReturnChunkMsg& m);
  DecodeJob make_decode_job() const;
  void complete(DecodeResult r);

  bool done() const { return done_; }
  // The retrieved block; equals bytes("BAD_UPLOADER") when the disperser
  // equivocated. Valid once done().
  const Bytes& result() const { return result_; }
  bool bad_uploader() const { return bad_uploader_; }
  // Root of the chunk set actually decoded from (valid once done()).
  const Hash& chunk_root() const { return chunk_root_; }

 private:
  Params p_;
  int self_;
  std::map<Hash, std::map<int, Bytes>> chunks_;  // root -> (server -> chunk)
  std::vector<bool> seen_;
  bool decoding_ = false;  // decode job handed out, outcome pending
  bool done_ = false;
  bool bad_uploader_ = false;
  Bytes result_;
  Hash chunk_root_;
};

}  // namespace dl::vid
