// AVID-M — the paper's contribution (§3): asynchronous verifiable
// information dispersal with Merkle-tree commitments.
//
// Three roles, all pure automata (no I/O): they consume decoded messages and
// append outgoing messages to an Outbox, so the same code runs under unit
// tests and the network simulator.
//
//   avid_m_disperse_bodies() — client side of Disperse(B): encode, build
//                        the Merkle tree, emit one Chunk body per server.
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
// Buffer ownership: handlers take received chunks as ChunkViews into the
// message. A chunk is copied once, where it is kept: the server's own chunk,
// and each chunk a retriever accepts. The accepted chunks then move into
// the DecodeJob, which owns everything the decode reads.
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

// Client-side Disperse(B): the encoded Chunk body for each server (index i
// of the result goes to server i). Each chunk is erasure-coded straight
// into its body, so a chunk is written once and never copied.
std::vector<Bytes> avid_m_disperse_bodies(const Params& p, ByteView block);
// The same dispersal as decoded messages, for callers that inspect or
// tamper with the chunks.
std::vector<ChunkMsg> avid_m_disperse(const Params& p, ByteView block);

class AvidMServer {
 public:
  // `proposer` is the instance's disperser. It holds the block itself and
  // never fetches it, so the chunk is released once every OTHER node has
  // requested it. -1 (no known proposer) waits for all N requests.
  AvidMServer(Params p, int self, int proposer = -1);

  // Dispersal handlers (Fig. 3). `out` receives broadcasts/sends whose
  // envelope the caller completes with epoch/instance ids.
  void handle_chunk(const ChunkView& m, Outbox& out);
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
  bool has_chunk() const { return my_body_.has_value(); }

  // Release: the server is complete, holds a chunk, and has answered every
  // node that may fetch it (a chunk under a root other than the agreed one
  // is never served, so its requests count as answered too). request_seen_
  // dedups requests, so no later serve is possible; the chunk is dropped
  // and every handler becomes a no-op. A late request from the proposer
  // goes unanswered.
  bool released() const { return released_; }
  // Chunk bytes held for peers that have not fetched them yet.
  std::size_t retained_bytes() const {
    return my_body_.has_value() ? my_chunk_bytes_ : 0;
  }

 private:
  void maybe_send_ready(const Hash& r, Outbox& out);
  // Answers `requester`, or defers it. `last`: this answer lets the server
  // release, so it may take the kept body instead of a copy (maybe_release
  // must follow).
  void serve(int requester, Outbox& out, bool last);
  void serve_deferred(Outbox& out);
  // Complete, holding a chunk, and every node that may fetch it has asked.
  bool releasable() const;
  void maybe_release();

  Params p_;
  int self_;
  int proposer_;
  int requests_needed_;  // distinct requesters before release

  // MyChunk/MyProof as the encoded ReturnChunk body, and MyRoot.
  std::optional<Bytes> my_body_;
  Hash my_root_;
  std::size_t my_chunk_bytes_ = 0;
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

// The chunks a retriever accepted under one root: everything a decode
// reads, owned by value.
struct DecodeJob {
  DecodeJob() = default;
  DecodeJob(DecodeJob&&) = default;
  DecodeJob& operator=(DecodeJob&&) = default;
  // Hands the chunk buffers back for reuse (common/buffer_recycler.hpp).
  ~DecodeJob();

  Params p;
  Hash root;
  std::vector<Bytes> slots;  // indexed by server id; empty = missing
  // merkle_leaf_hash of each present slot, already verified under `root`.
  std::vector<Hash> leaves;
};

class AvidMRetriever {
 public:
  AvidMRetriever(Params p, int self);

  // Emits the RequestChunk broadcast.
  void begin(Outbox& out);

  // Feeds one ReturnChunk; ignores invalid proofs, duplicate senders and
  // everything after done(). Once N−2f chunks share a root it decodes them
  // and runs the AVID-M check in place, and returns true: done() holds
  // from then on.
  bool handle_return_chunk(int from, const ChunkView& m);

  bool done() const { return done_; }
  // The retrieved block; equals bytes("BAD_UPLOADER") when the disperser
  // equivocated. Valid once done().
  const Bytes& result() const { return result_; }
  // Moves the retrieved block out (result() is empty afterwards).
  Bytes take_result() { return std::move(result_); }
  bool bad_uploader() const { return bad_uploader_; }
  // Root of the chunk set actually decoded from (valid once done()).
  const Hash& chunk_root() const { return chunk_root_; }

 private:
  Params p_;
  int self_;
  // Accepted chunks by root, each gathered into the job it would decode.
  struct PerRoot {
    DecodeJob job;
    int count = 0;  // chunks accepted under this root
  };
  std::map<Hash, PerRoot> per_root_;
  std::vector<bool> seen_;
  bool done_ = false;
  bool bad_uploader_ = false;
  Bytes result_;
  Hash chunk_root_;
};

}  // namespace dl::vid
