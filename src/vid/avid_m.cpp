#include "vid/avid_m.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/buffer_recycler.hpp"
#include "common/serial.hpp"

namespace dl::vid {

namespace {

// Envelope stubs: the caller fills epoch/instance; we set kind + body.
OutMsg broadcast(MsgKind kind, Bytes body) {
  OutMsg m;
  m.to = OutMsg::kAll;
  m.env.kind = kind;
  m.env.body = std::move(body);
  return m;
}

OutMsg unicast(int to, MsgKind kind, Bytes body) {
  OutMsg m;
  m.to = to;
  m.env.kind = kind;
  m.env.body = std::move(body);
  return m;
}

}  // namespace

std::vector<Bytes> avid_m_disperse_bodies(const Params& p, ByteView block) {
  const ReedSolomon rs(p.data_shards(), p.n);
  const std::size_t stripe = rs.chunk_size(block.size());
  const auto n = static_cast<std::uint32_t>(p.n);
  const std::size_t proof_bytes = 9 + 32 * MerkleProof::depth_for(n);
  // Laid out as ChunkMsg::encode lays it out. The root leads each body but
  // is known only once every chunk is hashed, so it is written last.
  std::vector<Writer> bodies;
  bodies.reserve(n);
  std::vector<Hash> leaves(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Writer& w = bodies.emplace_back(32 + 4 + stripe + 4 + proof_bytes);
    w.raw(Hash{}.view());
    w.u32(static_cast<std::uint32_t>(stripe));
    std::uint8_t* chunk = w.skip(stripe);
    rs.encode_chunk_range(block, static_cast<int>(i), 0, stripe, chunk);
    leaves[i] = merkle_leaf_hash(ByteView(chunk, stripe));
  }
  const MerkleTree tree = MerkleTree::from_leaf_hashes(std::move(leaves));
  std::vector<Bytes> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const MerkleProof proof = tree.prove(i);
    Writer& w = bodies[i];
    w.u32(static_cast<std::uint32_t>(proof.encoded_size()));
    proof.encode_into(w);
    Bytes body = std::move(w).take();
    std::copy(tree.root().v.begin(), tree.root().v.end(), body.begin());
    out.push_back(std::move(body));
  }
  return out;
}

std::vector<ChunkMsg> avid_m_disperse(const Params& p, ByteView block) {
  std::vector<ChunkMsg> out;
  for (const Bytes& body : avid_m_disperse_bodies(p, block)) {
    ChunkView v;
    ChunkView::decode(body, v);
    out.push_back(ChunkMsg::from(v));
  }
  return out;
}

AvidMServer::AvidMServer(Params p, int self, int proposer)
    : p_(p),
      self_(self),
      proposer_(proposer),
      requests_needed_(proposer >= 0 && proposer < p.n ? p.n - 1 : p.n),
      got_chunk_seen_(static_cast<std::size_t>(p.n), false),
      ready_seen_(static_cast<std::size_t>(p.n), false),
      request_seen_(static_cast<std::size_t>(p.n), false) {
  if (p_.n < 3 * p_.f + 1 || self < 0 || self >= p_.n) {
    throw std::invalid_argument("AvidMServer: need N >= 3f+1 and valid id");
  }
}

void AvidMServer::handle_chunk(const ChunkView& m, Outbox& out) {
  if (released_ || my_body_.has_value()) return;  // first valid Chunk wins
  if (m.proof.index != static_cast<std::uint32_t>(self_) ||
      m.proof.leaf_count != static_cast<std::uint32_t>(p_.n)) {
    return;
  }
  if (!merkle_verify(m.root, m.chunk, m.proof)) return;
  // The server's one copy of its chunk, kept as the ReturnChunk body that
  // serves it.
  my_body_ = m.encode();
  my_root_ = m.root;
  my_chunk_bytes_ = m.chunk.size();
  if (!sent_got_chunk_) {
    sent_got_chunk_ = true;
    out.push_back(broadcast(MsgKind::VidGotChunk, RootMsg{m.root}.encode()));
  }
  // If dispersal already completed with our root, late requesters can now
  // be served.
  if (complete_ && my_root_ == chunk_root_) serve_deferred(out);
  maybe_release();
}

void AvidMServer::handle_got_chunk(int from, const RootMsg& m, Outbox& out) {
  if (released_ || from < 0 || from >= p_.n ||
      got_chunk_seen_[static_cast<std::size_t>(from)]) {
    return;
  }
  got_chunk_seen_[static_cast<std::size_t>(from)] = true;
  const int count = ++share_count_[m.root];
  if (count >= p_.n - p_.f) maybe_send_ready(m.root, out);
}

void AvidMServer::handle_ready(int from, const RootMsg& m, Outbox& out) {
  if (released_ || from < 0 || from >= p_.n ||
      ready_seen_[static_cast<std::size_t>(from)]) {
    return;
  }
  ready_seen_[static_cast<std::size_t>(from)] = true;
  const int count = ++ready_count_[m.root];
  if (count >= p_.f + 1) maybe_send_ready(m.root, out);
  if (count >= 2 * p_.f + 1 && !complete_) {
    complete_ = true;
    chunk_root_ = m.root;
    // Serve requests deferred while dispersal was incomplete.
    serve_deferred(out);
    maybe_release();
  }
}

void AvidMServer::maybe_send_ready(const Hash& r, Outbox& out) {
  if (sent_ready_) return;
  sent_ready_ = true;
  out.push_back(broadcast(MsgKind::VidReady, RootMsg{r}.encode()));
}

void AvidMServer::handle_request_chunk(int from, Outbox& out) {
  if (released_ || from < 0 || from >= p_.n ||
      request_seen_[static_cast<std::size_t>(from)]) {
    return;
  }
  request_seen_[static_cast<std::size_t>(from)] = true;
  if (from != proposer_) ++requests_counted_;
  serve(from, out, releasable());
  maybe_release();
}

bool AvidMServer::releasable() const {
  return !released_ && complete_ && my_body_.has_value() &&
         requests_counted_ >= requests_needed_;
}

void AvidMServer::maybe_release() {
  if (!releasable()) return;
  released_ = true;
  my_body_.reset();
  // Dispersal bookkeeping is dead too: complete_ and sent_ready_ already
  // hold, so no GotChunk/Ready could make this server send anything.
  share_count_.clear();
  ready_count_.clear();
  deferred_requests_.clear();
}

void AvidMServer::serve(int requester, Outbox& out, bool last) {
  // Fig. 4: respond only when complete and MyRoot == ChunkRoot; defer
  // otherwise. A server whose chunk is under a different root can never
  // serve this instance.
  if (!complete_ || !my_body_.has_value()) {
    deferred_requests_.push_back(requester);
    return;
  }
  if (my_root_ != chunk_root_) return;
  // The answer that releases the chunk takes the kept body itself; the
  // others get a copy of it.
  out.push_back(unicast(requester, MsgKind::VidReturnChunk,
                        last ? std::move(*my_body_) : copy_buffer(*my_body_)));
}

void AvidMServer::serve_deferred(Outbox& out) {
  const std::vector<int> pending = std::move(deferred_requests_);
  deferred_requests_.clear();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    serve(pending[i], out, i + 1 == pending.size() && releasable());
  }
}

bool AvidMServer::handle(int from, MsgKind kind, ByteView body, Outbox& out) {
  switch (kind) {
    case MsgKind::VidChunk: {
      ChunkView m;
      if (!ChunkView::decode(body, m)) return false;
      handle_chunk(m, out);
      return true;
    }
    case MsgKind::VidGotChunk: {
      RootMsg m;
      if (!RootMsg::decode(body, m)) return false;
      handle_got_chunk(from, m, out);
      return true;
    }
    case MsgKind::VidReady: {
      RootMsg m;
      if (!RootMsg::decode(body, m)) return false;
      handle_ready(from, m, out);
      return true;
    }
    case MsgKind::VidRequestChunk:
      handle_request_chunk(from, out);
      return true;
    default:
      return false;
  }
}

AvidMRetriever::AvidMRetriever(Params p, int self)
    : p_(p), self_(self), seen_(static_cast<std::size_t>(p.n), false) {}

void AvidMRetriever::begin(Outbox& out) {
  out.push_back(broadcast(MsgKind::VidRequestChunk, {}));
}

DecodeJob::~DecodeJob() {
  for (Bytes& slot : slots) recycle_buffer(std::move(slot));
}

namespace {

struct DecodeResult {
  Bytes block;  // the block bytes, or bytes(kBadUploader)
  bool bad_uploader = false;
};

// Decode from the collected chunks, then RE-ENCODE and check the Merkle
// root — the AVID-M verification (Fig. 4, steps 2-4).
//
// The chunks decode used re-encode to themselves exactly when they are
// canonical (ReedSolomon::decode), so their verified leaf hashes stand in
// for re-hashing them: only the chunks not used are re-created, a tile at
// a time, and hashed. A non-canonical set is BAD_UPLOADER, as the full
// re-encode would find (a used chunk would differ from its re-encoding).
DecodeResult run_decode(const DecodeJob& job) {
  const ReedSolomon rs(job.p.data_shards(), job.p.n);
  DecodeResult out;
  out.bad_uploader = true;
  out.block = bytes_of(kBadUploader);
  const std::vector<ByteView> views(job.slots.begin(), job.slots.end());
  bool canonical = false;
  std::optional<Bytes> block = rs.decode(views, &canonical);
  // A ragged, structurally invalid or non-canonical chunk set is provably
  // inconsistent: the same verdict as a failed re-encode check.
  if (!block.has_value() || !canonical) return out;

  // The AVID-M check: re-encode and compare Merkle roots (Fig. 4, steps
  // 2-4). The first K present chunks are the ones decode used; every other
  // leaf is re-created from the block and hashed.
  std::vector<Hash> leaves(static_cast<std::size_t>(job.p.n));
  const std::size_t stripe = rs.chunk_size(block->size());
  int used = 0;
  for (int i = 0; i < job.p.n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (used < job.p.data_shards() && !job.slots[idx].empty()) {
      leaves[idx] = job.leaves[idx];
      ++used;
      continue;
    }
    MerkleLeafHasher h;
    std::uint8_t tile[4096];
    for (std::size_t off = 0; off < stripe; off += sizeof tile) {
      const std::size_t len = std::min(sizeof tile, stripe - off);
      rs.encode_chunk_range(*block, i, off, len, tile);
      h.update(ByteView(tile, len));
    }
    leaves[idx] = h.finalize();
  }
  if (MerkleTree::from_leaf_hashes(std::move(leaves)).root() == job.root) {
    out.bad_uploader = false;
    out.block = std::move(*block);
  }
  return out;
}

}  // namespace

bool AvidMRetriever::handle_return_chunk(int from, const ChunkView& m) {
  if (done_ || from < 0 || from >= p_.n ||
      seen_[static_cast<std::size_t>(from)]) {
    return false;
  }
  if (m.proof.index != static_cast<std::uint32_t>(from) ||
      m.proof.leaf_count != static_cast<std::uint32_t>(p_.n)) {
    return false;
  }
  const Hash leaf = merkle_leaf_hash(m.chunk);
  if (!merkle_verify_hash(m.root, leaf, m.proof)) return false;
  seen_[static_cast<std::size_t>(from)] = true;

  auto [it, fresh] = per_root_.try_emplace(m.root);
  PerRoot& pr = it->second;
  if (fresh) {
    pr.job.p = p_;
    pr.job.root = m.root;
    pr.job.slots.resize(static_cast<std::size_t>(p_.n));
    pr.job.leaves.resize(static_cast<std::size_t>(p_.n));
  }
  // The one copy of an accepted chunk; it moves on into the decode job.
  pr.job.slots[static_cast<std::size_t>(from)] = copy_buffer(m.chunk);
  pr.job.leaves[static_cast<std::size_t>(from)] = leaf;
  if (++pr.count < p_.data_shards()) return false;

  // Enough chunks share this root: decode from them. No other root can
  // decode afterwards, so every other collected chunk goes back now.
  chunk_root_ = m.root;
  const DecodeJob job = std::move(pr.job);
  per_root_.clear();
  DecodeResult r = run_decode(job);
  done_ = true;
  bad_uploader_ = r.bad_uploader;
  result_ = std::move(r.block);
  return true;
}

}  // namespace dl::vid
