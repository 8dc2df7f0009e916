// RetrievalManager: tracks which blocks (epoch, proposer) this node has the
// content of, which retrievals are in flight, and feeds ReturnChunks into
// the per-block AVID-M retriever.
//
// Content sources: the node's own proposed blocks (stored locally at
// proposal time, no network needed) and completed retrievals. Content is
// freed once the block has been delivered — the manager is the node's
// working set, not an archive. Each block's bytes are held once, behind a
// shared pointer, which the node's own dispersal shares instead of copying.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/envelope.hpp"
#include "common/prefix_set.hpp"
#include "vid/avid_m.hpp"

namespace dl::core {

struct BlockKey {
  std::uint64_t epoch = 0;
  int proposer = 0;
  auto operator<=>(const BlockKey&) const = default;
};

// A set of blocks kept as one PrefixSet per proposer. A proposer's blocks
// complete (and are delivered) in roughly epoch order, so a block costs
// memory only while a hole below it is open. Keys naming a proposer outside
// [0, n) are never members.
class BlockKeySet {
 public:
  explicit BlockKeySet(int n) : per_proposer_(static_cast<std::size_t>(n)) {}

  bool contains(BlockKey k) const {
    return valid(k) &&
           per_proposer_[static_cast<std::size_t>(k.proposer)].contains(k.epoch);
  }
  bool insert(BlockKey k) {
    return valid(k) &&
           per_proposer_[static_cast<std::size_t>(k.proposer)].insert(k.epoch);
  }
  // Every epoch below this watermark holds a member for `proposer`.
  std::uint64_t prefix(int proposer) const {
    return per_proposer_[static_cast<std::size_t>(proposer)].prefix();
  }

 private:
  bool valid(BlockKey k) const {
    return k.proposer >= 0 &&
           static_cast<std::size_t>(k.proposer) < per_proposer_.size();
  }
  std::vector<PrefixSet> per_proposer_;
};

class RetrievalManager {
 public:
  explicit RetrievalManager(vid::Params p, int self)
      : p_(p), self_(self), done_keys_(p.n) {}

  // Stores locally-known content (our own proposal).
  void put_local(BlockKey key, std::shared_ptr<const Bytes> content);

  // True if the block's bytes are available (retrieved or local).
  bool has(BlockKey key) const { return content_.contains(key); }
  const Bytes& get(BlockKey key) const { return *content_.at(key); }
  // The same bytes, shared (null when not available).
  std::shared_ptr<const Bytes> shared(BlockKey key) const {
    auto it = content_.find(key);
    return it == content_.end() ? nullptr : it->second;
  }
  // The retrieval ended with the BAD_UPLOADER sentinel.
  bool is_bad(BlockKey key) const { return bad_.contains(key); }
  // The block's bytes, or null while missing or BAD_UPLOADER (the input
  // Block::decode_delivered expects).
  const Bytes* content(BlockKey key) const {
    return has(key) && !is_bad(key) ? &get(key) : nullptr;
  }

  // Begins a retrieval if not already started/available. The RequestChunk
  // broadcast is appended to `out` (envelope ids filled by the caller).
  // Returns true if a new retrieval actually started.
  bool ensure_started(BlockKey key, Outbox& out);

  bool in_flight(BlockKey key) const { return active_.contains(key); }
  std::size_t active_count() const { return active_.size(); }

  // Feeds one ReturnChunk. The chunk that completes a retrieval decodes
  // the block in place; returns true exactly then (the content, or the
  // BAD_UPLOADER sentinel, is now available; the caller should broadcast
  // VidCancel).
  bool feed_chunk(int from, BlockKey key, const vid::ChunkView& m);

  // Frees the stored bytes of a delivered block.
  void release(BlockKey key);

  std::uint64_t completed_retrievals() const { return completed_; }

 private:
  vid::Params p_;
  int self_;
  std::map<BlockKey, vid::AvidMRetriever> active_;
  std::map<BlockKey, std::shared_ptr<const Bytes>> content_;
  std::set<BlockKey> bad_;
  BlockKeySet done_keys_;  // everything ever completed or local
  std::uint64_t completed_ = 0;
};

}  // namespace dl::core
