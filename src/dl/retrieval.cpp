#include "dl/retrieval.hpp"

#include "common/buffer_recycler.hpp"

namespace dl::core {

void RetrievalManager::put_local(BlockKey key,
                                 std::shared_ptr<const Bytes> content) {
  if (!done_keys_.insert(key)) return;
  content_.emplace(key, std::move(content));
}

bool RetrievalManager::ensure_started(BlockKey key, Outbox& out) {
  if (done_keys_.contains(key) || active_.contains(key)) return false;
  auto [it, inserted] = active_.emplace(key, vid::AvidMRetriever(p_, self_));
  it->second.begin(out);
  return inserted;
}

RetrievalManager::Feed RetrievalManager::feed_chunk(
    int from, BlockKey key, const vid::ChunkView& m) {
  auto it = active_.find(key);
  if (it == active_.end()) return Feed::kNotReady;  // stale or never requested
  return it->second.offer_chunk(from, m) ? Feed::kReady : Feed::kNotReady;
}

vid::DecodeJob RetrievalManager::take_decode_job(BlockKey key) {
  return active_.at(key).take_decode_job();
}

bool RetrievalManager::finish_decode(BlockKey key, vid::DecodeResult r) {
  auto it = active_.find(key);
  if (it == active_.end()) return false;  // released while decoding
  done_keys_.insert(key);
  if (r.bad_uploader) bad_.insert(key);
  content_.emplace(key, share_buffer(std::move(r.block)));
  active_.erase(it);
  ++completed_;
  return true;
}

void RetrievalManager::release(BlockKey key) { content_.erase(key); }

}  // namespace dl::core
