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

bool RetrievalManager::feed_chunk(int from, BlockKey key,
                                  const vid::ChunkView& m) {
  auto it = active_.find(key);
  if (it == active_.end()) return false;  // stale or never requested
  vid::AvidMRetriever& r = it->second;
  if (!r.handle_return_chunk(from, m)) return false;
  done_keys_.insert(key);
  if (r.bad_uploader()) bad_.insert(key);
  content_.emplace(key, share_buffer(r.take_result()));
  active_.erase(it);
  ++completed_;
  return true;
}

void RetrievalManager::release(BlockKey key) { content_.erase(key); }

}  // namespace dl::core
