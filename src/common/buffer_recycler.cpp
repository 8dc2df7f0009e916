#include "common/buffer_recycler.hpp"

#include <mutex>
#include <vector>

namespace dl {

namespace {

struct Recycler {
  Recycler() { kept.reserve(kRecycleMaxBuffers); }
  std::mutex mu;
  std::vector<Bytes> kept;  // oldest first
  std::size_t kept_bytes = 0;
  std::uint64_t reused = 0;
};

// Immortal: a buffer may be recycled during static teardown.
Recycler& recycler() {
  static auto* r = new Recycler;
  return *r;
}

}  // namespace

Bytes take_buffer(std::size_t capacity) {
  if (capacity >= kRecycleMinBytes) {
    Recycler& r = recycler();
    const std::lock_guard<std::mutex> lock(r.mu);
    std::size_t best = r.kept.size();
    for (std::size_t i = 0; i < r.kept.size(); ++i) {
      const std::size_t cap = r.kept[i].capacity();
      if (cap >= capacity && cap - capacity <= capacity / 4 &&
          (best == r.kept.size() || cap < r.kept[best].capacity())) {
        best = i;
      }
    }
    if (best < r.kept.size()) {
      Bytes out = std::move(r.kept[best]);
      r.kept.erase(r.kept.begin() + static_cast<std::ptrdiff_t>(best));
      r.kept_bytes -= out.capacity();
      ++r.reused;
      out.clear();
      return out;
    }
  }
  Bytes out;
  out.reserve(capacity);
  return out;
}

Bytes copy_buffer(ByteView v) {
  Bytes out = take_buffer(v.size());
  out.assign(v.begin(), v.end());
  return out;
}

void recycle_buffer(Bytes&& b) {
  Bytes buf = std::move(b);  // freed on return unless kept
  const std::size_t cap = buf.capacity();
  if (cap < kRecycleMinBytes || cap > kRecycleMaxBytes) return;
  std::vector<Bytes> evicted;  // freed on return, outside the lock
  Recycler& r = recycler();
  const std::lock_guard<std::mutex> lock(r.mu);
  while (!r.kept.empty() && (r.kept.size() == kRecycleMaxBuffers ||
                             r.kept_bytes + cap > kRecycleMaxBytes)) {
    r.kept_bytes -= r.kept.front().capacity();
    evicted.push_back(std::move(r.kept.front()));
    r.kept.erase(r.kept.begin());
  }
  r.kept_bytes += cap;
  r.kept.push_back(std::move(buf));
}

std::shared_ptr<const Bytes> share_buffer(Bytes&& b) {
  struct Recycled {
    explicit Recycled(Bytes&& bytes) : b(std::move(bytes)) {}
    ~Recycled() { recycle_buffer(std::move(b)); }
    Bytes b;
  };
  auto owner = std::make_shared<Recycled>(std::move(b));
  return std::shared_ptr<const Bytes>(owner, &owner->b);
}

RecyclerStats recycler_stats() {
  Recycler& r = recycler();
  const std::lock_guard<std::mutex> lock(r.mu);
  return RecyclerStats{r.kept.size(), r.kept_bytes, r.reused};
}

}  // namespace dl
