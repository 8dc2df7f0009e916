#include "net/buffer_pool.hpp"

#include <atomic>
#include <cassert>
#include <cstring>
#include <mutex>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DL_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DL_HAS_ASAN 1
#endif
#endif
#if defined(DL_HAS_ASAN)
#include <sanitizer/asan_interface.h>
#define DL_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DL_POISON(p, n) ((void)0)
#define DL_UNPOISON(p, n) ((void)0)
#endif

namespace dl::net {

namespace {

constexpr std::size_t kThreadCacheSlots = 8;  // per class

struct Counters {
  std::atomic<std::uint64_t> fresh_allocs{0};
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint64_t> huge_allocs{0};
};

Counters& counters() {
  static Counters c;
  return c;
}

struct GlobalPool {
  std::mutex mu;
  std::vector<std::uint8_t*> free_lists[BufferPool::kClasses];
};

// Immortal: thread caches flush here from thread-exit destructors, which may
// run during static teardown — the pool must still exist then. Reachable
// from this static pointer, so LSan stays quiet about cached buffers.
GlobalPool& global_pool() {
  static GlobalPool* g = new GlobalPool;
  return *g;
}

// -1 when min_bytes exceeds the largest class (huge: not pooled).
int class_for(std::size_t min_bytes) {
  for (std::size_t i = 0; i < BufferPool::kClasses; ++i) {
    if (min_bytes <= BufferPool::kClassBytes[i]) return static_cast<int>(i);
  }
  return -1;
}

// Exact class whose capacity is `cap`, or -1. Release relies on acquire
// always handing out exact class capacities for pooled buffers.
int class_of_cap(std::size_t cap) {
  for (std::size_t i = 0; i < BufferPool::kClasses; ++i) {
    if (cap == BufferPool::kClassBytes[i]) return static_cast<int>(i);
  }
  return -1;
}

struct ThreadCache {
  std::uint8_t* slots[BufferPool::kClasses][kThreadCacheSlots] = {};
  std::size_t count[BufferPool::kClasses] = {};

  ~ThreadCache() {
    // Thread exit: hand everything to the global pool so buffers released
    // on short-lived threads (a test's loop thread, say) are not lost.
    GlobalPool& g = global_pool();
    std::lock_guard<std::mutex> lk(g.mu);
    for (std::size_t c = 0; c < BufferPool::kClasses; ++c) {
      for (std::size_t i = 0; i < count[c]; ++i) {
        g.free_lists[c].push_back(slots[c][i]);
      }
      count[c] = 0;
    }
  }
};

ThreadCache& thread_cache() {
  thread_local ThreadCache tc;
  return tc;
}

}  // namespace

std::uint8_t* BufferPool::acquire_raw(std::size_t min_bytes,
                                      std::size_t& cap_out) {
  if (min_bytes == 0) min_bytes = 1;
  const int cls = class_for(min_bytes);
  if (cls < 0) {
    counters().huge_allocs.fetch_add(1, std::memory_order_relaxed);
    counters().fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    cap_out = min_bytes;
    return new std::uint8_t[min_bytes];
  }
  cap_out = kClassBytes[cls];
  ThreadCache& tc = thread_cache();
  if (tc.count[cls] > 0) {
    std::uint8_t* p = tc.slots[cls][--tc.count[cls]];
    DL_UNPOISON(p, cap_out);
    counters().pool_hits.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  {
    GlobalPool& g = global_pool();
    std::lock_guard<std::mutex> lk(g.mu);
    auto& list = g.free_lists[cls];
    if (!list.empty()) {
      std::uint8_t* p = list.back();
      list.pop_back();
      DL_UNPOISON(p, cap_out);
      counters().pool_hits.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
  }
  counters().fresh_allocs.fetch_add(1, std::memory_order_relaxed);
  return new std::uint8_t[cap_out];
}

void BufferPool::release_raw(std::uint8_t* p, std::size_t cap) {
  if (p == nullptr) return;
  const int cls = class_of_cap(cap);
  if (cls < 0) {
    delete[] p;  // huge buffers are never pooled
    return;
  }
  counters().releases.fetch_add(1, std::memory_order_relaxed);
  DL_POISON(p, cap);
  ThreadCache& tc = thread_cache();
  if (tc.count[cls] < kThreadCacheSlots) {
    tc.slots[cls][tc.count[cls]++] = p;
    return;
  }
  GlobalPool& g = global_pool();
  std::lock_guard<std::mutex> lk(g.mu);
  g.free_lists[cls].push_back(p);
}

BufferPool::Stats BufferPool::stats() {
  Counters& c = counters();
  Stats s;
  s.fresh_allocs = c.fresh_allocs.load(std::memory_order_relaxed);
  s.pool_hits = c.pool_hits.load(std::memory_order_relaxed);
  s.releases = c.releases.load(std::memory_order_relaxed);
  s.huge_allocs = c.huge_allocs.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::reset_stats() {
  Counters& c = counters();
  c.fresh_allocs.store(0, std::memory_order_relaxed);
  c.pool_hits.store(0, std::memory_order_relaxed);
  c.releases.store(0, std::memory_order_relaxed);
  c.huge_allocs.store(0, std::memory_order_relaxed);
}

// --- ByteRope ----------------------------------------------------------------

std::uint8_t* ByteRope::reserve(std::size_t n) {
  assert(n > 0);
  if (chunks_.empty() ||
      chunks_.back().used + n > chunks_.back().buf.capacity()) {
    Chunk c;
    c.buf = PooledBuf(n > chunk_bytes_ ? n : chunk_bytes_);
    chunks_.push_back(std::move(c));
  }
  Chunk& tail = chunks_.back();
  return tail.buf.data() + tail.used;
}

void ByteRope::commit(std::size_t n) {
  assert(!chunks_.empty());
  Chunk& tail = chunks_.back();
  assert(tail.used + n <= tail.buf.capacity());
  tail.used += n;
  size_ += n;
}

void ByteRope::append(ByteView b) {
  if (b.empty()) return;
  std::uint8_t* dst = reserve(b.size());
  std::memcpy(dst, b.data(), b.size());
  commit(b.size());
}

std::size_t ByteRope::fill_iovecs(iovec* iov, std::size_t max) const {
  std::size_t cnt = 0;
  std::size_t off = head_off_;
  for (const Chunk& c : chunks_) {
    if (cnt == max) break;
    if (c.used > off) {
      iov[cnt].iov_base = c.buf.data() + off;
      iov[cnt].iov_len = c.used - off;
      ++cnt;
    }
    off = 0;
  }
  return cnt;
}

void ByteRope::consume(std::size_t n) {
  assert(n <= size_);
  size_ -= n;
  while (n > 0) {
    Chunk& front = chunks_.front();
    const std::size_t avail = front.used - head_off_;
    if (n >= avail) {
      n -= avail;
      head_off_ = 0;
      chunks_.pop_front();  // PooledBuf recycles to the pool here
    } else {
      head_off_ += n;
      n = 0;
    }
  }
  // A tail chunk that was fully consumed but still has reserve space is kept
  // by the loop above only if nonempty; nothing else to do.
}

void ByteRope::clear() {
  chunks_.clear();
  head_off_ = 0;
  size_ = 0;
}

}  // namespace dl::net
