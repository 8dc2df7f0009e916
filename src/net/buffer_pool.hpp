// Size-classed buffer pool with thread-aware free lists.
//
// The replica data plane recycles a small set of buffer shapes at high
// rates: FrameReader read buffers, outbound frame slabs, block buffers.
// Allocating them fresh costs a malloc/free pair per frame burst;
// BufferPool instead keeps per-size-class free lists with two tiers:
//
//   thread cache — a small per-thread stack per class (no synchronization;
//                  the common acquire/release path touches no shared state);
//   global pool  — a mutex-guarded backstop per class that overflowing or
//                  cross-thread releases fall back to, so buffers released
//                  on one thread are reusable on another.
//
// Buffers above the largest class fall through to plain new[]/delete[].
// Under AddressSanitizer every pooled-but-free buffer is poisoned, so a
// use-after-release inside the pool window is caught exactly like a
// use-after-free (tests/buffer_pool_test.cpp relies on this).
//
// The pool singleton is intentionally immortal (never destroyed): thread
// caches flush into it at thread exit, and that must be safe during late
// static teardown. Cached buffers stay reachable from the singleton, so
// LeakSanitizer does not report them.
//
// Stats are process-wide relaxed counters — cheap enough to keep on in
// release builds; docs/PERF.md records the hit rates they expose.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "common/bytes.hpp"

namespace dl::net {

class BufferPool {
 public:
  static constexpr std::size_t kClasses = 6;
  // 4K covers control frames, 64K a read burst, 4M a max-size block frame.
  static constexpr std::size_t kClassBytes[kClasses] = {
      4u << 10, 16u << 10, 64u << 10, 256u << 10, 1u << 20, 4u << 20};

  struct Stats {
    std::uint64_t fresh_allocs = 0;  // served by new[] (cold or huge)
    std::uint64_t pool_hits = 0;     // served from a free list
    std::uint64_t releases = 0;      // buffers returned to a free list
    std::uint64_t huge_allocs = 0;   // above the largest class (not pooled)
  };

  // Acquires a buffer of capacity >= min_bytes (rounded up to its class).
  // The actual capacity is written to cap_out and must be passed back
  // verbatim to release_raw. Thread-safe.
  static std::uint8_t* acquire_raw(std::size_t min_bytes, std::size_t& cap_out);
  static void release_raw(std::uint8_t* p, std::size_t cap);

  static Stats stats();
  static void reset_stats();  // test hook

 private:
  BufferPool() = default;
};

// RAII handle for one pooled buffer. Move-only; releasing back to the pool
// on destruction. An empty handle (default-constructed or moved-from) holds
// nothing.
class PooledBuf {
 public:
  PooledBuf() = default;
  explicit PooledBuf(std::size_t min_bytes) {
    data_ = BufferPool::acquire_raw(min_bytes, cap_);
  }
  ~PooledBuf() { release(); }
  PooledBuf(const PooledBuf&) = delete;
  PooledBuf& operator=(const PooledBuf&) = delete;
  PooledBuf(PooledBuf&& o) noexcept : data_(o.data_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.cap_ = 0;
  }
  PooledBuf& operator=(PooledBuf&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      cap_ = o.cap_;
      o.data_ = nullptr;
      o.cap_ = 0;
    }
    return *this;
  }

  std::uint8_t* data() const { return data_; }
  std::size_t capacity() const { return cap_; }
  explicit operator bool() const { return data_ != nullptr; }

  void release() {
    if (data_ != nullptr) {
      BufferPool::release_raw(data_, cap_);
      data_ = nullptr;
      cap_ = 0;
    }
  }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t cap_ = 0;
};

// A FIFO byte rope over pooled chunks: the outbound queue shape used by the
// client gateway. Frames are encoded IN PLACE at the tail (reserve/commit),
// drained with scatter-gather iovecs from the head, and fully-consumed
// chunks recycle straight back to the pool — steady-state ack traffic
// allocates nothing.
class ByteRope {
 public:
  explicit ByteRope(std::size_t chunk_bytes = 16u << 10)
      : chunk_bytes_(chunk_bytes) {}

  // Returns a contiguous writable span of `n` bytes at the tail; the write
  // becomes part of the rope only after commit(n). A reservation larger
  // than the remaining tail space starts a fresh chunk (the gap is never
  // handed out, so content stays contiguous per reservation).
  std::uint8_t* reserve(std::size_t n);
  void commit(std::size_t n);

  void append(ByteView b);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Fills up to `max` iovecs with the unconsumed byte ranges, front first.
  // Returns the count filled.
  std::size_t fill_iovecs(iovec* iov, std::size_t max) const;

  // Drops `n` bytes from the front (bytes the kernel accepted).
  void consume(std::size_t n);

  void clear();

 private:
  struct Chunk {
    PooledBuf buf;
    std::size_t used = 0;  // committed bytes
  };

  std::deque<Chunk> chunks_;
  std::size_t chunk_bytes_;
  std::size_t head_off_ = 0;  // consumed prefix of chunks_.front()
  std::size_t size_ = 0;      // committed, unconsumed bytes
};

}  // namespace dl::net
