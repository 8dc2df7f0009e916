// Reuse of block-sized byte buffers.
//
// A replica allocates and frees block-sized buffers (tens to hundreds of
// KB: chunks, decoded blocks and the messages that carry them) thousands of
// times a second. Freed to the heap, they pile up at its top, so glibc
// trims the heap back to the kernel and page-faults the memory in again on
// the next allocation. The recycler keeps the most recently freed of those
// buffers instead and hands them to the next buffer of about the same size.
//
// Only buffers of 64 KiB and more are kept: glibc considers trimming only
// when it frees a chunk that large, and keeping smaller ones raised peak
// RSS on a slow WAN cluster for no fault saved. What is kept is bounded by
// count and by bytes (kRecycleMaxBuffers, kRecycleMaxBytes), about one
// epoch's chunk traffic on a saturated loopback cluster; the oldest kept
// buffer is freed first.
//
// Thread-safe. On a replica only its home loop recycles and takes buffers,
// but SweepRunner's worker threads run simulated replicas side by side and
// share the recycler through the coding code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/bytes.hpp"

namespace dl {

// Buffers below this capacity are left to the heap.
inline constexpr std::size_t kRecycleMinBytes = std::size_t{64} << 10;
inline constexpr std::size_t kRecycleMaxBuffers = 16;
inline constexpr std::size_t kRecycleMaxBytes = std::size_t{1} << 20;

// An empty buffer with room for `capacity` bytes: a kept buffer when one
// fits without being more than a quarter larger, a fresh one otherwise.
Bytes take_buffer(std::size_t capacity);

// A copy of `v` in a buffer from take_buffer.
Bytes copy_buffer(ByteView v);

// Keeps `b`'s allocation for a later take_buffer if it is block-sized;
// frees it otherwise. `b` is left empty.
void recycle_buffer(Bytes&& b);

// `b` behind a shared pointer that recycles it when the last owner lets go.
std::shared_ptr<const Bytes> share_buffer(Bytes&& b);

struct RecyclerStats {
  std::size_t kept_buffers = 0;  // held right now
  std::size_t kept_bytes = 0;
  std::uint64_t reused = 0;      // take_buffer calls served from the recycler
};
RecyclerStats recycler_stats();

}  // namespace dl
