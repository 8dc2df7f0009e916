/// \file
/// SHA-256 (FIPS 180-4), implemented from scratch.
///
/// Used for Merkle trees (AVID-M commitments), the simulated common coin,
/// and content digests. \ref Hash is a fixed 32-byte value with cheap
/// comparison so it can be used as a map key throughout the protocol
/// layers.
///
/// ### Dispatch contract
///
/// The 64-byte block compression function resolves at runtime to the x86
/// SHA-NI extensions when the host has them, with the portable scalar
/// rounds as fallback — mirroring the GF(2^8) row-kernel dispatch in
/// `erasure/gf256_dispatch.hpp`. Both kernels are byte-identical on every
/// input (they compute the same FIPS function), inputs have **no alignment
/// requirement**, and `DL_FORCE_SCALAR` (env var or `-DDL_FORCE_SCALAR=ON`
/// build) pins the default to scalar. \ref sha256_set_active_kernel is a
/// bench/test hook only and is not thread-safe against concurrent hashing.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace dl {

struct Hash {
  std::array<std::uint8_t, 32> v{};

  auto operator<=>(const Hash&) const = default;
  bool is_zero() const;
  std::string hex() const;

  ByteView view() const { return ByteView(v.data(), v.size()); }
};

/// SHA-256 compression kernels, narrowest first.
enum class ShaKernel { Scalar, ShaNi };

/// Human-readable kernel name ("scalar", "sha_ni") for reports.
const char* sha_kernel_name(ShaKernel k);

/// Kernels usable on this host, always starting with ShaKernel::Scalar.
/// Compile-time scalar builds report only the scalar tier; the runtime
/// `DL_FORCE_SCALAR` override does not shrink this list (see
/// `erasure/gf256_dispatch.hpp` for the rationale).
std::vector<ShaKernel> sha256_supported_kernels();

/// The kernel block compression currently resolves to.
ShaKernel sha256_active_kernel();

/// Bench/test hook: pin the compression kernel. Requesting an unsupported
/// tier falls back to ShaKernel::Scalar.
void sha256_set_active_kernel(ShaKernel k);

/// Block compressions run on the calling thread so far, by every function
/// below. A work count for tests and profiles: it repeats exactly for the
/// same inputs, unlike a timing.
std::uint64_t sha256_compressions();

/// One-shot SHA-256 of `data`.
Hash sha256(ByteView data);

/// One-shot SHA-256 of `tag || data` — the Merkle domain-separation shape
/// (leaf = 0x00, inner = 0x01). Single-pass: blocks are compressed straight
/// out of `data` with no incremental buffering, which is what makes batched
/// leaf hashing (`merkle_leaf_hashes`) cheap.
Hash sha256_tagged(std::uint8_t tag, ByteView data);

/// Convenience: hash the concatenation of two buffers (used by the common
/// coin and content digests; Merkle inner nodes go through sha256_tagged).
Hash sha256_pair(const Hash& a, const Hash& b);

/// Incremental hashing for streaming inputs.
class Sha256 {
 public:
  Sha256();
  void update(ByteView data);
  Hash finalize();

 private:
  void process_block(const std::uint8_t* p);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

struct HashHasher {
  std::size_t operator()(const Hash& h) const {
    std::size_t out;
    static_assert(sizeof(out) <= 32);
    __builtin_memcpy(&out, h.v.data(), sizeof(out));
    return out;
  }
};

}  // namespace dl
