/// \file
/// Systematic Reed-Solomon erasure code over GF(2^8).
///
/// DispersedLedger disperses each block with an (N-2f, N) code: the block is
/// split into K = N-2f data chunks and extended with N-K parity chunks such
/// that ANY K chunks reconstruct the block. The code is systematic (chunks
/// 0..K-1 are the raw data stripes), built from a Vandermonde matrix
/// normalized so its top K×K block is the identity — the standard
/// construction, matching klauspost/reedsolomon used by the paper's
/// prototype.
///
/// ### Determinism
///
/// Encode is a pure function of the input — AVID-M needs this so a
/// retriever can re-encode a decoded block and compare Merkle roots
/// (Fig. 4, step 2-4 of the paper). The GF row kernels it calls are
/// byte-identical across every SIMD dispatch tier (see
/// `erasure/gf256_dispatch.hpp`), so encodings are also identical across
/// hosts and across `DL_FORCE_SCALAR` settings.
///
/// ### Data layout
///
/// Chunk i < K is stripe i of the padded block (length header, block, zero
/// padding); chunk i >= K is parity row i. Encode writes each chunk
/// straight into its own output buffer, reading the block where it lies:
/// there is no padded copy of the block and no staging buffer. Decode
/// reads the chunks through views and writes each block byte once, into
/// the returned buffer. No alignment requirements: chunk buffers may start
/// anywhere.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace dl {

class ReedSolomon {
 public:
  /// data_shards = K >= 1, total_shards = N <= 255, K <= N.
  /// Throws std::invalid_argument on bad parameters.
  ReedSolomon(int data_shards, int total_shards);

  int data_shards() const { return k_; }
  int total_shards() const { return n_; }

  /// Size of every chunk encode() makes from a block of `block_bytes`:
  /// ceil((block_bytes + 4) / K).
  std::size_t chunk_size(std::size_t block_bytes) const;

  /// Splits `block` into K equal stripes (zero-padding the last) and returns
  /// N chunks of identical size. A 4-byte little-endian length header is
  /// prepended so decode() can strip the padding; chunk size is therefore
  /// chunk_size(|block|).
  std::vector<Bytes> encode(ByteView block) const;

  /// Writes bytes [off, off + len) of chunk `index` of encode(block) to
  /// `dst`, without building any other chunk. encode() fills its chunks
  /// this way; a retriever uses it to re-create only the chunks it did not
  /// receive. Requires off + len <= chunk_size(|block|).
  void encode_chunk_range(ByteView block, int index, std::size_t off,
                          std::size_t len, std::uint8_t* dst) const;

  /// Encodes raw shards (no length header, no padding logic): `shards` must
  /// contain exactly K equal-length stripes; returns all N chunks.
  std::vector<Bytes> encode_shards(const std::vector<Bytes>& data) const;

  /// Reconstructs the original block from any K chunks. `chunks` has N
  /// entries; `chunks[i]` views the i-th chunk or is empty (missing). The
  /// first K present chunks are used. Returns std::nullopt if fewer than K
  /// chunks are present, their sizes differ, or the length header is
  /// implausible.
  ///
  /// When `canonical` is non-null it is set to whether the K chunks used are
  /// exactly the chunks encode() makes from the result at those indices: a
  /// chunk size of chunk_size(|result|) and all-zero padding. Then, and
  /// only then, re-encoding the result gives back the chunks received.
  std::optional<Bytes> decode(std::span<const ByteView> chunks,
                              bool* canonical = nullptr) const;
  /// decode() over views of `chunks` (empty = missing).
  std::optional<Bytes> decode(const std::vector<Bytes>& chunks) const;

  /// Reconstructs all N raw shards from any K present shards (for tests and
  /// for re-encoding checks that need the full chunk set).
  std::optional<std::vector<Bytes>> reconstruct_shards(
      const std::vector<Bytes>& chunks) const;

  /// Reconstructs only the K data shards, skipping the N-K parity rows.
  std::optional<std::vector<Bytes>> reconstruct_data_shards(
      const std::vector<Bytes>& chunks) const;

  /// Row `r`, column `c` of the N×K encoding matrix.
  std::uint8_t matrix_at(int r, int c) const;

 private:
  int k_;
  int n_;
  // Row-major N×K encoding matrix; top K×K block is identity.
  std::vector<std::uint8_t> matrix_;
};

}  // namespace dl
