// Body codecs for the VID message kinds.
//
// Each body type round-trips through encode/decode; decode returns false on
// any malformed input. Sizes of these bodies are what bench/fig02 accounts.
// Encoders size their buffer once. A received chunk decodes into a
// ChunkView that points into the message; the one copy of the chunk is made
// by whoever keeps it.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/fingerprint.hpp"
#include "crypto/sha256.hpp"
#include "merkle/merkle_tree.hpp"

namespace dl::vid {

// A decoded Chunk or ReturnChunk body: `chunk` views the bytes it was
// decoded from and is valid only as long as they are.
struct ChunkView {
  Hash root;
  ByteView chunk;
  MerkleProof proof;

  // The encoded body, sized once.
  Bytes encode() const;
  static bool decode(ByteView in, ChunkView& out);
};

// Chunk(r, C_i, P_i): dispersal payload for the i-th server.
struct ChunkMsg {
  Hash root;
  Bytes chunk;
  MerkleProof proof;

  Bytes encode() const { return ChunkView(*this).encode(); }
  // Copies the chunk out of `v`.
  static ChunkMsg from(const ChunkView& v);
  // Views this message's chunk (valid while the message lives).
  operator ChunkView() const { return ChunkView{root, chunk, proof}; }
};

// GotChunk(r) and Ready(r) carry only the Merkle root.
struct RootMsg {
  Hash root;

  Bytes encode() const;
  static bool decode(ByteView in, RootMsg& out);
};

// ReturnChunk(r, C_i, P_i) reuses the ChunkMsg layout.
using ReturnChunkMsg = ChunkMsg;

// AVID-FP dispersal payload: chunk + fingerprinted cross-checksum.
struct FpChunkMsg {
  Bytes chunk;
  CrossChecksum checksum;

  Bytes encode() const;
  static bool decode(ByteView in, FpChunkMsg& out);
};

// AVID-FP echo/ready carry the full cross-checksum (this is the O(N)
// per-message overhead AVID-M removes).
struct FpChecksumMsg {
  CrossChecksum checksum;

  Bytes encode() const;
  static bool decode(ByteView in, FpChecksumMsg& out);
};

}  // namespace dl::vid
