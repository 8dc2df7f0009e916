// Merkle tree over erasure-coded chunks — the AVID-M commitment.
//
// The tree binds both chunk *content* and chunk *position*: a proof for
// chunk i verifies only against index i, which AVID-M needs ("Ci is the i-th
// chunk under root r", Fig. 3/4 of the paper). Leaves are domain-separated
// from inner nodes (0x00 / 0x01 prefixes) to prevent second-preimage
// splicing attacks; an odd node at any level is paired with itself.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace dl {

class Writer;

// Sibling path from a leaf to the root. `siblings[0]` is the leaf's sibling.
struct MerkleProof {
  std::uint32_t index = 0;        // leaf position
  std::uint32_t leaf_count = 0;   // total leaves in the tree
  std::vector<Hash> siblings;

  Bytes encode() const;
  // Appends exactly encoded_size() bytes, the same bytes encode() returns.
  void encode_into(Writer& w) const;
  std::size_t encoded_size() const { return 9 + siblings.size() * 32; }
  // Sibling count of every proof in a tree of `leaf_count` leaves.
  static std::size_t depth_for(std::uint32_t leaf_count);
  static bool decode(ByteView in, MerkleProof& out);
  std::size_t wire_size() const { return 8 + siblings.size() * 32; }

  bool operator==(const MerkleProof&) const = default;
};

class MerkleTree {
 public:
  // Builds the tree over `leaves` (at least one).
  explicit MerkleTree(const std::vector<Bytes>& leaves);
  // Builds the tree over leaves already hashed with merkle_leaf_hash, so a
  // caller that verified some leaves hashes only the rest.
  static MerkleTree from_leaf_hashes(std::vector<Hash> leaf_hashes);

  const Hash& root() const { return root_; }
  std::uint32_t leaf_count() const { return leaf_count_; }

  // Proof that leaf `index` is at that position under root().
  MerkleProof prove(std::uint32_t index) const;

 private:
  struct FromHashes {};
  MerkleTree(FromHashes, std::vector<Hash> leaf_hashes);

  std::uint32_t leaf_count_;
  // levels_[0] = leaf hashes, levels_.back() = {root}.
  std::vector<std::vector<Hash>> levels_;
  Hash root_;
};

// Hash of a leaf (domain-separated).
Hash merkle_leaf_hash(ByteView leaf);

// merkle_leaf_hash of a leaf fed in pieces, for a leaf that is built a
// slice at a time and never held whole.
class MerkleLeafHasher {
 public:
  MerkleLeafHasher();
  void update(ByteView piece) { h_.update(piece); }
  Hash finalize() { return h_.finalize(); }

 private:
  Sha256 h_;
};

// Batched leaf hashing: hashes of every leaf, in order. Equivalent to
// calling merkle_leaf_hash per leaf but runs the whole set through the
// dispatched single-pass tagged hasher — the shape MerkleTree construction
// and AVID-M chunk commitment use (N equal-size erasure-coded chunks).
std::vector<Hash> merkle_leaf_hashes(const std::vector<Bytes>& leaves);

// Recomputes the root implied by (`leaf`, `proof`) and compares with `root`.
// Returns false on any structural mismatch (wrong index, wrong depth).
bool merkle_verify(const Hash& root, ByteView leaf, const MerkleProof& proof);

// merkle_verify for a leaf already hashed with merkle_leaf_hash.
bool merkle_verify_hash(const Hash& root, const Hash& leaf_hash,
                        const MerkleProof& proof);

// Convenience: root of a chunk set (builds a throwaway tree).
Hash merkle_root(const std::vector<Bytes>& leaves);

}  // namespace dl
