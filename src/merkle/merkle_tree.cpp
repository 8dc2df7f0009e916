#include "merkle/merkle_tree.hpp"

#include <stdexcept>

#include "common/serial.hpp"

namespace dl {

namespace {

// Inner nodes hash tag || left || right — a fixed 65-byte message, which the
// single-pass tagged hasher folds in exactly two block compressions.
Hash inner_hash(const Hash& l, const Hash& r) {
  std::uint8_t lr[64];
  __builtin_memcpy(lr, l.v.data(), 32);
  __builtin_memcpy(lr + 32, r.v.data(), 32);
  return sha256_tagged(0x01, ByteView(lr, 64));
}

}  // namespace

Hash merkle_leaf_hash(ByteView leaf) { return sha256_tagged(0x00, leaf); }

MerkleLeafHasher::MerkleLeafHasher() {
  const std::uint8_t tag = 0x00;
  h_.update(ByteView(&tag, 1));
}

std::vector<Hash> merkle_leaf_hashes(const std::vector<Bytes>& leaves) {
  std::vector<Hash> out;
  out.reserve(leaves.size());
  for (const Bytes& l : leaves) {
    out.push_back(sha256_tagged(0x00, ByteView(l.data(), l.size())));
  }
  return out;
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaves)
    : MerkleTree(FromHashes{}, merkle_leaf_hashes(leaves)) {}

MerkleTree MerkleTree::from_leaf_hashes(std::vector<Hash> leaf_hashes) {
  return MerkleTree(FromHashes{}, std::move(leaf_hashes));
}

MerkleTree::MerkleTree(FromHashes, std::vector<Hash> leaf_hashes)
    : leaf_count_(static_cast<std::uint32_t>(leaf_hashes.size())) {
  if (leaf_hashes.empty()) throw std::invalid_argument("MerkleTree: no leaves");
  levels_.push_back(std::move(leaf_hashes));
  while (levels_.back().size() > 1) {
    const std::vector<Hash>& prev = levels_.back();
    std::vector<Hash> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      const Hash& l = prev[i];
      const Hash& r = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(inner_hash(l, r));
    }
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

MerkleProof MerkleTree::prove(std::uint32_t index) const {
  if (index >= leaf_count_) throw std::out_of_range("MerkleTree::prove: bad index");
  MerkleProof p;
  p.index = index;
  p.leaf_count = leaf_count_;
  std::size_t i = index;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const std::vector<Hash>& level = levels_[lvl];
    const std::size_t sib = (i % 2 == 0) ? i + 1 : i - 1;
    p.siblings.push_back(sib < level.size() ? level[sib] : level[i]);
    i /= 2;
  }
  return p;
}

bool merkle_verify(const Hash& root, ByteView leaf, const MerkleProof& proof) {
  return merkle_verify_hash(root, merkle_leaf_hash(leaf), proof);
}

bool merkle_verify_hash(const Hash& root, const Hash& leaf_hash,
                        const MerkleProof& proof) {
  if (proof.leaf_count == 0 || proof.index >= proof.leaf_count) return false;
  // Depth must match the tree shape for this leaf count.
  if (proof.siblings.size() != MerkleProof::depth_for(proof.leaf_count)) return false;

  Hash acc = leaf_hash;
  std::size_t i = proof.index;
  std::size_t width = proof.leaf_count;
  for (const Hash& sib : proof.siblings) {
    // An odd rightmost node is hashed with itself; enforce that the proof
    // actually supplies the self-hash there, otherwise positions could be
    // forged.
    const bool is_right = (i % 2 == 1);
    const bool has_sibling = is_right || i + 1 < width;
    if (!has_sibling && !(sib == acc)) return false;
    acc = is_right ? inner_hash(sib, acc) : inner_hash(acc, has_sibling ? sib : acc);
    i /= 2;
    width = (width + 1) / 2;
  }
  return acc == root;
}

Hash merkle_root(const std::vector<Bytes>& leaves) {
  return MerkleTree(leaves).root();
}

Bytes MerkleProof::encode() const {
  Writer w(encoded_size());
  encode_into(w);
  return std::move(w).take();
}

void MerkleProof::encode_into(Writer& w) const {
  w.u32(index);
  w.u32(leaf_count);
  w.u8(static_cast<std::uint8_t>(siblings.size()));
  for (const Hash& h : siblings) w.raw(h.view());
}

std::size_t MerkleProof::depth_for(std::uint32_t leaf_count) {
  std::size_t depth = 0;
  for (std::size_t width = leaf_count; width > 1; width = (width + 1) / 2) ++depth;
  return depth;
}

bool MerkleProof::decode(ByteView in, MerkleProof& out) {
  Reader r(in);
  out.index = r.u32();
  out.leaf_count = r.u32();
  const std::uint8_t n = r.u8();
  if (!r.ok() || n > 64) return false;
  out.siblings.assign(n, Hash{});
  for (std::uint8_t i = 0; i < n; ++i) {
    const ByteView raw = r.raw(32);
    if (!r.ok()) return false;
    std::copy(raw.begin(), raw.end(), out.siblings[i].v.begin());
  }
  return r.done();
}

}  // namespace dl
