#include "vid/messages.hpp"

#include "common/serial.hpp"

namespace dl::vid {

namespace {

bool read_hash(Reader& r, Hash& out) {
  const ByteView raw = r.raw(32);
  if (!r.ok()) return false;
  std::copy(raw.begin(), raw.end(), out.v.begin());
  return true;
}

}  // namespace

Bytes ChunkView::encode() const {
  Writer w(32 + 4 + chunk.size() + 4 + proof.encoded_size());
  w.raw(root.view());
  w.bytes(chunk);
  w.u32(static_cast<std::uint32_t>(proof.encoded_size()));
  proof.encode_into(w);
  return std::move(w).take();
}

ChunkMsg ChunkMsg::from(const ChunkView& v) {
  return ChunkMsg{v.root, Bytes(v.chunk.begin(), v.chunk.end()), v.proof};
}

bool ChunkView::decode(ByteView in, ChunkView& out) {
  Reader r(in);
  if (!read_hash(r, out.root)) return false;
  out.chunk = r.bytes();
  const ByteView proof_raw = r.bytes();
  if (!r.done()) return false;
  return MerkleProof::decode(proof_raw, out.proof);
}

Bytes RootMsg::encode() const {
  Writer w(32);
  w.raw(root.view());
  return std::move(w).take();
}

bool RootMsg::decode(ByteView in, RootMsg& out) {
  Reader r(in);
  if (!read_hash(r, out.root)) return false;
  return r.done();
}

Bytes FpChunkMsg::encode() const {
  Writer w;
  w.bytes(chunk);
  w.bytes(checksum.encode());
  return std::move(w).take();
}

bool FpChunkMsg::decode(ByteView in, FpChunkMsg& out) {
  Reader r(in);
  const ByteView chunk = r.bytes();
  out.chunk.assign(chunk.begin(), chunk.end());
  const ByteView cc = r.bytes();
  if (!r.done()) return false;
  return CrossChecksum::decode(cc, out.checksum);
}

Bytes FpChecksumMsg::encode() const {
  Writer w;
  w.bytes(checksum.encode());
  return std::move(w).take();
}

bool FpChecksumMsg::decode(ByteView in, FpChecksumMsg& out) {
  Reader r(in);
  const ByteView cc = r.bytes();
  if (!r.done()) return false;
  return CrossChecksum::decode(cc, out.checksum);
}

}  // namespace dl::vid
