#include "dl/catchup.hpp"

#include "common/serial.hpp"

namespace dl::core {

Bytes CatchUpRequestMsg::encode() const {
  Writer w;
  w.u64(from_epoch);
  w.u32(max_epochs);
  return std::move(w).take();
}

bool CatchUpRequestMsg::decode(ByteView in, CatchUpRequestMsg& out) {
  Reader r(in);
  out.from_epoch = r.u64();
  out.max_epochs = r.u32();
  return r.done();
}

Bytes CatchUpChunkMsg::encode() const {
  Writer w;
  w.u64(round_from);
  w.u64(at_epoch);
  w.u32(block_count);
  w.u32(block_index);
  w.u64(block_epoch);
  w.u32(proposer);
  w.bytes(block_count == 0 ? Bytes{} : chunk.encode());
  return std::move(w).take();
}

bool CatchUpChunkMsg::decode(ByteView in, CatchUpChunkMsg& out) {
  Reader r(in);
  out.round_from = r.u64();
  out.at_epoch = r.u64();
  out.block_count = r.u32();
  out.block_index = r.u32();
  out.block_epoch = r.u64();
  out.proposer = r.u32();
  const ByteView chunk_raw = r.bytes();
  if (!r.done()) return false;
  if (out.block_count == 0) {
    return chunk_raw.empty() && out.block_index == 0;
  }
  vid::ChunkView chunk;
  if (out.block_index >= out.block_count ||
      !vid::ChunkView::decode(chunk_raw, chunk)) {
    return false;
  }
  out.chunk = vid::ChunkMsg::from(chunk);
  return true;
}

Bytes CatchUpDoneMsg::encode() const {
  Writer w;
  w.u64(round_from);
  w.u64(frontier);
  return std::move(w).take();
}

bool CatchUpDoneMsg::decode(ByteView in, CatchUpDoneMsg& out) {
  Reader r(in);
  out.round_from = r.u64();
  out.frontier = r.u64();
  return r.done();
}

}  // namespace dl::core
