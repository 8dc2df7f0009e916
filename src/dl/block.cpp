#include "dl/block.hpp"

#include <bit>

#include "common/serial.hpp"

namespace dl::core {

Bytes Block::encode() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(v_array.size()));
  for (std::uint64_t v : v_array) w.u64(v);
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const Transaction& tx : txs) {
    w.u64(std::bit_cast<std::uint64_t>(tx.submit_time));
    w.u32(tx.origin);
    w.bytes(tx.payload);
  }
  return std::move(w).take();
}

std::optional<Block> Block::decode(ByteView in, int expected_n) {
  Reader r(in);
  Block b;
  const std::uint32_t nv = r.u32();
  if (!r.ok() || (nv != 0 && nv != static_cast<std::uint32_t>(expected_n))) {
    return std::nullopt;
  }
  b.v_array.resize(nv);
  for (std::uint32_t i = 0; i < nv; ++i) b.v_array[i] = r.u64();
  const std::uint32_t nt = r.u32();
  if (!r.ok()) return std::nullopt;
  // Each transaction needs at least 16 bytes; reject absurd counts early.
  if (static_cast<std::uint64_t>(nt) * 16 > in.size()) return std::nullopt;
  b.txs.resize(nt);
  for (std::uint32_t i = 0; i < nt; ++i) {
    b.txs[i].submit_time = std::bit_cast<double>(r.u64());
    b.txs[i].origin = r.u32();
    b.txs[i].payload = r.bytes();
  }
  if (!r.done()) return std::nullopt;
  return b;
}

Block Block::decode_delivered(const Bytes* content, int n) {
  const auto width = static_cast<std::size_t>(n);
  if (content != nullptr) {
    if (auto block = decode(*content, n); block.has_value()) {
      if (block->v_array.empty()) block->v_array.assign(width, 0);
      return std::move(*block);
    }
  }
  Block poison;
  poison.v_array.assign(width, kInfObservation);
  return poison;
}

std::uint64_t Block::payload_bytes() const {
  std::uint64_t sum = 0;
  for (const Transaction& tx : txs) sum += tx.payload.size();
  return sum;
}

}  // namespace dl::core
