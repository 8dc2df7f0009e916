#include "dl/block.hpp"

#include <bit>

#include "common/serial.hpp"

namespace dl::core {

Bytes Block::encode() const {
  std::size_t size = 4 + 8 * v_array.size() + 4;
  for (const Transaction& tx : txs) size += tx.wire_size();
  Writer w(size);
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

std::uint64_t Block::payload_bytes() const {
  std::uint64_t sum = 0;
  for (const Transaction& tx : txs) sum += tx.payload.size();
  return sum;
}

namespace {

// Walks an encoded block, checking all of it: the V array goes to
// `v_array`, each transaction to on_tx(TxView) (which may ignore it), and
// the result is false on any malformed input.
template <class OnTx>
bool parse_block(ByteView in, int expected_n,
                 std::vector<std::uint64_t>& v_array, OnTx on_tx) {
  Reader r(in);
  const std::uint32_t nv = r.u32();
  if (!r.ok() || (nv != 0 && nv != static_cast<std::uint32_t>(expected_n))) {
    return false;
  }
  v_array.resize(nv);
  for (std::uint32_t i = 0; i < nv; ++i) v_array[i] = r.u64();
  const std::uint32_t nt = r.u32();
  if (!r.ok()) return false;
  // Each transaction needs at least 16 bytes; reject absurd counts early.
  if (static_cast<std::uint64_t>(nt) * 16 > in.size()) return false;
  for (std::uint32_t i = 0; i < nt; ++i) {
    TxView tx;
    tx.submit_time = std::bit_cast<double>(r.u64());
    tx.origin = r.u32();
    tx.payload = r.bytes();
    if (!r.ok()) return false;
    on_tx(tx, nt);
  }
  return r.done();
}

std::vector<std::uint64_t> poison(int n) {
  return std::vector<std::uint64_t>(static_cast<std::size_t>(n), kInfObservation);
}

}  // namespace

std::optional<BlockView> BlockView::decode(ByteView in, int expected_n) {
  BlockView b;
  const bool ok = parse_block(in, expected_n, b.v_array,
                              [&b](const TxView& tx, std::uint32_t nt) {
                                if (b.txs.empty()) b.txs.reserve(nt);
                                b.txs.push_back(tx);
                              });
  if (!ok) return std::nullopt;
  return b;
}

BlockView BlockView::decode_delivered(const Bytes* content, int n) {
  if (content != nullptr) {
    if (auto block = decode(*content, n); block.has_value()) {
      if (block->v_array.empty()) block->v_array.assign(static_cast<std::size_t>(n), 0);
      return std::move(*block);
    }
  }
  BlockView b;
  b.v_array = poison(n);
  return b;
}

std::vector<std::uint64_t> BlockView::delivered_v_array(const Bytes* content,
                                                        int n) {
  std::vector<std::uint64_t> v;
  if (content == nullptr ||
      !parse_block(*content, n, v, [](const TxView&, std::uint32_t) {})) {
    return poison(n);
  }
  if (v.empty()) v.assign(static_cast<std::size_t>(n), 0);
  return v;
}

std::uint64_t BlockView::payload_bytes() const {
  std::uint64_t sum = 0;
  for (const TxView& tx : txs) sum += tx.payload.size();
  return sum;
}

}  // namespace dl::core
