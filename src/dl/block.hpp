// Block and transaction formats for DispersedLedger / HoneyBadger.
//
// A block is what one node proposes (disperses) in one epoch. Besides
// transactions it carries the node's VID-completion observation vector V
// (§4.3): V[j] = number of leading epochs of node j whose VID instances have
// all Completed at the proposer. The inter-node linking rule combines the V
// arrays of the committed blocks to deliver every correct block.
//
// A proposer builds a Block, which owns its payloads. A received block is
// read as a BlockView: the transactions' payloads view the block's bytes,
// so decoding copies no payload.
//
// Decoding is total; a block that fails to decode — including the AVID-M
// BAD_UPLOADER sentinel — is treated per the paper as ill-formatted and its
// observation replaced with [infinity, ...] (BlockView::decode_delivered).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"

namespace dl::core {

// "Infinity" marker for observations extracted from ill-formatted blocks.
inline constexpr std::uint64_t kInfObservation = ~0ULL;

struct Transaction {
  double submit_time = 0;     // virtual seconds, for latency measurement
  std::uint32_t origin = 0;   // proposing node (for local-vs-all latency)
  Bytes payload;

  // Wire size of this transaction inside a block.
  std::size_t wire_size() const { return 8 + 4 + 4 + payload.size(); }
};

struct Block {
  std::vector<std::uint64_t> v_array;  // size N (empty allowed pre-linking)
  std::vector<Transaction> txs;

  // Sized once: the buffer is allocated at its final size.
  Bytes encode() const;

  // Total bytes of transaction payloads (the "useful" throughput).
  std::uint64_t payload_bytes() const;
  bool empty() const { return txs.empty(); }
};

// A transaction of a BlockView; `payload` views the block's bytes.
struct TxView {
  double submit_time = 0;
  std::uint32_t origin = 0;
  ByteView payload;
};

// A decoded block. Every payload views the bytes the block was decoded
// from, so a BlockView is valid only as long as those bytes are.
struct BlockView {
  std::vector<std::uint64_t> v_array;  // size N, or empty
  std::vector<TxView> txs;

  static std::optional<BlockView> decode(ByteView in, int expected_n);
  // The view of a delivered block that every consumer sees: live delivery,
  // catch-up install and store replay. Null `content` is BAD_UPLOADER. A
  // BAD_UPLOADER or undecodable block is an empty block observing infinity
  // for every node; a block without observations claims nothing (zeros).
  static BlockView decode_delivered(const Bytes* content, int n);
  // decode_delivered(content, n).v_array, read without building the
  // transaction list (the whole block is still checked).
  static std::vector<std::uint64_t> delivered_v_array(const Bytes* content,
                                                      int n);

  // Total bytes of transaction payloads (the "useful" throughput).
  std::uint64_t payload_bytes() const;
  bool empty() const { return txs.empty(); }
};

}  // namespace dl::core
