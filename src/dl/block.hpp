// Block and transaction formats for DispersedLedger / HoneyBadger.
//
// A block is what one node proposes (disperses) in one epoch. Besides
// transactions it carries the node's VID-completion observation vector V
// (§4.3): V[j] = number of leading epochs of node j whose VID instances have
// all Completed at the proposer. The inter-node linking rule combines the V
// arrays of the committed blocks to deliver every correct block.
//
// Decoding is total; a block that fails to decode — including the AVID-M
// BAD_UPLOADER sentinel — is treated per the paper as ill-formatted and its
// observation replaced with [infinity, ...] (Block::decode_delivered).
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

  Bytes encode() const;
  static std::optional<Block> decode(ByteView in, int expected_n);
  // The view of a delivered block that every consumer sees: live delivery,
  // catch-up install and store replay. Null `content` is BAD_UPLOADER. A
  // BAD_UPLOADER or undecodable block is an empty block observing infinity
  // for every node; a block without observations claims nothing (zeros).
  static Block decode_delivered(const Bytes* content, int n);

  // Total bytes of transaction payloads (the "useful" throughput).
  std::uint64_t payload_bytes() const;
  bool empty() const { return txs.empty(); }
};

}  // namespace dl::core
