// Block / transaction codec: round-trips, malformed input, payload math.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dl/block.hpp"

namespace dl::core {
namespace {

Block sample_block(int n) {
  Block b;
  for (int i = 0; i < n; ++i) b.v_array.push_back(static_cast<std::uint64_t>(i * 7));
  for (int i = 0; i < 5; ++i) {
    Transaction tx;
    tx.submit_time = 1.5 + i;
    tx.origin = static_cast<std::uint32_t>(i);
    tx.payload = random_bytes(100 + static_cast<std::size_t>(i), static_cast<std::uint64_t>(i));
    b.txs.push_back(std::move(tx));
  }
  return b;
}

TEST(Block, RoundTrip) {
  const Block b = sample_block(4);
  const Bytes wire = b.encode();
  auto back = BlockView::decode(wire, 4);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->v_array, b.v_array);
  ASSERT_EQ(back->txs.size(), b.txs.size());
  for (std::size_t i = 0; i < b.txs.size(); ++i) {
    EXPECT_DOUBLE_EQ(back->txs[i].submit_time, b.txs[i].submit_time);
    EXPECT_EQ(back->txs[i].origin, b.txs[i].origin);
    EXPECT_TRUE(equal(back->txs[i].payload, b.txs[i].payload));
    // Payloads are views into the block's bytes, not copies.
    EXPECT_GE(back->txs[i].payload.data(), wire.data());
    EXPECT_LE(back->txs[i].payload.data() + back->txs[i].payload.size(),
              wire.data() + wire.size());
  }
  EXPECT_EQ(back->payload_bytes(), b.payload_bytes());
}

TEST(Block, EncodeAllocatesItsExactSize) {
  const Bytes wire = sample_block(4).encode();
  EXPECT_EQ(wire.capacity(), wire.size());
}

TEST(Block, EmptyBlock) {
  Block b;
  const Bytes wire = b.encode();
  auto back = BlockView::decode(wire, 4);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->txs.empty());
  EXPECT_TRUE(back->v_array.empty());
  EXPECT_EQ(back->payload_bytes(), 0u);
}

TEST(Block, VArraySizeMismatchRejected) {
  const Block b = sample_block(4);
  EXPECT_FALSE(BlockView::decode(b.encode(), 5).has_value());
  EXPECT_TRUE(BlockView::decode(b.encode(), 4).has_value());
}

TEST(Block, MalformedInputRejected) {
  EXPECT_FALSE(BlockView::decode(bytes_of("BAD_UPLOADER"), 4).has_value());
  EXPECT_FALSE(BlockView::decode({}, 4).has_value());
  Bytes truncated = sample_block(4).encode();
  truncated.pop_back();
  EXPECT_FALSE(BlockView::decode(truncated, 4).has_value());
  Bytes extended = sample_block(4).encode();
  extended.push_back(0);
  EXPECT_FALSE(BlockView::decode(extended, 4).has_value());
}

TEST(Block, AbsurdTxCountRejected) {
  // Claims 2^31 transactions in a tiny buffer: must fail fast, not allocate.
  Bytes evil;
  evil.push_back(0);  // v_array count = 0 (u32)
  evil.push_back(0);
  evil.push_back(0);
  evil.push_back(0);
  evil.push_back(0xFF);  // tx count
  evil.push_back(0xFF);
  evil.push_back(0xFF);
  evil.push_back(0x7F);
  EXPECT_FALSE(BlockView::decode(evil, 4).has_value());
}

TEST(Block, PayloadBytes) {
  const Block b = sample_block(4);
  EXPECT_EQ(b.payload_bytes(), 100u + 101 + 102 + 103 + 104);
}

// The linking rule reads only V arrays, without building the transaction
// list; it must still see exactly what a full decode sees, poison included.
void expect_v_read_agrees(const Bytes& content, int n) {
  EXPECT_EQ(BlockView::delivered_v_array(&content, n),
            BlockView::decode_delivered(&content, n).v_array);
}

TEST(BlockView, VArrayReadAgreesWithDecodeDelivered) {
  EXPECT_EQ(BlockView::delivered_v_array(nullptr, 4),
            BlockView::decode_delivered(nullptr, 4).v_array);
  expect_v_read_agrees(bytes_of("BAD_UPLOADER"), 4);
  expect_v_read_agrees({}, 4);
  for (const int vn : {0, 4}) {
    const Bytes wire = sample_block(vn).encode();
    expect_v_read_agrees(wire, 4);
    expect_v_read_agrees(wire, 5);  // V array of the wrong width
    for (std::size_t len = 0; len < wire.size(); ++len) {
      expect_v_read_agrees(Bytes(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len)), 4);
    }
    Bytes extended = wire;
    extended.push_back(0);
    expect_v_read_agrees(extended, 4);
    Rng rng(static_cast<std::uint64_t>(vn) + 1);
    for (int trial = 0; trial < 2000; ++trial) {
      Bytes mutated = wire;
      const int flips = 1 + static_cast<int>(rng.next_below(3));
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(rng.next_below(mutated.size()));
        mutated[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      expect_v_read_agrees(mutated, 4);
    }
  }
}

TEST(Transaction, WireSize) {
  Transaction tx;
  tx.payload = Bytes(250, 0);
  EXPECT_EQ(tx.wire_size(), 250u + 16);
}

}  // namespace
}  // namespace dl::core
