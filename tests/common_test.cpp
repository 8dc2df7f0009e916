// Unit tests for the common substrate: bytes, hex, rng, serialization, and
// the PrefixSet watermark set.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/hex.hpp"
#include "common/prefix_set.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"

namespace dl {
namespace {

TEST(PrefixSet, InOrderInsertsAdvanceTheWatermark) {
  PrefixSet s;
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(s.insert(i));
  EXPECT_EQ(s.prefix(), 1000u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(999));
  EXPECT_FALSE(s.contains(1000));
  EXPECT_FALSE(s.insert(500));  // already a member
}

TEST(PrefixSet, FillingAHoleAbsorbsTheMembersAboveIt) {
  PrefixSet s;
  EXPECT_TRUE(s.insert(2));
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(3));
  EXPECT_EQ(s.prefix(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.insert(0));
  EXPECT_EQ(s.prefix(), 1u);
  EXPECT_TRUE(s.insert(1));  // reaches 2 and 3; 4 is still a hole
  EXPECT_EQ(s.prefix(), 4u);
  EXPECT_FALSE(s.contains(4));
  EXPECT_TRUE(s.insert(4));
  EXPECT_EQ(s.prefix(), 6u);
}

TEST(Bytes, StringRoundTrip) {
  const Bytes b = bytes_of("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Bytes, AppendAndEqual) {
  Bytes a = bytes_of("foo");
  append(a, bytes_of("bar"));
  EXPECT_EQ(to_string(a), "foobar");
  EXPECT_TRUE(equal(a, bytes_of("foobar")));
  EXPECT_FALSE(equal(a, bytes_of("foobaz")));
  EXPECT_FALSE(equal(a, bytes_of("foo")));
}

TEST(Bytes, RandomBytesDeterministic) {
  const Bytes a = random_bytes(1000, 42);
  const Bytes b = random_bytes(1000, 42);
  const Bytes c = random_bytes(1000, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1000u);
}

TEST(Bytes, RandomBytesOddSizes) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u}) {
    EXPECT_EQ(random_bytes(n, 1).size(), n);
  }
}

TEST(Hex, RoundTrip) {
  const Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(b), "0001abff");
  auto back = from_hex("0001abff");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, b);
}

TEST(Hex, UpperCaseAccepted) {
  auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(Rng(7).next(), c.next());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(123);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(99);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng r(100);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Serial, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.done());
}

TEST(Serial, BytesRoundTrip) {
  Writer w;
  w.bytes(bytes_of("payload"));
  w.bytes({});
  Reader r(w.data());
  EXPECT_EQ(to_string(r.bytes()), "payload");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serial, TruncatedInputFailsSafely) {
  Writer w;
  w.u64(1);
  Bytes data = w.data();
  data.pop_back();
  Reader r(data);
  r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  // Further reads on a failed reader stay failed and return zero.
  EXPECT_EQ(r.u32(), 0u);
}

TEST(Serial, LengthPrefixOverrunFails) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(1);
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serial, RawReads) {
  Writer w;
  w.raw(bytes_of("abc"));
  Reader r(w.data());
  EXPECT_EQ(to_string(r.raw(3)), "abc");
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace dl
