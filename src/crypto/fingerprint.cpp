#include "crypto/fingerprint.hpp"

#include <array>

#include "common/serial.hpp"
#include "erasure/gf256.hpp"

namespace dl {

namespace gf64 {

namespace {
// Reduction polynomial tail of x^64 + x^4 + x^3 + x + 1 (primitive).
constexpr std::uint64_t kPolyTail = 0x1BULL;
}  // namespace

std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
  // Schoolbook carry-less multiply with interleaved reduction.
  std::uint64_t result = 0;
  while (b != 0) {
    if (b & 1) result ^= a;
    b >>= 1;
    const bool carry = (a >> 63) & 1;
    a <<= 1;
    if (carry) a ^= kPolyTail;
  }
  return result;
}

std::uint64_t pow(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t result = 1;
  while (exp != 0) {
    if (exp & 1) result = mul(result, base);
    base = mul(base, base);
    exp >>= 1;
  }
  return result;
}

}  // namespace gf64

namespace {

// Builds the embedding table once: find a root beta of GF(2^8)'s defining
// polynomial x^8+x^4+x^3+x^2+1 inside GF(2^64) (roots live in the unique
// 256-element subfield, whose nonzero elements form the order-255 subgroup),
// then map g^k -> beta^k where g = 0x02 generates GF(2^8)*.
struct EmbedTable {
  std::array<std::uint64_t, 256> phi{};

  EmbedTable() {
    // Generator of the order-255 subgroup: x^((2^64-1)/255).
    const std::uint64_t sub_gen = gf64::pow(2, 0xFFFFFFFFFFFFFFFFULL / 255ULL);
    // Scan the subgroup for a root of p(y) = y^8+y^4+y^3+y^2+1.
    std::uint64_t beta = 0;
    std::uint64_t cand = 1;
    for (int k = 0; k < 255; ++k) {
      cand = k == 0 ? sub_gen : gf64::mul(cand, sub_gen);
      const std::uint64_t y2 = gf64::mul(cand, cand);
      const std::uint64_t y3 = gf64::mul(y2, cand);
      const std::uint64_t y4 = gf64::mul(y2, y2);
      const std::uint64_t y8 = gf64::mul(y4, y4);
      if ((y8 ^ y4 ^ y3 ^ y2 ^ 1ULL) == 0) {
        beta = cand;
        break;
      }
    }
    // beta exists because GF(2^8) embeds in GF(2^64) (8 divides 64).
    phi[0] = 0;
    // g = 0x02 generates GF(2^8)* under 0x11D; phi(g^k) = beta^k.
    std::uint64_t acc64 = 1;
    std::uint8_t acc8 = 1;
    for (int k = 0; k < 255; ++k) {
      phi[acc8] = acc64;
      acc8 = gf256::mul(acc8, 0x02);
      acc64 = gf64::mul(acc64, beta);
    }
  }
};

const EmbedTable& embed_table() {
  static const EmbedTable t;
  return t;
}

}  // namespace

std::uint64_t gf256_embed(std::uint8_t a) { return embed_table().phi[a]; }

std::uint64_t fingerprint(ByteView data, std::uint64_t r) {
  // Horner evaluation of sum_i phi(d_i) * r^(i+1) = r*(phi(d_0) + r*(...)).
  const EmbedTable& t = embed_table();
  std::uint64_t acc = 0;
  for (std::size_t i = data.size(); i-- > 0;) {
    acc = gf64::mul(acc, r) ^ t.phi[data[i]];
  }
  return gf64::mul(acc, r);
}

std::uint64_t combine(const std::vector<std::uint64_t>& coeffs,
                      const std::vector<std::uint64_t>& fps) {
  std::uint64_t out = 0;
  const std::size_t n = coeffs.size() < fps.size() ? coeffs.size() : fps.size();
  for (std::size_t i = 0; i < n; ++i) out ^= gf64::mul(coeffs[i], fps[i]);
  return out;
}

std::size_t CrossChecksum::wire_size() const {
  return chunk_hashes.size() * 32 + data_fps.size() * 8 + 8;
}

Bytes CrossChecksum::encode() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(chunk_hashes.size()));
  for (const Hash& h : chunk_hashes) w.raw(h.view());
  w.u32(static_cast<std::uint32_t>(data_fps.size()));
  for (std::uint64_t f : data_fps) w.u64(f);
  w.u64(eval_point);
  return std::move(w).take();
}

bool CrossChecksum::decode(ByteView in, CrossChecksum& out) {
  Reader r(in);
  const std::uint32_t nh = r.u32();
  if (!r.ok() || nh > 1024) return false;
  out.chunk_hashes.assign(nh, Hash{});
  for (std::uint32_t i = 0; i < nh; ++i) {
    const ByteView raw = r.raw(32);
    if (!r.ok()) return false;
    std::copy(raw.begin(), raw.end(), out.chunk_hashes[i].v.begin());
  }
  const std::uint32_t nf = r.u32();
  if (!r.ok() || nf > 1024) return false;
  out.data_fps.resize(nf);
  for (std::uint32_t i = 0; i < nf; ++i) out.data_fps[i] = r.u64();
  out.eval_point = r.u64();
  return r.done();
}

}  // namespace dl
