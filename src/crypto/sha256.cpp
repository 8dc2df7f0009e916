#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__) && !defined(DL_FORCE_SCALAR_BUILD)
#define DL_SHA256_SIMD 1
#include <immintrin.h>
#endif

#include "common/cpu.hpp"
#include "common/hex.hpp"

namespace dl {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// Folds one 64-byte block into `state` (8 words) — the portable rounds.
void compress_scalar(std::uint32_t* state, const std::uint8_t* p) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(p[4 * i]) << 24 |
           static_cast<std::uint32_t>(p[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(p[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(p[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + S1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = S0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(DL_SHA256_SIMD)

// SHA-256 compression using the x86 SHA extensions. Same contract as the
// scalar path: folds one 64-byte block into `state` (8 words).
__attribute__((target("sha,sse4.1")))
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* p) {
  const __m128i shuf = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Load state as {ABEF, CDGH} per the ISA's packing.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));      // DCBA
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);  // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);  // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);  // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);       // CDGH
  const __m128i abef_save = st0;
  const __m128i cdgh_save = st1;

// Lambdas do not inherit the enclosing function's target attribute, so the
// 4-round step must be a macro.
#define DL_SHA_ROUNDS4(msg, k)                                                   \
  do {                                                                           \
    const __m128i wk = _mm_add_epi32(                                            \
        (msg), _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + (k)))); \
    st1 = _mm_sha256rnds2_epu32(st1, st0, wk);                                   \
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(wk, 0x0E));          \
  } while (0)

  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), shuf);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)), shuf);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)), shuf);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)), shuf);

  DL_SHA_ROUNDS4(m0, 0);
  DL_SHA_ROUNDS4(m1, 4);
  DL_SHA_ROUNDS4(m2, 8);
  DL_SHA_ROUNDS4(m3, 12);
  for (int i = 16; i < 64; i += 16) {
    m0 = _mm_sha256msg1_epu32(m0, m1);
    m0 = _mm_add_epi32(m0, _mm_alignr_epi8(m3, m2, 4));
    m0 = _mm_sha256msg2_epu32(m0, m3);
    DL_SHA_ROUNDS4(m0, i);
    m1 = _mm_sha256msg1_epu32(m1, m2);
    m1 = _mm_add_epi32(m1, _mm_alignr_epi8(m0, m3, 4));
    m1 = _mm_sha256msg2_epu32(m1, m0);
    DL_SHA_ROUNDS4(m1, i + 4);
    m2 = _mm_sha256msg1_epu32(m2, m3);
    m2 = _mm_add_epi32(m2, _mm_alignr_epi8(m1, m0, 4));
    m2 = _mm_sha256msg2_epu32(m2, m1);
    DL_SHA_ROUNDS4(m2, i + 8);
    m3 = _mm_sha256msg1_epu32(m3, m0);
    m3 = _mm_add_epi32(m3, _mm_alignr_epi8(m2, m1, 4));
    m3 = _mm_sha256msg2_epu32(m3, m2);
    DL_SHA_ROUNDS4(m3, i + 12);
  }
#undef DL_SHA_ROUNDS4

  st0 = _mm_add_epi32(st0, abef_save);
  st1 = _mm_add_epi32(st1, cdgh_save);
  // Repack {ABEF, CDGH} -> {DCBA, HGFE}.
  tmp = _mm_shuffle_epi32(st0, 0x1B);  // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);  // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);        // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), st1);
}

#endif  // DL_SHA256_SIMD

bool sha_kernel_supported(ShaKernel k) {
  switch (k) {
    case ShaKernel::Scalar:
      return true;
#if defined(DL_SHA256_SIMD)
    case ShaKernel::ShaNi:
      return cpu::has_sha_ni();
#endif
    default:
      return false;
  }
}

ShaKernel resolve_default() {
  if (!cpu::force_scalar() && sha_kernel_supported(ShaKernel::ShaNi)) {
    return ShaKernel::ShaNi;
  }
  return ShaKernel::Scalar;
}

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*);

CompressFn compress_for(ShaKernel k) {
#if defined(DL_SHA256_SIMD)
  if (k == ShaKernel::ShaNi && cpu::has_sha_ni()) return compress_sha_ni;
#else
  (void)k;
#endif
  return compress_scalar;
}

struct Dispatch {
  ShaKernel kernel;
  CompressFn fn;
};

Dispatch& dispatch() {
  static Dispatch d{resolve_default(), compress_for(resolve_default())};
  return d;
}

// Block compressions run on this thread (sha256_compressions()).
thread_local std::uint64_t t_compressions = 0;

void store_be(const std::uint32_t* state, Hash& out) {
  for (int i = 0; i < 8; ++i) {
    out.v[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state[i] >> 24);
    out.v[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state[i] >> 16);
    out.v[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state[i] >> 8);
    out.v[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state[i]);
  }
}

}  // namespace

const char* sha_kernel_name(ShaKernel k) {
  return k == ShaKernel::ShaNi ? "sha_ni" : "scalar";
}

std::vector<ShaKernel> sha256_supported_kernels() {
  std::vector<ShaKernel> out{ShaKernel::Scalar};
  if (sha_kernel_supported(ShaKernel::ShaNi)) out.push_back(ShaKernel::ShaNi);
  return out;
}

ShaKernel sha256_active_kernel() { return dispatch().kernel; }

std::uint64_t sha256_compressions() { return t_compressions; }

void sha256_set_active_kernel(ShaKernel k) {
  if (!sha_kernel_supported(k)) k = ShaKernel::Scalar;
  dispatch() = Dispatch{k, compress_for(k)};
}

bool Hash::is_zero() const {
  for (auto b : v) {
    if (b != 0) return false;
  }
  return true;
}

std::string Hash::hex() const { return to_hex(view()); }

Sha256::Sha256() : state_(kInit) {}

void Sha256::process_block(const std::uint8_t* p) {
  ++t_compressions;
  dispatch().fn(state_.data(), p);
}

void Sha256::update(ByteView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0 && !data.empty()) {
    const std::size_t need = 64 - buf_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    __builtin_memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    __builtin_memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Hash Sha256::finalize() {
  // Build the padding blocks directly instead of feeding padding bytes back
  // through update() one at a time.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, 64 - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[static_cast<std::size_t>(56 + i)] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buf_.data());

  Hash out;
  store_be(state_.data(), out);
  return out;
}

Hash sha256(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Hash sha256_tagged(std::uint8_t tag, ByteView data) {
  // Single-pass over tag || data: the first block is staged (the tag shifts
  // everything by one byte), the interior blocks compress straight out of
  // `data`, and the padding blocks are built in place.
  std::array<std::uint32_t, 8> st = kInit;
  const CompressFn compress = dispatch().fn;
  // tag || data plus the 0x80 byte and the 8-byte length, in 64-byte blocks.
  t_compressions += (data.size() + 1 + 8) / 64 + 1;
  std::uint8_t block[64];
  block[0] = tag;
  const std::size_t head = data.size() < 63 ? data.size() : 63;
  if (head > 0) __builtin_memcpy(block + 1, data.data(), head);
  std::size_t off = head;
  std::size_t fill = 1 + head;
  if (fill == 64) {
    compress(st.data(), block);
    while (off + 64 <= data.size()) {
      compress(st.data(), data.data() + off);
      off += 64;
    }
    fill = data.size() - off;
    if (fill > 0) __builtin_memcpy(block, data.data() + off, fill);
  }
  const std::uint64_t bit_len = (static_cast<std::uint64_t>(data.size()) + 1) * 8;
  block[fill++] = 0x80;
  if (fill > 56) {
    std::memset(block + fill, 0, 64 - fill);
    compress(st.data(), block);
    fill = 0;
  }
  std::memset(block + fill, 0, 56 - fill);
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(st.data(), block);

  Hash out;
  store_be(st.data(), out);
  return out;
}

Hash sha256_pair(const Hash& a, const Hash& b) {
  Sha256 h;
  h.update(a.view());
  h.update(b.view());
  return h.finalize();
}

}  // namespace dl
