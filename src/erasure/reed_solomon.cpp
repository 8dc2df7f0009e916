#include "erasure/reed_solomon.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/buffer_recycler.hpp"
#include "erasure/gf256.hpp"

namespace dl {

namespace {

// Row-major square matrix inversion via Gauss-Jordan over GF(2^8).
// Returns false if singular.
bool invert_matrix(std::vector<std::uint8_t>& m, int n) {
  std::vector<std::uint8_t> inv(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) inv[static_cast<std::size_t>(i * n + i)] = 1;

  auto at = [n](std::vector<std::uint8_t>& mat, int r, int c) -> std::uint8_t& {
    return mat[static_cast<std::size_t>(r * n + c)];
  };

  for (int col = 0; col < n; ++col) {
    // Find pivot.
    int pivot = -1;
    for (int r = col; r < n; ++r) {
      if (at(m, r, col) != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) return false;
    if (pivot != col) {
      for (int c = 0; c < n; ++c) {
        std::swap(at(m, pivot, c), at(m, col, c));
        std::swap(at(inv, pivot, c), at(inv, col, c));
      }
    }
    // Normalize pivot row.
    const std::uint8_t pv = at(m, col, col);
    if (pv != 1) {
      const std::uint8_t pinv = gf256::inv(pv);
      for (int c = 0; c < n; ++c) {
        at(m, col, c) = gf256::mul(at(m, col, c), pinv);
        at(inv, col, c) = gf256::mul(at(inv, col, c), pinv);
      }
    }
    // Eliminate other rows.
    for (int r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t f = at(m, r, col);
      if (f == 0) continue;
      for (int c = 0; c < n; ++c) {
        at(m, r, c) ^= gf256::mul(f, at(m, col, c));
        at(inv, r, c) ^= gf256::mul(f, at(inv, col, c));
      }
    }
  }
  m = std::move(inv);
  return true;
}

// N×K matrix multiply: out = a(N×K) * b(K×K), row-major.
std::vector<std::uint8_t> mat_mul(const std::vector<std::uint8_t>& a,
                                  const std::vector<std::uint8_t>& b, int n,
                                  int k) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n) * static_cast<std::size_t>(k), 0);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < k; ++c) {
      std::uint8_t acc = 0;
      for (int i = 0; i < k; ++i) {
        acc ^= gf256::mul(a[static_cast<std::size_t>(r * k + i)],
                          b[static_cast<std::size_t>(i * k + c)]);
      }
      out[static_cast<std::size_t>(r * k + c)] = acc;
    }
  }
  return out;
}

}  // namespace

ReedSolomon::ReedSolomon(int data_shards, int total_shards)
    : k_(data_shards), n_(total_shards) {
  if (k_ < 1 || n_ < k_ || n_ > 255) {
    throw std::invalid_argument("ReedSolomon: need 1 <= K <= N <= 255");
  }
  // Vandermonde rows: row r = [1, g^r, g^2r, ...] evaluated as exp(r*c).
  std::vector<std::uint8_t> vand(static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_));
  for (int r = 0; r < n_; ++r) {
    for (int c = 0; c < k_; ++c) {
      vand[static_cast<std::size_t>(r * k_ + c)] = gf256::exp(r * c);
    }
  }
  // Normalize: multiply by inverse of the top K×K block so that the top of
  // the final matrix is the identity (systematic code). Any K rows of a
  // Vandermonde matrix are independent, a property preserved under right
  // multiplication by an invertible matrix.
  std::vector<std::uint8_t> top(static_cast<std::size_t>(k_) * static_cast<std::size_t>(k_));
  for (int r = 0; r < k_; ++r) {
    for (int c = 0; c < k_; ++c) {
      top[static_cast<std::size_t>(r * k_ + c)] = vand[static_cast<std::size_t>(r * k_ + c)];
    }
  }
  if (!invert_matrix(top, k_)) {
    throw std::invalid_argument("ReedSolomon: Vandermonde top block singular");
  }
  matrix_ = mat_mul(vand, top, n_, k_);
}

std::uint8_t ReedSolomon::matrix_at(int r, int c) const {
  return matrix_[static_cast<std::size_t>(r * k_ + c)];
}

std::size_t ReedSolomon::chunk_size(std::size_t block_bytes) const {
  const auto k = static_cast<std::size_t>(k_);
  return (block_bytes + 4 + k - 1) / k;
}

std::vector<Bytes> ReedSolomon::encode(ByteView block) const {
  const std::size_t stripe = chunk_size(block.size());
  std::vector<Bytes> out(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    Bytes& chunk = out[static_cast<std::size_t>(i)];
    chunk.resize(stripe);
    encode_chunk_range(block, i, 0, stripe, chunk.data());
  }
  return out;
}

namespace {

// The padded block is header(4) || block || zeros. Calls fn(dst_off, src, n)
// for the parts of padded bytes [a, b) that are not padding: src points into
// `hdr` or `block`, dst_off is relative to a.
template <class Fn>
void for_each_unpadded(const std::uint8_t* hdr, ByteView block, std::size_t a,
                       std::size_t b, Fn fn) {
  if (a < 4) fn(0, hdr + a, std::min<std::size_t>(b, 4) - a);
  const std::size_t lo = std::max<std::size_t>(a, 4);
  const std::size_t hi = std::min(b, 4 + block.size());
  if (lo < hi) fn(lo - a, block.data() + (lo - 4), hi - lo);
}

}  // namespace

void ReedSolomon::encode_chunk_range(ByteView block, int index,
                                     std::size_t off, std::size_t len,
                                     std::uint8_t* dst) const {
  if (len == 0) return;
  const std::size_t stripe = chunk_size(block.size());
  const auto n = static_cast<std::uint32_t>(block.size());
  const std::uint8_t hdr[4] = {
      static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
      static_cast<std::uint8_t>(n >> 16), static_cast<std::uint8_t>(n >> 24)};
  if (index < k_) {
    // A data chunk is a slice of the padded block.
    const std::size_t a = static_cast<std::size_t>(index) * stripe + off;
    const std::size_t pad_from = std::max(a, 4 + block.size());
    if (pad_from < a + len) std::memset(dst + (pad_from - a), 0, a + len - pad_from);
    for_each_unpadded(hdr, block, a, a + len,
                      [dst](std::size_t d, const std::uint8_t* src, std::size_t m) {
                        std::memcpy(dst + d, src, m);
                      });
    return;
  }
  // A parity chunk: sum over data stripes c of matrix(index, c) * stripe c.
  // Padding contributes nothing, so only header and block bytes are read.
  std::memset(dst, 0, len);
  for (int c = 0; c < k_; ++c) {
    const std::uint8_t coef = matrix_at(index, c);
    if (coef == 0) continue;
    const std::size_t a = static_cast<std::size_t>(c) * stripe + off;
    for_each_unpadded(hdr, block, a, a + len,
                      [dst, coef](std::size_t d, const std::uint8_t* src, std::size_t m) {
                        gf256::mul_add_row(dst + d, src, coef, m);
                      });
  }
}

std::vector<Bytes> ReedSolomon::encode_shards(const std::vector<Bytes>& data) const {
  if (static_cast<int>(data.size()) != k_) {
    throw std::invalid_argument("encode_shards: wrong shard count");
  }
  const std::size_t stripe = data[0].size();
  for (const Bytes& d : data) {
    if (d.size() != stripe) throw std::invalid_argument("encode_shards: ragged shards");
  }
  std::vector<Bytes> out(static_cast<std::size_t>(n_));
  for (int i = 0; i < k_; ++i) out[static_cast<std::size_t>(i)] = data[static_cast<std::size_t>(i)];
  for (int r = k_; r < n_; ++r) {
    Bytes& row = out[static_cast<std::size_t>(r)];
    row.assign(stripe, 0);
    for (int c = 0; c < k_; ++c) {
      gf256::mul_add_row(row.data(), data[static_cast<std::size_t>(c)].data(),
                         matrix_at(r, c), stripe);
    }
  }
  return out;
}

namespace {

// Solves for the padded data stripes behind a chunk set, a byte range at a
// time, reading the chunks where they lie.
class Solver {
 public:
  // Uses the first K present chunks; ok() is false if there are fewer, if
  // their sizes differ, or if their rows are singular.
  Solver(const ReedSolomon& rs, std::span<const ByteView> chunks)
      : k_(rs.data_shards()), direct_(static_cast<std::size_t>(k_), -1) {
    const int n = rs.total_shards();
    if (static_cast<int>(chunks.size()) != n) return;
    std::vector<int> rows;
    std::size_t stripe = 0;
    for (int i = 0; i < n && static_cast<int>(rows.size()) < k_; ++i) {
      const ByteView c = chunks[static_cast<std::size_t>(i)];
      if (c.empty()) continue;
      if (stripe == 0) {
        stripe = c.size();
      } else if (c.size() != stripe) {
        return;
      }
      if (i < k_) direct_[static_cast<std::size_t>(i)] = static_cast<int>(rows.size());
      rows.push_back(i);
      src_.push_back(c.data());
    }
    if (static_cast<int>(rows.size()) < k_) return;
    if (rows.back() >= k_) {
      // Some data stripe is missing: invert the submatrix of the rows held.
      inv_.resize(static_cast<std::size_t>(k_) * static_cast<std::size_t>(k_));
      for (int r = 0; r < k_; ++r) {
        for (int c = 0; c < k_; ++c) {
          inv_[static_cast<std::size_t>(r * k_ + c)] =
              rs.matrix_at(rows[static_cast<std::size_t>(r)], c);
        }
      }
      if (!invert_matrix(inv_, k_)) return;
    }
    stripe_ = stripe;
  }

  bool ok() const { return stripe_ > 0; }
  std::size_t stripe() const { return stripe_; }

  // Writes padded bytes [a, b) of the data stripes to dst. A stripe held as
  // a chunk is copied; a missing one is solved from the K chunks.
  void solve(std::size_t a, std::size_t b, std::uint8_t* dst) const {
    for (std::size_t i = a / stripe_; a < b; ++i) {
      const std::size_t end = std::min(b, (i + 1) * stripe_);
      const std::size_t off = a - i * stripe_;
      const std::size_t len = end - a;
      const int held = direct_[i];
      if (held >= 0) {
        std::memcpy(dst, src_[static_cast<std::size_t>(held)] + off, len);
      } else {
        bool first = true;
        for (int j = 0; j < k_; ++j) {
          const std::uint8_t coef = inv_[i * static_cast<std::size_t>(k_) +
                                         static_cast<std::size_t>(j)];
          if (coef == 0) continue;
          const std::uint8_t* src = src_[static_cast<std::size_t>(j)] + off;
          if (first) {
            gf256::mul_row(dst, src, coef, len);
            first = false;
          } else {
            gf256::mul_add_row(dst, src, coef, len);
          }
        }
        if (first) std::memset(dst, 0, len);
      }
      dst += len;
      a = end;
    }
  }

 private:
  int k_;
  std::size_t stripe_ = 0;
  std::vector<const std::uint8_t*> src_;  // the K chunks used, by row order
  std::vector<int> direct_;  // data stripe i -> its index in src_, or -1
  std::vector<std::uint8_t> inv_;  // data stripe i = sum_j inv_[i][j] * src_[j]
};

std::vector<ByteView> views_of(const std::vector<Bytes>& chunks) {
  return std::vector<ByteView>(chunks.begin(), chunks.end());
}

}  // namespace

std::optional<std::vector<Bytes>> ReedSolomon::reconstruct_data_shards(
    const std::vector<Bytes>& chunks) const {
  const std::vector<ByteView> views = views_of(chunks);
  const Solver solver(*this, views);
  if (!solver.ok()) return std::nullopt;
  const std::size_t stripe = solver.stripe();
  std::vector<Bytes> data(static_cast<std::size_t>(k_), Bytes(stripe));
  for (std::size_t i = 0; i < data.size(); ++i) {
    solver.solve(i * stripe, (i + 1) * stripe, data[i].data());
  }
  return data;
}

std::optional<std::vector<Bytes>> ReedSolomon::reconstruct_shards(
    const std::vector<Bytes>& chunks) const {
  auto data = reconstruct_data_shards(chunks);
  if (!data) return std::nullopt;
  return encode_shards(*data);
}

std::optional<Bytes> ReedSolomon::decode(std::span<const ByteView> chunks,
                                         bool* canonical) const {
  const Solver solver(*this, chunks);
  if (!solver.ok()) return std::nullopt;
  const std::size_t stripe = solver.stripe();
  const std::size_t total = static_cast<std::size_t>(k_) * stripe;
  if (total < 4) return std::nullopt;
  std::uint8_t hdr[4];
  solver.solve(0, 4, hdr);
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = len << 8 | hdr[i];
  if (static_cast<std::size_t>(len) + 4 > total) return std::nullopt;
  // Each block byte is written once, straight into the result.
  Bytes block = take_buffer(len);
  block.resize(len);
  solver.solve(4, 4 + static_cast<std::size_t>(len), block.data());
  if (canonical != nullptr) {
    // With the chunk size encode() picks, the padding is under K <= 255
    // bytes.
    *canonical = chunk_size(len) == stripe;
    if (*canonical) {
      std::uint8_t pad[256];
      const std::size_t pad_len = total - 4 - len;
      solver.solve(4 + static_cast<std::size_t>(len), total, pad);
      for (std::size_t i = 0; i < pad_len; ++i) {
        if (pad[i] != 0) *canonical = false;
      }
    }
  }
  return block;
}

std::optional<Bytes> ReedSolomon::decode(const std::vector<Bytes>& chunks) const {
  const std::vector<ByteView> views = views_of(chunks);
  return decode(views);
}

}  // namespace dl
