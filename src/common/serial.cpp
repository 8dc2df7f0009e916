#include "common/serial.hpp"

namespace dl {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::bytes(ByteView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::raw(ByteView b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

std::uint8_t* Writer::skip(std::size_t n) {
  buf_.resize(buf_.size() + n);
  return buf_.data() + buf_.size() - n;
}

bool Reader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | data_[pos_ + 1] << 8);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

ByteView Reader::bytes() {
  std::uint32_t n = u32();
  return raw(n);
}

ByteView Reader::raw(std::size_t n) {
  if (!take(n)) return {};
  const ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace dl
