#include "net/frame.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/serial.hpp"

namespace dl::net {

namespace {

std::uint8_t* put_u32_raw(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  return p + 4;
}

std::uint8_t* put_u64_raw(std::uint8_t* p, std::uint64_t v) {
  p = put_u32_raw(p, static_cast<std::uint32_t>(v));
  return put_u32_raw(p, static_cast<std::uint32_t>(v >> 32));
}

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u64(Bytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

// Starts a frame whose final payload length is already known exactly.
Bytes begin_frame(std::size_t payload_len, WireKind kind) {
  Bytes frame;
  frame.reserve(kFrameHeaderBytes + payload_len);
  put_u32(frame, static_cast<std::uint32_t>(payload_len));
  frame.push_back(static_cast<std::uint8_t>(kind));
  return frame;
}

}  // namespace

bool append_frame(Bytes& out, ByteView payload, std::size_t max_frame) {
  if (payload.size() > max_frame) return false;
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  append(out, payload);
  return true;
}

Bytes encode_hello(std::uint32_t node_id) {
  Bytes payload;
  payload.push_back(static_cast<std::uint8_t>(WireKind::Hello));
  put_u32(payload, kWireMagic);
  put_u32(payload, kWireVersion);
  put_u32(payload, node_id);
  Bytes frame;
  append_frame(frame, payload);
  return frame;
}

Bytes encode_data_frame(ByteView envelope_bytes) {
  Bytes frame;
  frame.reserve(kDataPayloadOffset + envelope_bytes.size());
  put_u32(frame, static_cast<std::uint32_t>(envelope_bytes.size() + 1));
  frame.push_back(static_cast<std::uint8_t>(WireKind::Data));
  append(frame, envelope_bytes);
  return frame;
}

std::size_t encode_data_frame_header(const Envelope& env, std::uint8_t* out) {
  // Frame payload = wire kind + envelope header + envelope body.
  const std::size_t payload_len =
      1 + Envelope::kHeaderBytes + env.body.size();
  std::uint8_t* p = put_u32_raw(out, static_cast<std::uint32_t>(payload_len));
  *p++ = static_cast<std::uint8_t>(WireKind::Data);
  env.encode_header(p);
  return kDataFrameHeaderBytes;
}

void encode_tx_ack_into(ByteRope& out, std::uint64_t client_seq,
                        TxStatus status) {
  std::uint8_t* p = out.reserve(kTxAckFrameBytes);
  p = put_u32_raw(p, 1 + 8 + 1);
  *p++ = static_cast<std::uint8_t>(WireKind::TxAck);
  p = put_u64_raw(p, client_seq);
  *p = static_cast<std::uint8_t>(status);
  out.commit(kTxAckFrameBytes);
}

void encode_tx_committed_into(ByteRope& out, std::uint64_t client_seq,
                              std::uint64_t epoch, std::uint32_t proposer,
                              std::uint64_t latency_us,
                              const StageLatencies& stages) {
  std::uint8_t* p = out.reserve(kTxCommittedFrameBytes);
  p = put_u32_raw(p, 1 + 8 + 8 + 4 + 8 + 5 * 4);
  *p++ = static_cast<std::uint8_t>(WireKind::TxCommitted);
  p = put_u64_raw(p, client_seq);
  p = put_u64_raw(p, epoch);
  p = put_u32_raw(p, proposer);
  p = put_u64_raw(p, latency_us);
  p = put_u32_raw(p, stages.ingress_us);
  p = put_u32_raw(p, stages.disperse_us);
  p = put_u32_raw(p, stages.ba_us);
  p = put_u32_raw(p, stages.retrieve_us);
  put_u32_raw(p, stages.notify_us);
  out.commit(kTxCommittedFrameBytes);
}

void encode_goodbye_into(ByteRope& out) {
  std::uint8_t* p = out.reserve(kGoodbyeFrameBytes);
  p = put_u32_raw(p, 1);
  *p = static_cast<std::uint8_t>(WireKind::Goodbye);
  out.commit(kGoodbyeFrameBytes);
}

Bytes encode_client_hello(std::uint64_t client_nonce) {
  Bytes frame = begin_frame(1 + 4 + 4 + 8, WireKind::ClientHello);
  put_u32(frame, kWireMagic);
  put_u32(frame, kWireVersion);
  put_u64(frame, client_nonce);
  return frame;
}

Bytes encode_submit_tx(std::uint64_t client_seq, ByteView payload) {
  Bytes frame = begin_frame(1 + 8 + payload.size(), WireKind::SubmitTx);
  put_u64(frame, client_seq);
  append(frame, payload);
  return frame;
}

Bytes encode_tx_ack(std::uint64_t client_seq, TxStatus status) {
  Bytes frame = begin_frame(1 + 8 + 1, WireKind::TxAck);
  put_u64(frame, client_seq);
  frame.push_back(static_cast<std::uint8_t>(status));
  return frame;
}

Bytes encode_tx_committed(std::uint64_t client_seq, std::uint64_t epoch,
                          std::uint32_t proposer, std::uint64_t latency_us,
                          const StageLatencies& stages) {
  Bytes frame = begin_frame(1 + 8 + 8 + 4 + 8 + 5 * 4, WireKind::TxCommitted);
  put_u64(frame, client_seq);
  put_u64(frame, epoch);
  put_u32(frame, proposer);
  put_u64(frame, latency_us);
  put_u32(frame, stages.ingress_us);
  put_u32(frame, stages.disperse_us);
  put_u32(frame, stages.ba_us);
  put_u32(frame, stages.retrieve_us);
  put_u32(frame, stages.notify_us);
  return frame;
}

Bytes encode_goodbye() { return begin_frame(1, WireKind::Goodbye); }

bool decode_wire(ByteView payload, WireFrame& out) {
  if (payload.empty()) return false;
  switch (static_cast<WireKind>(payload[0])) {
    case WireKind::Hello: {
      if (payload.size() != 1 + 3 * 4) return false;
      if (get_u32(payload.data() + 1) != kWireMagic) return false;
      if (get_u32(payload.data() + 5) != kWireVersion) return false;
      out = WireFrame{};
      out.kind = WireKind::Hello;
      out.hello_node = get_u32(payload.data() + 9);
      return true;
    }
    case WireKind::Data:
      out = WireFrame{};
      out.kind = WireKind::Data;
      out.data = payload.subspan(1);
      return true;
    case WireKind::ClientHello: {
      if (payload.size() != 1 + 4 + 4 + 8) return false;
      if (get_u32(payload.data() + 1) != kWireMagic) return false;
      if (get_u32(payload.data() + 5) != kWireVersion) return false;
      out = WireFrame{};
      out.kind = WireKind::ClientHello;
      out.client_nonce = get_u64(payload.data() + 9);
      return true;
    }
    case WireKind::SubmitTx:
      if (payload.size() < 1 + 8) return false;
      out = WireFrame{};
      out.kind = WireKind::SubmitTx;
      out.client_seq = get_u64(payload.data() + 1);
      out.data = payload.subspan(1 + 8);
      return true;
    case WireKind::TxAck: {
      if (payload.size() != 1 + 8 + 1) return false;
      const std::uint8_t status = payload[9];
      if (status > kMaxTxStatus) return false;
      out = WireFrame{};
      out.kind = WireKind::TxAck;
      out.client_seq = get_u64(payload.data() + 1);
      out.status = static_cast<TxStatus>(status);
      return true;
    }
    case WireKind::TxCommitted:
      if (payload.size() != 1 + 8 + 8 + 4 + 8 + 5 * 4) return false;
      out = WireFrame{};
      out.kind = WireKind::TxCommitted;
      out.client_seq = get_u64(payload.data() + 1);
      out.epoch = get_u64(payload.data() + 9);
      out.proposer = get_u32(payload.data() + 17);
      out.latency_us = get_u64(payload.data() + 21);
      out.stages.ingress_us = get_u32(payload.data() + 29);
      out.stages.disperse_us = get_u32(payload.data() + 33);
      out.stages.ba_us = get_u32(payload.data() + 37);
      out.stages.retrieve_us = get_u32(payload.data() + 41);
      out.stages.notify_us = get_u32(payload.data() + 45);
      return true;
    case WireKind::Goodbye:
      if (payload.size() != 1) return false;
      out = WireFrame{};
      out.kind = WireKind::Goodbye;
      return true;
    default:
      return false;
  }
}

namespace {
// One socket read's worth of spare space when no frame header hints at the
// size needed.
constexpr std::size_t kReadChunk = 64u << 10;
}  // namespace

bool FrameReader::ensure_spare(std::size_t want) {
  if (failed_) return false;
  const std::size_t live = size_ - pos_;
  // Compact first: reclaiming the consumed prefix is cheaper than growing,
  // and new bytes only arrive through here — views handed out by next_view
  // were all processed before the caller read more.
  if (pos_ > 0 && buf_.capacity() - size_ < want) {
    if (live > 0) std::memmove(buf_.data(), buf_.data() + pos_, live);
    pos_ = 0;
    size_ = live;
  }
  if (buf_.capacity() - size_ >= want) return true;
  PooledBuf bigger(size_ + want);
  if (size_ > 0) std::memcpy(bigger.data(), buf_.data(), size_);
  buf_ = std::move(bigger);
  return true;
}

void FrameReader::check_header() {
  if (!failed_ && buffered_bytes() >= kFrameHeaderBytes) {
    if (get_u32(buf_.data() + pos_) > max_frame_) failed_ = true;
  }
}

bool FrameReader::feed(ByteView in) {
  if (failed_) return false;
  if (!in.empty()) {
    ensure_spare(in.size());
    std::memcpy(buf_.data() + size_, in.data(), in.size());
    size_ += in.size();
  }
  // Check the declared length as soon as the header is visible — never
  // buffer a body the limit forbids... beyond what this feed delivered.
  check_header();
  return !failed_;
}

ssize_t FrameReader::fill_from(int fd) {
  if (failed_) {
    errno = EPROTO;
    return -1;
  }
  // Size the spare space so the frame in progress completes in one read
  // when its header is already visible; otherwise take a standard chunk.
  std::size_t want = kReadChunk;
  if (buffered_bytes() >= kFrameHeaderBytes) {
    const std::uint32_t len = get_u32(buf_.data() + pos_);
    if (len > max_frame_) {
      failed_ = true;
      errno = EPROTO;
      return -1;
    }
    const std::size_t need = kFrameHeaderBytes + len;
    if (need > buffered_bytes() && need - buffered_bytes() > want) {
      want = need - buffered_bytes();
    }
  }
  // Never hold more than one largest frame and its header: a reader with a
  // small limit (a connection before its handshake) stays within it.
  const std::size_t limit = max_frame_ + kFrameHeaderBytes;
  const bool capped = buffered_bytes() < limit;
  if (capped) want = std::min(want, limit - buffered_bytes());
  ensure_spare(want);
  std::size_t room = buf_.capacity() - size_;
  if (capped) room = std::min(room, limit - buffered_bytes());
  const ssize_t n = ::read(fd, buf_.data() + size_, room);
  if (n > 0) {
    size_ += static_cast<std::size_t>(n);
    check_header();
  }
  return n;
}

bool FrameReader::next_view(ByteView& out) {
  if (failed_) return false;
  const std::size_t avail = buffered_bytes();
  if (avail < kFrameHeaderBytes) return false;
  const std::uint32_t len = get_u32(buf_.data() + pos_);
  if (len > max_frame_) {
    failed_ = true;
    return false;
  }
  if (avail < kFrameHeaderBytes + len) return false;
  out = ByteView(buf_.data() + pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  if (pos_ == size_) {
    // Fully drained: make the whole buffer writable again without a
    // compaction memmove later. The view just handed out stays valid —
    // nothing is written until the next feed/fill_from.
    pos_ = size_ = 0;
  }
  return true;
}

bool FrameReader::next(Bytes& out) {
  ByteView v;
  if (!next_view(v)) return false;
  out.assign(v.data(), v.data() + v.size());
  return true;
}

void FrameReader::reset() {
  buf_.release();
  size_ = 0;
  pos_ = 0;
  failed_ = false;
}

}  // namespace dl::net
