// Length-prefixed framing + wire-message codec for the TCP transport.
//
// Stream layout: each frame is a u32 little-endian payload length followed
// by that many payload bytes. The payload's first byte is the wire kind:
//
//   Hello — the replica-to-replica handshake. Sent once by the dialing side
//           so the acceptor learns which replica is calling: magic, protocol
//           version, node id.
//   Data  — one protocol Envelope (encoded by common/envelope.hpp).
//
// The client ingress plane (src/client/, served on a separate per-node
// client_port) speaks five more kinds over the same framing:
//
//   ClientHello — client handshake: magic, version, and a client-chosen
//                 session nonce. The nonce survives reconnects, so commit
//                 notifications for in-flight transactions reach the new
//                 connection.
//   SubmitTx    — client → node: client-assigned sequence number plus the
//                 raw transaction payload (the rest of the frame).
//   TxAck       — node → client: admission verdict for one SubmitTx
//                 (see TxStatus).
//   TxCommitted — node → client: the transaction was delivered in a
//                 committed block — epoch, proposer, the node-measured
//                 submit→commit latency in microseconds, and the per-stage
//                 breakdown of that latency (StageLatencies, v2).
//   Goodbye     — node → client: orderly shutdown; nothing further will be
//                 acked or committed on this connection.
//
// Every byte here arrives from the network and is attacker-controlled, so
// decoding is total: oversized lengths, truncations, and garbage kinds are
// rejected with an error (the connection is then dropped), never UB. The
// FrameReader is a streaming decoder: feed it whatever read() returned and
// pop complete frames; a declared length above the limit poisons the reader
// immediately — before buffering the body — so a hostile peer cannot make
// us allocate unbounded memory.
#pragma once

#include <sys/types.h>

#include <cstdint>

#include "common/bytes.hpp"
#include "common/envelope.hpp"
#include "net/buffer_pool.hpp"

namespace dl::net {

// Hard ceiling on one frame's payload. Blocks are capped at a few MB
// (NodeConfig::max_block_bytes), so this is generous headroom.
inline constexpr std::size_t kMaxFrameBytes = 16u * 1024 * 1024;
inline constexpr std::size_t kFrameHeaderBytes = 4;

enum class WireKind : std::uint8_t {
  Hello = 1,
  Data = 2,
  ClientHello = 3,
  SubmitTx = 4,
  TxAck = 5,
  TxCommitted = 6,
  Goodbye = 7,
};

inline constexpr std::uint32_t kWireMagic = 0x444C4E31;  // "DLN1"
// v2: TxCommitted grew the five StageLatencies fields. Handshakes check the
// version exactly, so v1 clients are rejected at connect time rather than
// misparsing the longer commit frame.
inline constexpr std::uint32_t kWireVersion = 2;

// Admission verdict carried by TxAck. Values are wire format — renumbering
// is a protocol break.
enum class TxStatus : std::uint8_t {
  Accepted = 0,   // queued in the mempool; a TxCommitted will follow
  Duplicate = 1,  // hash already pending/in-flight (original still commits)
  Full = 2,       // mempool at capacity; resubmit later
  TooLarge = 3,   // payload above the per-transaction cap
  Committed = 4,  // already committed earlier; TxCommitted replayed behind
};
inline constexpr std::uint8_t kMaxTxStatus = 4;

// Where one transaction's submit→commit latency was spent, in microseconds
// on the node's clock (saturated at ~71 minutes per stage — far beyond any
// real pipeline stage). Stages not measured for this transaction (e.g. the
// block was proposed by another replica) are zero; consumers treat the five
// fields as best-effort diagnostics, not an exact partition of latency_us.
struct StageLatencies {
  std::uint32_t ingress_us = 0;   // mempool admit → packed into a proposal
  std::uint32_t disperse_us = 0;  // proposed → own VID instance complete
  std::uint32_t ba_us = 0;        // VID complete → all BAs of the epoch done
  std::uint32_t retrieve_us = 0;  // BA done → block delivered
  std::uint32_t notify_us = 0;    // delivered → commit frame queued to client
};

// Appends one frame (header + payload) to `out`. Returns false (appending
// nothing) if `payload` exceeds `max_frame`.
bool append_frame(Bytes& out, ByteView payload,
                  std::size_t max_frame = kMaxFrameBytes);

// A complete Hello payload: kind, magic, version, node id.
Bytes encode_hello(std::uint32_t node_id);

// --- client-plane frames (each returns a complete frame, ready to write) ---
Bytes encode_client_hello(std::uint64_t client_nonce);
// SubmitTx: the payload occupies the rest of the frame, no length prefix.
inline constexpr std::size_t kSubmitTxOverhead = kFrameHeaderBytes + 1 + 8;
Bytes encode_submit_tx(std::uint64_t client_seq, ByteView payload);
Bytes encode_tx_ack(std::uint64_t client_seq, TxStatus status);
Bytes encode_tx_committed(std::uint64_t client_seq, std::uint64_t epoch,
                          std::uint32_t proposer, std::uint64_t latency_us,
                          const StageLatencies& stages = {});
Bytes encode_goodbye();

// A complete Data frame (header + kind + envelope bytes), ready to write to
// a socket. The envelope bytes start at offset kDataPayloadOffset — local
// loopback delivery reuses the same buffer.
inline constexpr std::size_t kDataPayloadOffset = kFrameHeaderBytes + 1;
Bytes encode_data_frame(ByteView envelope_bytes);

// Scatter-gather seam: everything in a Data frame that precedes the envelope
// BODY bytes — frame length, wire kind, and the fixed envelope header — fits
// in this many bytes. The transport writes this prefix into a small slab and
// gathers the body from the protocol layer's own buffer (one sendmsg, zero
// body copies). Byte-identical on the wire to encode_data_frame(env.encode()).
inline constexpr std::size_t kDataFrameHeaderBytes =
    kDataPayloadOffset + Envelope::kHeaderBytes;
// Writes exactly kDataFrameHeaderBytes to `out` and returns that count.
std::size_t encode_data_frame_header(const Envelope& env, std::uint8_t* out);

// --- in-place client-frame encoders (gateway hot path) ----------------------
// Same bytes as the encode_* functions above, but written straight into a
// pooled ByteRope tail — no per-frame Bytes allocation.
inline constexpr std::size_t kTxAckFrameBytes = kFrameHeaderBytes + 1 + 8 + 1;
inline constexpr std::size_t kTxCommittedFrameBytes =
    kFrameHeaderBytes + 1 + 8 + 8 + 4 + 8 + 5 * 4;
inline constexpr std::size_t kGoodbyeFrameBytes = kFrameHeaderBytes + 1;
void encode_tx_ack_into(ByteRope& out, std::uint64_t client_seq,
                        TxStatus status);
void encode_tx_committed_into(ByteRope& out, std::uint64_t client_seq,
                              std::uint64_t epoch, std::uint32_t proposer,
                              std::uint64_t latency_us,
                              const StageLatencies& stages = {});
void encode_goodbye_into(ByteRope& out);

// One decoded frame payload. `data` points into the caller's buffer.
struct WireFrame {
  WireKind kind{};
  std::uint32_t hello_node = 0;    // valid when kind == Hello
  ByteView data;                   // Data: envelope bytes; SubmitTx: payload
  std::uint64_t client_nonce = 0;  // valid when kind == ClientHello
  std::uint64_t client_seq = 0;    // SubmitTx / TxAck / TxCommitted
  TxStatus status{};               // valid when kind == TxAck
  std::uint64_t epoch = 0;         // valid when kind == TxCommitted
  std::uint32_t proposer = 0;      // valid when kind == TxCommitted
  std::uint64_t latency_us = 0;    // valid when kind == TxCommitted
  StageLatencies stages;           // valid when kind == TxCommitted
};

// Decodes one frame payload. False on empty input, unknown kind, a
// malformed Hello/ClientHello (bad magic/version/length), a wrong fixed
// length, or an out-of-range TxAck status.
bool decode_wire(ByteView payload, WireFrame& out);

// Streaming deframer with strict bounds checks, backed by one pooled buffer.
//
// Zero-copy read path: fill_from() reads socket bytes directly into the
// pooled buffer (no intermediate stack buffer), next_view() hands out frame
// payloads as views into it. A view stays valid until the next
// feed/fill_from/reset call — the buffer is only compacted or regrown when
// new bytes arrive, never while popping. Move-only (it owns a PooledBuf).
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  // Buffers `in` (copying). Returns false and poisons the reader if a frame
  // declares a length above the limit (callers must drop the connection).
  bool feed(ByteView in);

  // Reads once from `fd` straight into the buffer tail, growing it so the
  // frame in progress fits; never buffers more than max_frame plus one
  // header, so a small limit also bounds the buffer. Returns read(2)'s
  // result: >0 bytes buffered, 0 on EOF, -1 with errno set (including
  // EPROTO if the reader is or becomes poisoned). Callers must still check
  // failed() after draining.
  ssize_t fill_from(int fd);

  // Points `out` at the next complete frame payload (valid until the next
  // feed/fill_from/reset). False if no full frame is buffered or poisoned.
  bool next_view(ByteView& out);

  // Copies the next complete frame payload into `out`. False as above.
  bool next(Bytes& out);

  bool failed() const { return failed_; }
  std::size_t buffered_bytes() const { return size_ - pos_; }
  // Changes the frame limit for the frames not yet popped (a connection
  // that passed its handshake may send larger frames than before it).
  void set_max_frame(std::size_t max_frame) { max_frame_ = max_frame; }

  // Forgets everything and returns the buffer to the pool (fresh connection
  // reusing the reader).
  void reset();

 private:
  // Grows/compacts so at least `want` writable bytes follow the buffered
  // data. False only if the reader is poisoned.
  bool ensure_spare(std::size_t want);
  // Poisons the reader as soon as a visible header declares an oversized
  // frame — before its body is ever buffered.
  void check_header();

  std::size_t max_frame_;
  PooledBuf buf_;
  std::size_t size_ = 0;  // valid bytes in buf_
  std::size_t pos_ = 0;   // consumed prefix of buf_
  bool failed_ = false;
};

}  // namespace dl::net
